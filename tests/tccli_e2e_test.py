#!/usr/bin/env python3
"""End-to-end test of the tcserver and tccli binaries over loopback TCP.

Starts `tcserver --port 0` on a log store in a temporary directory, reads
the port from its "listening on" line, and drives tccli's owner and
consumer commands against it: create --integrity, insert, stats (range and
series), range, attest, verify, keygen, grant and consume. Every printed
sum, count and point is checked against the inserted data. The server is
killed however the test ends.

Usage: tccli_e2e_test.py PATH/TO/tcserver PATH/TO/tccli
"""

import re
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

DELTA_MS = 1000
POINTS_PER_CHUNK = 4
CHUNKS = 10
# Point i sits at i * 250 ms with value i + 1: chunk c holds values
# 4c+1 .. 4c+4.
POINTS = [(i * DELTA_MS // POINTS_PER_CHUNK, i + 1)
          for i in range(CHUNKS * POINTS_PER_CHUNK)]
TIMEOUT_S = 30


def expected(start_chunk, end_chunk):
    values = [v for t, v in POINTS
              if start_chunk * DELTA_MS <= t < end_chunk * DELTA_MS]
    return sum(values), len(values)


def start_server(tcserver, workdir):
    server = subprocess.Popen(
        [tcserver, "--port", "0", "--store", "log", "--path",
         str(workdir / "server.log")],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    for line in server.stdout:
        match = re.search(r"listening on [\d.]+:(\d+)", line)
        if match:
            # Keep draining the server's output so a full pipe never
            # blocks it.
            threading.Thread(target=server.stdout.read, daemon=True).start()
            return server, int(match.group(1))
    server.kill()
    server.wait()
    raise RuntimeError("tcserver exited before listening (code %s)" %
                       server.returncode)


class Cli:
    def __init__(self, tccli, port):
        self.tccli = tccli
        self.port = port

    def run(self, state_dir, *args, stdin=None):
        cmd = [self.tccli, "--port", str(self.port), "--state-dir",
               str(state_dir), *args]
        result = subprocess.run(cmd, input=stdin, capture_output=True,
                                text=True, timeout=TIMEOUT_S)
        if result.returncode != 0:
            raise AssertionError("%s failed (%d):\n%s%s" % (
                " ".join(args[:1]), result.returncode, result.stdout,
                result.stderr))
        return result.stdout


def stat_blocks(output):
    """(first, last, sum, count) per 'chunks [a, b)' block of PrintStats."""
    blocks = re.findall(
        r"chunks \[(\d+), (\d+)\)\n  sum +(-?\d+)\n  count +(\d+)", output)
    return [tuple(int(x) for x in block) for block in blocks]


def check(condition, message):
    if not condition:
        raise AssertionError(message)


def run(tcserver, tccli):
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        owner_dir = workdir / "owner"
        consumer_dir = workdir / "consumer"
        server, port = start_server(tcserver, workdir)
        try:
            cli = Cli(tccli, port)
            out = cli.run(owner_dir, "create", "--name", "e2e/vitals",
                          "--delta-ms", str(DELTA_MS), "--integrity")
            uuid = re.search(r"created stream (\d+)", out).group(1)

            csv = "".join("%d,%d\n" % p for p in POINTS)
            out = cli.run(owner_dir, "insert", "--uuid", uuid, stdin=csv)
            check("inserted %d point(s)" % len(POINTS) in out, out)

            end_ms = str(CHUNKS * DELTA_MS)
            out = cli.run(owner_dir, "stats", "--uuid", uuid, "--start", "0",
                          "--end", end_ms)
            check(stat_blocks(out) == [(0, CHUNKS, *expected(0, CHUNKS))],
                  "stats: " + out)

            out = cli.run(owner_dir, "stats", "--uuid", uuid, "--start", "0",
                          "--end", end_ms, "--granularity", "4")
            windows = [(0, 4), (4, 8), (8, 10)]
            check(stat_blocks(out) ==
                  [(a, b, *expected(a, b)) for a, b in windows],
                  "stats --granularity: " + out)

            out = cli.run(owner_dir, "range", "--uuid", uuid, "--start",
                          "2000", "--end", "3000")
            want = ["%d,%d" % p for p in POINTS if 2000 <= p[0] < 3000]
            check(out.split() == want, "range: " + out)

            out = cli.run(owner_dir, "attest", "--uuid", uuid)
            check("at %d chunks" % CHUNKS in out, "attest: " + out)

            out = cli.run(owner_dir, "verify", "--uuid", uuid, "--start",
                          "3000", "--end", "7000")
            check(out.startswith("verified against the signed attestation")
                  and stat_blocks(out) == [(3, 7, *expected(3, 7))],
                  "verify: " + out)

            out = cli.run(consumer_dir, "keygen")
            public_key = re.search(r"public key: ([0-9a-f]+)", out).group(1)
            cli.run(owner_dir, "grant", "--uuid", uuid, "--principal", "doc",
                    "--pub", public_key, "--start", "0", "--end", "5000")

            out = cli.run(consumer_dir, "consume", "--uuid", uuid,
                          "--principal", "doc", "--start", "1000", "--end",
                          "5000")
            check("1 grant(s) held" in out and
                  stat_blocks(out) == [(1, 5, *expected(1, 5))],
                  "consume: " + out)
        finally:
            server.kill()
            server.wait()


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    try:
        run(sys.argv[1], sys.argv[2])
    except (AssertionError, RuntimeError, subprocess.TimeoutExpired) as e:
        print("FAIL:", e, file=sys.stderr)
        return 1
    print("tcserver + tccli end to end: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
