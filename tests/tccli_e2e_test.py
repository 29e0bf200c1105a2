#!/usr/bin/env python3
"""End-to-end test of the tcserver and tccli binaries over loopback TCP.

Starts `tcserver --port 0` on a log store in a temporary directory, with one
in-process replica per shard, an event-log file and every trace sampled;
reads the port from its "listening on" line, and drives tccli's owner,
consumer and operator commands against it: create --integrity, insert, info,
stats (range and series), range, attest, verify, keygen, grant, consume,
revoke, cluster-info, replica-info, metrics, traces, trace and events. Every
printed sum, count and point is checked against the inserted data, and each
operator command against one fact it must report. A --port or --peers value
that is not a port is a usage error, never a dial of some other port. The
server is stopped with SIGTERM and must exit cleanly; it is killed if the
test fails first.

Usage: tccli_e2e_test.py PATH/TO/tcserver PATH/TO/tccli
"""

import json
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
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
    """Returns the server process, its port and a list that collects the
    rest of its output."""
    server = subprocess.Popen(
        [tcserver, "--port", "0", "--store", "log", "--path",
         str(workdir / "server.log"), "--replicas", "1", "--event-log",
         str(workdir / "events.jsonl"), "--trace-sample", "100"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    for line in server.stdout:
        match = re.search(r"listening on [\d.]+:(\d+)", line)
        if match:
            # Keep draining the server's output so a full pipe never
            # blocks it.
            output = []

            def drain():
                output.append(server.stdout.read())
            threading.Thread(target=drain, daemon=True).start()
            return server, int(match.group(1)), output
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


def poll(fetch, done, timeout_s=10):
    """Calls fetch() until done(result) holds or timeout_s passes; returns
    the last result."""
    deadline = time.monotonic() + timeout_s
    while True:
        result = fetch()
        if done(result) or time.monotonic() > deadline:
            return result
        time.sleep(0.05)


def check_operator_commands(cli, state_dir, uuid, workdir):
    """One fact from each operator command, on a server with one replica."""
    out = cli.run(state_dir, "info", "--uuid", uuid)
    check(re.search(r"^chunks +%d$" % CHUNKS, out, re.M) and
          re.search(r"^cipher +TimeCrypt$", out, re.M) and
          re.search(r"^integrity +yes$", out, re.M), "info: " + out)

    out = cli.run(state_dir, "cluster-info")
    # shard, streams, index bytes, replicas, ack.
    check(re.search(r"^ +0 +1 +\d+ +1  async ", out, re.M),
          "cluster-info: " + out)

    # Replica acks are asynchronous: the follower may still be applying
    # the tail of the ingest.
    caught_up = "1 of 1 shard(s) replicated, worst lag 0 op(s)"
    out = poll(lambda: cli.run(state_dir, "replica-info"),
               lambda out: caught_up in out)
    check(caught_up in out, "replica-info: " + out)

    # The replica was seeded by a snapshot stream when it registered.
    out = cli.run(state_dir, "metrics")
    match = re.search(r"^tc_replica_snapshots_total +(\d+)$", out, re.M)
    check(match and int(match.group(1)) >= 1, "metrics: " + out)

    out = cli.run(state_dir, "traces")
    ids = re.findall(r"^([0-9a-f]{16}) +\d+ ", out, re.M)
    check(ids, "traces: " + out)
    out = cli.run(state_dir, "trace", ids[0])
    check(out.startswith("trace %s: " % ids[0]), "trace: " + out)
    # The replica applies shipments under the trace of the ingest that
    # produced them.
    check(any("replica_apply" in cli.run(state_dir, "trace", trace_id)
              for trace_id in ids),
          "no trace holds a replica_apply span")

    out = cli.run(state_dir, "events")
    check(re.search(r" snapshot_stream_begin ", out), "events: " + out)
    with open(workdir / "events.jsonl") as log:
        kinds = {json.loads(line)["kind"] for line in log}
    check({"snapshot_stream_begin", "snapshot_stream_end"} <= kinds,
          "event log kinds: %s" % sorted(kinds))


def check_bad_ports(tccli, port, state_dir):
    """Bad --port and --peers values exit non-zero with a usage error that
    names the flag. 70000 would wrap to port 4464, and '4433junk' would dial
    the live server."""
    cases = [
        (["--port", "70000", "info", "--uuid", "1"], "--port"),
        (["--port", "%djunk" % port, "info", "--uuid", "1"], "--port"),
        (["--port", str(port), "trace", "1", "--peers",
          "127.0.0.1:%djunk" % port], "--peers"),
        (["--port", str(port), "traces", "--peers", "127.0.0.1:70000"],
         "--peers"),
    ]
    for args, flag in cases:
        result = subprocess.run(
            [tccli, "--state-dir", str(state_dir), *args],
            capture_output=True, text=True, timeout=TIMEOUT_S)
        check(result.returncode != 0 and flag in result.stderr and
              "expected" in result.stderr,
              "%s: exit %d, stderr %r" % (" ".join(args), result.returncode,
                                          result.stderr))


def run(tcserver, tccli):
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        owner_dir = workdir / "owner"
        consumer_dir = workdir / "consumer"
        server, port, server_output = start_server(tcserver, workdir)
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

            out = cli.run(owner_dir, "revoke", "--uuid", uuid, "--principal",
                          "doc", "--end", "3000")
            check(out.strip() == "revoked doc on stream %s" % uuid,
                  "revoke: " + out)

            check_operator_commands(cli, owner_dir, uuid, workdir)
            check_bad_ports(tccli, port, owner_dir)

            # A clean shutdown: SIGTERM runs the server's signal handler
            # and graceful stop, and the process exits 0.
            server.send_signal(signal.SIGTERM)
            code = server.wait(timeout=TIMEOUT_S)
            check(code == 0, "tcserver exited %d on SIGTERM" % code)
            deadline = time.monotonic() + TIMEOUT_S
            while not server_output and time.monotonic() < deadline:
                time.sleep(0.01)
            check(server_output and "shutting down" in server_output[0],
                  "tcserver output: %s" % server_output)
        finally:
            if server.poll() is None:
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
