#!/usr/bin/env python3
"""Runs tc_lint's per-file rules on one fixture from tools/lint/fixtures/.

The fixture's first line names the repo path it is checked as ("checked as
src/crypto/x.hpp"), since most rules apply to some directories only. Prints
each violation and exits 1 if there is any, 0 if the fixture is clean. The
negative fixtures' CTest entries pass only on their rule's message.

Usage: lint_fixture.py FIXTURE
"""

import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import tc_lint  # noqa: E402


def main():
    fixture = Path(sys.argv[1])
    text = fixture.read_text(encoding="utf-8")
    match = re.search(r"checked as (\S+)", text.splitlines()[0])
    if not match:
        print(f"{fixture}: first line must say 'checked as <repo path>'")
        return 2
    violations = tc_lint.lint_file(match.group(1).rstrip("."), text)
    for line, message in violations:
        print(f"{fixture.name}:{line}: {message}")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
