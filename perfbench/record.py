#!/usr/bin/env python3
"""Regenerate perfbench/reference.json from the current sources.

    python3 perfbench/record.py

The reference holds the sha256 of every file ``burnside build`` writes and
the set of check names ``burnside verify`` prints, for every benchmark and
self-test config.  Outputs are meant to stay byte-identical, so rerun this
only for a change that alters them on purpose, and say so in its notes.
"""

from __future__ import annotations

import json
import sys

from run import WORK, Clock, fresh_dir, run_child
from workloads import REFERENCE_PATH, TOY_WORKLOADS, WORKLOADS, Export, Verify, check_names, file_digests


def main() -> int:
    reference = {}
    for w in [*WORKLOADS.values(), *TOY_WORKLOADS.values()]:
        for cmd in w.commands:
            if not isinstance(cmd, (Verify, Export)) or cmd.key in reference:
                continue
            d = fresh_dir(WORK / "record")
            code, _, _ = run_child(["-m", "burnside", *cmd.argv(d, 0)], d / "stdout.txt", Clock())
            stdout = (d / "stdout.txt").read_text()
            if code != 0 or any(line.startswith("FAIL") for line in stdout.splitlines()):
                print(f"{cmd.key}: exit code {code}\n{stdout}", file=sys.stderr)
                return 1
            if isinstance(cmd, Verify):
                reference[cmd.key] = sorted(check_names(stdout))
            else:
                reference[cmd.key] = file_digests(d / "matrices")
            print(f"recorded {cmd.key}")
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
