"""Rewrite pinned.json: each workload's instance list and its verdicts.

    python3 perfbench/pin.py [WORKLOAD ...]

Run from the repository root.  Only needed when a workload is added or
changed on purpose; every benchmark run compares against this file.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def pin(name):
    insts = workloads.generate(name)
    verdicts = [workloads.verdict(inst, workloads.solve(inst)) for inst in insts]
    if None in verdicts:
        raise SystemExit(f"{name}: instance {verdicts.index(None)} has a wrong answer")
    return {
        "list_seed": workloads.LIST_SEED,
        "digest": workloads.list_digest(insts),
        "verdicts": verdicts,
    }


def main(names):
    path = HERE / "pinned.json"
    pinned = json.loads(path.read_text()) if path.exists() else {}
    for name in names or list(workloads.WORKLOADS):
        pinned[name] = pin(name)
        print(name, pinned[name]["digest"], file=sys.stderr)
    path.write_text(json.dumps(pinned, indent=1) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
