"""Compare two results that perfbench/run.py wrote to .perfbench/results/.

    python3 perfbench/compare.py BASE.json NEW.json

Prints each metric of both runs and NEW/BASE. Results of different
workloads, or measured with different counting engines, are not
comparable: the command says so and exits with code 1, so that a
thresholds-py baseline is never set against a thresholds-c run.
"""

from __future__ import annotations

import json
import sys


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    base, new = (json.load(open(path, encoding="utf-8")) for path in argv)
    for key, a, b in (("workload", base["workload"], new["workload"]),
                      ("engine", base["env"]["engine"], new["env"]["engine"])):
        if a != b:
            print(f"NOT COMPARABLE: {key} {a} vs {b}")
            return 1
    print(f"{base['workload']}: {base['env']['commit'][:12]} -> {new['env']['commit'][:12]}"
          f" ({base['env']['engine']})")
    for name, a in base["metrics"].items():
        b = new["metrics"].get(name)
        if b is None:
            continue
        ratio = f"{b / a:8.3f}" if a else "       -"
        print(f"  {name:40s} {a:14.6g} {b:14.6g} {ratio}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
