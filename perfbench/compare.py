"""Compare two result files written by ``run.py --out``, metric by metric.

    python3 perfbench/compare.py before.json after.json

For every workload it prints each end-to-end metric of both files, the change
in the metric's worse direction as a share of the first file, and the bound
from BENCHMARK.json; then the per-layer self times of the traced runs.  It
exits 1 when an end-to-end metric got worse by more than its bound.  One pair
of runs shows a direction, not a gain: see README.md for the ten-pair rule.
"""

import json
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _value(result, workload, kind, name):
    return result["workloads"][workload][kind]["metrics"][name]["value"]


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    before, after = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv[1:])
    declared = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    code = 0
    for workload in before["workloads"]:
        print(f"== {workload}")
        for m in declared["end_to_end"]:
            a = _value(before, workload, "e2e", m["name"])
            b = _value(after, workload, "e2e", m["name"])
            worse = ((b - a) if m["better"] == "lower" else (a - b)) / a
            verdict = "WORSE" if worse > m["bound"] else "ok"
            code |= verdict == "WORSE"
            print(f"  {m['name']:22s} {a:14.6g} {b:14.6g} {m['unit']:6s} "
                  f"worse by {100 * worse:+7.1f}% (bound {100 * m['bound']:.0f}%) {verdict}")
        for m in declared["per_layer"]:
            if not m["name"].endswith(".self_ms"):
                continue
            a = _value(before, workload, "trace", m["name"])
            b = _value(after, workload, "trace", m["name"])
            if a or b:
                print(f"  {m['name']:45s} {a:10.2f} {b:10.2f} ms/pass")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
