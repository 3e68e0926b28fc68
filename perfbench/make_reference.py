"""Regenerate reference.json: the output digest of every op at the default seed.

Run it only when a change to laco's outputs is intended, and say so:

    python3 perfbench/make_reference.py
"""

import json
import shutil
import tempfile
from pathlib import Path

import layouts
from run import WORK_ROOT, WORKLOADS, load_program


def main():
    _, workloads = load_program()
    WORK_ROOT.mkdir(exist_ok=True)
    digests = {}
    for workload in WORKLOADS:
        work = Path(tempfile.mkdtemp(prefix=f"reference-{workload}-", dir=WORK_ROOT))
        try:
            ops = workloads.build(workload, layouts.DEFAULT_SEED, work)
            digests[workload] = {op.key: op.check(op.run()).digest for op in ops}
        finally:
            shutil.rmtree(work)
    text = json.dumps({"seed": layouts.DEFAULT_SEED, "digests": digests}, indent=1, sort_keys=True)
    workloads.REFERENCE_PATH.write_text(text + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
