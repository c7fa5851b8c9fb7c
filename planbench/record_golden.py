"""Re-record ``golden.json``: the seed-0 plans and searches that
``run.py`` checks bit-for-bit.

Run from the repository root, only when a change is meant to alter
results::

    python3 planbench/record_golden.py

It runs the first ``CYCLES`` cycles of ``cold-plan`` and
``population-search`` for seed 0 (more than a default run reaches)
with the recorded values unchecked, and writes what they returned.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CYCLES = 4

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402


def record(cls, families, key):
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    workload = cls(0, 0.0, out_dir)
    workload.golden = {}
    try:
        for cycle in range(CYCLES):
            for family in families:
                workload.run_op(family, cycle)
    finally:
        workload.close()
    if workload.report.failed:
        raise SystemExit(f"{cls.name}: {workload.report.errors}")
    return workload.report.info[key]


def main() -> None:
    golden = {
        "cold-plan": record(workloads.ColdPlan, workloads.FAMILIES,
                            "plans"),
        "population-search": record(workloads.PopulationSearch,
                                    list(workloads.FIG9_BATCH),
                                    "searches"),
    }
    with open(workloads.GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {sum(map(len, golden.values()))} results")


if __name__ == "__main__":
    main()
