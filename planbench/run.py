"""Planner benchmark: ``python3 planbench/run.py --workload <name>``.

Workloads (see ``SPEC.json`` for why each was chosen; ``--workload all``
runs the three one after another):

- ``cold-plan``          a fresh ``repro plan`` per family, closed loop;
- ``service-mix``        Poisson plan requests to one planning service;
- ``population-search``  one cold Post (CEM) search per Fig. 9 family.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones (a traced run does one fixed pass of the workload three
times: untraced, traced, untraced, and reports the traced pass's extra
time as tracing overhead).
The last line of standard output is the JSON result; the lines before
it describe the run.  Run it from the repository root; it reads the
planner from ``src/`` and writes only under ``planbench/out/``.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

# one BLAS thread: the closed loops are single-caller, and service-mix's
# generator plus its one worker already fill the two cores
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
SETUP_PROBES = 4
PROBE_TIMEOUT = 60

#: end-to-end metrics and their units, in output order
END_TO_END = [("latency_ms", "ms"), ("quality_ms", "ms"), ("setup_s", "s"),
              ("peak_rss_mb", "MB")]


WORKLOADS = ["cold-plan", "service-mix", "population-search"]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"],
                        help="one workload, or all three one after another")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (0 also checks the recorded "
                        "bit-identical results)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measured window of one run")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up seconds, exit "
                        "(used by the run's own set-up probes)")
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas_threads": BLAS_THREADS}


def setup(args):
    """Imports, input generation and (service-mix) service start."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads
    os.makedirs(OUT_DIR, exist_ok=True)
    return workloads.WORKLOADS[args.workload](args.seed, args.seconds,
                                              OUT_DIR)


def probe_setup(args) -> list:
    """Set-up seconds of ``SETUP_PROBES`` fresh processes."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--setup-only"]
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT, cwd=ROOT, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def traced_run(workload, args):
    import layers
    from harness import Tracer
    tracer = Tracer()
    # untraced passes on both sides of the traced one, so a drift in
    # machine speed or a first-pass warm-up does not read as overhead
    before, _ = workload.cycle(None)
    layers.instrument(tracer)
    tracer.enabled = True
    try:
        traced, extras = workload.cycle(tracer)
    finally:
        tracer.enabled = False
        tracer.restore()
    after, _ = workload.cycle(None)
    overhead = traced / ((before + after) / 2) - 1.0
    metrics = layers.per_layer(tracer, overhead=overhead, **extras)
    path = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl")
    with open(path, "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span.__dict__) + "\n")
    print(f"spans: {len(tracer.spans)} written to "
          f"{os.path.relpath(path, ROOT)}")
    report = workload.report
    units = dict(layers.PER_LAYER)
    return report, {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    code = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        code |= subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT).returncode
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    workload = setup(args)
    setup_s = time.perf_counter() - START
    if args.setup_only:
        workload.close()
        print(setup_s)
        return 0
    print("environment:", json.dumps(environment()))
    try:
        if args.trace:
            report, metrics = traced_run(workload, args)
        else:
            report = workload.measure()
            probes = probe_setup(args)
            values = dict(report.metrics)
            values["setup_s"] = statistics.median([setup_s] + probes)
            values["peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END if name in values}
            print("setup seconds (this run, then probes):",
                  json.dumps([setup_s] + probes))
    finally:
        workload.close()
    print("workload:", json.dumps(report.info, default=str, sort_keys=True))
    for error in report.errors:
        print("failure:", error)
    attempted = max(report.attempted, 1)
    fail_frac = report.failed / attempted
    print(f"fail_frac: {fail_frac} ({report.failed} of {attempted})")
    complete = True
    for metric in metrics.values():
        if not math.isfinite(metric["value"]):
            metric["value"] = None   # JSON has no NaN; the run is wrong
            complete = False
    if not args.trace:
        complete = complete and len(metrics) == len(END_TO_END)
    result = {"correct": report.failed == 0 and complete,
              "attempted": attempted, "failed": report.failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
