"""perflab entry point.

    python3 perflab/run.py --workload exec_b1 --seed 7 --seconds 22 --trace 0
    python3 perflab/run.py                      all four workloads, one after the other
    python3 perflab/run.py --trace              per-layer metrics + Chrome traces
    python3 perflab/run.py --selfcheck          two sets, agree/disagree per metric
    python3 perflab/run.py --list               workloads and metrics (imports no repro)

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit status is 0
only if every operation succeeded and every output matched its reference.

One workload is measured per process: with no ``--workload`` this process
only starts one child per workload and prints what they report.  A set-up /
teardown cycle leaves a process measurably different (see README), so
workloads do not share one.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # as close to process start as Python code gets

import argparse
import importlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perflab_out")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 170
#: setup_s is reported in seconds of a machine whose calibration step takes
#: this long: raw seconds move by 40-50 % when the host changes speed, which
#: would trip the set-up gate with no change to the code
REFERENCE_CU_S = 0.0005
SELFCHECK_RUNS = 3


def _bootstrap() -> str:
    """Make ``repro`` importable, pin BLAS to one thread (so task parallelism
    is measured, not BLAS oversubscription of 2 cores) and keep every
    temporary file the program writes inside the checkout."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.stderr.write(f"perflab: no program to measure: {src}/repro is missing\n")
        raise SystemExit(2)
    if src not in sys.path:
        sys.path.insert(0, src)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR)
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = tmp
    return tmp


#: workload -> (module, class); imported on demand so that a run pays, and
#: reports in setup_s, only its own imports
WORKLOAD_CLASSES = {
    "compile_zoo": ("perflab.compile_zoo", "CompileZoo"),
    "exec_b1": ("perflab.exec_b1", "ExecB1"),
    "serve_closed": ("perflab.serve_closed", "ServeClosed"),
    "gateway_image": ("perflab.gateway_image", "GatewayImage"),
}


def _commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()[:12]
        return ref[:12]
    except OSError:
        return "unknown"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload in this process; returns the result object."""
    from perflab import spec
    from perflab.calibrate import Calibrator
    from perflab.harness import SpanLog

    import numpy

    module, class_name = WORKLOAD_CLASSES[name]
    cls = getattr(importlib.import_module(module), class_name)
    imports_s = time.perf_counter() - _T0
    print(f"perflab nproc={os.cpu_count()} blas_threads={os.environ[THREAD_VARS[0]]} "
          f"numpy={numpy.__version__} python={sys.version.split()[0]} commit={_commit()}")

    cal = Calibrator()
    cal.measure(0.2)  # warm the calibration kernel itself
    imports_s *= REFERENCE_CU_S / cal.measure()
    spans = SpanLog()
    workload = cls(seed, cal, spans, trace)
    # Measure on the first set-up, in the state a user's process would be
    # in; the extra set-ups that steady setup_s come afterwards, because a
    # set-up/teardown cycle leaves the process measurably different (bert on
    # the thread pool: 47 ms before, 70-640 ms after two cycles).
    setups = []

    def timed_setup() -> None:
        cu_before = cal.measure()
        t0 = time.perf_counter()
        workload.setup()
        elapsed = time.perf_counter() - t0
        setups.append(elapsed * REFERENCE_CU_S / ((cu_before + cal.measure()) / 2.0))

    try:
        timed_setup()
        workload.reference()
        # A traced run spends part of its time on per-layer measurements.
        workload.measure(seconds * (0.6 if trace else 1.0))
        for _ in range(0 if trace else workload.setup_repeats - 1):
            workload.teardown()
            timed_setup()
    finally:
        workload.teardown()

    ledger = workload.ledger
    with open(os.path.join(OUT_DIR, f"rows_{name}.json"), "w", encoding="utf-8") as fh:
        json.dump({"seed": seed, "cu_ms": [c * 1e3 for c in cal.history],
                   "plain": workload.plain.dump(), "traced": workload.traced.dump()}, fh)
    if trace:
        values = {m.name: 0.0 for m in spec.PER_LAYER}
        values.update(workload.layers)
        values["perflab.cu_ms"] = cal.median_ms()
        declared = spec.PER_LAYER + spec.EVERY_WORKLOAD
        path = os.path.join(OUT_DIR, f"trace_{name}.json")
        events = spans.write(path, workload.tracers())
    else:
        values = dict(workload.e2e)
        values["setup_s"] = imports_s + statistics.median(setups)
        declared = spec.END_TO_END
    units = {m.name: m.unit for m in declared}
    missing = [n for n in units if n not in values]
    metrics = {n: {"value": float(values[n]), "unit": units[n]} for n in units if n in values}

    print(f"== {name}  seed={seed}  seconds={seconds:g}  trace={int(trace)}"
          f"  cu={cal.median_ms():.3f} ms")
    for line in workload.info:
        print("   " + line)
    bypassed = 0
    for metric_name, entry in metrics.items():
        if trace and metric_name not in workload.layers and metric_name != "perflab.cu_ms":
            bypassed += 1  # another workload's layer: 0 here, only in the JSON line
            continue
        print(f"   {metric_name:<40} {entry['value']:14.4f} {entry['unit']}")
    if bypassed:
        print(f"   ({bypassed} per-layer metrics of layers this workload bypasses are 0)")
    print(f"   set-ups {', '.join(f'{s:.2f}' for s in setups)} s  imports {imports_s:.2f} s"
          f" (at cu = {REFERENCE_CU_S * 1e3:g} ms)  operations attempted {ledger.attempted} failed {ledger.failed}")
    for note in ledger.notes:
        print("   FAILED: " + note)
    if missing:
        print("   MISSING: " + ", ".join(missing))
    if trace:
        print(f"   chrome trace: {os.path.relpath(path, ROOT)} ({events} events)")
    return {
        "correct": ledger.failed == 0 and not missing,
        "attempted": max(ledger.attempted, 1),
        "failed": ledger.failed,
        "metrics": metrics,
    }


def _child(name: str, seed: int, seconds: float, trace: int, echo: bool) -> dict:
    """Run one workload in a process of its own and return its result."""
    command = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          timeout=CHILD_TIMEOUT_S, check=False)
    lines = done.stdout.strip().splitlines()
    if echo:
        print("\n".join(lines[:-1]), flush=True)
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        print("\n".join(lines))
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def _selfcheck(names, seed: int, seconds: float) -> int:
    """Two sets of runs of the same code must agree within the bounds.

    A set is ``SELFCHECK_RUNS`` runs per workload with consecutive seeds; the
    sets' medians are compared the way the driver compares its two sets of ten."""
    from perflab import spec

    sets = []
    for index in range(2):
        print(f"-- selfcheck set {index + 1}", flush=True)
        sets.append({n: [_child(n, seed + i, seconds, 0, echo=False)
                         for i in range(SELFCHECK_RUNS)] for n in names})
    disagreements = 0
    for name in names:
        for metric in spec.END_TO_END:
            try:
                a, b = (statistics.median(r["metrics"][metric.name]["value"] for r in s[name])
                        for s in sets)
            except KeyError:
                disagreements += 1
                print(f"{name:<14} {metric.name:<16} missing")
                continue
            sign = 1.0 if metric.better == "lower" else -1.0
            worse = max(sign * (b - a) / a, sign * (a - b) / b)
            verdict = "agree" if worse <= metric.bound else "disagree"
            disagreements += verdict == "disagree"
            print(f"{name:<14} {metric.name:<16} {a:12.4f} {b:12.4f} {metric.unit:<3} "
                  f"differ by {worse:6.1%} bound {metric.bound:.0%}  {verdict}")
        failed = sum(r["failed"] for s in sets for r in s[name])
        if failed:
            disagreements += 1
            print(f"{name:<14} {failed} failed operations")
    return 1 if disagreements else 0


def main(argv=None) -> int:
    if ROOT not in sys.path:  # run as a script: sys.path[0] is perflab/ itself
        sys.path.insert(0, ROOT)
    from perflab import spec

    parser = argparse.ArgumentParser(prog="perflab", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0)
    parser.add_argument("--list", action="store_true")
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)
    if args.list:
        print(spec.listing())
        return 0

    tmp = _bootstrap()
    names = [args.workload] if args.workload else list(spec.WORKLOADS)
    try:
        if args.selfcheck:
            return _selfcheck(names, args.seed, args.seconds)
        if args.workload:
            final = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        else:
            results = {n: _child(n, args.seed, args.seconds, args.trace, echo=True)
                       for n in names}
            final = {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{n}/{m}": v for n, r in results.items()
                            for m, v in r["metrics"].items()},
            }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    sys.stdout.flush()
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
