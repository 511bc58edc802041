"""tripanel benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload bem-torus --seed 1 --seconds 30 --trace 0

Builds its inputs from the seed, sets up several times (``setup_s`` is the
median), then runs the workload's closed loop (one iteration at a time,
single process) for ``--seconds`` and checks the outputs in an untimed
verification phase.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of the traced run with
``--trace 1``.  Lines before it give the run record and every figure with
its unit; the whole result set is also written under ``.bench_out/``.

``--smoke`` runs every workload at tiny sizes in both modes and checks
that every metric named in BENCHMARK.json is emitted with its unit.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# share of each iteration's time spent on extra set-ups, so that setup_s
# is the median of hundreds of constructions on the quick workloads
SETUP_SHARE = 0.1
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "time_to_solution_s": "s",
             "integrals_per_s": "1/s", "peak_rss_mb": "MB"}


def _cap_blas_threads() -> int:
    """One BLAS thread; must run before numpy is imported.

    The load is one call at a time, and the matrices are small: a second
    thread buys little and makes every call wait on the busier of two
    shared CPUs, which widens the spread between runs on a shared host.
    """
    for var in BLAS_VARS:
        os.environ[var] = "1"
    return 1


def _git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _import_library():
    """Put the checkout's src/ first on the path and import tripanel there."""
    src = ROOT / "src"
    if not (src / "tripanel" / "__init__.py").is_file():
        raise SystemExit(f"error: no tripanel sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import tripanel
    if Path(tripanel.__file__).resolve().parent != (src / "tripanel").resolve():
        raise SystemExit(f"error: imported tripanel from {tripanel.__file__}, "
                         f"not from {src}")
    return tripanel


def _record(args, nproc, blas_cap):
    import numpy
    import scipy
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "scale": args.scale, "nproc": nproc, "blas_threads": blas_cap,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": _git_commit(),
            "machine": platform.machine()}


def _timed_setup(workload, seed, scale):
    t0 = time.perf_counter()
    inp = workload.setup(seed, scale)
    return inp, time.perf_counter() - t0


def _end_to_end(workload, seed, seconds, scale):
    """End-to-end figures of untraced iterations.

    Every time is scaled to the reference host speed (reference.py): the
    reference loop runs between iterations, and each iteration, with the
    set-ups made just before it, is scaled by REFERENCE_S over the mean of
    the two reference times around it.  Times are then medians over the
    run's iterations, the first left out as warm-up.  Set-up is the median
    of the constructions made before each iteration, as many as take about
    SETUP_SHARE of the iteration's time (at least one); each iteration
    runs on fresh inputs, after a garbage collection outside the timing.
    Returns the metrics and, for the record, the unscaled wall time and
    the median speed factor.
    """
    from reference import REFERENCE_S, reference_time
    from workloads import timed_iterations

    setups, outs, raw_walls, factors = [], [], [], []
    per_iteration = 1
    ref_before = reference_time()
    start = time.perf_counter()
    while not outs or time.perf_counter() - start < seconds:
        batch = []
        for _ in range(per_iteration):
            inp, dt = _timed_setup(workload, seed, scale)
            batch.append(dt)
        gc.collect()  # no collection of earlier garbage inside the timing
        t0 = time.perf_counter()
        out = workload.iterate(inp)
        span = time.perf_counter() - t0
        ref_after = reference_time()
        factor = 2.0 * REFERENCE_S / (ref_before + ref_after)
        ref_before = ref_after
        setups.extend(dt * factor for dt in batch)
        raw_walls.append(float(out["stages"].sum()))
        factors.append(factor)
        out["stages"] = out["stages"] * factor
        outs.append(out)
        if len(outs) == 1 and seconds > 0:
            per_iteration = max(1, round(SETUP_SHARE * span
                                         / statistics.median(batch)))
    timed = timed_iterations(outs)
    wall = statistics.median(float(o["stages"].sum()) for o in timed)
    solution = statistics.median(
        float(o["stages"][:o["solution_stages"]].sum()) for o in timed)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "time_to_solution_s": solution,
        "integrals_per_s": outs[0]["pairs"] / wall,
        "peak_rss_mb": _peak_rss_mb(),
    }
    extra = {"wall_unscaled_s": (statistics.median(timed_iterations(raw_walls)),
                                 "s"),
             "host_speed": (statistics.median(timed_iterations(factors)), "1")}
    return (inp, outs, {k: (v, E2E_UNITS[k]) for k, v in metrics.items()},
            extra)


def _traced(workload, seed, seconds, scale, spans_path):
    """Alternate untraced and traced units (one setup plus one iteration)."""
    import layers
    from tracing import Tracer

    tracer = Tracer()
    layers.install(tracer)
    plain, traced, per_unit, outs = [], [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        inp = workload.setup(seed, scale)
        outs.append(workload.iterate(inp))
        plain.append(time.perf_counter() - t0)
        tracer.reset_aggregates()
        with tracer.installed():
            t0 = time.perf_counter()
            inp = workload.setup(seed, scale)
            outs.append(workload.iterate(inp))
            traced.append(time.perf_counter() - t0)
        per_unit.append(layers.unit_metrics(tracer))
    tracer.write(spans_path)
    # median unit per figure, as for the end-to-end times; counts repeat
    metrics = {k: (statistics.median(u[k] for u in per_unit),
                   layers.METRICS.get(k, "count")) for k in per_unit[0]}
    metrics["trace.overhead_s"] = (statistics.median(traced)
                                   - statistics.median(plain), "s")
    return inp, outs, metrics


def run(args, nproc, blas_cap):
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    record = _record(args, nproc, blas_cap)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        inp, outs, metrics = _traced(workload, args.seed, args.seconds,
                                     args.scale, OUT_DIR / f"{stem}-spans.json")
        extra = {}
    else:
        inp, outs, metrics, extra = _end_to_end(workload, args.seed,
                                                args.seconds, args.scale)
    report = workload.verify(inp, outs)
    attempted = sum(o["ops"] for o in outs)
    failed = sum(o["failed_ops"] for o in outs)
    if "bad_cases" in report:
        # a wrong value is a failed op each time its case was run
        raised = {i for i, v in enumerate(inp["values"]) if v != v}
        failed += len(set(report["bad_cases"]) - raised) * len(outs)
    routes = report["routes"] if "routes" in report else None
    if args.trace:
        routed = metrics.pop("routed.pairs")[0]
        routed_fallback = metrics.pop("routed.fallback")[0]
        if routes is not None:
            for key, value in routes.items():
                metrics[f"routes.{key}"] = (value, "count")
            # the batch calls the assembly made must show the same routing
            report["checks"]["routes_observed"] = (
                routed == routes["rows_x_panels"]
                and routed_fallback
                == routes["flagged_scalar"] + routes["incident"])
        else:
            for key in ("batch_clean", "flagged_scalar", "incident",
                        "rows_x_panels"):
                metrics[f"routes.{key}"] = (0, "count")
        tally = report.get("tally", {})
        metrics["batch.scalar_mismatch"] = (tally.get("batch_mismatch", 0),
                                            "count")
    correct = all(report["checks"].values()) and failed == 0
    detail = {**workload.detail(outs), **extra}
    for key in ("batch_checked", "batch_mismatch", "mismatch_unresolved"):
        if key in report.get("tally", {}):
            detail[key] = (report["tally"][key], "count")
    detail["failed_frac"] = (failed / attempted, "1")
    detail["ops"] = (attempted, "count")
    detail["iterations"] = (len(outs), "count")

    print(f"# record {json.dumps(record)}")
    for name, (value, unit) in {**metrics, **detail}.items():
        print(f"{name:48s} {value:.6g} {unit}")
    print(f"# checks {json.dumps(report['checks'])}")
    with open(OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump({"record": record, "metrics": metrics, "detail": detail,
                   "verification": report, "correct": correct,
                   "attempted": attempted, "failed": failed}, fh, default=str)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": float(v), "unit": u}
                          for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


def smoke(nproc, blas_cap):
    """Tiny sizes, every workload, both modes: every named metric emitted?"""
    import subprocess

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    ok = True
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload",
                   w["name"], "--seed", "1", "--seconds", "0", "--trace",
                   str(trace), "--scale", "smoke"]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  cwd=ROOT, timeout=600)
            problems = []
            if proc.returncode != 0:
                problems.append(f"exit {proc.returncode}: {proc.stderr[-400:]}")
            else:
                got = json.loads(proc.stdout.strip().splitlines()[-1])
                emitted = {k: v["unit"] for k, v in got["metrics"].items()}
                if emitted != want[trace]:
                    missing = sorted(set(want[trace]) - set(emitted))
                    extra = sorted(set(emitted) - set(want[trace]))
                    units = sorted(k for k in set(want[trace]) & set(emitted)
                                   if want[trace][k] != emitted[k])
                    problems.append(f"missing {missing} extra {extra} "
                                    f"unit mismatch {units}")
                if not got["correct"]:
                    problems.append("outputs not correct")
            ok &= not problems
            print(f"smoke {w['name']:16s} trace={trace} "
                  f"{'ok' if not problems else 'FAIL ' + '; '.join(problems)}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["bem-torus", "identity-sphere",
                                               "near-singular"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["full", "smoke"], default="full",
                        help="input sizes; smoke is for checking the harness")
    parser.add_argument("--smoke", action="store_true",
                        help="check every workload emits every metric")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    nproc = len(os.sched_getaffinity(0))
    blas_cap = _cap_blas_threads()
    _import_library()
    if args.smoke:
        return smoke(nproc, blas_cap)
    return run(args, nproc, blas_cap)


if __name__ == "__main__":
    sys.exit(main())
