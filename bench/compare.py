"""Compare two checkouts on one workload in alternating pairs.

    python3 bench/compare.py --base ../parent --head . --workload bem-torus

Runs ``bench/run.py`` of each checkout ``--pairs`` times (seed
first_seed + i for pair i; the side that runs first alternates), then
prints for every metric each side's median and quartiles and a verdict:

  gain        the head wins at least nine tenths of all pairs (ties count
              for neither) and the medians differ by more than the base's
              own spread (the distance between its quartiles);
  regression  the head's median is worse than the base's by more than the
              metric's bound in BENCHMARK.json;
  unresolved  the base's own spread is wider than the bound, and not every
              head run beats every base run;
  unchanged   none of the above.

Per-layer metrics (``--trace 1``) have no bound, so they only ever read
gain, loss (the mirror of gain) or "no claim".  Both sides run for the
``run_seconds`` of BENCHMARK.json; every run is saved under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _bench_digest(checkout: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((checkout / "bench").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:12]


def _run(checkout: Path, workload: str, seed: int, seconds: float,
         trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace",
           str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} exited "
                         f"{proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, head, better, bound):
    """Verdict for one metric from paired runs (lists of equal length)."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
    losses = sum(sign * (h - b) < 0 for b, h in zip(base, head))
    b1, bmed, b3 = _quartiles(base)
    _, hmed, _ = _quartiles(head)
    spread = b3 - b1
    n = len(base)
    if wins >= 0.9 * n and abs(hmed - bmed) > spread:
        return "gain"
    if bound is None:
        if losses >= 0.9 * n and abs(hmed - bmed) > spread:
            return "loss"
        return "no claim"
    if sign * (hmed - bmed) < -bound * abs(bmed):
        return "regression"
    if bmed and spread / abs(bmed) > bound:
        every = (min(head) > max(base) if sign > 0
                 else max(head) < min(base))
        return "better in every run" if every else "unresolved"
    return "unchanged"


def report(pairs, spec, workload):
    kinds = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    names = list(pairs[0]["base"]["metrics"])
    print(f"workload {workload}: {len(pairs)} pairs")
    print(f"{'metric':44s} {'base q1 / median / q3':>36s} "
          f"{'head q1 / median / q3':>36s}  verdict")
    for name in names:
        base = [p["base"]["metrics"][name]["value"] for p in pairs]
        head = [p["head"]["metrics"][name]["value"] for p in pairs]
        spec_m = kinds.get(name, {"better": "lower"})
        v = verdict(base, head, spec_m["better"], spec_m.get("bound"))
        fb = "%.4g / %.4g / %.4g" % _quartiles(base)
        fh = "%.4g / %.4g / %.4g" % _quartiles(head)
        print(f"{name:44s} {fb:>36s} {fh:>36s}  {v}")
    fails = [(p["base"]["failed"], p["head"]["failed"]) for p in pairs]
    correct = all(p["base"]["correct"] and p["head"]["correct"] for p in pairs)
    print(f"all runs correct: {correct}; failed ops (base, head) per pair: "
          f"{fails}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", type=Path, required=True,
                        help="parent checkout")
    parser.add_argument("--head", type=Path, default=ROOT,
                        help="changed checkout (default: this one)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1000)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    spec = json.loads((args.head / "BENCHMARK.json").read_text())
    base, head = args.base.resolve(), args.head.resolve()
    if _bench_digest(base) != _bench_digest(head):
        print("warning: the two checkouts run different benchmark code",
              file=sys.stderr)
    seconds = spec["run_seconds"]
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    saved = out_dir / f"compare-{args.workload}-{int(time.time())}.jsonl"
    pairs = []
    with open(saved, "w") as fh:
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = [("base", base), ("head", head)]
            if i % 2:
                order.reverse()
            pair = {"seed": seed}
            for side, checkout in order:
                pair[side] = _run(checkout, args.workload, seed, seconds,
                                  args.trace)
            pairs.append(pair)
            fh.write(json.dumps(pair) + "\n")
            fh.flush()
            print(f"pair {i + 1}/{args.pairs} seed {seed} done", flush=True)
    report(pairs, spec, args.workload)
    print(f"pairs saved to {saved}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
