"""Benchmark for xratio: extremal search, triangulation sweep, large exact
degrees and the numeric oracle.

    python3 bench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from `src/`
and the reference implementations from `tests/oracles.py`.  One workload
runs in this process, single-threaded: set-up (timed from just before
`import xratio`, with the input building repeated and its median taken),
then whole rounds of operations until S seconds have passed and the tail
percentile has ten samples beyond it, then the correctness checks.  The
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the same object is written to
`bench/out/`.  With --trace 1 the run instead runs round 0 three times,
whatever S is: as a warm-up, plainly, and with every layer function
wrapped (see tracer.py), and reports the per-layer metrics of the traced
round; its spans go to `bench/out/spans_<workload>.csv`.
`--workload all` runs each workload in its own process, one after the
other.  `--size tiny` shrinks every input set, for the benchmark's tests.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 5
TAIL_BEYOND = 10  # samples the tail percentile must leave above it

sys.path.insert(0, str(HERE))
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def load_oracles():
    """tests/oracles.py, the package's independent reference code."""
    path = ROOT / "tests" / "oracles.py"
    if not (ROOT / "src" / "xratio").is_dir() or not path.is_file():
        raise SystemExit(f"bench: no xratio checkout at {ROOT} (need src/xratio and tests/oracles.py)")
    spec = importlib.util.spec_from_file_location("oracles", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def tail_rank(n: int, pct: float) -> int:
    """Nearest-rank index of the pct-th percentile of n sorted samples."""
    return max(0, math.ceil(pct / 100 * n) - 1)


def set_up(wl, oracles, seed: int):
    t0 = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import xratio
    import_s = perf_counter() - t0
    builds = []
    for _ in range(SETUP_REPEATS):
        t = perf_counter()
        st = wl.setup(xratio, oracles, seed)
        builds.append(perf_counter() - t)
    return st, import_s + statistics.median(builds)


def check(wl, st, outs, oracles) -> tuple[int, int]:
    failed = wrong = 0
    for r, out in enumerate(outs):
        f, w = wl.check(st, r, out, oracles)
        failed += f
        wrong += w
    return failed, wrong


def run_plain(wl, st, seconds: float):
    lat = array("d")
    outs = []
    t0 = perf_counter()
    while True:
        t_round = perf_counter()
        outs.append(wl.run_round(st, len(outs), lat))
        now = perf_counter()
        n = len(lat)
        # stop at the round end nearest to `seconds`, once the tail is valid
        if (now + (now - t_round) / 2 - t0 >= seconds
                and n - tail_rank(n, wl.tail_pct) - 1 >= TAIL_BEYOND):
            break
    wall = perf_counter() - t0
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ordered = sorted(lat)
    metrics = {
        "ops_per_s": (len(lat) / wall, "1/s"),
        "op_p50_ms": (1000 * statistics.median(ordered), "ms"),
        "op_tail_ms": (1000 * ordered[tail_rank(len(ordered), wl.tail_pct)], "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    return len(lat), outs, metrics


def run_traced(wl, st):
    rates, outs = [], []
    lat = array("d")
    tracer = Tracer()
    # round 0 three times: a warm-up, plainly, and traced
    for traced in (False, False, True):
        before = len(lat)
        if traced:
            tracer.install()
        try:
            t0 = perf_counter()
            outs.append(wl.run_round(st, 0, lat))
            rates.append((len(lat) - before) / (perf_counter() - t0))
        finally:
            tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"spans_{wl.name}.csv")
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_ratio"] = (rates[2] / rates[1], "ratio")
    return len(lat), outs, metrics


def run_one(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    wl = WORKLOADS[name](tiny=tiny)
    oracles = load_oracles()
    st, setup_s = set_up(wl, oracles, seed)
    if trace:
        attempted, outs, metrics = run_traced(wl, st)
    else:
        attempted, outs, metrics = run_plain(wl, st, seconds)
        metrics = {"setup_s": (setup_s, "s"), **metrics}
    failed, wrong = check(wl, st, outs, oracles)
    return {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": min(failed, attempted),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def table(title: str, result: dict) -> list[str]:
    lines = [title]
    for k, m in result["metrics"].items():
        v = "missing" if m["value"] is None else f"{m['value']:.6g}"
        lines.append(f"  {k:<24} {v:>14} {m['unit']}")
    lines.append(f"  attempted {result['attempted']}  failed {result['failed']}"
                 f"  correct {result['correct']}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)

    if args.workload != "all":
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace),
                         args.size == "tiny")
        OUT.mkdir(exist_ok=True)
        suffix = ".trace" if args.trace else ""
        (OUT / f"{args.workload}{suffix}.json").write_text(json.dumps(result) + "\n")
        print("\n".join(table(f"{args.workload} seed={args.seed}", result)))
        print(json.dumps(result))
        return 0

    # each workload in a fresh process, so set-up includes the import and
    # peak RSS belongs to that workload alone
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"bench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, m in result["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = m
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
