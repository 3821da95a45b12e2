"""Command line interface.

Subcommands: degree (exact degree of a problem or triangulation file),
verify (sweep all triangulations up to a size and check the closed
formula), oracle (numeric fiber count with engine cross-check), search
(extremal degree search with JSON-lines persistence).

Reports are JSON on stdout (--format table for a human rendering) and
deterministic for fixed inputs and seed, except timing fields.  Exit
codes: 0 success, 2 unreadable or malformed input, 3 invalid input
values, 4 inconclusive oracle run or exceeded path budget, 5
verification mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .engine import CrossRatioProblem, Engine
from .oracle import PathBudgetError, numeric_degree
from .polygon import (
    Triangulation,
    closed_formula_degree,
    enumerate_triangulations,
    internal_triangle_count,
    triangulation_to_problem,
)
from .search import (
    ResultsFileError,
    SearchResult,
    append_result,
    exhaustive_cn,
    heuristic_cn,
    load_results,
)

DEFAULT_SEED = 1729
EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INVALID = 3
EXIT_INCONCLUSIVE = 4
EXIT_MISMATCH = 5


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    path: str | None
    seed: int
    threads: int
    nmax: int | None
    budget: int | None
    paths: int
    fmt: str
    resume: bool
    cache_cap: int | None
    mode: str | None = None
    n: int | None = None
    out: str | None = None


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def fixtures_dir() -> str:
    env = os.environ.get("XRATIO_FIXTURES")
    if env:
        return env
    return os.path.join(os.path.dirname(__file__), "fixtures")


def resolve_input(path: str) -> str:
    if os.path.exists(path):
        return path
    candidate = os.path.join(fixtures_dir(), path)
    if os.path.exists(candidate):
        return candidate
    raise CliError(EXIT_PARSE, f"cannot find input file {path!r}")


def load_input(path: str):
    """Problem or triangulation, detected by its JSON keys."""
    real = resolve_input(path)
    try:
        with open(real) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(EXIT_PARSE, f"cannot read {path!r}: {exc}")
    try:
        if isinstance(obj, dict) and "diagonals" in obj:
            return Triangulation.from_json(obj)
        if isinstance(obj, dict) and "quads" in obj:
            return CrossRatioProblem.from_json(obj)
    except (KeyError, TypeError) as exc:
        raise CliError(EXIT_PARSE, f"malformed input {path!r}: {exc}")
    except ValueError as exc:
        raise CliError(EXIT_INVALID, f"invalid input {path!r}: {exc}")
    raise CliError(EXIT_PARSE, f"{path!r} has neither 'quads' nor 'diagonals'")


def emit(report: dict, fmt: str, table_lines=None):
    if fmt == "json":
        print(json.dumps(report, indent=2))
    else:
        for line in table_lines or [f"{k}: {v}" for k, v in report.items()]:
            print(line)


def cmd_degree(cfg: RunConfig) -> int:
    data = load_input(cfg.path)
    if isinstance(data, Triangulation):
        problem = triangulation_to_problem(data)
    else:
        problem = data
    engine = Engine(cache_cap=cfg.cache_cap)
    d = engine.degree(problem)
    report = {
        "n": problem.n,
        "degree": d,
        "method": "recursion",
        "cache_hits": engine.cache_hits,
    }
    emit(report, cfg.fmt)
    return EXIT_OK


def _verify_one_n(args):
    n, cache_cap = args
    engine = Engine(cache_cap=cache_cap)
    per_i: dict[int, int] = {}
    mismatches = []
    count = 0
    for t in enumerate_triangulations(n):
        count += 1
        i = internal_triangle_count(t)
        per_i[i] = per_i.get(i, 0) + 1
        got = engine.degree(triangulation_to_problem(t))
        if got != 2 ** i:
            mismatches.append(
                {"n": n, "diagonals": [list(d) for d in t.diagonals],
                 "engine": got, "formula": 2 ** i}
            )
    return n, count, per_i, mismatches


def cmd_verify(cfg: RunConfig) -> int:
    nmax = cfg.nmax if cfg.nmax is not None else 8
    if nmax < 3 or nmax > 12:
        raise CliError(EXIT_INVALID, "verify supports 3 <= nmax <= 12")
    tasks = [(n, cfg.cache_cap) for n in range(3, nmax + 1)]
    if cfg.threads > 1:
        with ProcessPoolExecutor(max_workers=cfg.threads) as pool:
            results = list(pool.map(_verify_one_n, tasks))
    else:
        results = [_verify_one_n(t) for t in tasks]

    per_n = {}
    per_i: dict[int, int] = {}
    mismatches = []
    total = 0
    for n, count, pi, mm in results:
        per_n[str(n)] = count
        total += count
        for i, c in pi.items():
            per_i[i] = per_i.get(i, 0) + c
        mismatches.extend(mm)
    report = {
        "nmax": nmax,
        "triangulations": total,
        "per_n": per_n,
        "per_internal_count": {str(i): per_i[i] for i in sorted(per_i)},
        "mismatches": mismatches,
        "ok": not mismatches,
    }
    lines = [f"checked {total} triangulations up to n={nmax}"]
    lines += [f"  n={n}: {c}" for n, c in per_n.items()]
    lines += [f"  internal triangles {i}: {c} triangulations"
              for i, c in sorted(per_i.items())]
    lines.append("all degrees match 2^(internal triangles)" if not mismatches
                 else f"{len(mismatches)} MISMATCHES")
    emit(report, cfg.fmt, lines)
    return EXIT_OK if not mismatches else EXIT_MISMATCH


def cmd_oracle(cfg: RunConfig) -> int:
    data = load_input(cfg.path)
    problem = triangulation_to_problem(data) if isinstance(data, Triangulation) else data
    try:
        fc = numeric_degree(
            problem, seed=cfg.seed, unknown_limit=max(6, cfg.nmax or 0),
            path_cap=cfg.paths,
        )
    except PathBudgetError as exc:
        print(json.dumps({"error": str(exc)}))
        return EXIT_INCONCLUSIVE
    except ValueError as exc:
        raise CliError(EXIT_INVALID, str(exc))
    report = fc.to_json()
    engine_degree = Engine(cache_cap=cfg.cache_cap).degree(problem)
    report["engine_degree"] = engine_degree
    report["agrees"] = (fc.count == engine_degree) and not fc.inconclusive
    lines = [f"fiber count {fc.count} (trials {list(fc.trial_counts)})",
             f"engine degree {engine_degree}",
             "agrees" if report["agrees"] else "DISAGREES or inconclusive"]
    emit(report, cfg.fmt, lines)
    if fc.inconclusive:
        return EXIT_INCONCLUSIVE
    if fc.count != engine_degree:
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_search(cfg: RunConfig) -> int:
    if cfg.n is None:
        raise CliError(EXIT_INVALID, "search requires --n")
    out = cfg.out or "cn_results.jsonl"
    if cfg.resume:
        try:
            recorded = load_results(out)
        except ResultsFileError as exc:
            raise CliError(EXIT_PARSE, str(exc))
        for r in recorded:
            if r.n == cfg.n and r.mode == cfg.mode:
                report = r.to_json()
                report["resumed"] = True
                emit(report, cfg.fmt)
                return EXIT_OK
    engine = Engine(cache_cap=cfg.cache_cap)
    try:
        if cfg.mode == "exhaustive":
            result = exhaustive_cn(cfg.n, engine=engine,
                                   max_n=max(7, cfg.nmax or 0))
        else:
            result = heuristic_cn(cfg.n, budget=cfg.budget or 200_000,
                                  seed=cfg.seed, engine=engine)
    except ValueError as exc:
        raise CliError(EXIT_INVALID, str(exc))
    append_result(out, result)
    report = result.to_json()
    report["out"] = out
    lines = [f"n={result.n} mode={result.mode} best_degree={result.best_degree}"
             f" ({'certified' if result.certified else 'lower bound'})",
             f"witnesses: {len(result.witnesses)}, evaluations: {result.evaluations}",
             f"appended to {out}"]
    emit(report, cfg.fmt, lines)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="xratio",
        description="Cross-ratio degrees: exact engine, numeric oracle, "
                    "triangulation sweep, extremal search.",
    )
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"rng seed (default {DEFAULT_SEED})")
    ap.add_argument("--threads", type=int, default=1,
                    help="worker pool size for verify sweeps")
    ap.add_argument("--format", dest="fmt", choices=("json", "table"),
                    default="json", help="report format")
    ap.add_argument("--cache-cap", type=int, default=None,
                    help="bound the engine memo cache (entries)")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("degree", help="exact degree of a problem/triangulation file")
    p.add_argument("file", help="JSON file (or bundled fixture name)")

    p = sub.add_parser("verify", help="check degree == 2^(internal triangles) "
                                      "for all triangulations up to --nmax")
    p.add_argument("--nmax", type=int, default=8)

    p = sub.add_parser("oracle", help="numeric fiber count of a problem file")
    p.add_argument("file", help="JSON file (or bundled fixture name)")
    p.add_argument("--paths", type=int, default=4096, help="path budget")
    p.add_argument("--nmax", type=int, default=None,
                   help="raise the unknown-count limit (default 6)")

    p = sub.add_parser("search", help="extremal degree search at fixed n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=("exhaustive", "heuristic"), default="heuristic")
    p.add_argument("--budget", type=int, default=200_000,
                   help="engine evaluations for heuristic mode")
    p.add_argument("--nmax", type=int, default=None,
                   help="raise the exhaustive cap (default 7)")
    p.add_argument("--out", default="cn_results.jsonl",
                   help="JSON-lines persistence file")
    p.add_argument("--resume", action="store_true",
                   help="reuse a recorded result for this n and mode")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    ns = ap.parse_args(argv)
    cfg = RunConfig(
        subcommand=ns.subcommand,
        path=getattr(ns, "file", None),
        seed=ns.seed,
        threads=ns.threads,
        nmax=getattr(ns, "nmax", None),
        budget=getattr(ns, "budget", None),
        paths=getattr(ns, "paths", 4096),
        fmt=ns.fmt,
        resume=getattr(ns, "resume", False),
        cache_cap=ns.cache_cap,
        mode=getattr(ns, "mode", None),
        n=getattr(ns, "n", None),
        out=getattr(ns, "out", None),
    )
    handlers = {
        "degree": cmd_degree,
        "verify": cmd_verify,
        "oracle": cmd_oracle,
        "search": cmd_search,
    }
    try:
        return handlers[cfg.subcommand](cfg)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
