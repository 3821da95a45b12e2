"""Command line interface.

Subcommands: degree (exact degree of a problem or triangulation file),
verify (sweep all triangulations up to a size and check the closed
formula), oracle (numeric fiber count with engine cross-check), search
(extremal degree search with JSON-lines persistence).

Reports are JSON on stdout (--format table for a human rendering) and
deterministic for fixed inputs and seed, except timing fields.  Exit
codes: 0 success, 2 unreadable or malformed input or a results file
that cannot be read or written, 3 invalid input values or a degree of
2^64 or more, 4 inconclusive oracle run or exceeded path budget, 5
verification mismatch.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from .engine import CrossRatioProblem, Engine
from .oracle import PathBudgetError, numeric_degree
from .polygon import (
    ENUMERATION_CAP,
    Triangulation,
    enumerate_triangulations,
    internal_triangle_count,
    triangulation_to_problem,
)
from .search import (
    ResultsFileError,
    append_result,
    exhaustive_cn,
    heuristic_cn,
    resume_result,
)

DEFAULT_SEED = 1729
EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INVALID = 3
EXIT_INCONCLUSIVE = 4
EXIT_MISMATCH = 5


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


def load_input(path: str) -> CrossRatioProblem:
    """The problem of a problem or triangulation file, told apart by its
    JSON keys."""
    real = resolve_input(path)
    try:
        with open(real, encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CliError(EXIT_PARSE, f"cannot read {path!r}: {exc}")
    try:
        if isinstance(obj, dict) and "diagonals" in obj:
            return triangulation_to_problem(Triangulation.from_json(obj))
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


def cmd_degree(ns) -> int:
    problem = load_input(ns.file)
    engine = Engine()
    d = engine.degree(problem)
    report = {
        "n": problem.n,
        "degree": d,
        "method": "recursion",
        "nodes": engine.nodes,
        "cache_hits": engine.cache_hits,
        "cache_misses": engine.cache_misses,
    }
    emit(report, ns.fmt)
    return EXIT_OK


def _verify_one_n(n):
    engine = Engine()
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


def cmd_verify(ns) -> int:
    nmax = ns.nmax
    if nmax < 3 or nmax > ENUMERATION_CAP:
        raise CliError(EXIT_INVALID, f"verify supports 3 <= nmax <= {ENUMERATION_CAP}")
    if ns.threads < 1:
        raise CliError(EXIT_INVALID, f"need --threads >= 1, got {ns.threads}")
    tasks = range(3, nmax + 1)
    if ns.threads > 1:
        # the executor starts all its workers at once: no more than tasks
        with ProcessPoolExecutor(max_workers=min(ns.threads, len(tasks))) as pool:
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
    emit(report, ns.fmt, lines)
    return EXIT_OK if not mismatches else EXIT_MISMATCH


def cmd_oracle(ns) -> int:
    problem = load_input(ns.file)
    try:
        fc = numeric_degree(problem, seed=ns.seed, path_cap=ns.paths)
    except PathBudgetError as exc:
        print(json.dumps({"error": str(exc)}))
        return EXIT_INCONCLUSIVE
    report = fc.to_json()
    engine_degree = Engine().degree(problem)
    report["engine_degree"] = engine_degree
    report["agrees"] = (fc.count == engine_degree) and not fc.inconclusive
    inf_label, zero_label, one_label = fc.chart
    lines = [f"fiber count {fc.count} (trials {list(fc.trial_counts)})",
             f"paths {fc.paths_tracked}: {fc.bound} per trial, labels "
             f"{inf_label}/{zero_label}/{one_label} pinned at inf/0/1",
             f"engine degree {engine_degree}",
             "agrees" if report["agrees"] else "DISAGREES or inconclusive"]
    emit(report, ns.fmt, lines)
    if fc.inconclusive:
        return EXIT_INCONCLUSIVE
    if fc.count != engine_degree:
        return EXIT_MISMATCH
    return EXIT_OK


def _append_error(out: str) -> OSError | None:
    """The error appending to out would raise, found without creating
    anything: out is empty, a directory or a file that cannot be written,
    or its directory is missing, not a directory or not writable; else None."""
    parent = os.path.dirname(out) or "."
    if not out:
        code = errno.ENOENT
    elif os.path.isdir(out):
        code = errno.EISDIR
    elif os.path.isdir(parent):
        if (os.access(out, os.W_OK) if os.path.exists(out)
                else os.access(parent, os.W_OK | os.X_OK)):
            return None
        code = errno.EACCES
    else:
        try:
            os.stat(parent)
            code = errno.ENOTDIR  # a regular file, as in README.md/runs.jsonl
        except OSError as exc:  # missing, or a regular file further up
            code = exc.errno
    return OSError(code, os.strerror(code), out)


def cmd_search(ns) -> int:
    out = ns.out
    if ns.resume:
        try:
            r = resume_result(out, ns.n, ns.mode, ns.budget)
        except ResultsFileError as exc:
            raise CliError(EXIT_PARSE, str(exc))
        if r is not None:
            report = r.to_json()
            report["resumed"] = True
            emit(report, ns.fmt)
            return EXIT_OK
    refused = _append_error(out)
    if refused is not None:  # before the search, whose result would be lost
        raise CliError(EXIT_PARSE, f"cannot write {out!r}: {refused}")
    if ns.mode == "exhaustive":
        result = exhaustive_cn(ns.n)
    else:
        result = heuristic_cn(ns.n, budget=ns.budget, seed=ns.seed)
    try:
        append_result(out, result)
    except OSError as exc:
        raise CliError(EXIT_PARSE, f"cannot write {out!r}: {exc}")
    report = result.to_json()
    report["out"] = out
    lines = [f"n={result.n} mode={result.mode} best_degree={result.best_degree}"
             f" ({'certified' if result.certified else 'lower bound'})",
             f"witnesses: {len(result.witnesses)}, evaluations: {result.evaluations}",
             f"appended to {out}"]
    emit(report, ns.fmt, lines)
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
    sub = ap.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("degree", help="exact degree of a problem/triangulation file")
    p.add_argument("file", help="JSON file (or bundled fixture name)")
    p.set_defaults(handler=cmd_degree)

    p = sub.add_parser("verify", help="check degree == 2^(internal triangles) "
                                      "for all triangulations up to --nmax")
    p.add_argument("--nmax", type=int, default=8)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("oracle", help="numeric fiber count of a problem file")
    p.add_argument("file", help="JSON file (or bundled fixture name)")
    p.add_argument("--paths", type=int, default=4096,
                   help="path budget: the largest matching bound (paths per trial) to track")
    p.set_defaults(handler=cmd_oracle)

    p = sub.add_parser("search", help="extremal degree search at fixed n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=("exhaustive", "heuristic"), default="heuristic")
    p.add_argument("--budget", type=int, default=200_000,
                   help="engine evaluations for heuristic mode")
    p.add_argument("--out", default="cn_results.jsonl",
                   help="JSON-lines persistence file")
    p.add_argument("--resume", action="store_true",
                   help="reuse a recorded result for this n and mode")
    p.set_defaults(handler=cmd_search)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    ns = ap.parse_args(argv)
    try:
        return ns.handler(ns)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
