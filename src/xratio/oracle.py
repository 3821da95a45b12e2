"""Numeric fiber counting, independent of the exact engine.

A configuration of k = n-3 quads determines k cross-ratio equations in
the point positions.  Fixing three labels at (inf, 0, 1) kills the
Moebius freedom, leaving a square polynomial system in the remaining k
positions: clearing the denominator of each cross-ratio gives equations
of degree at most 2 (exactly 1 when the quad contains the label pinned
at infinity).  For generic targets every fiber point is a nondegenerate
solution, so tracking all Bezout-many paths of a total-degree homotopy
and filtering out the non-configurations (coordinate collisions, values
0/1, infinity) counts the fiber.  The count is repeated for independent
target draws and cross-checked.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from itertools import product as iproduct

import numpy as np

from .engine import CrossRatioProblem

__all__ = [
    "INFINITY",
    "cross_ratio",
    "Target",
    "Chart",
    "CrossRatioSystem",
    "PathResult",
    "FiberCount",
    "PathBudgetError",
    "default_chart",
    "build_system",
    "solve_total_degree",
    "numeric_degree",
]

INFINITY = complex(math.inf, 0.0)


class PathBudgetError(RuntimeError):
    """Raised when the Bezout bound of a system exceeds the path cap."""


def cross_ratio(pa, pb, pc, pd) -> complex:
    """((pa-pc)(pb-pd)) / ((pa-pd)(pb-pc)), with the limit when one
    argument is infinite.  Normalized so cross_ratio(inf, 0, 1, x) == x."""
    pts = [complex(p) for p in (pa, pb, pc, pd)]
    inf_at = [i for i, p in enumerate(pts) if cmath.isinf(p)]
    if len(inf_at) > 1:
        raise ValueError("at most one point may be infinite")
    a, b, c, d = pts
    if not inf_at:
        return ((a - c) * (b - d)) / ((a - d) * (b - c))
    i = inf_at[0]
    if i == 0:
        return (b - d) / (b - c)
    if i == 1:
        return (a - c) / (a - d)
    if i == 2:
        return (b - d) / (a - d)
    return (a - c) / (b - c)


@dataclass(frozen=True)
class Target:
    """One constrained quad with its generic cross-ratio value."""

    quad: tuple[int, int, int, int]  # ascending labels; cross-ratio in this order
    value: complex


@dataclass(frozen=True)
class Chart:
    """Gauge fixing: three labels pinned at inf, 0, 1; the rest unknown."""

    inf_label: int
    zero_label: int
    one_label: int
    unknowns: tuple[int, ...]

    def position(self, label: int, z) -> complex:
        if label == self.inf_label:
            return INFINITY
        if label == self.zero_label:
            return 0j
        if label == self.one_label:
            return 1 + 0j
        return complex(z[self.unknowns.index(label)])

    def points(self, n: int, z) -> dict[int, complex]:
        return {lab: self.position(lab, z) for lab in range(1, n + 1)}


def default_chart(problem: CrossRatioProblem) -> Chart:
    """Pin the busiest label at infinity (its quads turn linear), then the
    two smallest remaining labels at 0 and 1."""
    freq = {lab: 0 for lab in range(1, problem.n + 1)}
    for q in problem.quads:
        for lab in q:
            freq[lab] += 1
    inf_label = max(freq, key=lambda lab: (freq[lab], -lab))
    rest = [lab for lab in range(1, problem.n + 1) if lab != inf_label]
    zero_label, one_label = rest[0], rest[1]
    unknowns = tuple(rest[2:])
    return Chart(inf_label, zero_label, one_label, unknowns)


class CrossRatioSystem:
    """Cleared equations N_j - value_j * D_j as quadratic forms.

    Equation j is C[j] + L[j] @ z + z @ Q[j] @ z.
    """

    def __init__(self, chart: Chart, targets: tuple[Target, ...],
                 C: np.ndarray, L: np.ndarray, Q: np.ndarray):
        self.chart = chart
        self.targets = targets
        self.C = C
        self.L = L
        self.Q = Q
        self.degrees = tuple(
            2 if np.any(np.abs(Q[j]) > 0) else (1 if np.any(np.abs(L[j]) > 0) else 0)
            for j in range(len(targets))
        )

    @property
    def nv(self) -> int:
        return self.L.shape[1]

    @property
    def bezout(self) -> int:
        return math.prod(self.degrees)

    def eval(self, z: np.ndarray) -> np.ndarray:
        return self.C + self.L @ z + np.einsum("kij,i,j->k", self.Q, z, z)

    def jac(self, z: np.ndarray) -> np.ndarray:
        return self.L + np.einsum("kij,j->ki", self.Q, z) + np.einsum("kij,i->kj", self.Q, z)


def _linear_form(label: int, chart: Chart, nv: int):
    # (constant, coefficient vector); None marks the infinite point
    if label == chart.inf_label:
        return None
    vec = np.zeros(nv, dtype=complex)
    if label == chart.zero_label:
        return 0j, vec
    if label == chart.one_label:
        return 1 + 0j, vec
    vec[chart.unknowns.index(label)] = 1
    return 0j, vec


def build_system(problem: CrossRatioProblem, targets, chart: Chart | None = None
                 ) -> CrossRatioSystem:
    """Assemble the cleared square system for the given targets."""
    if chart is None:
        chart = default_chart(problem)
    targets = tuple(targets)
    if len(targets) != len(problem.quads):
        raise ValueError("need one target per quad")
    if sorted(t.quad for t in targets) != sorted(tuple(sorted(q)) for q in problem.quads):
        raise ValueError("targets do not match the problem's quads")
    nv = len(chart.unknowns)
    if nv != problem.n - 3:
        raise ValueError("chart must pin exactly three labels of the problem")
    k = len(targets)
    C = np.zeros(k, dtype=complex)
    L = np.zeros((k, nv), dtype=complex)
    Q = np.zeros((k, nv, nv), dtype=complex)

    for j, tgt in enumerate(targets):
        a, b, c, d = tgt.quad
        forms = {lab: _linear_form(lab, chart, nv) for lab in tgt.quad}
        num_pairs = [(a, c), (b, d)]
        den_pairs = [(a, d), (b, c)]

        def side(pairs, scale):
            fs = []
            for p, q in pairs:
                if forms[p] is None or forms[q] is None:
                    continue  # the infinite point cancels between N and D
                cp, vp = forms[p]
                cq, vq = forms[q]
                fs.append((cp - cq, vp - vq))
            if len(fs) == 1:
                (c0, v0) = fs[0]
                C[j] += scale * c0
                L[j] += scale * v0
            else:
                (c0, v0), (c1, v1) = fs
                C[j] += scale * c0 * c1
                L[j] += scale * (c0 * v1 + c1 * v0)
                Q[j] += scale * np.outer(v0, v1)

        side(num_pairs, 1)
        side(den_pairs, -tgt.value)
    return CrossRatioSystem(chart, targets, C, L, Q)


@dataclass(frozen=True)
class PathResult:
    """Endpoint of one homotopy path."""

    status: str          # converged | diverged | failed
    z: tuple
    residual: float
    steps: int


def _newton_polish(system: CrossRatioSystem, z: np.ndarray, iters: int = 12):
    for _ in range(iters):
        try:
            delta = np.linalg.solve(system.jac(z), -system.eval(z))
        except np.linalg.LinAlgError:
            break
        z = z + delta
        if np.linalg.norm(delta) < 1e-13 * max(1.0, np.linalg.norm(z)):
            break
    return z


def _track_one(system, sC, sD, gamma, z0, max_steps=3000) -> PathResult:
    """Track z along (1-t)*gamma*G + t*F from t=0 to 1.

    G is the start system z_i**d_i - c_i, with gradient d_i z_i**(d_i - 1)
    on the diagonal.  Euler predictor, few-step Newton corrector, step
    halving on corrector failure.
    """
    z = np.array(z0, dtype=complex)
    t = 0.0
    dt = 0.05
    steps = 0
    streak = 0

    def g_eval(zz):
        return zz ** sD - sC

    def g_jac(zz):
        return np.diag(sD * zz ** (sD - 1))

    while t < 1.0:
        steps += 1
        if steps > max_steps:
            return PathResult("failed", tuple(z), float("nan"), steps)
        dt = min(dt, 1.0 - t)
        t1 = t + dt
        try:
            Hz = (1 - t) * gamma * g_jac(z) + t * system.jac(z)
            Ht = system.eval(z) - gamma * g_eval(z)
            z1 = z + np.linalg.solve(Hz, -Ht * dt)
            ok = False
            for _ in range(3):
                Hz1 = (1 - t1) * gamma * g_jac(z1) + t1 * system.jac(z1)
                Hval = (1 - t1) * gamma * g_eval(z1) + t1 * system.eval(z1)
                delta = np.linalg.solve(Hz1, -Hval)
                z1 = z1 + delta
                if np.linalg.norm(delta) < 1e-9 * max(1.0, np.linalg.norm(z1)):
                    ok = True
                    break
        except np.linalg.LinAlgError:
            ok = False
        if ok:
            z, t = z1, t1
            streak += 1
            if streak >= 4:
                dt = min(dt * 2, 0.1)
                streak = 0
            if np.linalg.norm(z) > 1e8:
                return PathResult("diverged", tuple(z), float("nan"), steps)
        else:
            streak = 0
            dt /= 2
            if dt < 1e-9:
                # a stall with large coordinates is an escape to the
                # boundary (a cluster leaving the chart), not path loss
                if np.linalg.norm(z) > 1e3:
                    return PathResult("diverged", tuple(z), float("nan"), steps)
                return PathResult("failed", tuple(z), float("nan"), steps)

    z = _newton_polish(system, z)
    scale = max(1.0, float(np.linalg.norm(z)) ** 2)
    residual = float(np.max(np.abs(system.eval(z))))
    status = "converged" if residual < 1e-10 * scale else "failed"
    return PathResult(status, tuple(z), residual, steps)


def solve_total_degree(system: CrossRatioSystem, seed: int = 1729,
                       path_cap: int = 4096) -> list[PathResult]:
    """Track every total-degree start root to the target system."""
    bez = system.bezout
    if bez > path_cap:
        raise PathBudgetError(f"Bezout bound {bez} exceeds path cap {path_cap}")
    if any(d == 0 for d in system.degrees):
        raise ValueError("system has a constant equation")
    rng = np.random.default_rng(seed)
    gamma = complex(cmath.exp(1j * rng.uniform(0, 2 * math.pi)))
    sC = np.exp(1j * rng.uniform(0, 2 * math.pi, size=system.nv))
    sD = np.array(system.degrees, dtype=float)

    roots_per_var = []
    for i, d in enumerate(system.degrees):
        base = sC[i] ** (1.0 / d)
        roots_per_var.append([base * cmath.exp(2j * math.pi * j / d) for j in range(d)])
    starts = [np.array(combo, dtype=complex) for combo in iproduct(*roots_per_var)]
    return [_track_one(system, sC, sD, gamma, z0) for z0 in starts]


@dataclass(frozen=True)
class FiberCount:
    """Majority fiber count over independent target draws."""

    count: int
    trial_counts: tuple[int, ...]
    paths_tracked: int
    paths_converged: int
    paths_diverged: int
    paths_failed: int
    min_separation: float
    inconclusive: bool
    reasons: tuple[str, ...] = field(default_factory=tuple)

    def to_json(self) -> dict:
        return {
            "count": self.count,
            "trials": list(self.trial_counts),
            "paths_tracked": self.paths_tracked,
            "paths_converged": self.paths_converged,
            "paths_diverged": self.paths_diverged,
            "paths_failed": self.paths_failed,
            "min_separation": None if math.isinf(self.min_separation) else self.min_separation,
            "inconclusive": self.inconclusive,
            "reasons": list(self.reasons),
        }


def _draw_value(rng) -> complex:
    # generic cross-ratio target: away from the degenerate values 0, 1
    while True:
        lam = complex(rng.uniform(0.5, 1.5) * cmath.exp(1j * rng.uniform(0, 2 * math.pi)))
        if abs(lam) > 0.25 and abs(lam - 1) > 0.25:
            return lam


def _near_degenerate(z, tol=1e-4) -> bool:
    # stalled next to a non-configuration (collision or value 0/1)?
    vals = list(z)
    for i, v in enumerate(vals):
        if abs(v) < tol or abs(v - 1) < tol:
            return True
        for w in vals[i + 1:]:
            if abs(v - w) < tol * max(1.0, abs(v)):
                return True
    return False


def _trial_count(problem, chart, values, seed, path_cap):
    targets = tuple(
        Target(tuple(sorted(q)), lam) for q, lam in zip(problem.quads, values)
    )
    system = build_system(problem, targets, chart)
    results = solve_total_degree(system, seed=seed, path_cap=path_cap)

    accepted = []
    diverged = failed = 0
    for r in results:
        if r.status == "diverged":
            diverged += 1
            continue
        if r.status == "failed":
            if _near_degenerate(r.z) or max(abs(v) for v in r.z) > 1e3:
                diverged += 1  # stalled against a non-configuration
            else:
                failed += 1
            continue
        z = r.z
        tol = 1e-8
        bad = any(abs(v) < tol or abs(v - 1) < tol for v in z)
        if not bad:
            for i, v in enumerate(z):
                for w in z[i + 1:]:
                    if abs(v - w) < tol * max(1.0, abs(v), abs(w)):
                        bad = True
                        break
                if bad:
                    break
        if bad:
            diverged += 1
            continue
        pts = chart.points(problem.n, np.array(z))
        ok = all(
            abs(cross_ratio(*(pts[lab] for lab in t.quad)) - t.value) < 1e-8
            for t in targets
        )
        if ok:
            accepted.append(np.array(z))
        else:
            diverged += 1  # cleared equation satisfied with a tiny denominator

    # dedup: identical endpoints would mean a non-reduced fiber
    reps: list[np.ndarray] = []
    multiple = False
    for z in accepted:
        for w in reps:
            if np.linalg.norm(z - w) < 1e-6 * max(1.0, np.linalg.norm(z)):
                multiple = True
                break
        else:
            reps.append(z)
    min_sep = math.inf
    for i, z in enumerate(reps):
        for w in reps[i + 1:]:
            min_sep = min(min_sep, float(np.linalg.norm(z - w)))
    return len(reps), len(results), len(accepted), diverged, failed, min_sep, multiple


def numeric_degree(problem: CrossRatioProblem, seed: int = 1729, trials: int = 3,
                   unknown_limit: int = 6, path_cap: int = 4096,
                   chart: Chart | None = None) -> FiberCount:
    """Count a generic fiber numerically; majority over independent trials.

    The run is flagged inconclusive when the trials disagree, when an
    unexplained path failure rate exceeds 5 percent, or when endpoints
    collide (a non-reduced fiber).  Raises PathBudgetError if the Bezout
    bound of a trial exceeds path_cap, and ValueError when the system has
    more than unknown_limit unknowns.
    """
    nv = problem.n - 3
    if nv > unknown_limit:
        raise ValueError(f"{nv} unknowns exceed the limit {unknown_limit}")
    if chart is None:
        chart = default_chart(problem)
    rng = np.random.default_rng(seed)

    counts = []
    tracked = conv = div = fail = 0
    min_sep = math.inf
    reasons = []
    for t in range(trials):
        values = [_draw_value(rng) for _ in problem.quads]
        tseed = int(rng.integers(0, 2**31))
        c, n_tracked, n_acc, n_div, n_fail, sep, multiple = _trial_count(
            problem, chart, values, tseed, path_cap
        )
        counts.append(c)
        tracked += n_tracked
        conv += n_acc
        div += n_div
        fail += n_fail
        min_sep = min(min_sep, sep)
        if multiple:
            reasons.append(f"trial {t}: coincident endpoints")
        if n_tracked and n_fail / n_tracked > 0.05:
            reasons.append(f"trial {t}: {n_fail}/{n_tracked} unexplained path failures")

    if len(set(counts)) > 1:
        reasons.append(f"trials disagree: {counts}")
        count = sorted(counts)[len(counts) // 2]
    else:
        count = counts[0]
    return FiberCount(
        count=count,
        trial_counts=tuple(counts),
        paths_tracked=tracked,
        paths_converged=conv,
        paths_diverged=div,
        paths_failed=fail,
        min_separation=min_sep,
        inconclusive=bool(reasons),
        reasons=tuple(reasons),
    )
