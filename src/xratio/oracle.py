"""Numeric fiber counting, independent of the exact engine.

A configuration of k = n-3 quads determines k cross-ratio equations in
the point positions.  Fixing three labels at (inf, 0, 1) kills the
Moebius freedom, leaving a square polynomial system in the remaining k
positions.  A chart is the triple (inf, zero, one) of the labels it pins;
the other labels, in ascending order, are the unknowns z.  The targets are
plain values: lambda_j is the cross-ratio asked of problem.quads[j], on
its labels in ascending order, (a, b, c, d) -> (a-c)(b-d) / ((a-d)(b-c)).
Clearing its denominator gives the equation N_j - lambda_j D_j, where N_j
and D_j are each a product of two differences of chart positions (a
difference through the label at infinity cancels between them); the
system keeps it in that product form, four affine factors per equation.
It has degree at most 1 in each unknown and is supported on the unknowns
of its quad.  So the multihomogeneous Bezout number with one group per
unknown is the permanent of the 0/1 matrix "quad j holds unknown i", the
number of perfect matchings of quads to unknowns.  The charts pin three labels
of one quad, as listed by `engine.surplus`, whose Hall test finds the
charts with none.  One enumerator, `_matchings`, lists the others'
matchings: `matching_bound` counts them chart by chart, stopping at the
least count found so far, and pins the three labels that make it
smallest; the homotopy takes its start roots from it.  Each enumeration
has MATCHING_STEPS search steps, so a call's work is bounded.

The homotopy (Morgan & Sommese's m-homogeneous homotopy with the gamma
trick) starts from the linear product G_j(z) = prod_{i in S_j} (z_i - a_ji)
with random a_ji, which has the same support and one root per perfect
matching.  It tracks exactly the bound, and where the bound is tight
every path ends on a fiber point.  Each tracker step is a classical RK4
predictor on dz/dt = -H_z^-1 H_t and a few Newton corrections; a path
stops when it arrives at t = 1, escapes past |z| = 1e8, stalls or runs
out of steps.  For generic targets every fiber point is a nondegenerate
solution, so judging the endpoints once, in one array pass over the
equation factors, against the non-configurations (coordinate collisions,
values 0/1, infinity) and the target cross-ratios counts the fiber.
The count is repeated for independent target draws and cross-checked;
the paths of all draws of one call are tracked together, in stacked
batches of at most BATCH_BYTES.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .engine import CrossRatioProblem
from .engine.instance import _is_int
from .engine.surplus import hall_failure, quad_charts

__all__ = [
    "CrossRatioSystem",
    "PathResult",
    "FiberCount",
    "PathBudgetError",
    "matching_bound",
    "build_system",
    "solve_total_degree",
    "numeric_degree",
]

TRIALS = 3  # independent target draws per numeric_degree call
MAX_STEPS = 3000  # predictor-corrector steps per path
MATCHING_STEPS = 1 << 22  # search steps of one chart scan or start-root enumeration
BATCH_BYTES = 1 << 26  # per-path arrays of the paths tracked at once


class PathBudgetError(RuntimeError):
    """Raised when a matching bound exceeds the path cap or a matching
    search its MATCHING_STEPS steps."""


def _check_count(name, value, optional=False):
    """ValueError naming the argument unless value is an int >= 0 (or
    None, when optional)."""
    if not (optional and value is None or _is_int(value) and value >= 0):
        none = "None or " if optional else ""
        raise ValueError(f"{name} must be {none}an integer >= 0, got {value!r}")


def _matchings(rows: list[int], steps: list[int]):
    """Perfect matchings of a 0/1 matrix given as one column bitmask per
    row, by DFS in ascending column order; each is yielded as the column
    matched to every row.  Dead ends can make the search exponential, so
    it counts steps[0] down and raises PathBudgetError below zero."""
    pick = [0] * len(rows)

    def extend(j, used):
        steps[0] -= 1
        if steps[0] < 0:
            raise PathBudgetError(f"matching search exceeds {MATCHING_STEPS} steps")
        if j == len(rows):
            yield tuple(pick)
            return
        free = rows[j] & ~used
        while free:
            bit = free & -free
            free ^= bit
            pick[j] = bit.bit_length() - 1
            yield from extend(j + 1, used | bit)

    return extend(0, 0)


def matching_bound(problem: CrossRatioProblem,
                   cap: int | None = None) -> tuple[int, tuple[int, int, int]]:
    """The least permanent, over the charts of `surplus.quad_charts`, of
    the 0/1 matrix "quad j holds unknown i", and the chart that attains it
    as the labels (inf, zero, one) it pins.

    Every permanent bounds the degree from above.  A chart failing the
    Hall test `surplus.hall_failure` has permanent 0, and one fails
    exactly when the degree is 0: the first is returned with bound 0
    before any matching is counted.  Otherwise ties go to the first chart
    in lexicographic order, so the first chart is counted up to cap + 1
    (in full without a cap) and every later one only up to the least
    count so far; a bound above the cap is returned as cap + 1.  The
    count takes at most MATCHING_STEPS search steps, else
    PathBudgetError.  Of the pinned labels, the one in the most quads (on
    a tie, the smaller) goes to infinity, which makes its quads' equations
    linear, and the other two go to 0 and 1 in ascending order.  A cap
    that is neither None nor an int >= 0 is a ValueError.
    """
    _check_count("cap", cap, optional=True)
    n, masks = problem.compact()
    charts = quad_charts(masks)
    bound = 0
    triple = next((r for r in charts if hall_failure(n, masks, r) is not None), None)
    if triple is None:
        steps = [MATCHING_STEPS]
        most = None if cap is None else cap + 1  # no chart is counted further
        for cand in charts:
            pinned = sum(1 << b for b in cand)
            # fewest choices first: the DFS then meets dead ends early
            rows = sorted((q & ~pinned for q in masks), key=int.bit_count)
            perm = sum(1 for _ in islice(_matchings(rows, steps), most))
            if triple is None or perm < bound:
                bound, triple, most = perm, cand, perm
    triple = [b + 1 for b in triple]
    freq = {lab: sum(lab in q for q in problem.quads) for lab in triple}
    inf_label = max(triple, key=lambda lab: (freq[lab], -lab))
    return bound, (inf_label, *(lab for lab in triple if lab != inf_label))


_PARTNER = np.array([1, 0, 3, 2])  # the other factor of each factor's product


def _factors(K, R, z):
    """Factors f_jf = K[jf] + R[jf] @ z of stacked systems (see _target_eval)."""
    P, k, _, nv = R.shape
    return K + (R.reshape(P, 4 * k, nv) @ z[..., None]).reshape(P, k, 4)


def _target_eval(K, R, coef, z):
    """F_j = f_j0 f_j1 - lam_j f_j2 f_j3 and its Jacobian by the product
    rule, for stacked systems: factor f_jf = K[jf] + R[jf] @ z and
    coef[j] = (1, 1, -lam_j, -lam_j), with K (P,k,4), R (P,k,4,k),
    coef (P,k,4), z (P,k).  The (P*k) small products are flattened into
    one batch each, which keeps the few-path calls cheap."""
    P, k, _, nv = R.shape
    f = _factors(K, R, z)
    w = f[..., _PARTNER] * coef  # dF_j / df_jf
    fw = f * w
    jac = (w.reshape(P * k, 1, 4) @ R.reshape(P * k, 4, nv)).reshape(P, k, nv)
    return fw[..., 0] + fw[..., 2], jac


def _start_eval(A, M, z):
    """G_j = prod_{i in S_j} (z_i - a_ji) and its Jacobian, for stacked
    systems: A (P,k,k) holds a_ji, M (P,k,k) marks i in S_j.  Each partial
    derivative is a prefix times a suffix product along the row, so none
    divides by a factor that vanishes at a start root."""
    D = np.where(M, z[:, None, :] - A, 1)
    lead = np.ones(D.shape[:-1] + (1,), dtype=D.dtype)
    pre = np.cumprod(np.concatenate([lead, D], axis=-1), axis=-1)
    suf = np.cumprod(np.concatenate([lead, D[..., ::-1]], axis=-1), axis=-1)[..., -2::-1]
    return pre[..., -1], np.where(M, pre[..., :-1] * suf, 0)


def _solve(H, b):
    """Solve H[p] x[p] = b[p] for every p.  Returns x and a mask of the
    systems that could be solved; a singular one is solved alone so it
    cannot sink the rest."""
    try:
        return np.linalg.solve(H, b[..., None])[..., 0], np.ones(len(b), dtype=bool)
    except np.linalg.LinAlgError:
        x = np.zeros_like(b)
        good = np.ones(len(b), dtype=bool)
        for p in range(len(b)):
            try:
                x[p] = np.linalg.solve(H[p], b[p])
            except np.linalg.LinAlgError:
                good[p] = False
        return x, good


@dataclass(frozen=True, eq=False)
class CrossRatioSystem:
    """Cleared equations N_j - lam_j * D_j in product form, in the chart
    (inf, zero, one) of pinned labels, lam_j = values[j].

    For the quad (a, b, c, d) of equation j, factor f of the pairs
    (a,c), (b,d), (a,d), (b,c) is K[j, f] + R[j, f] @ z, the difference of
    the two chart positions; a factor through the infinite label is the
    constant 1, since that label cancels between N_j and D_j.  Each factor
    carries the coefficient of its product, coef[j] = (1, 1, -lam_j, -lam_j),
    so F_j = f_j0 f_j1 - lam_j f_j2 f_j3.
    """

    chart: tuple[int, int, int]
    values: tuple[complex, ...]
    K: np.ndarray
    R: np.ndarray
    coef: np.ndarray

    @property
    def nv(self) -> int:
        return self.R.shape[2]

    @property
    def support(self) -> np.ndarray:
        """Boolean (k, k): unknown i has a coefficient in some factor of
        equation j."""
        return (self.R != 0).any(axis=1)


def build_system(problem: CrossRatioProblem, values,
                 chart: tuple[int, int, int] | None = None) -> CrossRatioSystem:
    """Assemble the cleared square system whose equation j asks for the
    cross-ratio values[j] of problem.quads[j], its labels in ascending
    order, in the chart (inf, zero, one), by default that of
    `matching_bound(problem)`.  The unpinned labels are the unknowns, in
    ascending order.  A chart that does not pin three distinct int labels
    of 1..n, or a value count other than the quad count, is a ValueError.
    """
    n = problem.n
    if chart is None:
        chart = matching_bound(problem)[1]
    if not (len(chart) == 3 and all(_is_int(lab) and 1 <= lab <= n for lab in chart)
            and len(set(chart)) == 3):
        raise ValueError(
            f"chart {chart!r} does not pin three distinct int labels of 1..{n}")
    values = tuple(values)
    k = len(problem.quads)
    if len(values) != k:
        raise ValueError(f"need one value per quad ({k}), got {len(values)}")
    inf, _, one = chart
    col = {lab: i for i, lab in enumerate(lab for lab in range(1, n + 1) if lab not in chart)}
    K = np.ones((k, 4), dtype=complex)
    R = np.zeros((k, 4, n - 3), dtype=complex)
    coef = np.ones((k, 4), dtype=complex)
    for j, (quad, value) in enumerate(zip(problem.quads, values)):
        a, b, c, d = sorted(quad)
        coef[j, 2:] = -value
        for f, (p, q) in enumerate(((a, c), (b, d), (a, d), (b, c))):
            if inf in (p, q):
                continue  # the infinite point cancels between N and D
            K[j, f] = (p == one) - (q == one)  # at z = 0 only the one label is not at 0
            for lab, sign in ((p, 1), (q, -1)):
                if lab in col:
                    R[j, f, col[lab]] = sign
    return CrossRatioSystem(chart, values, K, R, coef)


@dataclass(frozen=True)
class PathResult:
    """Endpoint of one homotopy path and its final verdict.

    converged: the path arrived, its polished residual is below 1e-10 *
    max(1, |z|^2), z is 1e-8 away from every non-configuration and its
    cross-ratios are within 1e-8 of the targets, so z is a point of the
    system's target fiber.  diverged: the path solves the cleared
    equations with a vanishing denominator, or else it stopped within 1e-4
    of a non-configuration or beyond 1e3 in norm.  failed: neither.
    residual is NaN for a path that did not arrive.
    """

    status: str          # converged | diverged | failed
    z: tuple
    residual: float
    steps: int


def _newton(evaluate, z, live, iters: int, tol: float):
    """Newton steps on the rows of z, in place, for the rows marked live.

    evaluate(z) gives the values and Jacobians of every row.  A row stops
    when its step is shorter than tol * max(1, |z|) (it converged) or its
    linear solve fails (live is cleared for it); at most iters steps.
    Returns the mask of converged rows.
    """
    ok = np.zeros(len(z), dtype=bool)
    for _ in range(iters):
        sel = np.flatnonzero(live & ~ok)
        if not len(sel):
            break
        F, J = evaluate(z)
        delta, good = _solve(J[sel], -F[sel])
        live[sel[~good]] = False
        sel, delta = sel[good], delta[good]
        z[sel] += delta
        small = (np.linalg.norm(delta, axis=1)
                 < tol * np.maximum(1.0, np.linalg.norm(z[sel], axis=1)))
        ok[sel[small]] = True
    return ok


def _predict(slope, t, z, dt):
    """One classical RK4 step of dz/dt = slope(t, z) from (t, z) to t + dt,
    for the rows of z: four slopes, at (t, z), twice at t + dt/2 and at
    t + dt.  slope(t, z) gives the slopes of every row and the mask of
    the rows whose linear solve succeeded.  Returns the predicted z and
    the mask of the rows whose four slopes all succeeded."""
    h = dt[:, None]
    k1, ok1 = slope(t, z)
    k2, ok2 = slope(t + dt / 2, z + h / 2 * k1)
    k3, ok3 = slope(t + dt / 2, z + h / 2 * k2)
    k4, ok4 = slope(t + dt, z + h * k3)
    return z + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4), ok1 & ok2 & ok3 & ok4


def _track(K, R, coef, A, M, gamma, z):
    """Track every row of z along (1-t)*gamma*G + t*F from t=0 to 1.

    RK4 predictor on dz/dt = -H_z^-1 H_t (four batched solves per step),
    few-step Newton corrector, step halving on corrector failure; each
    path keeps its own t, step size, success streak and step count.  It
    stops on arrival (corrected at t = 1, |z| <= 1e8), escape (corrected,
    |z| > 1e8), stall (step below 1e-9 after a failed correction) or after
    MAX_STEPS steps.  Returns the end points, arrival mask and step counts.
    """
    P = len(z)
    end_z = z.copy()
    arrived = np.zeros(P, dtype=bool)
    steps_at_end = np.zeros(P, dtype=int)
    ids = np.arange(P)
    t = np.zeros(P)
    dt = np.full(P, 0.05)
    streak = np.zeros(P, dtype=int)
    steps = np.zeros(P, dtype=int)
    work = [K, R, coef, A, M, gamma]

    def homotopy(tt, zz, slope=False):
        # H and H_z of H = (1-t)*gamma*G + t*F; with slope, the solve of
        # dz/dt = -H_z^-1 H_t with H_t = F - gamma*G instead
        Kw, Rw, cw, Aw, Mw, gw = work
        G, JG = _start_eval(Aw, Mw, zz)
        F, JF = _target_eval(Kw, Rw, cw, zz)
        s = (1 - tt) * gw
        Hz = s[:, None, None] * JG + tt[:, None, None] * JF
        if slope:
            return _solve(Hz, gw[:, None] * G - F)
        return s[:, None] * G + tt[:, None] * F, Hz

    while len(ids):
        steps += 1
        dt = np.minimum(dt, 1.0 - t)
        t1 = t + dt
        z1, live = _predict(lambda tt, zz: homotopy(tt, zz, True), t, z, dt)
        ok = _newton(lambda zz: homotopy(t1, zz), z1, live, 3, 1e-9)

        z = np.where(ok[:, None], z1, z)
        t = np.where(ok, t1, t)
        streak = np.where(ok, streak + 1, 0)
        grow = streak >= 4
        dt = np.where(grow, np.minimum(dt * 2, 0.1), np.where(ok, dt, dt / 2))
        streak[grow] = 0
        big = np.linalg.norm(z, axis=1)
        arrive = ok & (big <= 1e8) & (t >= 1.0)
        out = arrive | (steps >= MAX_STEPS) | (~ok & (dt < 1e-9)) | (ok & (big > 1e8))
        if out.any():
            end_z[ids[out]] = z[out]
            arrived[ids[out]] = arrive[out]
            steps_at_end[ids[out]] = steps[out]
            keep = ~out
            ids, t, dt, streak, steps, z = ids[keep], t[keep], dt[keep], streak[keep], steps[keep], z[keep]
            work = [w[keep] for w in work]
    return end_z, arrived, steps_at_end


def solve_total_degree(systems, seeds) -> list[PathResult]:
    """Track every start root of every system to its target, the paths of
    all systems stacked in batches; returns one PathResult per path,
    system by system, whose status is final: the converged paths of a
    system are its fiber points, with repeats where paths coincide.

    The name is historical: the start system is no longer total-degree.
    For each system, a generator seeded with its seed draws gamma and the
    random a_ji of the linear product G_j(z) = prod_{i in S_j} (z_i - a_ji)
    over the support S_j of equation j.  Its roots, one per perfect
    matching of equations to unknowns, are the start points.  All systems
    must have the same number of unknowns nv.  Each path stacks about
    twenty complex nv x nv arrays at once (its four factor rows, a_ji, the
    Jacobians and their temporaries), so a batch holds at most BATCH_BYTES
    of them.
    """
    systems, seeds = list(systems), list(seeds)
    if len(systems) != len(seeds):
        raise ValueError("need one seed per system")
    paths = []  # (K, R, coef, a_ji, support, gamma, start point)
    for system, seed in zip(systems, seeds):
        support = system.support
        rng = np.random.default_rng(seed)
        gamma = complex(cmath.exp(1j * rng.uniform(0, 2 * math.pi)))
        A = np.where(support, rng.normal(size=support.shape)
                     + 1j * rng.normal(size=support.shape), 0)
        rows = [sum(1 << i for i in np.flatnonzero(row).tolist()) for row in support]
        for match in _matchings(rows, [MATCHING_STEPS]):
            cols = list(match)
            z0 = np.zeros(system.nv, dtype=complex)
            z0[cols] = A[range(len(cols)), cols]
            paths.append((system.K, system.R, system.coef, A, support, gamma, z0))
    if not paths:
        return []
    batch = max(1, BATCH_BYTES // (16 * 20 * max(1, systems[0].nv) ** 2))
    results = []
    for lo in range(0, len(paths), batch):
        K, R, coef, A, M, gamma, z = map(np.array, zip(*paths[lo:lo + batch]))
        end_z, arrived, steps = _track(K, R, coef, A, M, gamma, z)
        status, residual = _verdict(K, R, coef, end_z, arrived)
        results += map(PathResult, status.tolist(), map(tuple, end_z),
                       residual.tolist(), steps.tolist())
    return results


def _near_degenerate(z, tol: float):
    """Which rows of z are within tol of a non-configuration: a coordinate
    at 0 or 1, or two coordinates colliding, relative to the larger of the two."""
    a = np.abs(z)
    close = np.abs(z[:, :, None] - z[:, None, :]) < tol * np.maximum(
        1.0, np.maximum(a[:, :, None], a[:, None, :]))
    return ((a < tol) | (np.abs(z - 1) < tol)).any(axis=1) | np.triu(close, 1).any(axis=(1, 2))


def _verdict(K, R, coef, z, arrived):
    """Polish the arrivals among the end points z of a batch, in place,
    and return every path's status and residual (see PathResult), read off
    the factors: f_j0 f_j1 / (f_j2 f_j3) is quad j's cross-ratio."""
    a = np.flatnonzero(arrived)
    K, R, coef, za = K[a], R[a], coef[a], z[a]
    _newton(lambda zz: _target_eval(K, R, coef, zz), za, np.ones(len(a), dtype=bool), 12, 1e-13)
    z[a] = za
    f = _factors(K, R, za)
    num, den, lam = f[..., 0] * f[..., 1], f[..., 2] * f[..., 3], -coef[..., 2]
    residual = np.full(len(z), math.nan)
    residual[a] = np.abs(num - lam * den).max(axis=1, initial=0.0)
    solved, fiber = np.zeros((2, len(z)), dtype=bool)
    solved[a] = residual[a] < 1e-10 * np.maximum(1.0, np.linalg.norm(za, axis=1) ** 2)
    on = solved[a] & ~_near_degenerate(za, 1e-8)
    fiber[a[on]] = (np.abs(num[on] / den[on] - lam[on]) < 1e-8).all(axis=1)
    # off the fiber, a solved path has a vanishing denominator
    lost = solved | (np.linalg.norm(z, axis=1) > 1e3) | _near_degenerate(z, 1e-4)
    return np.where(fiber, "converged", np.where(lost, "diverged", "failed")), residual


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
    bound: int                   # paths per trial: the matching bound
    chart: tuple[int, int, int]  # labels pinned at inf, 0, 1
    reasons: tuple[str, ...] = field(default_factory=tuple)

    def to_json(self) -> dict:
        return {
            "count": self.count,
            "trials": list(self.trial_counts),
            "bound": self.bound,
            "chart": list(self.chart),
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


def _distinct(points):
    """The number of distinct points, whether two coincide (within 1e-6
    relative: a non-reduced fiber), and the least distance between the
    distinct ones."""
    reps: list[np.ndarray] = []
    multiple = False
    min_sep = math.inf
    for z in points:
        dists = [float(np.linalg.norm(z - w)) for w in reps]
        if any(d < 1e-6 * max(1.0, np.linalg.norm(z)) for d in dists):
            multiple = True
        else:
            min_sep = min([min_sep, *dists])
            reps.append(z)
    return len(reps), multiple, min_sep


def numeric_degree(problem: CrossRatioProblem, seed: int = 1729,
                   unknown_limit: int | None = None, path_cap: int = 4096) -> FiberCount:
    """Count a generic fiber numerically; majority over TRIALS independent
    target draws, all tracked in the chart of `matching_bound`.

    A trial counts the distinct converged endpoints of its paths, and the
    path counts tally the statuses `solve_total_degree` returns.  The run
    is flagged inconclusive when the trials disagree, when over 5 percent
    of a trial's paths failed, or when converged endpoints coincide (a
    non-reduced fiber).  Raises PathBudgetError if the matching bound or
    search exceeds its budget, and ValueError when the system has more
    than unknown_limit unknowns (None: no limit) or when seed, path_cap
    or a non-None unknown_limit is not an int >= 0.
    """
    _check_count("seed", seed)
    _check_count("unknown_limit", unknown_limit, optional=True)
    _check_count("path_cap", path_cap)
    nv = problem.n - 3
    if unknown_limit is not None and nv > unknown_limit:
        raise ValueError(f"{nv} unknowns exceed the limit {unknown_limit}")
    bound, chart = matching_bound(problem, path_cap)
    if bound > path_cap:
        raise PathBudgetError(f"matching bound exceeds path cap {path_cap}")
    rng = np.random.default_rng(seed)
    systems, seeds = [], []
    for _ in range(TRIALS):
        values = [_draw_value(rng) for _ in problem.quads]
        seeds.append(int(rng.integers(0, 2**31)))
        systems.append(build_system(problem, values, chart))
    # bound 0: every chart is dead, so there is no start root to track
    results = solve_total_degree(systems, seeds) if bound else []

    statuses = [r.status for r in results]
    counts = []
    min_sep = math.inf
    reasons = []
    for t in range(TRIALS):
        trial = slice(t * bound, (t + 1) * bound)
        c, multiple, sep = _distinct(np.array(r.z) for r in results[trial]
                                     if r.status == "converged")
        counts.append(c)
        min_sep = min(min_sep, sep)
        if multiple:
            reasons.append(f"trial {t}: coincident endpoints")
        fail = statuses[trial].count("failed")
        if bound and fail / bound > 0.05:
            reasons.append(f"trial {t}: {fail}/{bound} unexplained path failures")

    if len(set(counts)) > 1:
        reasons.append(f"trials disagree: {counts}")
        count = sorted(counts)[len(counts) // 2]
    else:
        count = counts[0]
    return FiberCount(
        count=count,
        trial_counts=tuple(counts),
        paths_tracked=len(statuses),
        paths_converged=statuses.count("converged"),
        paths_diverged=statuses.count("diverged"),
        paths_failed=statuses.count("failed"),
        min_separation=min_sep,
        inconclusive=bool(reasons),
        bound=bound,
        chart=chart,
        reasons=tuple(reasons),
    )
