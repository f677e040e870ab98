"""Deciding the (p, R) edge-distribution property with certificates.

A hypergraph is (p, R)-Janson when some nonnegative edge measure nu has
lambda_p(nu) < mass(nu)^2 / R.  The ratio mass^2 / lambda_p is invariant
under scaling, so the decision reduces to minimising lambda_p over the
mass-one simplex.  lambda_p is a positive-semidefinite quadratic form
(a sum of squares of linear functionals), hence the problem is convex:

    minimise  x^T Q x   over  x >= 0, sum x = 1,

with Q[i][j] = (1 + 1/p)^c - 1 - c/p for c = |E_i & E_j|.  The threshold
R* = 1 / min equals the supremum of R for which the hypergraph is
(p, R)-Janson; membership is strict, so R* itself is always a NO.

Two solvers are provided: conditional gradient (Frank-Wolfe) with away
steps and exact line search, in plain Python with O(m) rank-one steps, and
for small edge counts and rational p an exact rational KKT enumeration over
support patterns.  Every verdict comes from one rule on a mass-one point x
(:func:`_decide`): YES when R lambda_p(x) clears 1, NO when R times the dual
bound 2 min_j (Qx)_j - x^T Q x, which lies below the minimum by convexity,
reaches 1; both values come from one pass over x (:func:`_evaluate`, over
:func:`measures.overlap_sums`).  The yes/no queries of
:func:`require_verdict` climb a ladder: an exact copy of a short
Frank-Wolfe run's point goes to that rule; if 1/R lies between its two
values, R >= sum_i 1/Q_ii is a closed-form NO (:func:`_diagonal_no`); only
then does :func:`is_janson` solve.

Queries that need no solve are settled first (:func:`_settled`): an edge of
size <= 1 (including the empty edge) absorbs all mass with lambda = 0, so R*
is infinite; a hypergraph with no edges admits no positive-mass measure, so
R* = 0 and only the R = 0 convention applies.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence

from .errors import BudgetError, InputError, UndecidedError
from .hypercore import Hypergraph, bits_of, mask_of, popcount, restrict_edges
from .measures import (
    Measure,
    add,
    degree,
    lambda_p,
    mass,
    overlap_sums,
    pair_coefficient,
    scale,
)
from .prng import SplitMix64

KKT_EDGE_CAP = 10  # exact path enumerates 2^m support patterns
DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 10**6
BRACKET_MAX_ITER = 1000  # require_verdict's Frank-Wolfe; past it, enumerate
WITNESS_MAX_ROUNDS = 200  # blend-and-restrict rounds of bounded_degree_witness
PRECONDITION_BUDGET = 20000  # its hypothesis checks: enumerated up to this, then sampled
_GRID = 1 << 48

INF = float("inf")


class HypothesisViolation(InputError):
    """The every-large-subset Janson hypothesis failed; carries the subset."""

    def __init__(self, message, w_mask=None, verdict=None):
        super().__init__(message)
        self.w_mask = w_mask
        self.verdict = verdict


@dataclass(frozen=True)
class MinLambdaResult:
    value: object  # Fraction (exact) or float
    witness: Measure  # mass-one measure attaining / approaching the value
    gap: object  # 0 on the exact path
    iterations: int
    exact: bool


@dataclass(frozen=True)
class JansonVerdict:
    answer: str  # "YES" | "NO" | "UNDECIDED"
    r_star: object  # Fraction, float, or math.inf
    witness: Optional[Measure]
    dual_bound: object  # certified lower bound on the simplex minimum
    gap: object
    iterations: int
    tol: float  # always DEFAULT_TOL
    exact: bool
    note: str = ""


def overlap_matrix(h: Hypergraph, p, exact: bool) -> list:
    """Q as a list of rows, with lambda_p(x) = x^T Q x for weights x on
    h.edges."""
    top = max((popcount(e) for e in h.edges), default=0)
    coef = [pair_coefficient(c, p, exact) for c in range(top + 1)]
    return [[coef[popcount(a & b)] for b in h.edges] for a in h.edges]


def _solve_rational(matrix, rhs):
    """One solution of matrix @ x = rhs over the rationals, free variables
    pinned to zero; None when inconsistent."""
    m = len(matrix)
    n = len(matrix[0])
    a = [[Fraction(v) for v in row] + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    pivots = []
    row = 0
    for col in range(n):
        pivot = next((r for r in range(row, m) if a[r][col] != 0), None)
        if pivot is None:
            continue
        a[row], a[pivot] = a[pivot], a[row]
        pv = a[row][col]
        a[row] = [v / pv for v in a[row]]
        for r in range(m):
            if r != row and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [v - factor * w for v, w in zip(a[r], a[row])]
        pivots.append(col)
        row += 1
        if row == m:
            break
    for r in range(row, m):
        if a[r][n] != 0:
            return None
    x = [Fraction(0)] * n
    for r, col in enumerate(pivots):
        x[col] = a[r][n]
    return x


def min_lambda_exact(h: Hypergraph, p) -> MinLambdaResult:
    """Exact simplex minimum by enumerating KKT support patterns.

    On each face the stationary system  2 Q_SS x = lam * 1, sum x = 1  pins
    the face value at lam / 2 (lam is unique per face even when x is not);
    the global minimum is realised on the exact support of a minimiser, where
    a strictly positive stationary solution exists.  Singular faces whose
    particular solution carries a negative sign are skipped: their sign-clean
    stationary points, if any, are rediscovered on the sub-faces, which are
    all enumerated.
    """
    m = len(h.edges)
    if m == 0:
        raise InputError("minimum needs at least one edge")
    if m > KKT_EDGE_CAP:
        raise BudgetError(f"exact path capped at {KKT_EDGE_CAP} edges, got {m}")
    q = overlap_matrix(h, p, exact=True)
    best_value = None
    best_x = None
    supports = sorted(range(1, 1 << m), key=lambda s: (popcount(s), s))
    for support in supports:
        idx = bits_of(support)
        k = len(idx)
        mat = [[2 * q[i][j] for j in idx] + [Fraction(-1)] for i in idx]
        mat.append([Fraction(1)] * k + [Fraction(0)])
        rhs = [Fraction(0)] * k + [Fraction(1)]
        sol = _solve_rational(mat, rhs)
        if sol is None:
            continue
        xs = sol[:k]
        if any(v < 0 for v in xs):
            continue
        value = sol[k] / 2
        if best_value is None or value < best_value:
            best_value = value
            full = [Fraction(0)] * m
            for a, i in enumerate(idx):
                full[i] = xs[a]
            best_x = full
    witness = Measure(h, tuple(best_x), exact=True)
    return MinLambdaResult(best_value, witness, Fraction(0), 1 << m, exact=True)


def _frank_wolfe(q: list, max_iter: int, tol: float, target: Optional[float] = None):
    """Away-step Frank-Wolfe with exact line search for min x^T q x over
    the simplex, from the uniform point, ties going to the lowest index.

    A step along e_i - x (toward vertex i) or x - e_i (away from an active
    vertex i) moves Qx by the rank-one update Qx <- (1 - g) Qx + g q[i]
    (g < 0 away), so it costs O(m): the slope is 2 ((Qx)_i - x^T Q x) and
    the curvature 2 (q_ii - 2 (Qx)_i + x^T Q x).  It stops when the gap is
    within relative ``tol`` of the value, when the line search stalls,
    after ``max_iter`` steps or, given a ``target``, once the bracket
    [value - gap, value] clears it by a relative margin of ``tol``.  The
    point (normalised), its value and its gap are then recomputed in one
    O(m^2) pass, so no rank-one drift reaches them.  Returns
    (x, value, gap, iterations)."""
    m = len(q)
    x = [1.0 / m] * m
    qx = [sum(map(mul, row, x)) for row in q]
    yes_below = -INF if target is None else target * (1.0 - tol)
    no_from = INF if target is None else target * (1.0 + tol)
    iterations = 0
    for iterations in range(1, max_iter + 1):
        value = sum(map(mul, x, qx))
        low = min(qx)
        gap = max(2.0 * (value - low), 0.0)  # roundoff must not inflate the bound
        if gap <= tol * max(abs(value), 1e-300) or value < yes_below or value - gap >= no_from:
            break
        top = max(itertools.compress(qx, x))  # over the active vertices
        if gap >= 2.0 * (top - value):
            i, sign, g_max, can_drop = qx.index(low), 1.0, 1.0, False
        else:
            i = qx.index(top)
            while not x[i]:
                i = qx.index(top, i + 1)
            sign = -1.0
            can_drop = 1.0 - x[i] > 1e-15
            g_max = x[i] / (1.0 - x[i]) if can_drop else 1.0
        slope = 2.0 * sign * (qx[i] - value)
        curvature = 2.0 * (q[i][i] - 2.0 * qx[i] + value)
        gamma = min(g_max, max(0.0, -slope / curvature)) if curvature > 0 else g_max
        if gamma == 0.0:
            break
        g = sign * gamma
        c = 1.0 - g
        x = [c * v for v in x]
        x[i] += g
        qx = [c * a + g * b for a, b in zip(qx, q[i])]
        if x[i] < 0.0 or can_drop and gamma == g_max:
            x[i] = 0.0  # a drop step leaves vertex i
    total = sum(x)
    x = [v / total for v in x]
    qx = [sum(map(mul, row, x)) for row in q]
    value = sum(map(mul, x, qx))
    return x, value, max(2.0 * (value - min(qx)), 0.0), iterations


def min_lambda_fw(h: Hypergraph, p: float, tol: float = DEFAULT_TOL) -> MinLambdaResult:
    """Conditional gradient with away steps and exact line search.

    Deterministic: fixed uniform start, fixed step rule, ties broken at the
    lowest index.  Terminates when the Frank-Wolfe gap certifies the
    optimum within relative ``tol`` (or after DEFAULT_MAX_ITER steps); by
    convexity the simplex minimum is at least (primal - gap).
    """
    if not h.edges:
        raise InputError("minimum needs at least one edge")
    x, value, gap, iterations = _frank_wolfe(
        overlap_matrix(h, float(p), exact=False), DEFAULT_MAX_ITER, tol
    )
    return MinLambdaResult(value, Measure(h, tuple(x), exact=False), gap, iterations, exact=False)


def _evaluate(x: Measure, p):
    """(lambda_p(x), dual bound at x) from one pass over the support of x.

    The pass is :func:`measures.overlap_sums`, giving (Qx)_j for every edge.
    Then lambda_p(x) = sum_j x_j (Qx)_j, and by convexity the simplex
    minimum is at least lambda_p(x) - 2 (lambda_p(x) - min_j (Qx)_j), the
    gap clamped at 0 so that a floating bound never exceeds lambda_p(x).
    On an exact measure with rational p both values are exact."""
    zero = Fraction(0) if x.exact else 0.0
    qx = overlap_sums(x, p)
    lam = sum((w * qj for w, qj in zip(x.weights, qx) if w), zero)
    return lam, lam - max(2 * (lam - min(qx)), zero)


def dual_lower_bound(witness: Measure, p):
    """Certified lower bound on the simplex minimum, recomputed from a
    feasible point without the solver: the second value of
    :func:`_evaluate`, 2 min_j (Qx)_j - x^T Q x.  It shares nothing with the
    solver's loop, so it double-checks the Frank-Wolfe certificate
    independently; on an exact measure with rational p the bound is exact."""
    return _evaluate(witness, p)[1]


_cache: dict = {}  # min_lambda's memo key -> (result, canonical edge order)
_brackets: dict = {}  # (n, canonical edges, p, R) -> True / False / None


def clear_cache():
    _cache.clear()
    _brackets.clear()


def _query(h: Hypergraph, p, tol: float):
    """What a query's solve depends on, decided once: (its edges in sorted
    order, :func:`min_lambda`'s memo key, whether it takes the exact path).

    The exact path takes rational p and at most KKT_EDGE_CAP edges.  Its key
    ends in None and Frank-Wolfe's in ``tol``, so an exact and a floating
    result never share an entry, even where a Fraction p equals a float."""
    edges = tuple(sorted(h.edges))
    exact = isinstance(p, (Fraction, int)) and len(edges) <= KKT_EDGE_CAP
    return edges, (h.n, edges, p, None if exact else tol), exact


def min_lambda(h: Hypergraph, p, tol: float = DEFAULT_TOL) -> MinLambdaResult:
    """Minimise lambda_p over mass-one measures on h: by the exact
    enumeration for rational p and at most KKT_EDGE_CAP edges, by
    Frank-Wolfe otherwise.  Queries that need no solve are settled by
    :func:`_settled`; the rest are memoised on the canonical edge order."""
    settled = _settled(h, p, 1)
    if settled == "NO":
        raise InputError("minimum needs at least one edge")
    if settled == "YES":
        rational = isinstance(p, (Fraction, int))
        zero = Fraction(0) if rational else 0.0
        return MinLambdaResult(zero, _unit_witness(h, rational), zero, 0, rational)

    edges, key, exact = _query(h, p, tol)
    hit = _cache.get(key)
    if hit is None:
        canon = Hypergraph(h.n, edges)
        result = min_lambda_exact(canon, p) if exact else min_lambda_fw(canon, float(p), tol)
        hit = _cache[key] = (result, edges)
    result, edge_order = hit
    ws = result.witness.weights
    if h.edges != edge_order:
        weight_of = dict(zip(edge_order, ws))
        ws = tuple(weight_of[e] for e in h.edges)
    return replace(result, witness=Measure(h, ws, result.exact))


def janson_threshold(h: Hypergraph, p):
    """R* = 1 / (simplex minimum of lambda_p); 0 for an edgeless hypergraph,
    infinity when an edge of size <= 1 lets lambda vanish at positive mass."""
    settled = _settled(h, p, 1)  # R* does not depend on R; any R > 0 will do
    if settled == "NO":
        return Fraction(0) if isinstance(p, (Fraction, int)) else 0.0
    if settled == "YES":
        return INF
    return 1 / min_lambda(h, p).value


def _settled(h: Hypergraph, p, r) -> Optional[str]:
    """"YES" or "NO" for a query that needs no solve, else None.

    R < 0 and p outside (0, 1] raise InputError whatever the edges.  R = 0
    is YES by convention.  For R > 0, no edges is NO (no measure has
    positive mass) and an edge of size <= 1 is YES (unit mass on it has
    zero overlap)."""
    if r < 0:
        raise InputError("R must be nonnegative")
    if not 0 < p <= 1:
        raise InputError("p must lie in (0, 1]")
    if r == 0:
        return "YES"
    if not h.edges:
        return "NO"
    if any(popcount(e) <= 1 for e in h.edges):
        return "YES"
    return None


def _unit_witness(h: Hypergraph, exact: bool) -> Measure:
    """Unit mass on the first edge of size <= 1, where lambda_p vanishes:
    the witness of a query that :func:`_settled` answers YES for R > 0."""
    return Measure.unit_on(h, next(i for i, e in enumerate(h.edges) if popcount(e) <= 1), exact)


def _diagonal_no(h: Hypergraph, p, r) -> bool:
    """True when R >= sum_i 1/Q_ii, a certified NO needing no point.

    No overlap coefficient is negative, so lambda_p(x) >= sum_i Q_ii x_i^2,
    at least 1 / sum_i (1/Q_ii) on the simplex by Cauchy-Schwarz (equal
    when no two edges share two vertices).  Q_ii > 0 once :func:`_settled`
    has ruled out edges of size <= 1; it is taken once per edge size.
    Unless p and R are rational, R must clear the sum by a relative margin
    of DEFAULT_TOL, which covers the rounding of a float sum."""
    exact = isinstance(p, (Fraction, int))
    sizes = Counter(popcount(e) for e in h.edges)
    inverse = sum(k / pair_coefficient(c, p, exact) for c, k in sizes.items())
    if exact and isinstance(r, (Fraction, int)):
        return r >= inverse
    return r >= (1 + DEFAULT_TOL) * inverse


def _decide(x: Measure, p, r):
    """The one YES/NO rule, on a mass-one point x: (answer, dual bound at
    x), both read off one :func:`_evaluate` pass.

    YES when R lambda_p(x) < 1 (exact x) or <= 1 - DEFAULT_TOL (floating
    x): x is the witness.  NO when R times the dual bound at x is >= 1: by
    convexity that bound lies below the simplex minimum, whatever solver
    produced x.  Otherwise UNDECIDED."""
    lam, dual = _evaluate(x, p)
    r = Fraction(r) if x.exact else float(r)
    if r * lam < 1 if x.exact else r * lam <= 1.0 - DEFAULT_TOL:
        return "YES", dual
    if r * dual >= 1:
        return "NO", dual
    return "UNDECIDED", dual


def is_janson(h: Hypergraph, p, r) -> JansonVerdict:
    """Three-valued verdict for the strict inequality lambda < mass^2 / R.

    Queries that need no solve are settled by :func:`_settled`.  Otherwise
    the minimiser of :func:`min_lambda` goes through :func:`_decide`: always
    on the exact path, and on the floating path only when the solver's own
    value or lower bound (value - gap) can decide.  A NO and every exact
    verdict carry the dual bound at the minimiser, which on the exact path
    equals the minimum; an exact minimiser that fails both tests gives
    UNDECIDED, never a guess.
    """
    tol = DEFAULT_TOL
    settled = _settled(h, p, r)
    if settled is not None:
        r_star = janson_threshold(h, p)
        if r == 0:
            note = "R = 0: every hypergraph qualifies by convention"
            return JansonVerdict("YES", r_star, None, None, 0, 0, tol, True, note)
        if settled == "NO":
            note = "no edges: no measure has positive mass"
            return JansonVerdict("NO", r_star, None, INF, 0, 0, tol, True, note)
        exact = isinstance(p, (Fraction, int)) and isinstance(r, (Fraction, int))
        note = "unit mass on a size-<=1 edge has zero overlap"
        witness = _unit_witness(h, exact)
        return JansonVerdict("YES", r_star, witness, None, 0, 0, tol, exact, note)
    result = min_lambda(h, p)
    value, exact = result.value, result.exact
    lower = value - result.gap
    answer, dual = "UNDECIDED", None
    if exact or float(r) * value < 1.0 or float(r) * lower >= 1.0:
        answer, dual = _decide(result.witness, p, r)
    note = ""
    if answer == "UNDECIDED":
        note = (
            "the enumeration's minimiser fails the re-check" if exact
            else "optimum sits within tolerance of the strict boundary"
        )
    witness = None if answer == "NO" else result.witness
    bound = dual if exact or answer == "NO" else lower
    gap = 0 if exact else result.gap
    return JansonVerdict(answer, 1 / value, witness, bound, gap, result.iterations, tol, exact, note)


def require_verdict(h: Hypergraph, p, r, context: str = "") -> bool:
    """True/False for YES/NO; UNDECIDED aborts with the offending instance.

    Queries that need no solve are settled by :func:`_settled`.  Exact
    queries are then put to :func:`_bracket_verdict`; what its bracket
    cannot decide meets the closed-form NO of :func:`_diagonal_no`, and only
    what that leaves goes through :func:`is_janson`."""
    settled = _settled(h, p, r)
    if settled is not None:
        return settled == "YES"
    decided = _bracket_verdict(h, p, r)
    if decided is not None:
        return decided
    if _diagonal_no(h, p, r):
        return False
    verdict = is_janson(h, p, r)
    if verdict.answer == "UNDECIDED":
        raise UndecidedError(
            f"Janson query undecided{': ' + context if context else ''}",
            detail={"edges": h.edges, "n": h.n, "p": p, "R": r, "gap": verdict.gap},
        )
    return verdict.answer == "YES"


def _bracket_verdict(h: Hypergraph, p, r):
    """The exact answer to "is lambda_p < 1/R somewhere on the simplex?",
    or None when this shortcut does not apply or cannot tell.

    It applies, after :func:`_settled`, where :func:`is_janson` would
    enumerate: rational R, a query on the exact path of :func:`_query`, and
    no memoised minimum yet.  A floating Frank-Wolfe point, made exact and
    of mass one, goes through :func:`_decide`, which answers exactly; None
    when 1/R lies between its dual bound and lambda_p."""
    if not isinstance(r, (Fraction, int)):
        return None
    edges, key, exact = _query(h, p, DEFAULT_TOL)
    if not exact or key in _cache:
        return None
    key = key[:3] + (Fraction(r),)
    if key in _brackets:
        return _brackets[key]
    canon = Hypergraph(h.n, edges)
    try:
        q = overlap_matrix(canon, float(p), exact=False)
        point = _frank_wolfe(q, BRACKET_MAX_ITER, DEFAULT_TOL, 1.0 / float(r))[0]
        # on the dyadic grid of step 2^-48, the rounding residue moved to
        # the largest coordinate so that the mass is exactly one
        grid = [round(v * _GRID) for v in point]
    except (ArithmeticError, ValueError):
        return None  # p, R or the overlaps beyond float range: enumerate
    grid[grid.index(max(grid))] += _GRID - sum(grid)
    x = Measure(canon, tuple(Fraction(k, _GRID) for k in grid), exact=True)
    answer = _decide(x, p, r)[0]
    decided = _brackets[key] = {"YES": True, "NO": False}.get(answer)
    return decided


# ---------------------------------------------------------------------------
# Bounded-degree witnesses


def _witness_mass_one(h: Hypergraph, p, r, context) -> Measure:
    verdict = is_janson(h, p, r)
    if verdict.answer != "YES":
        raise HypothesisViolation(
            f"{context}: expected a YES verdict, got {verdict.answer}",
            verdict=verdict,
        )
    return verdict.witness


def bounded_degree_witness(
    h: Hypergraph,
    p,
    r,
    beta,
    seed: int = 0,
):
    """Witness with mass sqrt(R), lambda below mass^2 / R, and
    sum_v d(v)^2 <= 2 s^2 mass^2 / (beta v(h)).

    Hypothesis: every induced sub-hypergraph on at least (1 - beta) v(h)
    vertices is (p, R)-Janson.  Checking the minimum size suffices because
    the property only improves under adding vertices; subsets are enumerated
    up to ``PRECONDITION_BUDGET`` and sampled beyond it.

    The construction follows the blend-and-restrict scheme: starting from an
    optimal witness, repeatedly solve on the low-degree vertex set
    W = {v : d(v) <= s * mass / (beta v(h))} and blend with step
    tau = min(1, 1/(beta v(h))) / 2 until the degree-square bound holds.
    All arithmetic runs on mass-one measures; the returned measure is the
    final witness scaled to mass sqrt(R).
    """
    s = h.uniformity()
    if s is None:
        raise InputError("bounded-degree witnesses need an s-uniform hypergraph")
    if s <= 1:
        raise InputError("uniformity must be at least 2")
    if not 0 < beta < 1:
        raise InputError("beta must lie in (0, 1)")
    if r <= 0:
        raise InputError("R must be positive")
    nverts = h.n
    w_size = math.ceil((1 - beta) * nverts)

    if math.comb(nverts, w_size) <= PRECONDITION_BUDGET:
        w_masks = map(mask_of, itertools.combinations(range(nverts), w_size))
    else:
        rng = SplitMix64(seed)
        w_masks = (rng.sample_mask(nverts, w_size) for _ in range(PRECONDITION_BUDGET))
    for w_mask in w_masks:
        sub = restrict_edges(h, w_mask)
        verdict = is_janson(sub, p, r)
        if verdict.answer != "YES":
            raise HypothesisViolation(
                f"induced sub-hypergraph on {bits_of(w_mask)} is not certified (p, R)-Janson "
                f"(verdict {verdict.answer})",
                w_mask=w_mask,
                verdict=verdict,
            )

    nu = _witness_mass_one(h, p, r, "initial witness").to_float()
    target = 2.0 * s * s / (beta * nverts)  # mass-one form of the bound
    tau = min(1.0, 1.0 / (beta * nverts)) / 2.0
    cutoff = s / (beta * nverts)
    for _ in range(WITNESS_MAX_ROUNDS):
        degrees = [float(degree(nu, 1 << v)) for v in range(nverts)]
        if sum(d**2 for d in degrees) <= target:
            break
        w_mask = mask_of(v for v, d in enumerate(degrees) if d <= cutoff)
        sub = restrict_edges(h, w_mask)
        if not sub.edges:
            raise HypothesisViolation(
                "low-degree vertex set spans no edges", w_mask=w_mask
            )
        nu_prime_sub = _witness_mass_one(sub, p, r, "restricted witness").to_float()
        weight_of = dict(zip(sub.edges, nu_prime_sub.weights))
        nu_prime = Measure(
            h, tuple(weight_of.get(e, 0.0) for e in h.edges), exact=False
        )
        nu = add(scale(nu, 1.0 - tau), scale(nu_prime, tau))
    else:
        raise BudgetError(f"degree bound not reached within {WITNESS_MAX_ROUNDS} rounds")

    return scale(nu, math.sqrt(float(r)))


# ---------------------------------------------------------------------------
# Witness aggregation


@dataclass(frozen=True)
class AggregationReport:
    total_mass: object
    lambda_total: object
    lambda_parts: tuple
    max_shared: int  # max over L of the number of supports containing L
    bound: object  # max_shared * sum of per-part lambdas
    chain_holds: bool


def aggregate_witnesses(
    family: Sequence[tuple[int, Measure]], host: Hypergraph, p
) -> tuple[Measure, AggregationReport]:
    """Sum per-subset unit-mass witnesses and check the shared-overlap chain
    lambda(sum) <= max_L #{S : L inside S} * sum of lambdas."""
    if not family:
        raise InputError("aggregation needs at least one witness")
    exact = family[0][1].exact
    for s_mask, nu in family:
        if nu.host != host or nu.exact != exact:
            raise InputError("witnesses must share the host and arithmetic mode")
        for e, w in zip(host.edges, nu.weights):
            if w > 0 and e & ~s_mask:
                raise InputError("witness weight outside its subset's edges")
        m = mass(nu)
        if exact and m != 1:
            raise InputError("witnesses must be normalised to mass one")
        if not exact and abs(m - 1.0) > 1e-9:
            raise InputError("witnesses must be normalised to mass one")

    total = Measure.zero(host, exact)
    for _, nu in family:
        total = add(total, nu)

    parts = tuple(lambda_p(nu, p) for _, nu in family)
    lam_total = lambda_p(total, p)

    # #{S : L inside S} only falls as L grows, so its maximum over the L
    # with |L| >= 2 inside a positive-weight edge sits on a pair
    pairs = {
        (1 << u) | (1 << v)
        for e, w in zip(host.edges, total.weights)
        if w > 0
        for u, v in itertools.combinations(bits_of(e), 2)
    }
    max_shared = max(
        (sum(1 for s_mask, _ in family if l_mask & ~s_mask == 0) for l_mask in pairs),
        default=0,
    )

    bound = max_shared * sum(parts, Fraction(0) if exact else 0.0)
    slack = 0 if exact else 1e-9 * max(1.0, abs(float(bound)))
    report = AggregationReport(
        total_mass=mass(total),
        lambda_total=lam_total,
        lambda_parts=parts,
        max_shared=max_shared,
        bound=bound,
        chain_holds=bool(lam_total <= bound + slack),
    )
    return total, report
