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
support patterns.  The exact path enumerates each coupled block on its own
(:func:`_min_lambda_blocks`): Q_ij is 0 when E_i and E_j share at most one
vertex, so Q is block-diagonal over the connected components of the graph
"shares at least two vertices" on the edges.  A component of one edge (an
isolated edge) is a 1 x 1 block; a component b of k_b >= 2 edges (a
coupled block) is enumerated over its own 2^k_b - 1 supports, not the
2^m - 1 of the whole.  On the simplex the minima combine in closed form:

    1/min = sum_isolated 1/Q_ii + sum_b 1/mu_b,

with x_i proportional to 1/Q_ii and each block's own minimiser scaled by
(1/mu_b) / (1/min).  Once :func:`_settled` has ruled out edges of size
<= 1, Q is positive definite, so the minimiser is unique and this is the
point the full enumeration would return.  Every verdict comes from one rule
on a mass-one point x
(:func:`_decide`): YES when R lambda_p(x) clears 1, NO when R times the dual
bound 2 min_j (Qx)_j - x^T Q x, which lies below the minimum by convexity,
reaches 1; both values come from one pass over x (:func:`_evaluate`, over
:func:`measures.overlap_sums`).  The yes/no queries of
:func:`require_verdict` climb one ladder: R >= sum_i 1/Q_ii is a
closed-form NO (:func:`_diagonal_no`); only what that leaves goes to
:func:`is_janson`.

Queries that need no solve are settled first (:func:`_settled`): an edge of
size <= 1 (including the empty edge) absorbs all mass with lambda = 0, so R*
is infinite; a hypergraph with no edges admits no positive-mass measure, so
R* = 0 and only the R = 0 convention applies.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from operator import mul

from .errors import BudgetError, InputError, UndecidedError
from .hypercore import Hypergraph, Value, _set, bits_of, popcount
from .measures import Measure, is_rational, overlap_sums, pair_coefficient

KKT_EDGE_CAP = 10  # exact path: a coupled block of k edges has 2^k - 1 supports
DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 10**6

INF = float("inf")


class MinLambdaResult(Value):
    __slots__ = ("value", "witness", "gap", "iterations", "exact")

    def __init__(self, value, witness: Measure, gap, iterations: int, exact: bool):
        _set(self, "value", value)  # Fraction (exact) or float
        _set(self, "witness", witness)  # mass-one measure attaining / approaching the value
        _set(self, "gap", gap)  # 0 on the exact path
        _set(self, "iterations", iterations)
        _set(self, "exact", exact)


class JansonVerdict(Value):
    __slots__ = (
        "answer", "r_star", "witness", "dual_bound", "gap", "iterations", "tol", "exact", "note"
    )

    def __init__(
        self,
        answer: str,
        r_star,
        witness: Measure | None,
        dual_bound,
        gap,
        iterations: int,
        tol: float,
        exact: bool,
        note: str = "",
    ):
        _set(self, "answer", answer)  # "YES" | "NO" | "UNDECIDED"
        _set(self, "r_star", r_star)  # Fraction, float, or math.inf
        _set(self, "witness", witness)
        _set(self, "dual_bound", dual_bound)  # certified lower bound on the simplex minimum
        _set(self, "gap", gap)
        _set(self, "iterations", iterations)
        _set(self, "tol", tol)  # always DEFAULT_TOL
        _set(self, "exact", exact)
        _set(self, "note", note)


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
    all enumerated.  ``iterations`` counts the 2^m - 1 faces solved.

    This is the full enumeration over all m edges.  :func:`min_lambda`
    calls it only on the coupled blocks of :func:`_min_lambda_blocks`, one
    block at a time; the tests keep it whole as the reference that the
    block split must match.
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
    return MinLambdaResult(best_value, witness, Fraction(0), len(supports), exact=True)


def _coupled_blocks(edges) -> list:
    """The coupled blocks of ``edges``, as bitmasks of edge indices in order
    of their lowest index: the connected components of at least two edges
    under "shares at least two vertices".  An edge left out is isolated."""
    near = [0] * len(edges)
    for (i, a), (j, b) in itertools.combinations(enumerate(edges), 2):
        if popcount(a & b) >= 2:
            near[i] |= 1 << j
            near[j] |= 1 << i
    blocks = []
    seen = 0
    for i, links in enumerate(near):
        if not links or seen >> i & 1:
            continue
        block = frontier = 1 << i
        while frontier:
            grown = 0
            for j in bits_of(frontier):
                grown |= near[j]
            frontier = grown & ~block
            block |= frontier
        seen |= block
        blocks.append(block)
    return blocks


def _min_lambda_blocks(h: Hypergraph, p) -> MinLambdaResult:
    """The exact simplex minimum, block by block of Q.

    Each coupled block of :func:`_coupled_blocks` goes to
    :func:`min_lambda_exact` on its own edges, in their order in h; an
    isolated edge, whose row of Q is zero off the diagonal, needs no
    enumeration.  With S the sum of 1/Q_ii over the isolated edges plus
    1/mu_b over the blocks (mu_b a block's minimum), the minimum is 1/S,
    each isolated edge weighs (1/Q_ii)/S and block b carries its own
    minimiser scaled by (1/mu_b)/S.  ``iterations`` counts the faces the
    block enumerations solved, sum_b (2^k_b - 1) over blocks of k_b edges,
    0 when every edge is isolated.  Needs rational p and no edge of size
    <= 1 (Q_ii > 0, and Q positive definite so that the point is the unique
    minimiser)."""
    edges = h.edges
    sizes = [popcount(e) for e in edges]
    inverse = _inverse_diagonal(sizes, p, exact=True)
    weights = [inverse[c] for c in sizes]  # isolated edges: x_i = weight / S
    iterations = 0
    for coupled in _coupled_blocks(edges):
        idx = bits_of(coupled)
        block = min_lambda_exact(Hypergraph(h.n, tuple(edges[i] for i in idx)), p)
        for i, y in zip(idx, block.witness.weights):
            weights[i] = y / block.value  # adds 1/mu_b to S, as sum y = 1
        iterations += block.iterations
    total = sum(weights)
    x = Measure(h, tuple(w / total for w in weights), exact=True)
    return MinLambdaResult(1 / total, x, Fraction(0), iterations, exact=True)


def _frank_wolfe(q: list, tol: float):
    """Away-step Frank-Wolfe with exact line search for min x^T q x over
    the simplex, from the uniform point, ties going to the lowest index.

    A step along e_i - x (toward vertex i) or x - e_i (away from an active
    vertex i) moves Qx by the rank-one update Qx <- (1 - g) Qx + g q[i]
    (g < 0 away), so it costs O(m): the slope is 2 ((Qx)_i - x^T Q x) and
    the curvature 2 (q_ii - 2 (Qx)_i + x^T Q x).  It stops when the gap is
    within relative ``tol`` of the value, when the line search stalls or
    after DEFAULT_MAX_ITER steps.  The point (normalised), its value and
    its gap are then recomputed in one O(m^2) pass, so no rank-one drift
    reaches them.  Returns (x, value, gap, iterations)."""
    m = len(q)
    x = [1.0 / m] * m
    qx = [sum(map(mul, row, x)) for row in q]
    iterations = 0
    for iterations in range(1, DEFAULT_MAX_ITER + 1):
        value = sum(map(mul, x, qx))
        low = min(qx)
        gap = max(2.0 * (value - low), 0.0)  # roundoff must not inflate the bound
        if gap <= tol * max(abs(value), 1e-300):
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
    x, value, gap, iterations = _frank_wolfe(overlap_matrix(h, float(p), exact=False), tol)
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


def clear_cache():
    _cache.clear()


def min_lambda(h: Hypergraph, p, tol: float = DEFAULT_TOL) -> MinLambdaResult:
    """Minimise lambda_p over mass-one measures on h: exactly for rational
    p and at most KKT_EDGE_CAP edges, by Frank-Wolfe otherwise.  The exact
    path (:func:`_min_lambda_blocks`) solves isolated edges, those sharing
    at most one vertex with every other edge, in closed form and enumerates
    KKT supports over each coupled block on its own; Q is block-diagonal
    and has a unique minimiser, so the result is the full enumeration's.
    Queries that need no solve are settled by :func:`_settled`; the rest
    are memoised, one entry per query, on the canonical edge order.  The
    memo key (n, sorted edges, p, None or tol) ends in None on the exact
    path, so an exact and a floating result never share an entry, even
    where a Fraction p equals a float."""
    settled = _settled(h, p, 1)
    if settled == "NO":
        raise InputError("minimum needs at least one edge")
    if settled == "YES":
        rational = is_rational(p)
        zero = Fraction(0) if rational else 0.0
        return MinLambdaResult(zero, _unit_witness(h, rational), zero, 0, rational)

    edges = tuple(sorted(h.edges))
    exact = is_rational(p) and len(edges) <= KKT_EDGE_CAP
    key = (h.n, edges, p, None if exact else tol)
    hit = _cache.get(key)
    if hit is None:
        canon = Hypergraph(h.n, edges)
        result = _min_lambda_blocks(canon, p) if exact else min_lambda_fw(canon, float(p), tol)
        hit = _cache[key] = (result, edges)
    result, edge_order = hit
    ws = result.witness.weights
    if h.edges != edge_order:
        weight_of = dict(zip(edge_order, ws))
        ws = tuple(weight_of[e] for e in h.edges)
    witness = Measure(h, ws, result.exact)
    return MinLambdaResult(result.value, witness, result.gap, result.iterations, result.exact)


def janson_threshold(h: Hypergraph, p):
    """R* = 1 / (simplex minimum of lambda_p); 0 for an edgeless hypergraph,
    infinity when an edge of size <= 1 lets lambda vanish at positive mass."""
    settled = _settled(h, p, 1)  # R* does not depend on R; any R > 0 will do
    if settled == "NO":
        return Fraction(0) if is_rational(p) else 0.0
    if settled == "YES":
        return INF
    return 1 / min_lambda(h, p).value


def _settled(h: Hypergraph, p, r) -> str | None:
    """"YES" or "NO" for a query that needs no solve, else None.

    R < 0, a NaN or infinite R and p outside (0, 1] raise InputError
    whatever the edges.  R = 0 is YES by convention.  For R > 0, no edges is
    NO (no measure has positive mass) and an edge of size <= 1 is YES (unit
    mass on it has zero overlap)."""
    if r < 0:
        raise InputError("R must be nonnegative")
    if not r < INF:  # NaN compares false; exact for any int or Fraction
        raise InputError("R must be finite")
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


def _inverse_diagonal(sizes, p, exact: bool) -> dict:
    """{edge size c: 1/Q_ii} for each distinct size in ``sizes``.  Q_ii =
    pair_coefficient(|E_i|, p) depends on the size alone, so it is taken
    once per size; it is > 0 once :func:`_settled` has ruled out edges of
    size <= 1.  Read by the Cauchy-Schwarz NO of :func:`_diagonal_no` and
    the closed form of :func:`_min_lambda_blocks`."""
    return {c: 1 / pair_coefficient(c, p, exact) for c in set(sizes)}


def _diagonal_no(h: Hypergraph, p, r) -> bool:
    """True when R >= sum_i 1/Q_ii, a certified NO needing no point.

    No overlap coefficient is negative, so lambda_p(x) >= sum_i Q_ii x_i^2,
    at least 1 / sum_i (1/Q_ii) on the simplex by Cauchy-Schwarz (equal
    when no two edges share two vertices).  Unless p and R are rational, R
    must clear the sum by a relative margin of DEFAULT_TOL, which covers
    the rounding of a float sum."""
    exact = is_rational(p)
    sizes = Counter(popcount(e) for e in h.edges)
    inverse = _inverse_diagonal(sizes, p, exact)
    total = sum(k * inverse[c] for c, k in sizes.items())
    if exact and is_rational(r):
        return r >= total
    return r >= (1 + DEFAULT_TOL) * total


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
        exact = is_rational(p) and is_rational(r)
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

    One ladder: queries that need no solve are settled by
    :func:`_settled`, the rest meet the closed-form NO of
    :func:`_diagonal_no`, and only what that leaves goes through
    :func:`is_janson`."""
    settled = _settled(h, p, r)
    if settled is not None:
        return settled == "YES"
    if _diagonal_no(h, p, r):
        return False
    verdict = is_janson(h, p, r)
    if verdict.answer == "UNDECIDED":
        raise UndecidedError(
            f"Janson query undecided{': ' + context if context else ''}",
            detail={"edges": h.edges, "n": h.n, "p": p, "R": r, "gap": verdict.gap},
        )
    return verdict.answer == "YES"
