"""Edge measures and the overlap functional they feed.

A Measure assigns a nonnegative weight to every edge of a host hypergraph.
Two arithmetic modes travel with the measure and never mix: exact
(fractions.Fraction, used by the container and identity machinery) and
floating (used by the optimiser).  All operations are pure.

The central quantity is the overlap functional

    lambda_p(m) = sum over vertex sets L with |L| >= 2 of  d(L)^2 * p^(-|L|),

where d(L) is the total weight of edges containing L.  Only L inside some
positive-weight edge contribute, so the sum is computed sparsely.
:func:`lambda_p` is the pairwise closed form (algorithm B),

    sum over edge pairs of  w1 * w2 * ((1 + 1/p)^c - 1 - c/p),  c = |E1 & E2|,

which holds because summing p^(-|L|) over the subsets L of an intersection
of size c with |L| >= 2 telescopes out of the binomial theorem.  It sums
x_j (Qx)_j over :func:`overlap_sums`, the pass from which every Janson
decision reads lambda_p and its dual bound.  Subset accumulation
(algorithm A, :func:`lambda_p_subsets`: enumerate the submasks of each edge
into an accumulator) is kept as the independent re-check of that pass.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import BudgetError, InputError
from .hypercore import Hypergraph, Value, _set, popcount, submasks

SUBSET_EDGE_CAP = 20  # algorithm A enumerates 2^|E| submasks per edge


def is_rational(x) -> bool:
    """Whether x is an exact rational (a Fraction or an int), the one test
    that sends a value down the exact path."""
    return isinstance(x, (Fraction, int))


def as_fraction(x, name: str) -> Fraction:
    """x as a Fraction; InputError unless it is an exact rational."""
    if is_rational(x):
        return Fraction(x)
    raise InputError(f"{name} must be an exact rational on this path")


def _check_probability(p, exact: bool):
    if exact and not is_rational(p):
        raise InputError("exact-mode lambda_p needs a rational p")
    if not 0 < p <= 1:
        raise InputError("p must lie in (0, 1]")


class Measure(Value):
    """Nonnegative weight per host edge; ``exact`` flags Fraction weights."""

    __slots__ = ("host", "weights", "exact")

    def __init__(self, host: Hypergraph, weights: tuple, exact: bool = True):
        _set(self, "host", host)
        _set(self, "weights", weights)
        _set(self, "exact", exact)
        if len(weights) != len(host.edges):
            raise InputError("weight count must equal edge count")
        for w in weights:
            if exact and not is_rational(w):
                raise InputError("exact measure weights must be rational")
            if not exact and not isinstance(w, float):
                raise InputError("floating measure weights must be floats")
            if w < 0:
                raise InputError("weights must be nonnegative")

    @staticmethod
    def unit_on(host: Hypergraph, index: int, exact: bool = True) -> "Measure":
        one = Fraction(1) if exact else 1.0
        zero = Fraction(0) if exact else 0.0
        ws = [zero] * len(host.edges)
        ws[index] = one
        return Measure(host, tuple(ws), exact)

    def support(self) -> list[int]:
        return [i for i, w in enumerate(self.weights) if w > 0]


def lambda_p_subsets(m: Measure, p):
    """Algorithm A: accumulate d(L) for every submask L of a positive edge,
    then sum d(L)^2 p^(-|L|) over |L| >= 2.  Capped at |E| <= 20 per edge."""
    _check_probability(p, m.exact)
    acc: dict[int, object] = {}
    for e, w in zip(m.host.edges, m.weights):
        if w == 0:
            continue
        if popcount(e) > SUBSET_EDGE_CAP:
            raise BudgetError(
                f"edge size {popcount(e)} exceeds subset-accumulation cap {SUBSET_EDGE_CAP}"
            )
        for sub in submasks(e):
            if popcount(sub) >= 2:
                acc[sub] = acc.get(sub, Fraction(0) if m.exact else 0.0) + w
    total = Fraction(0) if m.exact else 0.0
    inv = (Fraction(1) / Fraction(p)) if m.exact else 1.0 / p
    for sub, d in acc.items():
        total += d * d * inv ** popcount(sub)
    return total


def pair_coefficient(c: int, p, exact: bool):
    """Coefficient of w1 * w2 in lambda_p for two edges sharing c vertices:
    the sum of p^(-|L|) over the subsets L, |L| >= 2, of the intersection.
    The one overlap formula of the package, in either arithmetic mode."""
    if exact:
        inv = Fraction(1) / Fraction(p)
        return (1 + inv) ** c - 1 - c * inv
    q = 1.0 + 1.0 / p
    return q**c - 1.0 - c / p


def overlap_sums(m: Measure, p) -> list:
    """(Qx)_j = sum_i pair_coefficient(|E_j & E_i|, p) x_i for every host
    edge E_j, x the weights of m, from one pass over the support of m,
    skipping pairs that share fewer than two vertices (coefficient 0).  A
    floating measure takes p as a float."""
    exact = m.exact
    if not exact:
        p = float(p)
    zero = Fraction(0) if exact else 0.0
    edges = m.host.edges
    support = [(edges[i], m.weights[i]) for i in m.support()]
    top = max((popcount(e) for e in edges), default=0)
    coef = [pair_coefficient(c, p, exact) for c in range(top + 1)]
    qx = []
    for e in edges:
        acc = zero
        for f, w in support:
            c = (e & f).bit_count()
            if c >= 2:
                acc += coef[c] * w
        qx.append(acc)
    return qx


def lambda_p(m: Measure, p):
    """Algorithm B: the closed form over edge pairs, sum_j x_j (Qx)_j over
    :func:`overlap_sums`; no edge-size cap."""
    _check_probability(p, m.exact)
    qx = overlap_sums(m, p)
    return sum((w * qj for w, qj in zip(m.weights, qx) if w), Fraction(0) if m.exact else 0.0)


lambda_p_pairwise = lambda_p  # the name perfbench/spans.py traces
