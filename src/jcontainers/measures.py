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

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .errors import BudgetError, CertificateViolation, InputError
from .hypercore import (
    Hypergraph,
    VertexMap,
    bits_of,
    edgewise_include,
    popcount,
    preimage_counts,
    project,
    submasks,
)

SUBSET_EDGE_CAP = 20  # algorithm A enumerates 2^|E| submasks per edge


def as_fraction(x, name: str) -> Fraction:
    """x as a Fraction; InputError unless it is an exact rational."""
    if isinstance(x, (Fraction, int)):
        return Fraction(x)
    raise InputError(f"{name} must be an exact rational on this path")


def _check_probability(p, exact: bool):
    if exact and not isinstance(p, (Fraction, int)):
        raise InputError("exact-mode lambda_p needs a rational p")
    if not 0 < p <= 1:
        raise InputError("p must lie in (0, 1]")


@dataclass(frozen=True)
class Measure:
    """Nonnegative weight per host edge; ``exact`` flags Fraction weights."""

    host: Hypergraph
    weights: tuple
    exact: bool = True

    def __post_init__(self):
        if len(self.weights) != len(self.host.edges):
            raise InputError("weight count must equal edge count")
        for w in self.weights:
            if self.exact and not isinstance(w, (Fraction, int)):
                raise InputError("exact measure weights must be rational")
            if not self.exact and not isinstance(w, float):
                raise InputError("floating measure weights must be floats")
            if w < 0:
                raise InputError("weights must be nonnegative")

    @staticmethod
    def zero(host: Hypergraph, exact: bool = True) -> "Measure":
        fill = Fraction(0) if exact else 0.0
        return Measure(host, (fill,) * len(host.edges), exact)

    @staticmethod
    def unit_on(host: Hypergraph, index: int, exact: bool = True) -> "Measure":
        one = Fraction(1) if exact else 1.0
        zero = Fraction(0) if exact else 0.0
        ws = [zero] * len(host.edges)
        ws[index] = one
        return Measure(host, tuple(ws), exact)

    def support(self) -> list[int]:
        return [i for i, w in enumerate(self.weights) if w > 0]

    def to_float(self) -> "Measure":
        if not self.exact:
            return self
        return Measure(self.host, tuple(float(w) for w in self.weights), exact=False)


def _same_host(a: Measure, b: Measure):
    if a.host != b.host or a.exact != b.exact:
        raise InputError("measures must share host and arithmetic mode")


def mass(m: Measure):
    return sum(m.weights, Fraction(0) if m.exact else 0.0)


def degree(m: Measure, l_mask: int):
    """Total weight of edges containing L."""
    if l_mask & ~((1 << m.host.n) - 1):
        raise InputError("L contains a vertex outside the universe")
    total = Fraction(0) if m.exact else 0.0
    for e, w in zip(m.host.edges, m.weights):
        if l_mask & ~e == 0:
            total += w
    return total


def degree_square_sum(m: Measure):
    """Sum over single vertices u of d({u})^2.  Size-1 sets are excluded from
    lambda_p by definition but this sum appears in the vertex-extension
    identity, so it is exposed separately."""
    total = Fraction(0) if m.exact else 0.0
    for u in range(m.host.n):
        d = degree(m, 1 << u)
        total += d * d
    return total


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


def pullback(theta: Measure, h: Hypergraph, pi: VertexMap) -> Measure:
    """Transport a measure on project(h, pi) back to h, splitting each image
    edge's weight equally over its pre-image edges.  Mass is preserved."""
    image = project(h, pi)
    if theta.host != image:
        raise InputError("pullback source must be hosted on project(h, pi)")
    counts = preimage_counts(h, pi)
    weight_of = dict(zip(theta.host.edges, theta.weights))
    ws = []
    for e in h.edges:
        img = pi.apply_mask(e)
        ws.append(weight_of[img] / counts[img])
    return Measure(h, tuple(ws), theta.exact)


def extend_by_vertex(m: Measure, v: int) -> Measure:
    """Transport weights edge-to-edge onto the host with v added everywhere."""
    new_host = edgewise_include(m.host, v)
    # edgewise_include sorts its output; realign weights with the new order
    order = {e | (1 << v): w for e, w in zip(m.host.edges, m.weights)}
    return Measure(new_host, tuple(order[e] for e in new_host.edges), m.exact)


def reweight_restrict(m: Measure, a_mask: int, probs: Sequence | Callable) -> Measure:
    """Weight nu(E) * [E inside A] / P(E), the survival-reweighted restriction
    of a random vertex set A: when E lies inside A with probability P(E),
    its expectation is nu.  A construction of the paper kept as a library
    function; no pipeline or experiment here calls it.  P(E) = 0 on a
    surviving positive-weight edge is a certificate violation."""
    if callable(probs):
        pvals = [probs(e) for e in m.host.edges]
    else:
        pvals = list(probs)
        if len(pvals) != len(m.host.edges):
            raise InputError("per-edge probabilities must be total on the host")
    ws = []
    zero = Fraction(0) if m.exact else 0.0
    for e, w, pe in zip(m.host.edges, m.weights, pvals):
        if e & ~a_mask:
            ws.append(zero)
            continue
        if w == 0:
            ws.append(zero)
            continue
        if pe == 0:
            raise CertificateViolation(
                f"edge {bits_of(e)} survives with weight {w} but P(E) = 0"
            )
        ws.append(w / pe)
    return Measure(m.host, tuple(ws), m.exact)


def add(a: Measure, b: Measure) -> Measure:
    _same_host(a, b)
    return Measure(a.host, tuple(x + y for x, y in zip(a.weights, b.weights)), a.exact)


def scale(m: Measure, t) -> Measure:
    if t < 0:
        raise InputError("scale factor must be nonnegative")
    if m.exact:
        t = Fraction(t)
    else:
        t = float(t)
    return Measure(m.host, tuple(w * t for w in m.weights), m.exact)
