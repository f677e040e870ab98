"""Constructions of the paper that no ``jc`` subcommand, script or benchmark
runs, with the helpers only they use.

They state lemmas behind the bound R_ind(H; r) <= r^(Crk): measure
transports along projections, vertex extensions and survival-reweighted
restrictions, the two-layer index set iota, bounded-degree witnesses and
their aggregation, greedy maximal tuples, the simultaneous-arrows
observation, and single fingerprint queries.  The acceptance suite checks
them under criteria 4, 5 and 8, and the unit tests cover each.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from jcontainers.containers import _hardcover_core, containment_table
from jcontainers.copies import _check_pair, induced_copy_hypergraph
from jcontainers.errors import BudgetError, InputError
from jcontainers.hypercore import (
    Coloring,
    Graph,
    Hypergraph,
    VertexMap,
    bits_of,
    edgewise_include,
    mask_of,
    project,
    restrict_edges,
)
from jcontainers.janson import is_janson, require_verdict
from jcontainers.measures import Measure, as_fraction, lambda_p
from jcontainers.prng import SplitMix64
from jcontainers.ramsey import FrequencyReport, arrows_induced, sample_gnhalf

from oracles import float_measure, zero_measure


# ---------------------------------------------------------------------------
# Certificates


class CertificateViolation(RuntimeError):
    """A quantity that a certificate promises to be nonzero vanished."""


# ---------------------------------------------------------------------------
# Projections and independence


def preimage_counts(h: Hypergraph, pi: VertexMap) -> dict[int, int]:
    """For each image edge of project(h, pi), the number of h-edges mapping
    onto it."""
    if pi.n_source != h.n:
        raise InputError("projection domain must match the hypergraph universe")
    counts: dict[int, int] = {}
    for e in h.edges:
        img = pi.apply_mask(e)
        counts[img] = counts.get(img, 0) + 1
    return counts


def is_independent(h: Hypergraph, mask: int) -> bool:
    return all(e & ~mask != 0 for e in h.edges)


# ---------------------------------------------------------------------------
# Measure arithmetic and transports


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
    its expectation is nu.  P(E) = 0 on a surviving positive-weight edge is
    a certificate violation."""
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


# ---------------------------------------------------------------------------
# The two-layer index set


def iota(g_prime: Graph, g: Graph, u_mask: int, v: int) -> int:
    """The two-layer vertex set indexing (G', G) at v: layer 0 holds the
    non-neighbours of v in G within U, layer 1 the G'-neighbours.

    U is relabelled ascending onto [0, m); the result is a bitmask on the
    two-layer universe [0, 2m)."""
    _check_pair(g_prime, g)
    if u_mask >> v & 1:
        raise InputError("v must lie outside U")
    verts = bits_of(u_mask)
    m = len(verts)
    out = 0
    for i, u in enumerate(verts):
        if not g.adj[v] >> u & 1:
            out |= 1 << i
        if g_prime.adj[v] >> u & 1:
            out |= 1 << (i + m)
    return out


# ---------------------------------------------------------------------------
# Bounded-degree witnesses and witness aggregation


WITNESS_MAX_ROUNDS = 200  # blend-and-restrict rounds of bounded_degree_witness
PRECONDITION_BUDGET = 20000  # its hypothesis checks: enumerated up to this, then sampled


class HypothesisViolation(InputError):
    """The every-large-subset Janson hypothesis failed; carries the subset."""

    def __init__(self, message, w_mask=None, verdict=None):
        super().__init__(message)
        self.w_mask = w_mask
        self.verdict = verdict


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

    nu = float_measure(_witness_mass_one(h, p, r, "initial witness"))
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
        nu_prime_sub = float_measure(_witness_mass_one(sub, p, r, "restricted witness"))
        weight_of = dict(zip(sub.edges, nu_prime_sub.weights))
        nu_prime = Measure(
            h, tuple(weight_of.get(e, 0.0) for e in h.edges), exact=False
        )
        nu = add(scale(nu, 1.0 - tau), scale(nu_prime, tau))
    else:
        raise BudgetError(f"degree bound not reached within {WITNESS_MAX_ROUNDS} rounds")

    return scale(nu, math.sqrt(float(r)))


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

    total = zero_measure(host, exact)
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


# ---------------------------------------------------------------------------
# Maximal tuples and simultaneous arrows


@dataclass
class MaximalTuple:
    u_mask: int
    gains: tuple  # R_i per colour
    verified_floor: bool  # property (a) re-verified
    verified_ceiling: bool  # property (b) re-verified on every leftover vertex
    notes: list = field(default_factory=list)


def find_maximal_tuple(
    g: Graph,
    s_mask: int,
    coloring: Coloring,
    targets: Sequence[Graph],
    p,
    delta: float,
) -> MaximalTuple:
    """Greedy growth of a vertex set whose per-colour copy hypergraphs carry
    increasing thresholds: start from the first ceil(delta N) vertices of S,
    repeatedly add any vertex raising some colour's parameter by one, then
    re-verify both the achieved levels and their non-extendability."""
    r = len(targets)
    n = g.n
    base = max(1, math.ceil(delta * n))
    s_verts = bits_of(s_mask)
    if len(s_verts) < base:
        raise InputError("S is smaller than the required starting size")
    u_mask = mask_of(s_verts[:base])
    gains = [0] * r
    # each colour's copy hypergraph, built once; a window keeps its edges
    # inside the mask
    copies = [
        induced_copy_hypergraph(target, coloring.color_subgraph(g, i), g).hyper
        for i, target in enumerate(targets, start=1)
    ]

    notes = []
    grown = True
    while grown:
        grown = False
        for v in bits_of(s_mask & ~u_mask):
            cand = u_mask | (1 << v)
            for i in range(r):
                if require_verdict(
                    restrict_edges(copies[i], cand), p, gains[i] + 1,
                    context=f"growth step colour {i + 1}",
                ):
                    u_mask = cand
                    gains[i] += 1
                    grown = True
                    break
            if grown:
                break

    floor_ok = all(
        require_verdict(restrict_edges(copies[i], u_mask), p, gains[i], context="floor check")
        for i in range(r)
    )
    ceiling_ok = True
    for v in bits_of(s_mask & ~u_mask):
        cand = u_mask | (1 << v)
        for i in range(r):
            if require_verdict(
                restrict_edges(copies[i], cand), p, gains[i] + 1, context="ceiling check"
            ):
                ceiling_ok = False
                notes.append(f"vertex {v} still raises colour {i + 1}")
    return MaximalTuple(u_mask, tuple(gains), floor_ok, ceiling_ok, notes)


def simultaneous_arrows_observation(
    n: int, r: int, trials: int, seed: int, budget: int = 1 << 20
) -> FrequencyReport:
    """Observational only: how often a sampled host arrows every pattern on
    three vertices simultaneously.  At this scale the success probability is
    tiny (the patterns pull the host in opposite directions), so the report
    records the frequency without asserting anything about it."""
    patterns = [
        Graph.empty(3),
        Graph.from_edges(3, [(0, 1)]),
        Graph.path(3),
        Graph.complete(3),
    ]
    rng = SplitMix64(seed)
    successes = 0
    rows = []
    for t in range(trials):
        g = sample_gnhalf(n, rng.next_u64())
        hit = True
        count = 0
        for h in patterns:
            if arrows_induced(g, h, r, budget=budget):
                count += 1
            else:
                hit = False
                break
        successes += hit
        rows.append((t, seed, int(hit), count))
    return FrequencyReport(
        "simultaneous-arrows",
        trials,
        successes,
        successes / trials if trials else 0.0,
        None,
        1.0,
        rows,
        notes=["observational: no bound is asserted at this scale"],
    )


# ---------------------------------------------------------------------------
# Single fingerprint queries


def fingerprint(h: Hypergraph, i_mask: int, q, alpha) -> int:
    """Fingerprint of an independent set of h, read from the family's
    one-pass table (see :func:`_fingerprint_table`)."""
    q = as_fraction(q, "q")
    alpha = as_fraction(alpha, "alpha")
    if not 0 < q <= alpha < 1:
        raise InputError("parameters must satisfy 0 < q <= alpha < 1")
    if not is_independent(h, i_mask):
        raise InputError("fingerprints are defined for independent sets only")
    independent = [not c for c in containment_table(h.n, h.edges)]
    return _hardcover_core(h.n, independent, q, alpha, False)[0].phi[i_mask]
