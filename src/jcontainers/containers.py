"""Constructive container algorithms, exact where the source argument is.

Three layers:

* The fingerprint/cover construction.  For an independent set I, the
  fingerprint T is a maximal subset whose conditional appearance probability
  in a q-random vertex set, given independence, is at most ((1-alpha) q)^|T|;
  the cover attached to T collects every vertex set whose conditional
  probability given independence in the non-strict link at T is that small.
  All probabilities are exact rationals, so the verification of the strict
  inequalities is exact: the whole family reads them from a superset-sum
  (zeta) transform over the independence indicator, and a single query
  (conditional_prob, in_cover) from a weighted count of independent sets.

  The family is built with integer work over the 2^n masks.  The threshold
  test P(L | independent) <= bar^|L|, bar = u/v, becomes
  table[L] <= floor(u^k table[0] / v^k) with k = |L|, one bound per size.
  The fingerprints of all independent sets come from one table: each
  satisfying S carries the key (|S| << n) | S, and a max-fold over the
  submask lattice gives every mask its largest key, which is the
  maximum-cardinality, numerically largest satisfying submask.  Each
  fingerprint's table is built once and serves its cover, its containment
  table and the strict-inequality samples.

* Cover certificates.  A cover of a target hypergraph whose members all have
  size at least 2 bounds the Janson threshold from above by its p-weight
  sum of p^|E| (Cauchy-Schwarz against the cover degrees), turning a cheap
  cover into a machine-checkable non-membership certificate.

* The pipelines for sets whose induced sub-hypergraph misses the Janson
  property.  Both build an auxiliary up-set of "already-good" vertex sets
  (stored by minimal members only), fingerprint it, slice each cover to the
  working uniformity, and hand these slices to the uniform-container oracle.
  The oracle seam stands in for an external container theorem: it only ships
  a verified brute-force fallback, so it can honestly report incompleteness,
  which is kept distinct from a theorem violation throughout.

The empty set satisfies the cover inequality vacuously, which would make
nothing independent in any cover; covers therefore keep nonempty members
only.  The ``paper_literal`` flag restores the verbatim convention and
reports the resulting independence failures instead.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

from .copies import ExtensionHypergraph
from .errors import BudgetError, InputError
from .hypercore import (
    DEFAULT_ENUM_CAP,
    Hypergraph,
    bits_of,
    independence_polynomial,
    independent_sets,
    is_independent,
    mask_of,
    nonstrict_link,
    popcount,
    project,
    restrict_edges,
)
from .janson import require_verdict
from .prng import SplitMix64

ZETA_CAP = 16  # the family's transforms allocate 2^n tables; single queries allocate none
DESK_CAP = 14


def _as_fraction(x, name: str) -> Fraction:
    if isinstance(x, (Fraction, int)):
        return Fraction(x)
    raise InputError(f"{name} must be an exact rational on this path")


def _popcounts(n: int) -> list[int]:
    """counts[mask] = |mask| for every mask on n vertices."""
    counts = [0]
    for _ in range(n):
        counts += [c + 1 for c in counts]
    return counts


def _fold_pairs(table: list, n: int, combine, into_subset: bool) -> None:
    """For every bit b and every mask m without b, in bit order and in
    place: table[m | b] = combine(table[m | b], table[m]), which folds each
    entry over its submasks, or with ``into_subset``
    table[m] = combine(table[m], table[m | b]), which folds over supersets.

    ``combine`` maps two equal-length lists to the combined values.  The
    pairs are taken as list slices (strided for low bits, blocks for high
    bits), so the interpreter loops about 2^(n/2) times per bit, not 2^n."""
    size = 1 << n
    for bit in range(n):
        half = 1 << bit
        step = half << 1
        if half * half <= size // 2:
            pairs = [(slice(off, size, step), slice(off + half, size, step)) for off in range(half)]
        else:
            pairs = [(slice(s, s + half), slice(s + half, s + step)) for s in range(0, size, step)]
        for low, high in pairs:
            if into_subset:
                table[low] = combine(table[low], table[high])
            else:
                table[high] = combine(table[high], table[low])


def _either(xs: list, ys: list):
    return map(operator.or_, xs, ys)


def _sum(xs: list, ys: list):
    return map(operator.add, xs, ys)


def _larger(xs: list, ys: list) -> list:
    if not any(ys):  # the values are nonnegative
        return xs
    return [x if x > y else y for x, y in zip(xs, ys)]


def containment_table(n: int, edges) -> list[bool]:
    """table[mask] is True when some edge is a subset of mask."""
    if n > ZETA_CAP:
        raise BudgetError(f"containment table capped at {ZETA_CAP} vertices")
    table = [False] * (1 << n)
    for e in edges:
        table[e] = True
    _fold_pairs(table, n, _either, into_subset=False)
    return table


def _superset_weight_table(n: int, keep: list[bool], q: Fraction, counts: list[int]) -> list[int]:
    """table[mask] = sum over kept supersets S of mask of a^|S| (b-a)^(n-|S|),
    where q = a/b; the common denominator b^n cancels in every ratio."""
    a, b = q.numerator, q.denominator
    weight = [a**k * (b - a) ** (n - k) for k in range(n + 1)]
    table = [weight[k] if kept else 0 for kept, k in zip(keep, counts)]
    _fold_pairs(table, n, _sum, into_subset=True)
    return table


def conditional_prob(h: Hypergraph, l_mask: int, q, t_mask: int = 0) -> Fraction:
    """Exact P(L inside V_q | V_q independent in the non-strict link at T);
    T defaults to the empty set, giving plain conditional independence.

    Both sides are weighted counts of independent sets of the link, taken
    by :func:`independence_polynomial` without enumerating the sets; the
    common denominator b^n (q = a/b) cancels.  Hosts above
    ``DEFAULT_ENUM_CAP`` vertices are refused."""
    q = _as_fraction(q, "q")
    if not 0 < q < 1:
        raise InputError("q must lie in (0, 1)")
    if h.n > DEFAULT_ENUM_CAP:
        raise InputError(f"universe size {h.n} above the cap {DEFAULT_ENUM_CAP}")
    link = nonstrict_link(h, t_mask)
    a, c = q.numerator, q.denominator - q.numerator
    den = independence_polynomial(link, a, c)
    if den == 0:
        raise InputError("conditioning event has probability zero")
    return Fraction(independence_polynomial(link, a, c, forced=l_mask), den)


@dataclass
class _ZetaContext:
    """Superset weight table of one link, with the fingerprint/cover
    inequality in integer form.

    With bar = (1 - alpha) q = u/v, P(L in V_q | independent) <= bar^|L|
    reads table[L] v^k <= u^k table[0] for k = |L|; as table[L] is an
    integer, that is table[L] <= limit[k] = floor(u^k table[0] / v^k)."""

    table: list[int]
    limit: list[int]

    def prob(self, l_mask: int) -> Fraction:
        return Fraction(self.table[l_mask], self.table[0])


def _context_for(
    n: int, independent: list[bool], t_mask: int, q: Fraction, bar: Fraction, counts: list[int]
) -> _ZetaContext:
    """The context of the non-strict link at T: S is kept when S | T is
    independent."""
    keep = [independent[m | t_mask] for m in range(1 << n)]
    table = _superset_weight_table(n, keep, q, counts)
    u, v = bar.numerator, bar.denominator
    return _ZetaContext(table, [table[0] * u**k // v**k for k in range(n + 1)])


def _satisfying_table(ctx: _ZetaContext, counts: list[int]) -> list[bool]:
    """table[mask] is True when P(mask in V_q | independent) is at most
    ((1-alpha) q)^|mask| -- the fingerprint inequality."""
    limit = ctx.limit
    return [t <= limit[k] for t, k in zip(ctx.table, counts)]


def fingerprint_in_table(sat: list[bool], i_mask: int) -> int:
    """A maximum-cardinality subset of I satisfying the fingerprint
    inequality (ties broken by the first hit in descending submask order).

    Maximum cardinality forces inclusion-maximality, which is what the
    cover argument needs: a single-vertex greedy can stall below a larger
    satisfying superset reachable only by adding two vertices at once, and
    then the independent set meets its own cover.  The empty set always
    satisfies the inequality, so a fingerprint always exists."""
    best = 0
    best_size = 0
    sub = i_mask
    while True:
        if sat[sub]:
            size = popcount(sub)
            if size > best_size:
                best, best_size = sub, size
        if sub == 0:
            return best
        sub = (sub - 1) & i_mask


def _fingerprint_table(sat: list[bool], n: int, counts: list[int]) -> list[int]:
    """fp[mask] = fingerprint_in_table(sat, mask) for every mask, in one pass.

    Each satisfying S carries the key (|S| << n) | S; folding keys up to
    supersets with max leaves every mask the largest key among its
    satisfying submasks: one of maximum cardinality, ties going to the
    numerically largest, which is the submask that fingerprint_in_table
    meets first in descending order."""
    keys = [(k << n) | m if s else 0 for m, (s, k) in enumerate(zip(sat, counts))]
    _fold_pairs(keys, n, _larger, into_subset=False)
    low = (1 << n) - 1
    return [key & low for key in keys]


def fingerprint(h: Hypergraph, i_mask: int, q, alpha) -> int:
    """Fingerprint of an independent set of h (see fingerprint_in_table)."""
    q = _as_fraction(q, "q")
    alpha = _as_fraction(alpha, "alpha")
    if not 0 < q <= alpha < 1:
        raise InputError("parameters must satisfy 0 < q <= alpha < 1")
    if not is_independent(h, i_mask):
        raise InputError("fingerprints are defined for independent sets only")
    counts = _popcounts(h.n)
    independent = [not c for c in containment_table(h.n, h.edges)]
    ctx = _context_for(h.n, independent, 0, q, (1 - alpha) * q, counts)
    return fingerprint_in_table(_satisfying_table(ctx, counts), i_mask)


def in_cover(h: Hypergraph, l_mask: int, t_mask: int, q, alpha) -> bool:
    """Lazy cover-membership query: is L in the cover attached to T?

    Needs no 2^n table, so it answers above ``ZETA_CAP`` (up to
    ``DEFAULT_ENUM_CAP`` vertices) at one exact weighted count of
    independent sets per query (see :func:`conditional_prob`)."""
    q = _as_fraction(q, "q")
    alpha = _as_fraction(alpha, "alpha")
    if l_mask == 0:
        return False  # nonempty members only; see the module docstring
    bar = (1 - alpha) * q
    return conditional_prob(h, l_mask, q, t_mask) <= bar ** popcount(l_mask)


@dataclass
class HardcoverFamily:
    """Fingerprints, covers, and the verification record of the exact
    fingerprint/cover construction."""

    n: int
    paper_literal: bool
    fingerprints: tuple  # sorted distinct T masks
    phi: dict  # independent-set mask -> T mask
    covers: dict  # T mask -> tuple of cover member masks (sorted)
    violations: list = field(default_factory=list)
    strict_checked: int = 0

    def cover_hypergraph(self, t_mask: int) -> Hypergraph:
        return Hypergraph(self.n, self.covers[t_mask])


def hardcover_family(
    h: Hypergraph,
    q,
    alpha,
    paper_literal: bool = False,
    strict_samples: int = 100,
    seed: int = 0,
) -> HardcoverFamily:
    """Fingerprint every independent set of h and attach exact covers.

    Verifies, in exact arithmetic: T inside I; |T| <= q n / alpha; every
    h-edge lies in every cover (its conditional probability is zero); each
    independent set avoids its own cover; and the strict reverse inequality
    on a sample of non-members."""
    q = _as_fraction(q, "q")
    alpha = _as_fraction(alpha, "alpha")
    if not 0 < q <= alpha < 1:
        raise InputError("parameters must satisfy 0 < q <= alpha < 1")
    if h.n > ZETA_CAP:
        raise InputError(f"full enumeration capped at {ZETA_CAP} vertices")
    n = h.n
    independent = [not c for c in containment_table(n, h.edges)]
    family, contexts = _hardcover_core(n, independent, q, alpha, paper_literal)
    fingerprints, covers, phi = family.fingerprints, family.covers, family.phi
    cover_contains = {t_mask: containment_table(n, covers[t_mask]) for t_mask in fingerprints}
    size_cap = q * n / alpha
    too_large = {t_mask: popcount(t_mask) > size_cap for t_mask in fingerprints}
    for i_mask, t_mask in phi.items():
        if t_mask & ~i_mask:
            family.violations.append(f"fingerprint {t_mask:b} not inside {i_mask:b}")
        if too_large[t_mask]:
            family.violations.append(
                f"fingerprint {t_mask:b} larger than q n / alpha = {size_cap}"
            )
        if cover_contains[t_mask][i_mask]:
            family.violations.append(
                f"independent set {i_mask:b} meets its own cover (T = {t_mask:b})"
            )
    edge_set = set(h.edges)
    for t_mask in fingerprints:
        member_set = set(covers[t_mask])
        for e in edge_set:
            if e not in member_set and e != 0:
                family.violations.append(
                    f"edge {e:b} missing from the cover at T = {t_mask:b}"
                )
    # strict inequality on sampled non-members, re-derived per query in
    # rationals rather than from the integer limits that chose the members
    bar = (1 - alpha) * q
    rng = SplitMix64(seed)
    checked = 0
    if fingerprints:
        ts = list(fingerprints)
        member_sets = {t: set(covers[t]) for t in ts}
        attempts = 0
        while checked < strict_samples and attempts < 50 * max(1, strict_samples):
            attempts += 1
            t_mask = ts[rng.below(len(ts))]
            l_mask = rng.next_u64() & ((1 << n) - 1)
            if l_mask == 0 or l_mask in member_sets[t_mask]:
                continue
            if not contexts[t_mask].prob(l_mask) > (bar ** popcount(l_mask)):
                family.violations.append(
                    f"non-member {l_mask:b} fails the strict inequality at T = {t_mask:b}"
                )
            checked += 1
    family.strict_checked = checked
    return family


def _hardcover_core(
    n: int, independent: list[bool], q: Fraction, alpha: Fraction, paper_literal: bool
) -> tuple[HardcoverFamily, dict]:
    """The unverified family of a down-closed set system given by its
    indicator ``independent[mask]``, and the zeta context of each
    fingerprint."""
    size = 1 << n
    counts = _popcounts(n)
    bar = (1 - alpha) * q
    base_ctx = _context_for(n, independent, 0, q, bar, counts)
    if base_ctx.table[0] == 0:
        # no independent sets at all (the empty edge is present)
        return HardcoverFamily(n, paper_literal, (), {}, {}), {}
    # every submask of an independent set is independent, so dependent
    # masks (satisfying vacuously, at probability 0) can drop out
    sat = _satisfying_table(base_ctx, counts)
    fp = _fingerprint_table([s and i for s, i in zip(sat, independent)], n, counts)
    phi = {i_mask: fp[i_mask] for i_mask in range(size) if independent[i_mask]}
    fingerprints = tuple(sorted(set(phi.values())))
    lo = 1 if not paper_literal else 0
    contexts = {}
    covers = {}
    for t_mask in fingerprints:
        ctx = contexts[t_mask] = (
            base_ctx if t_mask == 0 else _context_for(n, independent, t_mask, q, bar, counts)
        )
        limit = ctx.limit
        covers[t_mask] = tuple([
            l_mask
            for l_mask, t, k in zip(range(lo, size), ctx.table[lo:], counts[lo:])
            if t <= limit[k]
        ])
    return HardcoverFamily(n, paper_literal, fingerprints, phi, covers), contexts


# ---------------------------------------------------------------------------
# Cover certificates


@dataclass(frozen=True)
class CoverCertificate:
    """Machine-checkable upper bound on the Janson threshold of the target:
    for every measure, lambda_p >= mass^2 / weight, so the target is not
    (p, R)-Janson for any R >= weight."""

    target: Hypergraph
    cover: Hypergraph
    p: object
    weight: object  # sum of p^|E| over cover members


def p_weight(cover: Hypergraph, p):
    exact = isinstance(p, (Fraction, int))
    total = Fraction(0) if exact else 0.0
    pp = Fraction(p) if exact else float(p)
    for e in cover.edges:
        total += pp ** popcount(e)
    return total


def cover_certificate(target: Hypergraph, cover: Hypergraph, p) -> CoverCertificate:
    if target.n != cover.n:
        raise InputError("target and cover must share a universe")
    if not 0 < p <= 1:
        raise InputError("p must lie in (0, 1]")
    for e in cover.edges:
        if popcount(e) < 2:
            raise InputError(
                f"cover edge {sorted(bits_of(e))} has size below 2"
            )
    members = cover.edges
    for e in target.edges:
        if not any(a & ~e == 0 for a in members):
            raise InputError(
                f"target edge {sorted(bits_of(e))} contains no cover member"
            )
    return CoverCertificate(target, cover, p, p_weight(cover, p))


# ---------------------------------------------------------------------------
# Uniform-container oracle (pluggable seam with a brute-force fallback)


@dataclass
class UniformContainerFamily:
    phi: dict  # independent-set mask -> S mask
    psi: dict  # S mask -> container mask
    incomplete: list = field(default_factory=list)


def uniform_container_oracle(
    h: Hypergraph,
    p,
    desk_cap: int = DESK_CAP,
) -> UniformContainerFamily:
    """Fallback search for the external uniform-container theorem: small
    fingerprints S with containers X = psi(S) such that S <= I <= X for every
    independent I and h[X] certifiably misses the (p, 2^-8 p |X|) property.
    p must be an exact rational.

    Not complete: when no candidate container verifies, the failure lands in
    ``incomplete`` rather than being patched over.  Every emitted triple is
    re-verified, so the family itself needs no trust in the search.
    """
    if h.n > desk_cap:
        raise InputError(f"fallback oracle capped at {desk_cap} vertices")
    p = _as_fraction(p, "p")
    s = h.uniformity()
    if s is not None and s >= 1 and p > Fraction(1, (1 << 11) * s * s):
        raise InputError("oracle precondition p <= 1/(2^11 s^2) fails")
    ind_list = [] if 0 in h.edges else list(independent_sets(h))
    if not ind_list:
        return UniformContainerFamily({}, {})
    union_mask = 0
    for m in ind_list:
        union_mask |= m

    def not_janson(x_mask: int) -> bool:
        sub = restrict_edges(h, x_mask)
        r_val = p / 256 * popcount(x_mask)
        return not require_verdict(sub, p, r_val, context="uniform-container oracle")

    if popcount(union_mask) > 0 and not_janson(union_mask):
        return UniformContainerFamily({i: 0 for i in ind_list}, {0: union_mask})

    bound = h.n if s is None else int((1 << 11) * s * s * p * h.n)
    if bound < 1:
        return UniformContainerFamily({}, {}, [
            "single shared container fails and the fingerprint budget is zero"
        ])

    classes: dict[int, int] = {}
    phi = {}
    for i_mask in ind_list:
        verts = bits_of(i_mask)
        s_mask = mask_of(verts[: min(bound, len(verts))])
        phi[i_mask] = s_mask
        classes[s_mask] = classes.get(s_mask, 0) | i_mask
    psi = {}
    incomplete = []
    for s_mask in sorted(classes):
        x_mask = classes[s_mask]
        if popcount(x_mask) > 0 and not_janson(x_mask):
            psi[s_mask] = x_mask
        else:
            incomplete.append(f"no verified container for fingerprint class {s_mask:b}")
    return UniformContainerFamily({i: s for i, s in phi.items() if s in psi}, psi, incomplete)


# ---------------------------------------------------------------------------
# Up-sets of certified vertex sets, stored via minimal members


def minimal_members(n: int, holds) -> tuple:
    """Minimal members of an inclusion-monotone set property on masks.
    ``holds(mask)`` is queried with every subset-minimal candidate; masks
    containing a known member are skipped."""
    minimals: list[int] = []
    order = sorted(range(1 << n), key=lambda m: (popcount(m), m))
    for mask in order:
        if any(mm & ~mask == 0 for mm in minimals):
            continue
        if holds(mask):
            minimals.append(mask)
    return tuple(minimals)


def in_upset(minimals, mask: int) -> bool:
    return any(mm & ~mask == 0 for mm in minimals)


def upset_slice(h: Hypergraph, s: int) -> Hypergraph:
    """The size-s slice of the up-set of h: every s-subset of the universe
    that contains some edge of h."""
    if s < 0:
        raise InputError("slice size must be nonnegative")
    contains = containment_table(h.n, h.edges)
    members = (mask_of(c) for c in itertools.combinations(range(h.n), s))
    return Hypergraph(h.n, tuple(sorted(m for m in members if contains[m])))


def _check_size_bound(family: PipelineFamily, q: Fraction, n: int, exponent_factor: int) -> None:
    """A family of more than 4 (2/q)^(c q n) containers, c = exponent_factor,
    is a violation."""
    limit = math.log(4.0) + exponent_factor * float(q) * n * math.log(2.0 / float(q))
    family.size_bound_ok = math.log(max(len(family.containers), 1)) <= limit + 1e-12
    if not family.size_bound_ok:
        family.violations.append("container family exceeds its size bound")


@dataclass
class PipelineFamily:
    """Containers plus the verification record of a pipeline run."""

    host: Hypergraph
    params: dict
    containers: tuple  # sorted container masks
    certified_minimals: tuple  # minimal vertex sets with the auxiliary property
    violations: list = field(default_factory=list)
    incomplete: list = field(default_factory=list)
    size_bound_ok: bool = True
    shrunk: dict = field(default_factory=dict)  # container -> Y mask (ext. pipeline)


def _container_core(
    n: int, is_good, q_hc: Fraction, s: int, p, cap: int, what: str
) -> dict:
    """The steps both pipelines share, as PipelineFamily fields.

    The up-set of the sets where ``is_good`` holds (by minimal members; the
    property is inclusion-monotone) is fingerprinted with the exact cover
    construction at (q_hc, 1/2); each cover is sliced to uniformity s and
    handed to the fallback oracle, capped at ``cap`` vertices.  Every
    uncertified set must fit a container: a gap is a violation, or
    incomplete when the oracle stalled."""
    minimals = minimal_members(n, is_good)
    uncertified = [not in_upset(minimals, m) for m in range(1 << n)]
    fam_hc, _ = _hardcover_core(n, uncertified, q_hc, Fraction(1, 2), False)
    incomplete = []
    violations = []
    containers = set()
    for t_mask in fam_hc.fingerprints:
        slice_h = upset_slice(fam_hc.cover_hypergraph(t_mask), s)
        oracle = uniform_container_oracle(slice_h, p, cap)
        incomplete.extend(f"T={t_mask:b}: {msg}" for msg in oracle.incomplete)
        containers.update(oracle.psi.values())
    containers = tuple(sorted(containers))
    for l_mask in range(1 << n):
        if uncertified[l_mask] and not any(l_mask & ~x == 0 for x in containers):
            msg = f"uncovered {what} set {l_mask:b}"
            if incomplete:
                incomplete.append(msg + " (fallback oracle stalled)")
            else:
                violations.append(msg)
    return dict(
        containers=containers,
        certified_minimals=minimals,
        violations=violations,
        incomplete=incomplete,
    )


def _check_r_and_eta(r_param: Fraction, eta: Fraction) -> None:
    """The range both pipelines need of R and eta, whatever the mode."""
    if r_param < 0:
        raise InputError(f"R must be nonnegative, got {r_param}")
    if not eta > 0:
        raise InputError(f"eta must be positive, got {eta}")


def non_janson_containers(
    h: Hypergraph,
    p,
    q,
    r_param,
    eta=None,
    strict: bool = True,
) -> PipelineFamily:
    """Containers for vertex sets L whose induced sub-hypergraph misses the
    (p/q, eta R) property: every such L lies in some container X, and every
    h[X] certifiably misses (p, R).

    Builds the up-set of certified L (by minimal members; the property is
    inclusion-monotone), fingerprints it with the exact cover construction at
    (q + p, 1/2), slices each cover to uniformity s, and runs the fallback
    oracle on each slice.  Every claim is re-verified; failures are recorded
    as violations, and coverage gaps caused by an incomplete oracle land in
    ``incomplete`` instead.
    """
    if h.n > DESK_CAP:
        raise InputError(f"pipeline capped at {DESK_CAP} vertices")
    s = h.uniformity()
    if s is None:
        if h.edges:
            raise InputError("pipeline needs a uniform hypergraph")
        s = 1  # edgeless host: nothing is certified and parameters are moot
    p = _as_fraction(p, "p")
    q = _as_fraction(q, "q")
    r_param = _as_fraction(r_param, "R")
    eta = Fraction(1, 1 << (2 * s + 2)) if eta is None else _as_fraction(eta, "eta")
    # the ranges in which the construction is defined, whatever the mode:
    # p/q is a probability and the covers are built at (q + p, 1/2)
    if not 0 < p <= q:
        raise InputError(f"p and q must satisfy 0 < p <= q, got p = {p}, q = {q}")
    if q + p > Fraction(1, 2):
        raise InputError(f"q + p must be at most 1/2, got {q + p}")
    _check_r_and_eta(r_param, eta)
    scaled = False
    if strict:
        if q > Fraction(1, 16):
            raise InputError("pipeline requires q <= 1/16")
        if p > q / ((1 << 10) * s * s):
            raise InputError("pipeline requires p <= q / (2^10 s^2)")
        if r_param < Fraction(p) * h.n / 64:
            raise InputError("pipeline requires R >= 2^-6 p n")
        if eta != Fraction(1, 1 << (2 * s + 2)):
            raise InputError("pipeline fixes eta = 2^(-2s-2); pass strict=False to scale")
    else:
        scaled = True

    p_inner = p / q
    r_inner = eta * r_param

    def is_good(l_mask: int) -> bool:
        return require_verdict(
            restrict_edges(h, l_mask), p_inner, r_inner,
            context=f"auxiliary membership of {l_mask:b}",
        )

    family = PipelineFamily(
        host=h,
        params={
            "p": p, "q": q, "R": r_param, "eta": eta, "s": s, "n": h.n,
            "alpha": Fraction(1, 2), "scaled": scaled,
        },
        **_container_core(h.n, is_good, q + p, s, p, DESK_CAP, "vertex"),
    )
    # every container's induced sub-hypergraph misses (p, R)
    for x_mask in family.containers:
        if require_verdict(
            restrict_edges(h, x_mask), p, r_param,
            context=f"container {x_mask:b}",
        ):
            family.violations.append(
                f"container {x_mask:b} induces a (p, R) witness"
            )
    _check_size_bound(family, q, h.n, 8)
    return family


def extension_containers(
    ext: ExtensionHypergraph,
    base_copies: Hypergraph,
    v: int,
    p,
    q,
    r_param,
    r_prime,
    eta=None,
    r_colours: int = 2,
    strict: bool = True,
) -> PipelineFamily:
    """Containers on the two-layer universe for index sets I whose extended
    copy hypergraph pi_v(H[I]) united with the base copies misses the
    (p, R' + eta R) property; large containers come with a trimmed subset Y
    whose projected sub-hypergraph misses (p, R).

    ``base_copies`` is the hypergraph of whole-pattern copies inside the
    host (the (s+1)-uniform side); it must itself satisfy (p, R') when
    R' > 0.  The colour count enters only through the size thresholds of the
    trimming step.
    """
    h = ext.hyper
    n = h.n
    if n > ZETA_CAP:
        raise InputError(f"pipeline capped at {ZETA_CAP} two-layer vertices")
    if v < ext.m:
        raise InputError("the fresh vertex must lie outside the host")
    s = h.uniformity()
    if s is None and h.edges:
        raise InputError("two-layer hypergraph must be uniform")
    p = _as_fraction(p, "p")
    q = _as_fraction(q, "q")
    r_param = _as_fraction(r_param, "R")
    r_prime = _as_fraction(r_prime, "R'")
    if s is None:
        s = max(1, base_copies.uniformity() - 1 if base_copies.uniformity() else 1)
    eta_default = p**4 * (q / 2) ** (4 * s)
    eta = eta_default if eta is None else _as_fraction(eta, "eta")
    # the ranges in which the construction is defined, whatever the mode
    if not 0 < p <= 1:
        raise InputError(f"p must lie in (0, 1], got {p}")
    if not 0 < q <= Fraction(1, 2):
        raise InputError(f"q must lie in (0, 1/2], got {q}")
    if r_prime < 0:
        raise InputError(f"R' must be nonnegative, got {r_prime}")
    if r_colours < 1:
        raise InputError(f"r must be at least 1, got {r_colours}")
    _check_r_and_eta(r_param, eta)
    scaled = False
    if strict:
        if not 0 < q < Fraction(1, 8):
            raise InputError("pipeline requires 0 < q < 1/8")
        if p > q / ((1 << 10) * r_colours * r_colours * s * s):
            raise InputError("pipeline requires p <= q / (2^10 r^2 s^2)")
        if r_param != Fraction(p) * n / 64:
            raise InputError("pipeline fixes R = 2^-6 p n; pass strict=False to scale")
        if not 0 <= r_prime <= r_param / 16:
            raise InputError("pipeline requires 0 <= R' <= R/16")
        if eta != eta_default:
            raise InputError("pipeline fixes eta = p^4 (q/2)^(4s); pass strict=False to scale")
    else:
        scaled = True

    # projection constraints: fibers of size <= 2 give |pi(L)| >= |L| / 2
    fiber_count = [0] * ext.pi.n_target
    for img in ext.pi.table:
        fiber_count[img] += 1
    if any(c > 2 for c in fiber_count):
        raise InputError("projection fibers must have at most two elements")

    if base_copies.n != ext.m:
        raise InputError("base copies must live on the host universe")
    if r_prime > 0 and not require_verdict(
        base_copies, p, r_prime, context="base copies at (p, R')"
    ):
        raise InputError("base copies are not certified (p, R')")
    base_embedded = Hypergraph(v + 1, base_copies.edges)

    r_union = r_prime + eta * r_param

    def union_at(l_mask: int) -> Hypergraph:
        inside = restrict_edges(h, l_mask)
        projected = project(inside, ext.pi)
        vbit = 1 << v
        lifted = tuple(sorted({e | vbit for e in projected.edges} | set(base_embedded.edges)))
        return Hypergraph(v + 1, lifted)

    def is_good(l_mask: int) -> bool:
        return require_verdict(
            union_at(l_mask), p, r_union,
            context=f"extended membership of {l_mask:b}",
        )

    family = PipelineFamily(
        host=h,
        params={
            "p": p, "q": q, "R": r_param, "R'": r_prime, "eta": eta,
            "r": r_colours, "s": s, "n": n, "scaled": scaled,
        },
        **_container_core(n, is_good, q, s, p, ZETA_CAP, "index"),
    )

    allowance = (n // (256 * r_colours))
    floor_size = -(-n // (8 * r_colours))  # ceil(n / 8r)
    for x_mask in family.containers:
        if popcount(x_mask) < floor_size:
            continue
        y_mask = x_mask
        deleted = 0
        while True:
            projected = project(restrict_edges(h, y_mask), ext.pi)
            if not require_verdict(
                projected, p, r_param, context=f"trimmed container {y_mask:b}"
            ):
                family.shrunk[x_mask] = y_mask
                break
            if deleted >= allowance:
                family.violations.append(
                    f"container {x_mask:b}: projected sub-hypergraph stays (p, R) "
                    f"within the trimming allowance {allowance}"
                )
                break
            # delete the vertex carrying the most surviving edges
            best_v, best_load = -1, -1
            for u in bits_of(y_mask):
                load = sum(1 for e in h.edges if e & ~y_mask == 0 and e >> u & 1)
                if load > best_load:
                    best_v, best_load = u, load
            y_mask &= ~(1 << best_v)
            deleted += 1
    _check_size_bound(family, q, n, 4)
    return family
