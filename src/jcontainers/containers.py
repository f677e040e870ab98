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

  The boolean tables over the 2^n masks are bitsets, one Python int with a
  bit per mask: the containment tables of the host and of each cover, the
  pipelines' certified up-set and their containers' down-closure.  Each is
  closed in n word-parallel shift-ors, the Boolean case of the zeta
  transform over the subset lattice (Bjorklund, Husfeldt, Kaski & Koivisto,
  "Fourier meets Mobius", STOC 2007), and :func:`containment_table` reads
  it out as a list once.  The tables of integers (superset weights,
  fingerprint keys, span masks) stay list folds (:func:`_fold_pairs`).

* Cover certificates.  A cover of a target hypergraph whose members all have
  size at least 2 bounds the Janson threshold from above by its p-weight
  sum of p^|E| (Cauchy-Schwarz against the cover degrees), turning a cheap
  cover into a machine-checkable non-membership certificate.

* The pipelines for sets whose induced sub-hypergraph misses the Janson
  property.  Both build an auxiliary up-set of "already-good" vertex sets
  (stored by minimal members only), fingerprint it, slice each cover to the
  working uniformity, and hand these slices to the uniform-container oracle.
  Both certification predicates are inclusion-monotone and read only the
  host edges inside the set, so :func:`minimal_members` asks them only at
  unions of host edges.  The oracle seam stands in for an external
  container theorem.  Its fallback offers one shared container, the union
  of all independent sets, and verifies it; at desk scale that container
  always verifies unless it is empty (the proof is in
  :func:`uniform_container_oracle`).  A failure is reported as
  incompleteness, kept distinct from a theorem violation throughout.  The
  extension pipeline's trimming step may delete n / (256 r) vertices,
  which is none at n <= ZETA_CAP, so it is a single projected check per
  large container.

The empty set satisfies the cover inequality vacuously, which would make
nothing independent in any cover; covers therefore keep nonempty members
only.  The ``paper_literal`` flag restores the verbatim convention and
reports the resulting independence failures instead.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
from fractions import Fraction

from .copies import ExtensionHypergraph, extend_copies
from .errors import BudgetError, InputError
from .hypercore import (
    DEFAULT_ENUM_CAP,
    Hypergraph,
    Value,
    _set,
    bits_of,
    independence_polynomial,
    independent_sets,
    mask_of,
    nonstrict_link,
    popcount,
    project,
    restrict_edges,
)
from .janson import require_verdict
from .measures import as_fraction, is_rational
from .prng import SplitMix64

ZETA_CAP = 16  # the family's transforms allocate 2^n tables; single queries allocate none
DESK_CAP = 14


def _shown(x) -> str:
    """x as message text.  A rational past the interpreter's integer-printing
    limit is named, not printed, so that the message carrying it can be built."""
    try:
        return str(x)
    except ValueError:
        return f"a rational of more than {sys.get_int_max_str_digits()} digits"


def _popcounts(n: int) -> list[int]:
    """counts[mask] = |mask| for every mask on n vertices."""
    counts = [0]
    for _ in range(n):
        counts += [c + 1 for c in counts]
    return counts


@functools.cache
def _low_masks(n: int) -> tuple[int, ...]:
    """low[b] for b < n: the bitset of the masks on n vertices without bit b,
    runs of 2^b ones and 2^b zeros, doubled up to 2^n bits.  Only n up to
    ZETA_CAP reaches it, so the cache holds at most 17 entries."""
    low = []
    for bit in range(n):
        half = 1 << bit
        bits, width = (1 << half) - 1, half << 1
        while width < 1 << n:
            bits |= bits << width
            width <<= 1
        low.append(bits)
    return tuple(low)


def _bitset(n: int, members) -> int:
    """The bitset over the 2^n masks, one bit per mask, set at the members:
    packed in a bytearray, so each member costs O(1), not O(2^n)."""
    if n > ZETA_CAP:
        raise BudgetError(f"subset-lattice tables capped at {ZETA_CAP} vertices")
    size = 1 << n
    packed = bytearray((size + 7) >> 3)
    for m in members:
        if not 0 <= m < size:
            raise InputError(f"mask {m} lies outside the {n}-vertex universe")
        packed[m >> 3] |= 1 << (m & 7)
    return int.from_bytes(packed, "little")


def _up_closure(n: int, members) -> int:
    """Bitset of the masks on n vertices that contain some member: n
    shift-ors, each moving the masks without bit b onto their b-supersets."""
    bits = _bitset(n, members)
    for bit, low in enumerate(_low_masks(n)):
        bits |= (bits & low) << (1 << bit)
    return bits


def _down_closure(n: int, members) -> int:
    """Bitset of the masks on n vertices inside some member: n shift-ors,
    each moving the masks with bit b onto their b-subsets."""
    bits = _bitset(n, members)
    for bit, low in enumerate(_low_masks(n)):
        bits |= (bits >> (1 << bit)) & low
    return bits


_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _bools(bits: int, n: int) -> list[bool]:
    """The bitset over the 2^n masks as a list, table[mask] = its bit."""
    digits = f"{bits:0{1 << n}b}"[::-1].encode()
    return memoryview(digits.translate(_BIT_BYTES)).cast("?").tolist()


def _ascending(bits: int):
    """The masks whose bits are set, in ascending order; the loop runs once
    per set bit, not once per mask."""
    digits = f"{bits:b}"[::-1]
    m = digits.find("1")
    while m >= 0:
        yield m
        m = digits.find("1", m + 1)


def _fold_pairs(table: list, n: int, combine, into_subset: bool) -> None:
    """For every bit b and every mask m without b, in bit order and in
    place: table[m | b] = combine(table[m | b], table[m]), which folds each
    entry over its submasks, or with ``into_subset``
    table[m] = combine(table[m], table[m | b]), which folds over supersets.

    It serves the folds whose entries are not booleans: the superset
    weights, the fingerprint keys and the span masks of
    :func:`minimal_members`; the boolean tables are bitsets (see
    :func:`_up_closure`).  ``combine`` maps two equal-length lists to the
    combined values.  The pairs are taken as list slices (strided for low
    bits, blocks for high bits), so the interpreter loops about 2^(n/2)
    times per bit, not 2^n."""
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
    """table[mask] is True when some edge is a subset of mask, read off the
    bitset :func:`_up_closure`."""
    return _bools(_up_closure(n, edges), n)


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
    q = as_fraction(q, "q")
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


class _ZetaContext:
    """Superset weight table of one link, with the fingerprint/cover
    inequality in integer form.

    With bar = (1 - alpha) q = u/v, P(L in V_q | independent) <= bar^|L|
    reads table[L] v^k <= u^k table[0] for k = |L|; as table[L] is an
    integer, that is table[L] <= limit[k] = floor(u^k table[0] / v^k)."""

    __slots__ = ("table", "limit")

    def __init__(self, table: list[int], limit: list[int]):
        self.table = table
        self.limit = limit

    def prob(self, l_mask: int) -> Fraction:
        return Fraction(self.table[l_mask], self.table[0])


def _context_for(
    n: int, independent: list[bool], t_mask: int, q: Fraction, bar: Fraction, counts: list[int]
) -> _ZetaContext:
    """The context of the non-strict link at T: S is kept when S | T is
    independent.  At T = 0 that is ``independent`` itself, which the table
    only reads, so it is passed as it is."""
    keep = independent if t_mask == 0 else [independent[m | t_mask] for m in range(1 << n)]
    table = _superset_weight_table(n, keep, q, counts)
    u, v = bar.numerator, bar.denominator
    return _ZetaContext(table, [table[0] * u**k // v**k for k in range(n + 1)])


def _fingerprint_table(sat: list[bool], n: int, counts: list[int]) -> list[int]:
    """fp[mask] for every mask, in one pass: a maximum-cardinality submask
    of mask where ``sat`` holds, ties going to the numerically largest.

    Maximum cardinality forces inclusion-maximality, which is what the
    cover argument needs: a single-vertex greedy can stall below a larger
    satisfying superset reachable only by adding two vertices at once, and
    then the independent set meets its own cover.  Each satisfying S
    carries the key (|S| << n) | S; folding keys up to supersets with max
    leaves every mask the largest key among its satisfying submasks.  The
    empty set always satisfies the inequality, so a fingerprint always
    exists; when no nonempty set satisfies it, every fingerprint is empty
    and the passes are skipped."""
    if not any(sat[1:]):
        return [0] * (1 << n)
    keys = [(k << n) | m if s else 0 for m, (s, k) in enumerate(zip(sat, counts))]
    _fold_pairs(keys, n, _larger, into_subset=False)
    low = (1 << n) - 1
    return [key & low for key in keys]


def in_cover(h: Hypergraph, l_mask: int, t_mask: int, q, alpha) -> bool:
    """Lazy cover-membership query: is L in the cover attached to T?

    Needs no 2^n table, so it answers above ``ZETA_CAP`` (up to
    ``DEFAULT_ENUM_CAP`` vertices) at one exact weighted count of
    independent sets per query (see :func:`conditional_prob`)."""
    q = as_fraction(q, "q")
    alpha = as_fraction(alpha, "alpha")
    if l_mask == 0:
        return False  # nonempty members only; see the module docstring
    bar = (1 - alpha) * q
    return conditional_prob(h, l_mask, q, t_mask) <= bar ** popcount(l_mask)


class HardcoverFamily:
    """Fingerprints, covers, and the verification record of the exact
    fingerprint/cover construction."""

    __slots__ = (
        "n", "paper_literal", "fingerprints", "phi", "covers", "violations", "strict_checked"
    )

    def __init__(self, n: int, paper_literal: bool, fingerprints: tuple, phi: dict, covers: dict):
        self.n = n
        self.paper_literal = paper_literal
        self.fingerprints = fingerprints  # sorted distinct T masks
        self.phi = phi  # independent-set mask -> T mask
        self.covers = covers  # T mask -> tuple of cover member masks (sorted)
        self.violations = []
        self.strict_checked = 0


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
    q = as_fraction(q, "q")
    alpha = as_fraction(alpha, "alpha")
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
                f"fingerprint {t_mask:b} larger than q n / alpha = {_shown(size_cap)}"
            )
        if cover_contains[t_mask][i_mask]:
            family.violations.append(
                f"independent set {i_mask:b} meets its own cover (T = {t_mask:b})"
            )
    member_sets = {t_mask: set(covers[t_mask]) for t_mask in fingerprints}
    edge_set = set(h.edges)
    for t_mask in fingerprints:
        for e in edge_set:
            if e not in member_sets[t_mask] and e != 0:
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
    # P(S in V_q | independent) <= ((1-alpha) q)^|S|, the fingerprint
    # inequality; every submask of an independent set is independent, so
    # dependent masks (satisfying vacuously, at probability 0) can drop out
    limit = base_ctx.limit
    sat = [i and t <= limit[k] for i, t, k in zip(independent, base_ctx.table, counts)]
    fp = _fingerprint_table(sat, n, counts)
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


class CoverCertificate(Value):
    """Machine-checkable upper bound on the Janson threshold of the target:
    for every measure, lambda_p >= mass^2 / weight, so the target is not
    (p, R)-Janson for any R >= weight."""

    __slots__ = ("target", "cover", "p", "weight")

    def __init__(self, target: Hypergraph, cover: Hypergraph, p, weight):
        _set(self, "target", target)
        _set(self, "cover", cover)
        _set(self, "p", p)
        _set(self, "weight", weight)  # sum of p^|E| over cover members


def p_weight(cover: Hypergraph, p):
    exact = is_rational(p)
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
                f"cover edge {bits_of(e)} has size below 2"
            )
    members = cover.edges
    for e in target.edges:
        if not any(a & ~e == 0 for a in members):
            raise InputError(
                f"target edge {bits_of(e)} contains no cover member"
            )
    return CoverCertificate(target, cover, p, p_weight(cover, p))


# ---------------------------------------------------------------------------
# Uniform-container oracle (pluggable seam with a shared-container fallback)


class UniformContainerFamily:
    __slots__ = ("phi", "psi", "incomplete")

    def __init__(self, phi: dict, psi: dict, incomplete=()):
        self.phi = phi  # independent-set mask -> S mask
        self.psi = psi  # S mask -> container mask
        self.incomplete = list(incomplete)


def uniform_container_oracle(h: Hypergraph, p) -> UniformContainerFamily:
    """Fallback for the external uniform-container theorem: the one shared
    container X, the union of the independent sets of the s-uniform h, with
    the empty fingerprint, once h[X] certifiably misses the (p, 2^-8 p |X|)
    property.  p must be an exact rational with p <= 1/(2^11 s^2).

    At this scale X always verifies unless it is empty: at s <= 1 it holds
    no edge, and at s >= 2 with |X| <= 16 (the bound holds up to 21) the
    m <= C(|X|, s) edges force lambda_p >= C(s, 2) / (p^2 m) on the simplex
    of h[X], at least 1/R = 256 / (p |X|).  Smaller fingerprint classes would
    therefore add nothing.  A failure lands in ``incomplete`` rather than
    being patched over, and the container is verified, not trusted.
    """
    if h.n > ZETA_CAP:
        raise InputError(f"fallback oracle capped at {ZETA_CAP} vertices")
    p = as_fraction(p, "p")
    s = h.uniformity()
    if s is None and h.edges:
        raise InputError("fallback oracle needs a uniform hypergraph")
    if s is not None and s >= 1 and p > Fraction(1, (1 << 11) * s * s):
        raise InputError("oracle precondition p <= 1/(2^11 s^2) fails")
    ind_list = [] if 0 in h.edges else list(independent_sets(h))
    if not ind_list:
        return UniformContainerFamily({}, {})
    union_mask = functools.reduce(operator.or_, ind_list)
    if union_mask and not require_verdict(
        restrict_edges(h, union_mask), p, p / 256 * popcount(union_mask),
        context="uniform-container oracle",
    ):
        return UniformContainerFamily({i: 0 for i in ind_list}, {0: union_mask})
    return UniformContainerFamily({}, {}, [f"shared container {union_mask:b} does not verify"])


# ---------------------------------------------------------------------------
# Up-sets of certified vertex sets, stored via minimal members


def minimal_members(h: Hypergraph, holds) -> tuple:
    """Minimal members, in (size, mask) order, of a set property on the
    vertex masks of h that is inclusion-monotone and reads only the edges
    of h inside the mask (as ``holds(mask)`` does when it looks at
    ``restrict_edges(h, mask)`` alone).

    Such a property answers alike at a mask and at its span, the union of
    the edges of h inside it, so every minimal member is its own span.
    ``holds`` is therefore queried only at spans, in (size, mask) order,
    skipping those that contain a known member; the spans are read off one
    OR-fold list of span masks (span[mask] = mask exactly at the spans),
    which holds ints, not booleans, so it is not a bitset."""
    size = 1 << h.n
    span = [0] * size
    for e in h.edges:
        span[e] = e
    _fold_pairs(span, h.n, _either, into_subset=False)
    spans = itertools.compress(range(size), map(operator.eq, span, range(size)))
    minimals: list[int] = []
    for mask in sorted(spans, key=lambda m: (popcount(m), m)):
        if any(mm & ~mask == 0 for mm in minimals):
            continue
        if holds(mask):
            minimals.append(mask)
    return tuple(minimals)


def upset_slice(h: Hypergraph, s: int) -> Hypergraph:
    """The size-s slice of the up-set of h: every s-subset of the universe
    that contains some edge of h."""
    if s < 0:
        raise InputError("slice size must be nonnegative")
    contains = containment_table(h.n, h.edges)
    members = (mask_of(c) for c in itertools.combinations(range(h.n), s))
    return Hypergraph(h.n, tuple(sorted(m for m in members if contains[m])))


class PipelineFamily:
    """Containers plus the verification record of a pipeline run."""

    __slots__ = (
        "host", "params", "containers", "certified_minimals",
        "violations", "incomplete", "size_bound_ok", "shrunk",
    )

    def __init__(
        self, host: Hypergraph, params: dict, containers: tuple, certified_minimals: tuple
    ):
        self.host = host
        self.params = params
        self.containers = containers  # sorted container masks
        self.certified_minimals = certified_minimals  # minimal sets with the auxiliary property
        self.violations = []
        self.incomplete = []
        self.size_bound_ok = True
        self.shrunk = {}  # container -> Y mask (ext. pipeline)


def _verified_pipeline(
    h: Hypergraph, params: dict, is_good, q_cover: Fraction, what: str, violation, size_factor: int
) -> PipelineFamily:
    """The body both pipelines run, from the certified up-set to the
    verified family on the universe of h.

    The up-set of the sets where ``is_good`` holds (by minimal members; the
    property is inclusion-monotone and reads only the edges of h inside the
    set) is fingerprinted with the exact cover construction at
    (q_cover, 1/2); each cover is sliced to uniformity s and handed to the
    fallback oracle.  Every uncertified set must fit a container: a gap is
    a violation, or incomplete when the oracle stalled.  The gaps are the
    set bits of ``uncertified & ~covered``, two bitsets over the 2^n masks
    (the up-set's complement and the containers' down-closure), walked in
    ascending mask order.  Then ``violation(family, x_mask)`` checks
    each container (a message, or None), and a family of more than
    4 (2/q)^(c q n) containers, c = size_factor, is a violation; log(2/q)
    comes from q's integers, since float(q) may be 0."""
    n, s, p, q = h.n, params["s"], params["p"], params["q"]
    minimals = minimal_members(h, is_good)
    uncertified_bits = ((1 << (1 << n)) - 1) & ~_up_closure(n, minimals)
    fam_hc, _ = _hardcover_core(n, _bools(uncertified_bits, n), q_cover, Fraction(1, 2), False)
    family = PipelineFamily(h, params, (), minimals)
    containers = set()
    for t_mask in fam_hc.fingerprints:
        slice_h = upset_slice(Hypergraph(n, fam_hc.covers[t_mask]), s)
        oracle = uniform_container_oracle(slice_h, p)
        family.incomplete.extend(f"T={t_mask:b}: {msg}" for msg in oracle.incomplete)
        containers.update(oracle.psi.values())
    family.containers = tuple(sorted(containers))
    covered = _down_closure(n, family.containers)
    for l_mask in _ascending(uncertified_bits & ~covered):
        msg = f"uncovered {what} set {l_mask:b}"
        if family.incomplete:
            family.incomplete.append(msg + " (fallback oracle stalled)")
        else:
            family.violations.append(msg)
    for x_mask in family.containers:
        msg = violation(family, x_mask)
        if msg is not None:
            family.violations.append(msg)
    log_two_over_q = math.log(2 * q.denominator) - math.log(q.numerator)
    limit = math.log(4.0) + size_factor * float(q) * n * log_two_over_q
    family.size_bound_ok = math.log(max(len(family.containers), 1)) <= limit + 1e-12
    if not family.size_bound_ok:
        family.violations.append("container family exceeds its size bound")
    return family


def _check_r_and_eta(r_param: Fraction, eta: Fraction) -> None:
    """The range both pipelines need of R and eta, whatever the mode."""
    if r_param < 0:
        raise InputError(f"R must be nonnegative, got {_shown(r_param)}")
    if not eta > 0:
        raise InputError(f"eta must be positive, got {_shown(eta)}")


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
    p = as_fraction(p, "p")
    q = as_fraction(q, "q")
    r_param = as_fraction(r_param, "R")
    eta = Fraction(1, 1 << (2 * s + 2)) if eta is None else as_fraction(eta, "eta")
    # the ranges in which the construction is defined, whatever the mode:
    # p/q is a probability and the covers are built at (q + p, 1/2)
    if not 0 < p <= q:
        raise InputError(f"p and q must satisfy 0 < p <= q, got p = {_shown(p)}, q = {_shown(q)}")
    if q + p > Fraction(1, 2):
        raise InputError(f"q + p must be at most 1/2, got {_shown(q + p)}")
    _check_r_and_eta(r_param, eta)
    if strict:
        if q > Fraction(1, 16):
            raise InputError("pipeline requires q <= 1/16")
        if p * (1 << 10) * s * s > q:  # vacuous at s = 0
            raise InputError("pipeline requires p <= q / (2^10 s^2)")
        if r_param < Fraction(p) * h.n / 64:
            raise InputError("pipeline requires R >= 2^-6 p n")
        if eta != Fraction(1, 1 << (2 * s + 2)):
            raise InputError("pipeline fixes eta = 2^(-2s-2); pass strict=False to scale")

    p_inner = p / q
    r_inner = eta * r_param

    def is_good(l_mask: int) -> bool:
        return require_verdict(
            restrict_edges(h, l_mask), p_inner, r_inner,
            context=f"auxiliary membership of {l_mask:b}",
        )

    def violation(family: PipelineFamily, x_mask: int):
        # every container's induced sub-hypergraph misses (p, R)
        if require_verdict(restrict_edges(h, x_mask), p, r_param, context=f"container {x_mask:b}"):
            return f"container {x_mask:b} induces a (p, R) witness"
        return None

    params = {
        "p": p, "q": q, "R": r_param, "eta": eta, "s": s, "n": h.n,
        "alpha": Fraction(1, 2), "scaled": not strict,
    }
    return _verified_pipeline(h, params, is_good, q + p, "vertex", violation, 8)


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
    p = as_fraction(p, "p")
    q = as_fraction(q, "q")
    r_param = as_fraction(r_param, "R")
    r_prime = as_fraction(r_prime, "R'")
    if s is None:
        s = max(1, base_copies.uniformity() - 1 if base_copies.uniformity() else 1)
    eta_default = p**4 * (q / 2) ** (4 * s)
    eta = eta_default if eta is None else as_fraction(eta, "eta")
    # the ranges in which the construction is defined, whatever the mode
    if not 0 < p <= 1:
        raise InputError(f"p must lie in (0, 1], got {_shown(p)}")
    if not 0 < q <= Fraction(1, 2):
        raise InputError(f"q must lie in (0, 1/2], got {_shown(q)}")
    if r_prime < 0:
        raise InputError(f"R' must be nonnegative, got {_shown(r_prime)}")
    if r_colours < 1:
        raise InputError(f"r must be at least 1, got {r_colours}")
    _check_r_and_eta(r_param, eta)
    if strict:
        if not 0 < q < Fraction(1, 8):
            raise InputError("pipeline requires 0 < q < 1/8")
        if p * (1 << 10) * r_colours * r_colours * s * s > q:  # vacuous at s = 0
            raise InputError("pipeline requires p <= q / (2^10 r^2 s^2)")
        if r_param != Fraction(p) * n / 64:
            raise InputError("pipeline fixes R = 2^-6 p n; pass strict=False to scale")
        if not 0 <= r_prime <= r_param / 16:
            raise InputError("pipeline requires 0 <= R' <= R/16")
        if eta != eta_default:
            raise InputError("pipeline fixes eta = p^4 (q/2)^(4s); pass strict=False to scale")

    if base_copies.n != ext.m:
        raise InputError("base copies must live on the host universe")
    if r_prime > 0 and not require_verdict(
        base_copies, p, r_prime, context="base copies at (p, R')"
    ):
        raise InputError("base copies are not certified (p, R')")
    r_union = r_prime + eta * r_param

    def union_at(l_mask: int) -> Hypergraph:
        # the lifted edges hold v >= m and the base edges do not: disjoint
        lifted = extend_copies(ext, l_mask, v).edges
        return Hypergraph(v + 1, tuple(sorted(lifted + base_copies.edges)))

    def is_good(l_mask: int) -> bool:
        return require_verdict(
            union_at(l_mask), p, r_union,
            context=f"extended membership of {l_mask:b}",
        )

    # the trimming step may delete n // (256 r) vertices, none at n <= ZETA_CAP,
    # so each large container is its own trimmed set Y or a violation
    floor_size = -(-n // (8 * r_colours))  # ceil(n / 8r)

    def violation(family: PipelineFamily, x_mask: int):
        if popcount(x_mask) < floor_size:
            return None
        projected = project(restrict_edges(h, x_mask), ext.pi)
        if require_verdict(projected, p, r_param, context=f"trimmed container {x_mask:b}"):
            return (
                f"container {x_mask:b}: projected sub-hypergraph stays (p, R) "
                "within the trimming allowance 0"
            )
        family.shrunk[x_mask] = x_mask
        return None

    params = {
        "p": p, "q": q, "R": r_param, "R'": r_prime, "eta": eta,
        "r": r_colours, "s": s, "n": n, "scaled": not strict,
    }
    return _verified_pipeline(h, params, is_good, q, "index", violation, 4)
