import functools
import itertools
import operator
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jcontainers import containers, janson
from jcontainers.containers import (
    ZETA_CAP,
    UniformContainerFamily,
    _ascending,
    _bools,
    _down_closure,
    _fingerprint_table,
    _popcounts,
    _up_closure,
    conditional_prob,
    containment_table,
    cover_certificate,
    extension_containers,
    hardcover_family,
    minimal_members,
    non_janson_containers,
    uniform_container_oracle,
)
from jcontainers.copies import extension_hypergraph, induced_copy_hypergraph
from jcontainers.errors import BudgetError, InputError
from jcontainers.hypercore import (
    Graph,
    Hypergraph,
    independent_sets,
    mask_of,
    popcount,
    restrict_edges,
)
from jcontainers.janson import janson_threshold, require_verdict
from jcontainers.prng import SplitMix64

from conftest import hypergraphs
from oracles import or_fold
from paper import fingerprint, is_independent


def random_hypergraph(rng, n, max_edges, sizes=(2, 3)):
    edges = set()
    for _ in range(max_edges):
        size = sizes[rng.below(len(sizes))]
        edges.add(rng.sample_mask(n, size))
    return Hypergraph(n, tuple(sorted(edges)))


class TestConditionalProb:
    def test_edgeless_factorises(self):
        h = Hypergraph(4, ())
        for l_verts in ([], [0], [1, 3], [0, 1, 2]):
            assert conditional_prob(h, mask_of(l_verts), F(1, 3)) == F(1, 3) ** len(l_verts)

    def test_empty_set_is_certain(self):
        h = Hypergraph.from_vertex_lists(3, [[0, 1]])
        assert conditional_prob(h, 0, F(1, 2)) == 1

    def test_single_edge_worked_value(self):
        h = Hypergraph.from_vertex_lists(2, [[0, 1]])
        assert conditional_prob(h, mask_of([0]), F(1, 2)) == F(1, 3)

    @given(hypergraphs(min_n=2, max_n=6), st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_direct_enumeration(self, h, data):
        q = data.draw(st.sampled_from([F(1, 2), F(1, 4), F(2, 5)]))
        l_mask = data.draw(st.integers(0, (1 << h.n) - 1))
        num = den = F(0)
        for i_mask in independent_sets(h):
            w = q ** popcount(i_mask) * (1 - q) ** (h.n - popcount(i_mask))
            den += w
            if l_mask & ~i_mask == 0:
                num += w
        assert conditional_prob(h, l_mask, q) == num / den

    @staticmethod
    def summed(h, l_mask, q, t_mask):
        """P(L in V_q | V_q independent in the link at T), summed set by set."""
        link = Hypergraph(h.n, tuple(sorted({e & ~t_mask for e in h.edges})))
        num = den = F(0)
        for i_mask in independent_sets(link):
            w = q ** popcount(i_mask) * (1 - q) ** (h.n - popcount(i_mask))
            den += w
            if l_mask & ~i_mask == 0:
                num += w
        return num, den

    @given(hypergraphs(max_n=12, max_edges=24), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_summation_with_link(self, h, data):
        q = F(data.draw(st.integers(1, 9)), 10)
        l_mask = data.draw(st.integers(0, (1 << h.n) - 1))
        t_mask = data.draw(st.integers(0, (1 << h.n) - 1)) & data.draw(
            st.integers(0, (1 << h.n) - 1)
        )
        num, den = self.summed(h, l_mask, q, t_mask)
        if den == 0:
            with pytest.raises(InputError):
                conditional_prob(h, l_mask, q, t_mask)
        else:
            assert conditional_prob(h, l_mask, q, t_mask) == num / den

    def test_l_containing_a_link_edge_is_impossible(self):
        h = Hypergraph.from_vertex_lists(5, [[0, 1, 2], [3, 4]])
        assert conditional_prob(h, mask_of([1, 2, 4]), F(1, 3), mask_of([0])) == 0

    def test_empty_link_edge_rejected(self):
        h = Hypergraph.from_vertex_lists(5, [[0, 1], [2, 3, 4]])
        with pytest.raises(InputError):
            conditional_prob(h, mask_of([2]), F(1, 3), mask_of([0, 1]))

    def test_non_matching_host_above_table_cap(self):
        rng = SplitMix64(17)
        h = random_hypergraph(rng, 17, 24)
        l_mask, t_mask = mask_of([1, 6]), mask_of([3])
        num, den = self.summed(h, l_mask, F(1, 8), t_mask)
        assert num > 0
        assert conditional_prob(h, l_mask, F(1, 8), t_mask) == num / den

    def test_rejects_universe_above_cap(self):
        with pytest.raises(InputError):
            conditional_prob(Hypergraph(26, ()), 1, F(1, 2))


class TestFingerprint:
    def test_empty_independent_set(self):
        h = Hypergraph.from_vertex_lists(3, [[0, 1]])
        assert fingerprint(h, 0, F(1, 4), F(1, 2)) == 0

    def test_edgeless_gives_empty_fingerprint(self):
        h = Hypergraph(4, ())
        assert fingerprint(h, 0b1011, F(1, 4), F(1, 2)) == 0

    def test_worked_example_size_bound(self):
        h = Hypergraph.from_vertex_lists(3, [[0, 1]])
        t = fingerprint(h, mask_of([0, 2]), F(1, 4), F(1, 2))
        assert popcount(t) <= 1  # q n / alpha = 1.5

    def test_rejects_dependent_set(self):
        h = Hypergraph.from_vertex_lists(3, [[0, 1]])
        with pytest.raises(InputError):
            fingerprint(h, mask_of([0, 1]), F(1, 4), F(1, 2))

    @given(hypergraphs(min_n=2, max_n=6), st.data())
    @settings(max_examples=30, deadline=None)
    def test_output_is_inclusion_maximal(self, h, data):
        q, alpha = data.draw(
            st.sampled_from([(F(1, 4), F(1, 2)), (F(1, 4), F(1, 3)), (F(1, 8), F(1, 2))])
        )
        ind = [m for m in range(1 << h.n) if is_independent(h, m)]
        i_mask = data.draw(st.sampled_from(ind))
        t_mask = fingerprint(h, i_mask, q, alpha)
        bar = (1 - alpha) * q
        assert conditional_prob(h, t_mask, q) <= bar ** popcount(t_mask)
        # no satisfying superset inside I at all, single-step or not
        rest = i_mask & ~t_mask
        sub = rest
        while sub:
            cand = t_mask | sub
            assert conditional_prob(h, cand, q) > bar ** popcount(cand)
            sub = (sub - 1) & rest


def fingerprint_in_table(sat, i_mask):
    """A maximum-cardinality subset of I where ``sat`` holds, ties broken by
    the first hit in descending submask order: the fingerprint rule as a
    per-set submask scan, the reference for the one-pass table."""
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


def reference_family(h, q, alpha, paper_literal):
    """fingerprints, phi and covers from their definitions: a plain
    superset-sum loop for the weights, Fraction comparisons for the
    inequality and a submask scan per independent set."""
    n = h.n
    a, c = q.numerator, q.denominator - q.numerator
    bar = (1 - alpha) * q
    independent = [is_independent(h, m) for m in range(1 << n)]

    def satisfying(t_mask):
        w = [
            a ** popcount(s) * c ** (n - popcount(s)) if independent[s | t_mask] else 0
            for s in range(1 << n)
        ]
        for bit in range(n):
            for m in range(1 << n):
                if not m >> bit & 1:
                    w[m] += w[m | 1 << bit]
        return [F(w[m], w[0]) <= bar ** popcount(m) for m in range(1 << n)]

    sat = satisfying(0)
    phi = {i: fingerprint_in_table(sat, i) for i in range(1 << n) if independent[i]}
    fingerprints = tuple(sorted(set(phi.values())))
    lo = 0 if paper_literal else 1
    covers = {}
    for t_mask in fingerprints:
        sat_t = satisfying(t_mask)
        covers[t_mask] = tuple(m for m in range(lo, 1 << n) if sat_t[m])
    return fingerprints, phi, covers


@st.composite
def lattice_members(draw):
    """n = 0..10 and masks of the n-vertex universe: the empty mask and
    one-vertex masks are drawn often."""
    n = draw(st.integers(0, 10))
    mask = st.integers(0, (1 << n) - 1)
    if n:
        mask = st.one_of(st.just(0), st.integers(0, n - 1).map(lambda v: 1 << v), mask)
    return n, draw(st.lists(mask, max_size=12))


class TestSubsetLatticeBitsets:
    """The boolean tables are bitsets closed by n shift-ors; the list OR-fold
    of tests/oracles.py is the reference."""

    @given(lattice_members())
    @settings(max_examples=120, deadline=None)
    def test_closures_match_the_list_fold(self, drawn):
        n, members = drawn
        up = _up_closure(n, members)
        down = _down_closure(n, members)
        assert up >> (1 << n) == 0 and down >> (1 << n) == 0
        assert _bools(up, n) == containment_table(n, members) == or_fold(n, members)
        assert _bools(down, n) == or_fold(n, members, into_subset=True)
        assert list(_ascending(down)) == [m for m, c in enumerate(_bools(down, n)) if c]

    def test_closures_at_the_cap(self):
        n = ZETA_CAP
        rng = SplitMix64(16)
        members = [rng.sample_mask(n, 1 + rng.below(n)) for _ in range(24)] + [1 << 5]
        assert containment_table(n, members) == or_fold(n, members)
        assert _bools(_down_closure(n, members), n) == or_fold(n, members, into_subset=True)

    @pytest.mark.parametrize("table", [containment_table, _up_closure, _down_closure])
    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    def test_mask_outside_the_universe(self, table, n):
        for bad in (1 << n, (1 << n) + 1, -1):
            with pytest.raises(InputError, match="outside the"):
                table(n, [0, bad])

    @pytest.mark.parametrize("table", [containment_table, _up_closure, _down_closure])
    def test_above_the_cap(self, table):
        with pytest.raises(BudgetError):
            table(ZETA_CAP + 1, [])


class TestOnePassTables:
    @given(st.integers(0, 10), st.integers(0, 2**32), st.sampled_from([1, 8, 32, 56]))
    @settings(max_examples=60, deadline=None)
    def test_fingerprint_table_matches_submask_scan(self, n, seed, density):
        rng = SplitMix64(seed)
        sat = [m == 0 or rng.below(64) < density for m in range(1 << n)]
        fp = _fingerprint_table(sat, n, _popcounts(n))
        assert fp == [fingerprint_in_table(sat, m) for m in range(1 << n)]

    @pytest.mark.parametrize("empty_satisfies", [True, False])
    @pytest.mark.parametrize("n", range(11))
    def test_fingerprint_table_without_nonempty_satisfier(self, n, empty_satisfies):
        # the early exit: no nonempty set satisfies, so every fingerprint is empty
        sat = [m == 0 and empty_satisfies for m in range(1 << n)]
        fp = _fingerprint_table(sat, n, _popcounts(n))
        assert fp == [fingerprint_in_table(sat, m) for m in range(1 << n)] == [0] * (1 << n)

    @pytest.mark.parametrize("seed", range(30))
    def test_family_matches_reference(self, seed):
        # dense hosts give many fingerprints; a one-vertex edge removes its
        # vertex from every independent set
        rng = SplitMix64(seed)
        n = 4 + rng.below(7)
        h = random_hypergraph(rng, n, rng.below(3 * n), sizes=(1, 2, 2, 3))
        q, alpha = [(F(1, 8), F(1, 2)), (F(1, 4), F(1, 3)), (F(2, 5), F(2, 5))][seed % 3]
        paper_literal = seed % 2 == 1
        fam = hardcover_family(h, q, alpha, paper_literal=paper_literal, strict_samples=4)
        assert (fam.fingerprints, fam.phi, fam.covers) == reference_family(
            h, q, alpha, paper_literal
        )


class TestHardcoverFamily:
    def test_edgeless_family(self):
        h = Hypergraph(4, ())
        fam = hardcover_family(h, F(1, 8), F(1, 2))
        assert fam.fingerprints == (0,)
        assert fam.covers[0] == ()  # no nonempty member passes
        assert fam.violations == []

    def test_single_edge_every_edge_covered(self):
        h = Hypergraph.from_vertex_lists(2, [[0, 1]])
        fam = hardcover_family(h, F(1, 8), F(1, 2))
        for t in fam.fingerprints:
            assert mask_of([0, 1]) in fam.covers[t]
        assert fam.violations == []

    def test_paper_literal_reports_failures(self):
        h = Hypergraph.from_vertex_lists(2, [[0, 1]])
        fam = hardcover_family(h, F(1, 8), F(1, 2), paper_literal=True)
        assert any("meets its own cover" in v for v in fam.violations)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_instances_verify(self, seed):
        rng = SplitMix64(seed)
        h = random_hypergraph(rng, 10, 5)
        fam = hardcover_family(h, F(1, 8), F(1, 2))
        assert fam.violations == []
        assert fam.strict_checked > 0

    def test_fingerprint_subset_of_independent_set(self):
        rng = SplitMix64(3)
        h = random_hypergraph(rng, 8, 4)
        fam = hardcover_family(h, F(1, 8), F(1, 2))
        for i_mask, t_mask in fam.phi.items():
            assert t_mask & ~i_mask == 0

    def test_lazy_membership_matches_materialised_covers(self):
        from jcontainers.containers import in_cover

        rng = SplitMix64(9)
        h = random_hypergraph(rng, 8, 4)
        fam = hardcover_family(h, F(1, 8), F(1, 2), strict_samples=0)
        for t_mask in fam.fingerprints:
            members = set(fam.covers[t_mask])
            for l_mask in range(1 << h.n):
                assert in_cover(h, l_mask, t_mask, F(1, 8), F(1, 2)) == (
                    l_mask in members
                )

    def test_lazy_membership_above_enumeration_cap(self):
        from jcontainers.containers import in_cover

        # 18 vertices exceed the table cap; the query still answers exactly
        h = Hypergraph(18, (mask_of([0, 1]), mask_of([16, 17])))
        assert in_cover(h, mask_of([0, 1]), 0, F(1, 8), F(1, 2))
        assert not in_cover(h, mask_of([4]), 0, F(1, 8), F(1, 2))


class TestCoverCertificate:
    def test_triangle_tight(self):
        tri = Hypergraph.from_vertex_lists(3, [[0, 1], [0, 2], [1, 2]])
        cert = cover_certificate(tri, tri, F(1, 2))
        assert cert.weight == F(3, 4)
        assert janson_threshold(tri, F(1, 2)) == F(3, 4)  # bound is tight here

    def test_two_uniform_self_cover(self):
        for m in (1, 3, 5):
            h = Hypergraph(
                2 * m, tuple(mask_of([2 * i, 2 * i + 1]) for i in range(m))
            )
            cert = cover_certificate(h, h, F(1, 3))
            assert cert.weight == m * F(1, 9)

    def test_three_edge_covered_by_pair(self):
        target = Hypergraph.from_vertex_lists(3, [[0, 1, 2]])
        cover = Hypergraph.from_vertex_lists(3, [[0, 1]])
        cert = cover_certificate(target, cover, F(1, 2))
        assert cert.weight == F(1, 4)
        assert janson_threshold(target, F(1, 2)) == F(1, 20) <= cert.weight

    def test_rejects_non_cover(self):
        target = Hypergraph.from_vertex_lists(4, [[0, 1], [2, 3]])
        cover = Hypergraph.from_vertex_lists(4, [[0, 1]])
        with pytest.raises(InputError) as exc:
            cover_certificate(target, cover, F(1, 2))
        assert "[2, 3]" in str(exc.value)

    def test_rejects_small_cover_edge(self):
        target = Hypergraph.from_vertex_lists(3, [[0, 1]])
        cover = Hypergraph.from_vertex_lists(3, [[0]])
        with pytest.raises(InputError) as exc:
            cover_certificate(target, cover, F(1, 2))
        assert "size below 2" in str(exc.value)

    @pytest.mark.parametrize("seed", list(range(8)))
    def test_bound_dominates_solver_threshold(self, seed):
        rng = SplitMix64(seed)
        n = 8
        target = random_hypergraph(rng, n, 5, sizes=(2, 3, 4))
        if not target.edges:
            return
        cover_edges = set()
        for e in target.edges:
            size = 2 + rng.below(max(1, popcount(e) - 1))
            verts = [v for v in range(n) if e >> v & 1]
            keep = verts[: min(size, len(verts))]
            cover_edges.add(mask_of(keep))
        cover = Hypergraph(n, tuple(sorted(cover_edges)))
        cert = cover_certificate(target, cover, F(1, 2))
        r_star = janson_threshold(target, F(1, 2))
        assert r_star <= cert.weight


class TestUniformOracle:
    def test_edgeless(self):
        h = Hypergraph(5, ())
        fam = uniform_container_oracle(h, F(1, 100000))
        assert fam.psi == {0: 0b11111}
        assert not fam.incomplete

    def test_single_edge_shared_container(self):
        h = Hypergraph.from_vertex_lists(4, [[0, 1]])
        p = F(1, 1 << 13)
        fam = uniform_container_oracle(h, p)
        assert fam.psi[0] == 0b1111
        # the emitted container certifiably misses the property
        sub = restrict_edges(h, 0b1111)
        assert janson_threshold(sub, p) <= F(p) * 4 / 256

    def test_precondition_enforced(self):
        h = Hypergraph.from_vertex_lists(4, [[0, 1]])
        with pytest.raises(InputError):
            uniform_container_oracle(h, F(1, 2))

    def test_float_p_rejected(self):
        # the oracle takes exact rationals only, like both pipelines
        h = Hypergraph.from_vertex_lists(4, [[0, 1]])
        with pytest.raises(InputError, match="exact rational"):
            uniform_container_oracle(h, 1e-6)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_three_uniform_instances(self, seed):
        rng = SplitMix64(seed)
        h = random_hypergraph(rng, 10, 5, sizes=(3,))
        p = F(1, (1 << 11) * 9)
        fam = uniform_container_oracle(h, p)
        for i_mask, s_mask in fam.phi.items():
            assert s_mask & ~i_mask == 0
            assert i_mask & ~fam.psi[s_mask] == 0
        # each container certifiably misses (p, 2^-8 p |X|)
        for x_mask in fam.psi.values():
            sub = restrict_edges(h, x_mask)
            assert janson_threshold(sub, p) <= p * popcount(x_mask) / 256


@st.composite
def uniform_hypergraphs(draw):
    """An s-uniform hypergraph, s in 2..5, on s to 16 vertices."""
    s = draw(st.integers(2, 5))
    n = draw(st.integers(s, 16))
    subset = st.lists(st.integers(0, n - 1), min_size=s, max_size=s, unique=True)
    edges = draw(st.lists(subset.map(mask_of), max_size=30, unique=True))
    return Hypergraph(n, tuple(sorted(edges))), s


class TestSharedContainer:
    """The oracle's one candidate, the union of the independent sets, always
    verifies at s >= 2 and up to 16 vertices (see its docstring)."""

    @given(uniform_hypergraphs())
    @settings(max_examples=60, deadline=None)
    def test_random_uniform_hosts_get_the_shared_container(self, drawn):
        h, s = drawn
        fam = uniform_container_oracle(h, F(1, (1 << 11) * s * s))
        # every singleton is independent at s >= 2, so the union is everything
        assert fam.psi == {0: (1 << h.n) - 1}
        assert fam.phi == {i: 0 for i in independent_sets(h)}
        assert not fam.incomplete

    @pytest.mark.parametrize("s", [2, 3, 4, 5])
    def test_complete_uniform_host_on_16_vertices(self, s, monkeypatch):
        # the docstring's bound C(s, 2) / (p^2 m) is the diagonal NO that
        # require_verdict runs, so no minimum is solved
        h = Hypergraph(16, tuple(sorted(mask_of(c) for c in itertools.combinations(range(16), s))))
        monkeypatch.setattr(janson, "min_lambda", None)
        fam = uniform_container_oracle(h, F(1, (1 << 11) * s * s))
        assert fam.psi == {0: (1 << 16) - 1}
        assert not fam.incomplete

    def test_non_uniform_host_rejected(self):
        h = Hypergraph.from_vertex_lists(4, [[0, 1], [1, 2, 3]])
        with pytest.raises(InputError, match="uniform"):
            uniform_container_oracle(h, F(1, 1 << 20))

    def test_empty_union_is_one_incomplete_line(self):
        # every vertex is an edge: only the empty set is independent
        h = Hypergraph.from_vertex_lists(3, [[0], [1], [2]])
        fam = uniform_container_oracle(h, F(1, 1 << 11))
        assert (fam.phi, fam.psi) == ({}, {})
        assert fam.incomplete == ["shared container 0 does not verify"]


def full_scan_minimal_members(n, holds):
    """The reference for minimal_members: every mask of the 2^n lattice in
    (size, mask) order is queried unless it contains a known member."""
    minimals = []
    for mask in sorted(range(1 << n), key=lambda m: (popcount(m), m)):
        if any(mm & ~mask == 0 for mm in minimals):
            continue
        if holds(mask):
            minimals.append(mask)
    return tuple(minimals)


@st.composite
def hosts_with_small_edges(draw):
    """A host on up to 7 vertices with edges of at most 3 vertices: the
    empty edge and one-vertex edges among them."""
    n = draw(st.integers(1, 7))
    edge = st.integers(0, (1 << n) - 1).filter(lambda m: m.bit_count() <= 3)
    return Hypergraph(n, tuple(sorted(draw(st.lists(edge, min_size=1, max_size=8, unique=True)))))


class TestMinimalMembers:
    @given(hypergraphs(min_n=1, max_n=7))
    @settings(max_examples=40, deadline=None)
    def test_upset_membership_matches_direct(self, h):
        holds = lambda m: any(e & ~m == 0 for e in h.edges)
        upset = containment_table(h.n, minimal_members(h, holds))
        for mask in range(1 << h.n):
            assert upset[mask] == holds(mask)

    @staticmethod
    def check_against_full_scan(h, holds):
        asked = []

        def recorded(mask):
            asked.append(mask)
            return holds(mask)

        assert minimal_members(h, recorded) == full_scan_minimal_members(h.n, holds)
        # only unions of the edges inside them are asked, each once
        for mask in asked:
            assert functools.reduce(operator.or_, restrict_edges(h, mask).edges, 0) == mask
        assert len(asked) == len(set(asked))

    @given(hosts_with_small_edges(), st.integers(1, 3))
    @settings(max_examples=80, deadline=None)
    def test_edge_count_property_matches_full_scan(self, h, k):
        self.check_against_full_scan(h, lambda m: len(restrict_edges(h, m).edges) >= k)

    @given(
        hosts_with_small_edges(),
        st.sampled_from([F(1, 4), F(1, 2)]),
        st.sampled_from([F(1, 30), F(1, 4), F(1)]),
    )
    @settings(max_examples=40, deadline=None)
    def test_janson_property_matches_full_scan(self, h, p, r):
        self.check_against_full_scan(h, lambda m: require_verdict(restrict_edges(h, m), p, r))


def pipeline_params(h, q=F(1, 16)):
    s = h.uniformity() or 1
    p = q / ((1 << 10) * s * s)
    r = p * h.n / 64
    return p, q, r


class TestNonJansonPipeline:
    def test_edgeless_host(self):
        h = Hypergraph(6, ())
        p, q, r = pipeline_params(h)
        fam = non_janson_containers(h, p, q, r)
        assert fam.violations == []
        assert fam.certified_minimals == ()
        assert any(x == 0b111111 for x in fam.containers)

    def test_disjoint_edges_minimals_are_edges(self):
        h = Hypergraph.from_vertex_lists(8, [[0, 1], [2, 3], [4, 5], [6, 7]])
        p, q, r = pipeline_params(h)
        fam = non_janson_containers(h, p, q, r)
        assert fam.violations == []
        assert set(fam.certified_minimals) == set(h.edges)

    def test_parameter_contract(self):
        h = Hypergraph.from_vertex_lists(4, [[0, 1]])
        with pytest.raises(InputError):
            non_janson_containers(h, F(1, 2**14), F(1, 8), F(1))  # q too big

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_instances_zero_violations(self, seed):
        rng = SplitMix64(seed)
        h = random_hypergraph(rng, 9, 4, sizes=(2,))
        if not h.edges:
            return
        p, q, r = pipeline_params(h)
        fam = non_janson_containers(h, p, q, r)
        assert fam.violations == []
        assert fam.size_bound_ok

    def test_scaled_eta_override_recorded(self):
        # loosening eta moves the membership bar; the family must still
        # verify and carry the scaled flag
        h = Hypergraph.from_vertex_lists(8, [[0, 1], [2, 3], [4, 5], [6, 7]])
        p, q, r = pipeline_params(h)
        fam = non_janson_containers(h, p, q, r, eta=F(1, 128), strict=False)
        assert fam.params["scaled"] is True
        assert fam.params["eta"] == F(1, 128)
        assert fam.violations == []

    def test_strict_mode_rejects_custom_eta(self):
        h = Hypergraph.from_vertex_lists(8, [[0, 1], [2, 3], [4, 5], [6, 7]])
        p, q, r = pipeline_params(h)
        with pytest.raises(InputError):
            non_janson_containers(h, p, q, r, eta=F(1, 128))


class TestCoverageCheck:
    """Every uncertified set must fit a container: a gap is incomplete when
    the oracle stalled (a violation otherwise, see test_cli.py)."""

    def test_stalled_oracle_lands_in_incomplete(self):
        # every vertex is a one-vertex edge: only the empty set is uncertified,
        # and the oracle's shared container is empty
        h = Hypergraph.from_vertex_lists(3, [[0], [1], [2]])
        fam = non_janson_containers(h, *pipeline_params(h))
        assert fam.containers == ()
        assert fam.violations == []
        assert fam.incomplete == [
            "T=0: shared container 0 does not verify",
            "uncovered vertex set 0 (fallback oracle stalled)",
        ]


class TestPipelineBranches:
    """The checks a sound run never fails, reached by patching the oracle or
    the verdicts the pipelines read from their module."""

    @staticmethod
    def record_verdicts(monkeypatch, answers):
        """Route containers.require_verdict through a recorder: a context in
        ``answers`` gets that answer, any other the real verdict."""
        contexts = []

        def verdict(h, p, r, context=""):
            contexts.append(context)
            if context in answers:
                return answers[context]
            return janson.require_verdict(h, p, r, context=context)

        monkeypatch.setattr(containers, "require_verdict", verdict)
        return contexts

    @staticmethod
    def fixed_oracle(monkeypatch, container_masks, incomplete=()):
        family = lambda h, p: UniformContainerFamily(
            {}, dict(enumerate(container_masks)), list(incomplete)
        )
        monkeypatch.setattr(containers, "uniform_container_oracle", family)

    @pytest.mark.parametrize("stalled", [False, True])
    def test_coverage_gaps_in_ascending_mask_order(self, monkeypatch, stalled):
        # the supersets of the edge 11 are certified; the containers 101 and
        # 1010 cover the subsets of each, which leaves five gaps
        self.fixed_oracle(monkeypatch, [0b1010, 0b101], ["stalled"] if stalled else [])
        h = Hypergraph.from_vertex_lists(4, [[0, 1]])
        fam = non_janson_containers(h, *pipeline_params(h))
        assert fam.certified_minimals == (0b11,)
        assert fam.containers == (0b101, 0b1010)
        gaps = [f"uncovered vertex set {m:b}" for m in (0b110, 0b1001, 0b1100, 0b1101, 0b1110)]
        if stalled:
            assert fam.violations == []
            assert fam.incomplete == ["T=0: stalled"] + [
                f"{gap} (fallback oracle stalled)" for gap in gaps
            ]
        else:
            assert fam.violations == gaps
            assert fam.incomplete == []

    def test_size_bound_violation(self, monkeypatch):
        # at q = 2^-20 the bound 4 (2/q)^(8 q n) is barely above 4, so five
        # containers break it; the full set covers every uncertified set
        self.fixed_oracle(monkeypatch, [0b111111, 0b1, 0b10, 0b100, 0b1000])
        q = F(1, 2**20)
        fam = non_janson_containers(Hypergraph(6, ()), q, q, F(1), strict=False)
        assert fam.containers == (0b1, 0b10, 0b100, 0b1000, 0b111111)
        assert fam.size_bound_ok is False
        assert fam.violations == ["container family exceeds its size bound"]
        assert fam.incomplete == []

    def test_container_inducing_a_witness(self, monkeypatch):
        h = Hypergraph(3, ())
        contexts = self.record_verdicts(monkeypatch, {"container 111": True})
        fam = non_janson_containers(h, *pipeline_params(h))
        assert fam.containers == (0b111,)
        assert fam.violations == ["container 111 induces a (p, R) witness"]
        assert fam.size_bound_ok is True
        # membership of the one union of edges (the empty one), then the
        # oracle, then the container
        assert contexts == [
            "auxiliary membership of 0", "uniform-container oracle", "container 111"
        ]

    def test_extension_trimming_branches(self, monkeypatch):
        # one colour on 12 two-layer vertices puts the trimming floor at
        # ceil(12 / 8) = 2: the singleton is skipped, the pair at the floor
        # stays (p, R) and the full set is its own trimmed set
        ext, base = TestExtensionPipeline().build()
        n = ext.hyper.n
        full = (1 << n) - 1
        assert -(-n // 8) == 2
        self.fixed_oracle(monkeypatch, [full, 0b1, 0b11])
        contexts = self.record_verdicts(
            monkeypatch,
            {"trimmed container 11": True, f"trimmed container {full:b}": False},
        )
        p, q, big_r = TestExtensionPipeline().params(n, r=1)
        fam = extension_containers(ext, base, ext.m, p, q, big_r, F(0), r_colours=1)
        assert fam.containers == (0b1, 0b11, full)
        assert [c for c in contexts if c.startswith("trimmed")] == [
            "trimmed container 11", f"trimmed container {full:b}",
        ]
        assert fam.violations == [
            "container 11: projected sub-hypergraph stays (p, R) "
            "within the trimming allowance 0"
        ]
        assert fam.shrunk == {full: full}
        assert fam.size_bound_ok is True

    def test_extension_queries_only_unions_of_edges(self, monkeypatch):
        # the containers workload's shape: F = P3, w = 1, G' = E6 and G with
        # 8 of its 15 pairs; the full (size, mask) scan asked 1,161 times
        rng = SplitMix64(7)
        pairs = list(itertools.combinations(range(6), 2))
        chosen = rng.sample_mask(len(pairs), 8)
        g = Graph.from_edges(6, [pairs[i] for i in range(len(pairs)) if chosen >> i & 1])
        f, empty = Graph.path(3), Graph.empty(6)
        ext = extension_hypergraph(f, 1, empty, g)
        base = induced_copy_hypergraph(f, empty, g).hyper
        contexts = self.record_verdicts(monkeypatch, {})
        q = F(1, 16)
        p = q / (1 << 14)
        fam = extension_containers(ext, base, ext.m, p, q, p * ext.hyper.n / 64, F(0))
        assert fam.violations == [] and fam.incomplete == []
        assert len(fam.certified_minimals) == 7
        assert len(contexts) == 10
        assert sum(c.startswith("extended membership") for c in contexts) == 8

    def test_non_janson_queries_only_unions_of_edges(self, monkeypatch):
        # four pairs on 9 vertices; the full (size, mask) scan asked 186 times
        h = Hypergraph.from_vertex_lists(9, [[0, 1], [2, 3], [4, 5], [1, 6]])
        contexts = self.record_verdicts(monkeypatch, {})
        fam = non_janson_containers(h, *pipeline_params(h))
        assert fam.violations == [] and fam.incomplete == []
        assert fam.certified_minimals == (0b11, 0b1100, 0b110000, 0b1000010)
        assert len(contexts) == 7
        assert sum(c.startswith("auxiliary membership") for c in contexts) == 5


class TestExtensionPipeline:
    def build(self, seed=5, m=6):
        rng = SplitMix64(seed)
        edges = [(u, v) for u in range(m) for v in range(u + 1, m) if rng.bit()]
        gt = Graph.from_edges(m, edges)
        gt_prime = Graph.empty(m)  # no full copies: the base side is empty
        f = Graph.path(3)
        ext = extension_hypergraph(f, 1, gt_prime, gt)
        base = induced_copy_hypergraph(f, gt_prime, gt).hyper
        return ext, base

    def params(self, n, r=2, s=2, q=F(1, 16)):
        p = q / ((1 << 10) * r * r * s * s)
        big_r = p * n / 64
        return p, q, big_r

    def test_empty_two_layer_hypergraph(self):
        gt = Graph.empty(4)
        f = Graph.complete(3)
        ext = extension_hypergraph(f, 0, gt, gt)
        assert ext.hyper.edges == ()
        base = Hypergraph(4, (mask_of([0, 1, 2]),))  # nonempty stand-in
        p, q, big_r = self.params(8)
        fam = extension_containers(ext, base, 4, p, q, big_r, F(0))
        assert fam.containers == ()
        assert fam.violations == []

    def test_single_edge_threshold_reduction(self):
        # base side empty, one two-layer edge: the certified up-set is
        # exactly the sets containing that edge
        gt = Graph.from_edges(2, [(0, 1)])
        f = Graph.path(3)
        ext = extension_hypergraph(f, 0, gt, gt)
        assert len(ext.hyper.edges) == 1
        base = induced_copy_hypergraph(f, gt, gt).hyper
        assert base.edges == ()
        p, q, big_r = self.params(4)
        fam = extension_containers(ext, base, 2, p, q, big_r, F(0))
        assert fam.certified_minimals == ext.hyper.edges
        assert fam.violations == []

    @pytest.mark.parametrize("seed", [5, 7])
    def test_end_to_end_verification(self, seed):
        ext, base = self.build(seed)
        p, q, big_r = self.params(ext.hyper.n)
        fam = extension_containers(ext, base, ext.m, p, q, big_r, F(0))
        assert fam.violations == []
        assert fam.size_bound_ok
        # every container large enough for trimming got a verified subset
        for x_mask, y_mask in fam.shrunk.items():
            assert y_mask & ~x_mask == 0

    def test_parameter_contract(self):
        ext, base = self.build()
        p, q, big_r = self.params(ext.hyper.n)
        with pytest.raises(InputError):
            extension_containers(ext, base, ext.m, p, F(1, 4), big_r, F(0))
