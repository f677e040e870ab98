import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jcontainers.errors import InputError
from jcontainers.hypercore import (
    Graph,
    Hypergraph,
    VertexMap,
    bits_of,
    edgewise_include,
    independence_polynomial,
    independent_sets,
    mask_of,
    nonstrict_link,
    popcount,
    project,
    restrict_edges,
)
from jcontainers.containers import upset_slice

from conftest import hypergraphs, mask
from paper import is_independent, preimage_counts


class TestGraph:
    def test_from_edges_round_trip(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3), (1, 3)])
        assert g.edges() == [(0, 1), (1, 3), (2, 3)]
        assert g.edge_count() == 3

    def test_edges_share_one_tuple_per_pair(self):
        first = Graph.from_edges(4, [(0, 1), (2, 3)]).edges()
        second = Graph.complete(4).edges()
        assert first[0] is second[0] and first[1] is second[-1]

    def test_rejects_self_loop(self):
        with pytest.raises(InputError):
            Graph.from_edges(3, [(1, 1)])

    def test_rejects_asymmetric_adjacency(self):
        with pytest.raises(InputError):
            Graph(2, (0b10, 0b00))

    def test_induced_relabels(self):
        g = Graph.path(4)
        sub = g.induced(mask(1, 2, 3))
        assert sub.edges() == [(0, 1), (1, 2)]

    def test_complete_degrees(self):
        g = Graph.complete(5)
        assert all(g.degree(v) == 4 for v in range(5))


class TestInducedSub:
    # the induced sub-hypergraph on W keeps the labels: restrict_edges
    def test_direct_filter(self):
        h = Hypergraph.from_vertex_lists(3, [[0, 1], [1, 2]])
        sub = restrict_edges(h, mask(0, 1))
        assert sub.edges == (mask(0, 1),)

    def test_identity_case(self):
        h = Hypergraph.from_vertex_lists(3, [[0, 1], [1, 2]])
        assert restrict_edges(h, 0b111).edges == tuple(sorted(h.edges))

    def test_exhaustive_filter_oracle(self):
        # all 2-subsets of [4] restricted to {0,1,2}: the 3 pairs within
        h = Hypergraph(4, tuple(mask_of(c) for c in itertools.combinations(range(4), 2)))
        sub = restrict_edges(h, mask(0, 1, 2))
        expected = {mask_of(c) for c in itertools.combinations(range(3), 2)}
        assert set(sub.edges) == expected
        assert sub.n == 4

    def test_out_of_range_vertex(self):
        h = Hypergraph.from_vertex_lists(3, [[0, 1]])
        with pytest.raises(InputError):
            restrict_edges(h, 1 << 5)


class TestUpsetSlice:
    def test_negative_size_rejected(self):
        with pytest.raises(InputError):
            upset_slice(Hypergraph.from_vertex_lists(3, [[0]]), -1)

    def test_supersets_of_singleton(self):
        h = Hypergraph.from_vertex_lists(3, [[0]])
        assert upset_slice(h, 2).edges == (mask(0, 1), mask(0, 2))

    def test_identity_case(self):
        h = Hypergraph.from_vertex_lists(2, [[0, 1]])
        assert upset_slice(h, 2).edges == (mask(0, 1),)

    def test_two_generators(self):
        h = Hypergraph.from_vertex_lists(3, [[0], [1, 2]])
        assert upset_slice(h, 2).edges == (mask(0, 1), mask(0, 2), mask(1, 2))

    @given(hypergraphs(max_n=7), st.integers(0, 7))
    @settings(max_examples=60, deadline=None)
    def test_each_slice_member_contains_a_generator(self, h, s):
        sliced = upset_slice(h, s)
        for e in sliced.edges:
            assert popcount(e) == s
            assert any(g & ~e == 0 for g in h.edges)

    @given(hypergraphs(max_n=7), st.integers(0, 7))
    @settings(max_examples=60, deadline=None)
    def test_independent_sets_stay_independent_in_slice(self, h, s):
        # independence survives passage to any uniformity of the up-set
        sliced = upset_slice(h, s)
        for i_mask in independent_sets(h):
            assert is_independent(sliced, i_mask)


class TestNonstrictLink:
    def test_direct_difference(self):
        h = Hypergraph.from_vertex_lists(4, [[0, 1], [2, 3]])
        assert nonstrict_link(h, mask(1)).edges == (mask(0), mask(2, 3))

    def test_empty_t(self):
        h = Hypergraph.from_vertex_lists(4, [[0, 1], [2, 3]])
        assert set(nonstrict_link(h, 0).edges) == set(h.edges)

    def test_total_absorption_gives_empty_edge(self):
        h = Hypergraph.from_vertex_lists(2, [[0, 1]])
        assert nonstrict_link(h, mask(0, 1)).edges == (0,)

    @given(hypergraphs(max_n=7), st.integers(0, 127))
    @settings(max_examples=60, deadline=None)
    def test_link_independent_implies_independent(self, h, t_mask):
        t_mask &= (1 << h.n) - 1
        link = nonstrict_link(h, t_mask)
        if 0 in link.edges:
            return  # nothing is independent in the link
        for i_mask in independent_sets(link):
            assert is_independent(h, i_mask)


class TestEdgewiseInclude:
    def test_basic(self):
        h = Hypergraph.from_vertex_lists(2, [[0, 1]])
        assert edgewise_include(h, 2).edges == (mask(0, 1, 2),)

    def test_empty_hypergraph(self):
        h = Hypergraph(2, ())
        assert edgewise_include(h, 2).edges == ()

    def test_two_edges(self):
        h = Hypergraph.from_vertex_lists(2, [[0], [1]])
        assert edgewise_include(h, 2).edges == (mask(0, 2), mask(1, 2))

    def test_rejects_existing_vertex(self):
        h = Hypergraph.from_vertex_lists(2, [[0, 1]])
        with pytest.raises(InputError):
            edgewise_include(h, 1)


class TestProject:
    def test_identity(self):
        h = Hypergraph.from_vertex_lists(3, [[0, 1]])
        assert project(h, VertexMap(3, 3, (0, 1, 2))) == Hypergraph(3, (mask(0, 1),))

    def test_collapse_with_preimage_count(self):
        # {a1,b1},{a2,b2} with a* -> a, b* -> b collapses to one edge seen twice
        h = Hypergraph.from_vertex_lists(4, [[0, 1], [2, 3]])
        pi = VertexMap(4, 2, (0, 1, 0, 1))
        img = project(h, pi)
        assert img.edges == (mask(0, 1),)
        assert preimage_counts(h, pi) == {mask(0, 1): 2}

    @given(hypergraphs(max_n=6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_image_size_never_grows(self, h, data):
        table = tuple(
            data.draw(st.integers(0, max(0, h.n - 1))) for _ in range(h.n)
        )
        pi = VertexMap(h.n, max(1, h.n), table)
        for e in h.edges:
            assert popcount(pi.apply_mask(e)) <= popcount(e)

    def test_injective_on_edges_preserves_sizes(self):
        h = Hypergraph.from_vertex_lists(4, [[0, 1], [2, 3]])
        pi = VertexMap(4, 4, (1, 0, 3, 2))
        for e in h.edges:
            assert popcount(pi.apply_mask(e)) == popcount(e)


class TestIndependentSets:
    def test_single_edge(self):
        h = Hypergraph.from_vertex_lists(2, [[0, 1]])
        assert list(independent_sets(h)) == [0, 1, 2]

    def test_no_edges_all_subsets(self):
        h = Hypergraph(3, ())
        assert list(independent_sets(h)) == list(range(8))

    def test_all_pairs_of_four(self):
        h = Hypergraph(4, tuple(mask_of(c) for c in itertools.combinations(range(4), 2)))
        assert list(independent_sets(h)) == [0, 1, 2, 4, 8]

    def test_universe_above_the_cap_refused(self):
        with pytest.raises(InputError, match="enumeration cap"):
            next(independent_sets(Hypergraph(26, ())))

    @given(hypergraphs(max_n=8))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_and_order(self, h):
        got = list(independent_sets(h))
        expected = [m for m in range(1 << h.n) if is_independent(h, m)]
        assert got == expected  # same sets, same lexicographic-by-bits order


class TestIndependencePolynomial:
    @staticmethod
    def brute_force(h, x, y, forced):
        return sum(
            x ** popcount(i) * y ** (h.n - popcount(i))
            for i in independent_sets(h)
            if forced & ~i == 0
        )

    @given(hypergraphs(max_n=12, max_edges=24), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, h, data):
        x = data.draw(st.integers(1, 7))
        y = data.draw(st.integers(0, 7))
        forced = data.draw(st.integers(0, (1 << h.n) - 1)) & data.draw(
            st.integers(0, (1 << h.n) - 1)
        )
        assert independence_polynomial(h, x, y, forced) == self.brute_force(h, x, y, forced)

    def test_empty_edge_gives_zero(self):
        assert independence_polynomial(Hypergraph(3, (0,)), 1, 1) == 0

    def test_rejects_forced_vertex_outside_universe(self):
        with pytest.raises(InputError):
            independence_polynomial(Hypergraph(3, ()), 1, 1, mask(3))


class TestRestrictEdges:
    def test_keeps_universe(self):
        h = Hypergraph.from_vertex_lists(4, [[0, 1], [2, 3]])
        r = restrict_edges(h, mask(0, 1, 2))
        assert r.n == 4 and r.edges == (mask(0, 1),)


def test_bits_round_trip():
    assert bits_of(mask_of([5, 2, 9])) == [2, 5, 9]
