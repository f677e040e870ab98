"""Cross-module invariants: solver cross-checks, up-set structure of the
certified sets, intersection robustness, and verdict boundary behaviour."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jcontainers.containers import containment_table, minimal_members
from jcontainers.hypercore import Hypergraph, mask_of, popcount, restrict_edges
from jcontainers.janson import (
    dual_lower_bound,
    is_janson,
    janson_threshold,
    min_lambda,
    min_lambda_exact,
    min_lambda_fw,
    require_verdict,
)
from jcontainers.measures import lambda_p, pair_coefficient
from jcontainers.prng import SplitMix64
from jcontainers.ramsey import check_event_inductive
from jcontainers.hypercore import Graph

from conftest import graphs
from jcontainers.errors import InputError
from oracles import graph_problem, subgraph_reference
from paper import mass


def random_hypergraph(rng, n, edges, sizes):
    out = set()
    for _ in range(edges):
        out.add(rng.sample_mask(n, sizes[rng.below(len(sizes))]))
    return Hypergraph(n, tuple(sorted(out)))


class TestSolverCrossChecks:
    @pytest.mark.parametrize("seed", range(12))
    def test_fw_brackets_exact_on_overlapping_instances(self, seed):
        rng = SplitMix64(seed)
        n = 6 + rng.below(3)
        h = random_hypergraph(rng, n, 4 + rng.below(6), (2, 3, 4))
        if not h.edges or any(popcount(e) < 2 for e in h.edges):
            return
        if len(h.edges) > 10:
            return
        exact = float(min_lambda_exact(h, F(1, 2)).value)
        fw = min_lambda_fw(h, 0.5, tol=1e-12)
        assert fw.value >= exact * (1 - 1e-9)
        assert fw.value - fw.gap <= exact * (1 + 1e-9)
        # the witness-derived dual bound is valid too
        rechecked = dual_lower_bound(fw.witness, 0.5)
        assert rechecked <= exact * (1 + 1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_edge_order_does_not_change_the_minimum(self, seed):
        rng = SplitMix64(100 + seed)
        h = random_hypergraph(rng, 7, 5, (2, 3))
        if len(h.edges) < 2:
            return
        shuffled = list(h.edges)
        for i in range(len(shuffled) - 1, 0, -1):
            j = rng.below(i + 1)
            shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
        other = Hypergraph(h.n, tuple(shuffled))
        a = min_lambda(h, F(1, 2))
        b = min_lambda(other, F(1, 2))
        assert a.value == b.value
        # witnesses align with their host's edge order
        assert lambda_p(b.witness, F(1, 2)) == b.value
        assert mass(b.witness) == 1


class TestCertifiedUpset:
    @pytest.mark.parametrize("seed", range(5))
    def test_janson_family_is_an_upset(self, seed):
        rng = SplitMix64(200 + seed)
        h = random_hypergraph(rng, 7, 4, (2,))
        if not h.edges:
            return
        p, r = F(1, 4), F(1, 30)

        def holds(l_mask):
            return require_verdict(restrict_edges(h, l_mask), p, r)

        minimals = minimal_members(h, holds)
        upset = containment_table(h.n, minimals)
        for l_mask in range(1 << h.n):
            assert upset[l_mask] == holds(l_mask)
        # monotone: supersets of certified sets stay certified
        for mm in minimals:
            assert holds(mm)
            assert holds(mm | (1 << (h.n - 1)) | (1 << 0))


class TestIntersectionRobustness:
    @pytest.mark.parametrize("seed", range(8))
    def test_large_intersections_stay_certified(self, seed):
        # direct check: when every vertex subset at the floor size is
        # certified (verified by enumeration; larger subsets inherit by
        # monotonicity), the intersection of two big sets is certified too.
        # At this scale the floor is one vertex, so a floor-size set is
        # certified exactly when it is a size-one edge: even seeds make every
        # vertex one and check the conclusion; odd seeds make at most three,
        # and check that the hypothesis fails on exactly the other vertices.
        rng = SplitMix64(300 + seed)
        v = 10 + rng.below(3)
        r_colours = 2
        if seed % 2 == 0:
            edges = {1 << u for u in range(v)}  # every vertex certified alone
        else:
            edges = {1 << rng.below(v) for _ in range(1 + rng.below(3))}
        for _ in range(4):
            edges.add(rng.sample_mask(v, 2))
        h = Hypergraph(v, tuple(sorted(edges)))
        p, r = 0.5, 0.05
        floor = math.ceil(v / (8 * r_colours))
        from itertools import combinations

        uncertified = {
            mask_of(c)
            for c in combinations(range(v), floor)
            if not require_verdict(restrict_edges(h, mask_of(c)), p, r)
        }
        assert uncertified == {1 << u for u in range(v)} - edges
        if uncertified:
            return
        for _ in range(20):
            s_mask = rng.sample_mask(v, v - 1 - rng.below(2))
            t_mask = rng.sample_mask(v, v - 1 - rng.below(2))
            if popcount(s_mask) + popcount(t_mask) < (1 + 1 / (8 * r_colours)) * v:
                continue
            assert require_verdict(restrict_edges(h, s_mask & t_mask), p, r)


class TestVerdictBoundaries:
    def test_float_boundary_is_undecided(self):
        tri = Hypergraph.from_vertex_lists(3, [[0, 1], [0, 2], [1, 2]])
        r_star = 0.75  # exact threshold at p = 1/2
        v = is_janson(tri, 0.5, r_star * (1 - 5e-10))
        assert v.answer == "UNDECIDED"

    def test_exact_boundary_is_decided(self):
        tri = Hypergraph.from_vertex_lists(3, [[0, 1], [0, 2], [1, 2]])
        assert is_janson(tri, F(1, 2), F(3, 4)).answer == "NO"
        assert is_janson(tri, F(1, 2), F(3, 4) - F(1, 10**12)).answer == "YES"

    def test_thresholds_agree_between_paths(self):
        rng = SplitMix64(404)
        for _ in range(10):
            h = random_hypergraph(rng, 6, 4, (2, 3))
            if not h.edges or any(popcount(e) < 2 for e in h.edges):
                continue
            exact = janson_threshold(h, F(1, 2))
            approx = janson_threshold(h, 0.5)
            assert approx == pytest.approx(float(exact), rel=1e-8)


class TestInductiveEventTrivialCase:
    def test_one_vertex_patterns_make_it_hold(self):
        # every admissible pattern tuple here contains a one-vertex pattern,
        # whose copies exist at every vertex with zero overlap
        g = Graph.complete(5)
        report = check_event_inductive(g, [2, 2], F(1, 4), delta=0.3, seed=2)
        assert report.holds is True


class TestLargeInstanceSolver:
    def test_fw_matches_symmetry_optimum_on_all_triples(self):
        # all triples of a 10-clique: by symmetry and convexity the uniform
        # weighting is optimal, and its value has a closed form
        import itertools

        n = 10
        h = Hypergraph(n, tuple(mask_of(c) for c in itertools.combinations(range(n), 3)))
        m = len(h.edges)
        pairs = n * (n - 1) // 2
        per_pair = n - 2  # triples containing a fixed pair
        expected = pairs * (per_pair / m) ** 2 * 4 + m * (1 / m) ** 2 * 8
        res = min_lambda_fw(h, 0.5, tol=1e-12)
        assert res.value == pytest.approx(expected, rel=1e-9)
        assert res.gap <= 1e-9 * expected

    @pytest.mark.parametrize("seed", range(7))
    def test_fw_certificate_matches_a_fresh_recompute(self, seed):
        # value and gap are recomputed from the witness with no solver code:
        # the rank-one steps must not drift into the reported certificate
        import itertools

        rng = SplitMix64(700 + seed)
        if seed == 0:
            h = Hypergraph(10, tuple(mask_of(c) for c in itertools.combinations(range(10), 3)))
        else:
            target = (4, 12, 30, 60, 90, 120)[seed - 1]
            h = random_hypergraph(rng, 14, target, (2, 3, 4))
        assert len(h.edges) <= 120
        p = (0.5, 0.25, 0.1)[rng.below(3)]
        res = min_lambda_fw(h, p)
        x = res.witness.weights
        coef = [pair_coefficient(c, p, False) for c in range(5)]
        qx = [sum(coef[popcount(a & b)] * w for b, w in zip(h.edges, x)) for a in h.edges]
        value = sum(w * v for w, v in zip(x, qx))
        gap = max(2 * (value - min(qx)), 0.0)
        assert res.value == pytest.approx(value, rel=1e-12)
        assert abs(res.gap - gap) <= 1e-12 * value
        assert res.gap <= 1e-9 * res.value


class TestExtensionPipelineWithPositiveBase:
    def test_nonzero_base_threshold_certifies_and_runs(self):
        from jcontainers.containers import extension_containers
        from jcontainers.copies import extension_hypergraph, induced_copy_hypergraph

        gt = Graph.path(5)
        f = Graph.path(3)
        ext = extension_hypergraph(f, 1, gt, gt)
        base = induced_copy_hypergraph(f, gt, gt).hyper
        assert base.edges  # the host path contains full copies
        n = ext.hyper.n
        q = F(1, 16)
        s = 2
        p = q / ((1 << 10) * 4 * s * s)
        big_r = p * n / 64
        r_prime = min(janson_threshold(base, p) / 2, big_r / 16)
        assert r_prime > 0
        fam = extension_containers(ext, base, ext.m, p, q, big_r, r_prime)
        assert fam.violations == []
        assert fam.params["R'"] == r_prime

    def test_uncertified_base_is_rejected(self):
        from jcontainers.containers import extension_containers
        from jcontainers.copies import extension_hypergraph
        from jcontainers.errors import InputError

        gt = Graph.empty(4)
        f = Graph.path(3)
        ext = extension_hypergraph(f, 1, gt, gt)
        empty_base = Hypergraph(4, ())
        q = F(1, 16)
        p = q / ((1 << 10) * 4 * 4)
        big_r = p * ext.hyper.n / 64
        with pytest.raises(InputError):
            # an empty base side can never carry a positive threshold
            extension_containers(ext, empty_base, ext.m, p, q, big_r, big_r / 16)


class TestFloatModePullback:
    def test_lambda_contracts_within_float_slack(self):
        from jcontainers.hypercore import VertexMap, project
        from jcontainers.measures import Measure
        from paper import pullback

        rng = SplitMix64(606)
        for _ in range(30):
            h = random_hypergraph(rng, 6, 4, (2, 3))
            if not h.edges:
                continue
            perm = list(range(h.n))
            for i in range(h.n - 1, 0, -1):
                j = rng.below(i + 1)
                perm[i], perm[j] = perm[j], perm[i]
            pi = VertexMap(h.n, h.n, tuple(perm))
            img = project(h, pi)
            theta = Measure(img, tuple(rng.float01() for _ in img.edges), exact=False)
            back = pullback(theta, h, pi)
            assert lambda_p(back, 0.5) <= lambda_p(theta, 0.5) + 1e-12


class TestTwoLayerGuard:
    def test_non_injective_projection_rejected(self):
        from jcontainers.copies import ExtensionHypergraph
        from jcontainers.errors import InputError

        # an edge with both layers of the same host vertex collapses under
        # the projection, which the construction must refuse
        bad = Hypergraph(4, (mask_of([0, 2]),))  # (0, layer0) and (0, layer1)
        with pytest.raises(InputError):
            ExtensionHypergraph(bad, 2)


@st.composite
def planted_adjacency(draw):
    """(n, adj): a valid graph's adjacency with up to three planted faults,
    each an out-of-range bit, a negative row, a self-loop or a one-way pair."""
    n = draw(st.integers(1, 8))
    adj = list(draw(graphs(min_n=n, max_n=n)).adj)
    for _ in range(draw(st.integers(0, 3))):
        v = draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(["outside", "negative", "loop", "one-way"]))
        if kind == "outside":
            adj[v] |= 1 << draw(st.integers(n, n + 70))
        elif kind == "negative":
            adj[v] = ~adj[v]
        elif kind == "loop":
            adj[v] |= 1 << v
        elif n > 1:
            adj[v] ^= 1 << draw(st.sampled_from([u for u in range(n) if u != v]))
    return n, tuple(adj)


class TestGraphChecks:
    """Graph's checks give the vertex-by-vertex answers: the first offender's
    message, and edge containment on a shared vertex set."""

    @given(planted_adjacency())
    @example((3, (0b101, 0b1000, 0b1)))  # self-loop at 0 before the range fault at 1
    @example((3, (0b1000, 0b100, 0b10)))  # range fault at 0 before the one-way pair
    @example((2, (-1, 0)))
    @example((3, (0b10, 0b1 | 1 << 64, 0)))  # a bit past the universe cap
    @settings(max_examples=300, deadline=None)
    def test_construction_raises_the_first_offender(self, planted):
        n, adj = planted
        problem = graph_problem(n, adj)
        if problem is None:
            assert Graph(n, adj).adj == adj
        else:
            with pytest.raises(InputError) as caught:
                Graph(n, adj)
            assert str(caught.value) == problem

    @given(graphs(max_n=7), st.data())
    @settings(max_examples=200, deadline=None)
    def test_is_subgraph_of_matches_the_reference(self, g, data):
        edges = g.edges()
        kept = data.draw(st.lists(st.sampled_from(edges), unique=True) if edges else st.just([]))
        extra = data.draw(graphs(min_n=g.n, max_n=g.n)).edges()
        for h in (Graph.from_edges(g.n, kept), Graph.from_edges(g.n, kept + extra)):
            assert h.is_subgraph_of(g) == subgraph_reference(h, g)
            assert g.is_subgraph_of(h) == subgraph_reference(g, h)
        assert Graph.from_edges(g.n, kept).is_subgraph_of(g)
        other = data.draw(graphs(max_n=8).filter(lambda o: o.n != g.n))
        assert not other.is_subgraph_of(g) and not subgraph_reference(other, g)
        assert not Graph.empty(g.n + 1).is_subgraph_of(Graph.complete(g.n))
