import itertools
import math
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from jcontainers import janson
from jcontainers.errors import InputError
from jcontainers.hypercore import Hypergraph, bits_of, mask_of, restrict_edges
from jcontainers.janson import (
    clear_cache,
    dual_lower_bound,
    is_janson,
    janson_threshold,
    min_lambda,
    min_lambda_exact,
    min_lambda_fw,
    overlap_matrix,
    require_verdict,
)
from jcontainers.measures import Measure, lambda_p, lambda_p_subsets, pair_coefficient
from jcontainers.prng import SplitMix64

import paper
from conftest import hypergraphs, rational_weights
from oracles import dense_dual, float_measure
from paper import (
    HypothesisViolation,
    aggregate_witnesses,
    bounded_degree_witness,
    degree,
    mass,
    scale,
)


def single_edge(size, n=None):
    n = n or size
    return Hypergraph(n, (mask_of(range(size)),))


def disjoint_edges(k, size=2):
    return Hypergraph(
        k * size, tuple(mask_of(range(i * size, (i + 1) * size)) for i in range(k))
    )


def closed_form(s, p):
    return (1 + 1 / F(p)) ** s - 1 - s / F(p)


def _no_frank_wolfe(*args):
    raise AssertionError("the exact path ran Frank-Wolfe")


class TestMinLambda:
    def test_single_2edge(self):
        res = min_lambda(single_edge(2), F(1, 2))
        assert res.value == 4 and res.exact
        assert mass(res.witness) == 1

    @pytest.mark.parametrize("s", [2, 3, 4])
    @pytest.mark.parametrize("p", [F(1, 2), F(1, 8)])
    def test_single_edge_closed_form(self, s, p):
        assert min_lambda(single_edge(s), p).value == closed_form(s, p)

    def test_two_disjoint_edges_uniform_split(self):
        res = min_lambda(disjoint_edges(2), F(1, 2))
        assert res.value == 2
        assert res.witness.weights == (F(1, 2), F(1, 2))

    def test_triangle_uniform(self):
        tri = Hypergraph.from_vertex_lists(3, [[0, 1], [0, 2], [1, 2]])
        for p in (F(1, 2), F(1, 8), F(2, 3)):
            res = min_lambda(tri, p)
            assert res.value == F(p) ** -2 / 3

    def test_empty_edge_set_rejected(self):
        with pytest.raises(InputError):
            min_lambda(Hypergraph(3, ()), F(1, 2))

    def test_size_one_edge_gives_zero(self):
        h = Hypergraph.from_vertex_lists(3, [[0], [1, 2]])
        res = min_lambda(h, F(1, 2))
        assert res.value == 0
        assert lambda_p(res.witness, F(1, 2)) == 0 and mass(res.witness) == 1

    @given(hypergraphs(min_n=2, max_n=7, max_edges=5, min_edge_size=2))
    @settings(max_examples=40, deadline=None)
    def test_fw_matches_exact(self, h):
        if not h.edges:
            return
        exact = min_lambda_exact(h, F(1, 2))
        fw = min_lambda_fw(h, 0.5, tol=1e-12)
        ref = float(exact.value)
        assert fw.value == pytest.approx(ref, rel=1e-8, abs=1e-12)
        assert fw.value - fw.gap <= ref * (1 + 1e-9) + 1e-12

    @given(hypergraphs(min_n=2, max_n=7, max_edges=5, min_edge_size=2))
    @settings(max_examples=40, deadline=None)
    def test_witness_value_matches_reported(self, h):
        if not h.edges:
            return
        res = min_lambda(h, F(1, 2))
        assert lambda_p(res.witness, F(1, 2)) == res.value

    @pytest.mark.parametrize("seed", range(12))
    def test_exact_minimum_is_the_witness_value(self, seed):
        # the enumeration reads each face's value off the KKT system as
        # lam / 2; x^T Q x is recomputed here from the subset definition
        rng = SplitMix64(seed)
        n, m = 4 + seed % 6, 1 + seed % 10
        edges = set()
        while len(edges) < m:
            edges.add(1 + rng.below((1 << n) - 1))
        h = Hypergraph(n, tuple(sorted(edges)))
        p = [F(1, 2), F(1, 3), F(2, 3), F(1, 5), F(1, 64), F(1)][seed % 6]
        best = min_lambda_exact(h, p)
        assert all(w >= 0 for w in best.witness.weights) and mass(best.witness) == 1
        assert best.value == lambda_p_subsets(best.witness, p)
        for i in range(m):
            vertex = Measure(h, tuple(F(int(j == i)) for j in range(m)))
            assert best.value <= lambda_p_subsets(vertex, p)


def coupled_block_sizes(h):
    """Edge counts of the components of at least two edges under "shares
    at least two vertices", found by union-find over every pair."""
    parent = list(range(len(h.edges)))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j in itertools.combinations(range(len(h.edges)), 2):
        if (h.edges[i] & h.edges[j]).bit_count() >= 2:
            parent[root(i)] = root(j)
    sizes = Counter(root(i) for i in range(len(h.edges)))
    return sorted(k for k in sizes.values() if k >= 2)


def _grow(draw, n, edges, others, size):
    """Grows the list ``edges`` to at most ``size`` edges of size 2-4 on n
    vertices, each sharing at most one vertex with every edge of ``others``
    and, after the first, two vertices with an earlier one of ``edges``."""
    def apart(e):
        return all((e & f).bit_count() <= 1 for f in others)

    admissible = [e for e in range(1 << n) if 2 <= e.bit_count() <= 4 and apart(e)]
    if not edges and admissible:
        edges.append(draw(st.sampled_from(admissible)))
    while edges and len(edges) < size:
        near = [
            e for e in admissible
            if e not in edges and any((e & f).bit_count() >= 2 for f in edges)
        ]
        if not near:
            break
        edges.append(draw(st.sampled_from(near)))


@st.composite
def exact_hosts(draw):
    """Hosts for the exact path, n <= 9, m <= 8, edges of size 2-4, of
    four kinds: drawn freely; with no isolated edge (each edge after the
    first shares two vertices with an earlier one); with 1-3 isolated
    edges appended to such a host, each sharing at most one vertex with
    every edge before it; or with 2-3 coupled blocks of at least two edges
    each, every edge sharing at most one vertex with the other blocks, and
    0-2 isolated edges."""
    kind = draw(st.sampled_from(["free", "coupled", "isolated", "blocks"]))
    if kind == "free":
        return draw(hypergraphs(min_n=2, max_n=9, max_edges=8, min_edge_size=2).filter(
            lambda h: h.edges
        ))
    if kind == "blocks":
        n = draw(st.integers(6, 9))
        extra = draw(st.integers(0, 2))
        count = draw(st.integers(2, 3))
        budget = 8 - extra
        edges = []
        for left in reversed(range(count)):
            size = draw(st.integers(2, budget - 2 * left))
            budget -= size
            block = []
            _grow(draw, n, block, edges, size)
            assume(len(block) >= 2)
            edges += block
        for _ in range(extra):
            single = []
            _grow(draw, n, single, edges, 1)
            edges += single
        return Hypergraph(n, tuple(sorted(edges)))
    n = draw(st.integers(4, 9))
    extra = draw(st.integers(1, 3)) if kind == "isolated" else 0
    target = draw(st.integers(2, 8 - extra))
    vertex = st.integers(0, n - 1)
    edges = [mask_of(draw(st.lists(vertex, min_size=2, max_size=4, unique=True)))]
    for _ in range(2 * target):
        if len(edges) == target:
            break
        anchor = bits_of(draw(st.sampled_from(edges)))
        pair = draw(st.lists(st.sampled_from(anchor), min_size=2, max_size=2, unique=True))
        e = mask_of(pair + draw(st.lists(vertex, max_size=2, unique=True)))
        if e not in edges and e.bit_count() <= 4:
            edges.append(e)
    for _ in range(extra):
        fits = [
            e for e in range(1 << n)
            if 2 <= e.bit_count() <= 4 and all((e & f).bit_count() <= 1 for f in edges)
        ]
        if fits:
            edges.append(draw(st.sampled_from(fits)))
    return Hypergraph(n, tuple(sorted(edges)))


class TestIsolatedEdges:
    """The exact path solves isolated edges in closed form and enumerates
    KKT supports over each coupled block on its own; the full enumeration
    min_lambda_exact is the reference."""

    @staticmethod
    def record_enumerations(monkeypatch):
        calls = []
        original = janson.min_lambda_exact

        def recording(h, p):
            calls.append(h.edges)
            return original(h, p)

        monkeypatch.setattr(janson, "min_lambda_exact", recording)
        return calls

    @given(exact_hosts(), st.sampled_from([F(1, 2), F(1, 3), F(1, 4), F(1, 16)]))
    @example(Hypergraph.from_vertex_lists(6, [[0, 1, 2], [0, 1, 3], [3, 4], [4, 5]]), F(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_full_enumeration(self, h, p):
        clear_cache()
        got = min_lambda(h, p)
        want = min_lambda_exact(h, p)
        assert got.exact and got.value == want.value
        assert got.witness.weights == want.witness.weights
        assert want.iterations == (1 << len(h.edges)) - 1
        assert got.iterations == sum((1 << k) - 1 for k in coupled_block_sizes(h))
        assert len(janson._cache) == 1

    @pytest.mark.parametrize(
        "h",
        [disjoint_edges(k) for k in (1, 2, 5, 10)]
        + [
            Hypergraph.from_vertex_lists(3, [[0, 1], [0, 2], [1, 2]]),
            single_edge(3),
            single_edge(4, n=6),
            # sizes 2, 3 and 4, pairwise sharing one vertex
            Hypergraph.from_vertex_lists(7, [[0, 1], [1, 2, 3], [3, 4, 5, 6], [0, 2, 4]]),
        ],
    )
    @pytest.mark.parametrize("p", [F(1, 2), F(1, 16), F(2, 3)])
    def test_all_isolated_makes_no_enumeration(self, monkeypatch, h, p):
        calls = self.record_enumerations(monkeypatch)
        clear_cache()
        res = min_lambda(h, p)
        assert calls == [] and res.exact and res.iterations == 0
        inverse = [1 / closed_form(e.bit_count(), p) for e in h.edges]
        total = sum(inverse)
        assert res.value == 1 / total
        assert res.witness.weights == tuple(w / total for w in inverse)
        assert janson_threshold(h, p) == total

    def test_mixed_host_enumerates_only_its_coupled_block(self, monkeypatch):
        # {0,1,2} and {0,1,3} share two vertices; {3,4}, {4,5} and {2,6}
        # share at most one with every edge
        h = Hypergraph.from_vertex_lists(7, [[3, 4], [0, 1, 2], [4, 5], [0, 1, 3], [2, 6]])
        p = F(1, 2)
        calls = self.record_enumerations(monkeypatch)
        clear_cache()
        res = min_lambda(h, p)
        block = (mask_of([0, 1, 2]), mask_of([0, 1, 3]))
        assert calls == [tuple(sorted(block))] and res.iterations == 3
        assert len(janson._cache) == 1
        mu = min_lambda_exact(Hypergraph(7, tuple(sorted(block))), p).value
        assert 1 / res.value == 3 / closed_form(2, p) + 1 / mu
        want = min_lambda_exact(h, p)
        assert res.value == want.value
        weights = dict(zip(h.edges, res.witness.weights))
        assert weights == dict(zip(h.edges, want.witness.weights))
        assert weights[mask_of([3, 4])] == weights[mask_of([4, 5])] == res.value / closed_form(2, p)
        assert is_janson(h, p, 1 / res.value).answer == "NO"
        assert is_janson(h, p, (1 - F(1, 10**6)) / res.value).answer == "YES"
        min_lambda(Hypergraph(7, tuple(reversed(h.edges))), p)  # same query, relabelled
        assert len(calls) == 1 and len(janson._cache) == 1

    def test_two_blocks_are_enumerated_apart(self, monkeypatch):
        # {0,1,2} and {0,1,3} form one block, {4,5,6}, {4,5,7} and {5,6,8}
        # another; {3,4} shares at most one vertex with every edge
        h = Hypergraph.from_vertex_lists(
            9, [[4, 5, 6], [3, 4], [0, 1, 2], [5, 6, 8], [0, 1, 3], [4, 5, 7]]
        )
        p = F(1, 3)
        assert coupled_block_sizes(h) == [2, 3]
        calls = self.record_enumerations(monkeypatch)
        clear_cache()
        res = min_lambda(h, p)
        first = tuple(sorted(mask_of(e) for e in ([0, 1, 2], [0, 1, 3])))
        second = tuple(sorted(mask_of(e) for e in ([4, 5, 6], [4, 5, 7], [5, 6, 8])))
        assert calls == [first, second]
        assert res.iterations == 3 + 7
        assert len(janson._cache) == 1
        want = min_lambda_exact(h, p)  # the reference, not the recorder
        assert res.value == want.value
        assert res.witness.weights == want.witness.weights
        mus = [min_lambda_exact(Hypergraph(9, block), p).value for block in (first, second)]
        assert 1 / res.value == 1 / closed_form(2, p) + sum(1 / mu for mu in mus)


class TestThreshold:
    def test_single_2edge(self):
        assert janson_threshold(single_edge(2), F(1, 2)) == F(1, 4)

    @pytest.mark.parametrize("k", range(1, 11))
    def test_disjoint_edges(self, k):
        assert janson_threshold(disjoint_edges(k), F(1, 2)) == F(k, 4)

    def test_singleton_edge_infinite(self):
        h = Hypergraph.from_vertex_lists(3, [[0], [1, 2]])
        assert janson_threshold(h, F(1, 2)) == math.inf

    def test_empty_edge_infinite(self):
        h = Hypergraph(2, (0,))
        assert janson_threshold(h, F(1, 2)) == math.inf

    def test_no_edges_zero(self):
        assert janson_threshold(Hypergraph(3, ()), F(1, 2)) == 0

    @given(hypergraphs(min_n=2, max_n=6, max_edges=4, min_edge_size=2))
    @settings(max_examples=40, deadline=None)
    def test_nondecreasing_in_p(self, h):
        if not h.edges:
            return
        grid = [F(1, 8), F(1, 4), F(1, 2), F(3, 4), F(1)]
        values = [janson_threshold(h, p) for p in grid]
        assert all(a <= b for a, b in zip(values, values[1:]))

    @given(hypergraphs(min_n=2, max_n=6, max_edges=3, min_edge_size=2), st.data())
    @settings(max_examples=40, deadline=None)
    def test_adding_edges_never_decreases(self, h, data):
        extra = data.draw(
            st.integers(1, (1 << h.n) - 1).filter(
                lambda m: 2 <= m.bit_count() and m not in h.edges
            )
        )
        bigger = Hypergraph(h.n, tuple(sorted(h.edges + (extra,))))
        before = janson_threshold(h, F(1, 2)) if h.edges else F(0)
        after = janson_threshold(bigger, F(1, 2))
        assert after >= before


class TestVerdicts:
    def test_yes_below_threshold(self):
        v = is_janson(single_edge(2), F(1, 2), F(1, 5))
        assert v.answer == "YES" and v.r_star == F(1, 4)
        assert lambda_p(v.witness, F(1, 2)) < mass(v.witness) ** 2 / F(1, 5)

    def test_no_at_exact_threshold(self):
        # the defining inequality is strict, so R = R* is a NO
        v = is_janson(single_edge(2), F(1, 2), F(1, 4))
        assert v.answer == "NO" and v.exact

    def test_yes_at_r_zero(self):
        assert is_janson(Hypergraph(3, ()), F(1, 2), 0).answer == "YES"
        assert is_janson(single_edge(2), F(1, 2), 0).answer == "YES"

    def test_no_for_empty_hypergraph_positive_r(self):
        assert is_janson(Hypergraph(3, ()), F(1, 2), F(1)).answer == "NO"

    def test_yes_for_singleton_edge_any_r(self):
        h = Hypergraph.from_vertex_lists(2, [[0]])
        v = is_janson(h, F(1, 2), F(10**9))
        assert v.answer == "YES"
        assert lambda_p(v.witness, F(1, 2)) == 0 and mass(v.witness) > 0

    def test_float_path_agrees_away_from_boundary(self):
        big = Hypergraph(
            12, tuple(mask_of(c) for c in itertools.combinations(range(12), 2))
        )
        yes = is_janson(big, 0.5, 1.0)  # R* = 66/4 >> 1
        assert yes.answer == "YES" and not yes.exact
        no = is_janson(big, 0.5, 100.0)
        assert no.answer == "NO"

    def test_faulty_enumeration_gives_undecided_not_no(self, monkeypatch):
        # R* = 9/58 here, and the uniform point's lambda is 13/2: a minimiser
        # that is not optimal must not turn R = 233/1508 < R* into a NO
        h = Hypergraph.from_vertex_lists(5, [[0, 1, 2], [0, 1, 3], [0, 2, 4], [1, 3, 4]])
        p, r = F(1, 2), F(233, 1508)
        assert janson_threshold(h, p) == F(9, 58)

        def uniform_point(host, p):
            x = Measure(host, (F(1, 4),) * 4)
            return janson.MinLambdaResult(lambda_p(x, p), x, F(0), 16, True)

        clear_cache()
        monkeypatch.setattr(janson, "min_lambda_exact", uniform_point)
        try:
            v = is_janson(h, p, r)
        finally:
            clear_cache()
        assert v.answer == "UNDECIDED" and v.exact and "re-check" in v.note
        assert r * v.dual_bound < 1

    def test_exact_no_carries_the_dual_bound_at_the_minimiser(self):
        rng = SplitMix64(11)
        checked = 0
        for _ in range(40):
            n = 3 + rng.below(4)
            edges = {rng.sample_mask(n, 2 + rng.below(n - 1)) for _ in range(1 + rng.below(6))}
            h = Hypergraph(n, tuple(sorted(edges)))
            p = [F(1, 2), F(1, 5), F(2, 3), F(1)][rng.below(4)]
            clear_cache()
            best = min_lambda(h, p)
            for r in (1 / best.value, 2 / best.value):
                v = is_janson(h, p, r)
                assert v.answer == "NO" and v.exact and v.witness is None
                assert v.dual_bound == dual_lower_bound(best.witness, p) == best.value
                checked += 1
        assert checked == 80

    @given(hypergraphs(min_n=2, max_n=6, max_edges=4, min_edge_size=2), st.data())
    @settings(max_examples=40, deadline=None)
    def test_yes_witness_scales(self, h, data):
        if not h.edges:
            return
        r_star = janson_threshold(h, F(1, 2))
        v = is_janson(h, F(1, 2), r_star / 2)
        assert v.answer == "YES"
        y = data.draw(st.integers(1, 9))
        w = scale(v.witness, F(y) / mass(v.witness))
        assert mass(w) == y
        # the ratio mass^2 / lambda is scale-invariant, so YES survives
        assert lambda_p(w, F(1, 2)) * (r_star / 2) < mass(w) ** 2


class TestBoundedDegreeWitness:
    def test_disjoint_edges_uniform_is_fixed_point(self):
        k = 8
        h = disjoint_edges(k)
        r = k / 9.0  # strictly inside the threshold k/8 of the worst subset
        mu = bounded_degree_witness(h, 0.5, r, 0.25, seed=1)
        assert mass(mu) == pytest.approx(math.sqrt(r), rel=1e-9)
        assert lambda_p(mu, 0.5) < mass(mu) ** 2 / r
        dsq = sum(float(degree(mu, 1 << v)) ** 2 for v in range(h.n))
        assert dsq <= 2 * 4 * mass(mu) ** 2 / (0.25 * h.n) + 1e-9

    def test_uniform_measure_satisfies_witness_bounds_at_k_over_8(self):
        # boundary instance: the uniform measure meets all three output
        # bounds even though the subset hypothesis fails by strictness
        k, p, beta = 8, 0.5, 0.25
        r = k / 8.0
        h = disjoint_edges(k)
        m = len(h.edges)
        mu = Measure(h, (math.sqrt(r) / m,) * m, exact=False)
        e = mass(mu)
        assert e == pytest.approx(math.sqrt(r))
        assert lambda_p(mu, p) < e**2 / r
        dsq = sum(float(degree(mu, 1 << v)) ** 2 for v in range(h.n))
        assert dsq <= 2 * 4 * e**2 / (beta * h.n)

    def test_hypothesis_failure_is_reported(self):
        # one lonely pair: dropping both endpoints leaves nothing, so some
        # large subset is not certified
        h = single_edge(2, n=8)
        with pytest.raises(HypothesisViolation) as exc:
            bounded_degree_witness(h, 0.5, 0.2, 0.5, seed=0)
        assert exc.value.w_mask is not None or exc.value.verdict is not None

    def test_blend_round_restricts_to_low_degree_vertices(self, monkeypatch):
        # a star on 12 vertices plus a matching of its leaves 2..11: every
        # 8-set spans an edge.  Started from unit mass on the edge {0, 1}
        # (d(0) = d(1) = 1, so sum d^2 = 2 > 8 / 4.8), one round blends in
        # the optimum on the vertices of degree <= 2 / 4.8, the matching.
        n, r, beta = 12, 0.01, 0.4
        star = [mask_of((0, v)) for v in range(1, n)]
        matching = [mask_of((v, v + 1)) for v in range(2, n, 2)]
        h = Hypergraph(n, tuple(sorted(star + matching)))
        solved = []
        witness = paper._witness_mass_one

        def start_on_one_edge(sub, p, r, context):
            solved.append(context)
            if context == "initial witness":
                return Measure.unit_on(sub, 0)
            return witness(sub, p, r, context)

        monkeypatch.setattr(paper, "_witness_mass_one", start_on_one_edge)
        mu = bounded_degree_witness(h, 0.5, r, beta, seed=0)
        assert solved == ["initial witness", "restricted witness"]
        tau = 1 / (beta * n) / 2
        expected = [
            (1 - tau if e == h.edges[0] else tau / 5 if e in matching else 0.0) * math.sqrt(r)
            for e in h.edges
        ]
        assert mu.weights == pytest.approx(expected, rel=1e-12)
        dsq = sum(float(degree(mu, 1 << v)) ** 2 for v in range(n))
        assert dsq <= 2 * 4 * mass(mu) ** 2 / (beta * n)

    @pytest.mark.parametrize("budget", [paper.PRECONDITION_BUDGET, 5])
    def test_violation_lists_the_subset_ascending(self, budget, monkeypatch):
        # C(8, 4) = 70 subsets: enumerated under the default budget, sampled
        # under a budget of 5
        monkeypatch.setattr(paper, "PRECONDITION_BUDGET", budget)
        h = single_edge(2, n=8)
        with pytest.raises(HypothesisViolation) as exc:
            bounded_degree_witness(h, 0.5, 0.2, 0.5, seed=0)
        verts = bits_of(exc.value.w_mask)
        assert len(verts) == 4
        assert str(exc.value).startswith(f"induced sub-hypergraph on {verts} is not certified")
        if budget > 70:
            assert verts == [0, 2, 3, 4]  # the first 4-set in lexicographic order without {0, 1}


class TestAggregation:
    def host(self):
        return disjoint_edges(3)

    def unit_on_edge(self, host, idx):
        return Measure.unit_on(host, idx)

    def test_single_witness_identity(self):
        host = self.host()
        nu = self.unit_on_edge(host, 0)
        total, report = aggregate_witnesses([(host.edges[0], nu)], host, F(1, 2))
        assert total.weights == nu.weights
        assert report.max_shared == 1
        assert report.chain_holds
        assert report.lambda_total == report.bound  # single witness is tight

    def test_two_disjoint_supports_add(self):
        host = self.host()
        fam = [
            (host.edges[0], self.unit_on_edge(host, 0)),
            (host.edges[1], self.unit_on_edge(host, 1)),
        ]
        total, report = aggregate_witnesses(fam, host, F(1, 2))
        assert mass(total) == 2
        assert report.lambda_total == sum(report.lambda_parts)
        assert report.chain_holds

    def test_repeated_support_scales_quadratically(self):
        host = self.host()
        m = 4
        fam = [(host.edges[0], self.unit_on_edge(host, 0))] * m
        total, report = aggregate_witnesses(fam, host, F(1, 2))
        assert mass(total) == m
        assert report.lambda_total == m * m * report.lambda_parts[0]
        assert report.max_shared == m
        assert report.chain_holds

    def test_support_violation_rejected(self):
        host = self.host()
        with pytest.raises(InputError):
            aggregate_witnesses([(host.edges[1], self.unit_on_edge(host, 0))], host, F(1, 2))

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_chain_on_random_families(self, data):
        rng = SplitMix64(data.draw(st.integers(0, 2**32)))
        host = Hypergraph(
            6, tuple(mask_of(c) for c in itertools.combinations(range(6), 2))
        )
        fam = []
        for _ in range(data.draw(st.integers(1, 4))):
            s_mask = rng.sample_mask(6, 4)
            inside = [i for i, e in enumerate(host.edges) if e & ~s_mask == 0]
            weights = [F(0)] * len(host.edges)
            picks = [inside[rng.below(len(inside))] for _ in range(3)]
            for i in picks:
                weights[i] += F(1, 3)
            fam.append((s_mask, Measure(host, tuple(weights))))
        total, report = aggregate_witnesses(fam, host, F(1, 2))
        assert mass(total) == len(fam)
        assert report.chain_holds

    def test_max_shared_matches_every_subset(self):
        # the pair scan against the maximum over every L with |L| >= 2
        # inside a positive-weight edge
        rng = SplitMix64(11)
        shared = []
        for _ in range(60):
            n = 3 + rng.below(5)
            edges = {rng.sample_mask(n, 1 + rng.below(n)) for _ in range(1 + rng.below(5))}
            host = Hypergraph(n, tuple(sorted(edges)))
            fam = []
            for _ in range(1 + rng.below(4)):
                s_mask = rng.sample_mask(n, n - rng.below(3))
                inside = [i for i, e in enumerate(host.edges) if e & ~s_mask == 0]
                if not inside:
                    continue
                weights = [F(0)] * len(host.edges)
                for _ in range(2):
                    weights[inside[rng.below(len(inside))]] += F(1, 2)
                fam.append((s_mask, Measure(host, tuple(weights))))
            if not fam:
                continue
            total, report = aggregate_witnesses(fam, host, F(1, 2))
            brute = max(
                (
                    sum(1 for s_mask, _ in fam if l_mask & ~s_mask == 0)
                    for l_mask in range(1 << n)
                    if bin(l_mask).count("1") >= 2
                    and any(w > 0 and l_mask & ~e == 0 for e, w in zip(host.edges, total.weights))
                ),
                default=0,
            )
            assert report.max_shared == brute
            shared.append(brute)
        assert len(shared) >= 40 and max(shared) >= 3 and 0 in shared

    def test_edges_above_twenty_vertices(self):
        host = single_edge(24)
        fam = [(host.edges[0], self.unit_on_edge(host, 0))] * 2
        total, report = aggregate_witnesses(fam, host, F(1, 2))
        assert report.max_shared == 2
        assert report.chain_holds


class TestSubJansonMonotone:
    @given(hypergraphs(min_n=2, max_n=6, max_edges=4, min_edge_size=2), st.data())
    @settings(max_examples=30, deadline=None)
    def test_induced_threshold_never_exceeds_whole(self, h, data):
        # dropping vertices only removes edges, which cannot raise R*
        if not h.edges:
            return
        w_mask = data.draw(st.integers(0, (1 << h.n) - 1))
        sub = restrict_edges(h, w_mask)
        if not sub.edges:
            return
        assert janson_threshold(sub, F(1, 2)) <= janson_threshold(h, F(1, 2))


class TestOverlapAndDualBound:
    @given(hypergraphs(min_n=2, max_n=6, max_edges=5, min_edge_size=2), st.data())
    @settings(max_examples=40, deadline=None)
    def test_overlap_matrix_is_lambda(self, h, data):
        if not h.edges:
            return
        p = data.draw(st.sampled_from([F(1, 2), F(1, 5), F(2, 3)]))
        ws = tuple(F(data.draw(st.integers(0, 6)), 7) for _ in h.edges)
        q = overlap_matrix(h, p, exact=True)
        quad = sum(a * q[i][j] * b for i, a in enumerate(ws) for j, b in enumerate(ws))
        assert quad == lambda_p_subsets(Measure(h, ws), p)
        qf = overlap_matrix(h, float(p), exact=False)
        for i, row in enumerate(q):
            for j, v in enumerate(row):
                assert qf[i][j] == pytest.approx(float(v), rel=1e-12)

    @given(hypergraphs(min_n=2, max_n=6, max_edges=5, min_edge_size=2), st.data())
    @settings(max_examples=40, deadline=None)
    def test_exact_dual_bound_brackets_the_minimum(self, h, data):
        if not h.edges:
            return
        p = data.draw(st.sampled_from([F(1, 2), F(1, 5), F(2, 3)]))
        best = min_lambda_exact(h, p)
        # tight at the optimum (KKT: min_j (Qx)_j = x^T Q x there) ...
        assert dual_lower_bound(best.witness, p) == best.value
        # ... and a lower bound at every other point of the simplex
        raw = [data.draw(st.integers(0, 5)) for _ in h.edges]
        if sum(raw) == 0:
            return
        x = Measure(h, tuple(F(v, sum(raw)) for v in raw))
        bound = dual_lower_bound(x, p)
        assert bound <= best.value <= lambda_p(x, p)
        assert dual_lower_bound(float_measure(x), p) == pytest.approx(
            float(bound), rel=1e-9, abs=1e-12
        )

    @given(hypergraphs(min_n=2, max_n=7, max_edges=8), st.data())
    @settings(max_examples=80, deadline=None)
    def test_one_pass_matches_subsets_and_the_dense_dual(self, h, data):
        # _evaluate's lambda is algorithm A's, and its dual bound is the
        # dense formula 2 min_j (Qx)_j - x^T Q x over the full overlap
        # matrix, zero coefficients and zero weights included
        if not h.edges:
            return
        p = data.draw(st.sampled_from([F(1, 2), F(1, 3), F(2, 3), F(1, 5), F(1, 64), F(1)]))
        x = Measure(h, data.draw(rational_weights(len(h.edges))))

        lam, dual = janson._evaluate(x, p)
        assert lam == lambda_p_subsets(x, p)
        assert dual == dense_dual(x, p)
        assert dual <= lam
        xf = float_measure(x)
        lam_f, dual_f = janson._evaluate(xf, p)
        scale_f = 1e-12 * max(1.0, float(lam))
        assert lam_f == pytest.approx(lambda_p_subsets(xf, float(p)), rel=1e-12, abs=scale_f)
        assert dual_f == pytest.approx(dense_dual(xf, p), rel=1e-12, abs=scale_f)
        assert dual_f <= lam_f


R_PLACES = ["at", "above", "below", "far above", "far below"]


class TestRequireVerdict:
    """require_verdict takes one ladder (settled, diagonal NO, is_janson)
    and must give exactly is_janson's answer."""

    @staticmethod
    def place(r_star, where, eps):
        return {
            "at": r_star,
            "above": r_star * (1 + eps),
            "below": r_star * (1 - eps),
            "far above": r_star * 2,
            "far below": r_star / 2,
        }[where]

    @given(
        hypergraphs(min_n=2, max_n=7, max_edges=8, min_edge_size=2),
        st.sampled_from([F(1), F(2, 3), F(1, 2), F(1, 5), F(1, 64)]),
        st.sampled_from(R_PLACES),
        st.sampled_from([F(1, 10**3), F(1, 10**6), F(1, 10**12)]),
    )
    # uniform optima: R* itself is a NO
    @example(single_edge(2), F(1, 2), "at", F(1, 10**3))
    @example(disjoint_edges(2), F(1, 5), "at", F(1, 10**3))
    @example(disjoint_edges(4, 3), F(2, 3), "at", F(1, 10**3))
    @example(disjoint_edges(8), F(1), "at", F(1, 10**3))
    @settings(max_examples=80, deadline=None)
    def test_matches_is_janson(self, h, p, where, eps):
        if not h.edges:
            return
        clear_cache()
        r = self.place(janson_threshold(h, p), where, eps)
        want = is_janson(h, p, r).answer == "YES"
        clear_cache()
        # rational p and R within the edge cap: the exact path, which never
        # runs Frank-Wolfe
        assert len(h.edges) <= janson.KKT_EDGE_CAP
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(janson, "_frank_wolfe", _no_frank_wolfe)
            assert require_verdict(h, p, r) == want
        if where == "at":
            assert want is False

    def test_threshold_falls_through_to_the_enumeration(self, monkeypatch):
        # the edges share pairs, so the diagonal bound sum 1/Q_ii = 3/20
        # lies above R* = 3/28 and cannot answer either query; is_janson's
        # enumeration does, once, and the second query reuses its minimum
        h = Hypergraph.from_vertex_lists(4, [[0, 1, 2], [0, 1, 3], [0, 2, 3]])
        p = F(1, 2)
        r_star = janson_threshold(h, p)
        assert r_star == F(3, 28)
        clear_cache()
        calls = []
        original = janson.is_janson
        monkeypatch.setattr(janson, "is_janson", lambda *a: calls.append(a) or original(*a))
        assert require_verdict(h, p, r_star) is False
        assert require_verdict(h, p, r_star * (1 - F(1, 10**6))) is True
        assert len(calls) == 2
        assert len(janson._cache) == 1

    @pytest.mark.parametrize("edges", [(0,), (1,), (0b110, 0b1), (0b11, 0b110, 0b1000, 0b1100)])
    @pytest.mark.parametrize("p", [F(1, 2), F(1, 64), 0.3])
    def test_small_edges_answer_yes_without_is_janson(self, monkeypatch, edges, p):
        h = Hypergraph(4, edges)
        calls = []
        original = janson.is_janson
        monkeypatch.setattr(janson, "is_janson", lambda *a: calls.append(a) or original(*a))
        for r in (F(1, 10**6), F(1), F(10**6), 2.5):
            want = original(h, p, r).answer == "YES"
            assert require_verdict(h, p, r) == want
        assert calls == []
        assert require_verdict(h, p, 0) is True
        assert calls == []  # R = 0 is a YES by convention
        with pytest.raises(InputError):
            require_verdict(h, p, -1)

    @pytest.mark.parametrize("n", [0, 4])
    @pytest.mark.parametrize("p", [F(1, 2), F(1, 64), 0.3])
    def test_no_edges_answer_no_without_is_janson(self, monkeypatch, n, p):
        h = Hypergraph(n, ())
        calls = []
        original = janson.is_janson
        monkeypatch.setattr(janson, "is_janson", lambda *a: calls.append(a) or original(*a))
        for r in (F(1, 10**6), F(1), F(10**6), 2.5):
            assert original(h, p, r).answer == "NO"
            assert require_verdict(h, p, r) is False
        assert calls == []
        assert require_verdict(h, p, 0) is True
        assert calls == []  # R = 0 is a YES by convention
        with pytest.raises(InputError):
            require_verdict(h, p, -1)

    def test_r_zero_answers_yes_without_min_lambda(self, monkeypatch):
        rng = SplitMix64(7)
        cases = []
        for _ in range(60):
            n = 2 + rng.below(6)
            edges = {rng.sample_mask(n, 1 + rng.below(n)) for _ in range(rng.below(6))}
            p = [F(1, 2), F(1, 64), F(2, 3), 1, 0.3, 1.0][rng.below(6)]
            cases.append((Hypergraph(n, tuple(sorted(edges))), p))
        want = [is_janson(h, p, 0).answer == "YES" for h, p in cases]
        calls = []
        monkeypatch.setattr(janson, "min_lambda", lambda *a: calls.append(a))
        for (h, p), yes in zip(cases, want):
            for r in (0, F(0), 0.0):
                assert require_verdict(h, p, r) is yes
        assert calls == []

    @pytest.mark.parametrize("p", [0, F(3, 2), -0.5, 2.0])
    def test_r_zero_keeps_the_range_check(self, p):
        with pytest.raises(InputError):
            is_janson(disjoint_edges(2), p, 0)
        with pytest.raises(InputError):
            require_verdict(disjoint_edges(2), p, 0)

    @pytest.mark.parametrize("p", [0, F(3, 2), 2.0])
    @pytest.mark.parametrize("edges", [(), (0b1, 0b110)])
    def test_p_range_is_checked_before_the_edges(self, p, edges):
        h = Hypergraph(3, edges)
        for r in (0, F(1, 5), 2):
            with pytest.raises(InputError):
                is_janson(h, p, r)
            with pytest.raises(InputError):
                require_verdict(h, p, r)

    @pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("p", [F(1, 2), 0.5])
    @pytest.mark.parametrize("query", [is_janson, require_verdict])
    def test_r_must_be_finite(self, query, p, r):
        h = Hypergraph.from_vertex_lists(4, [[0, 1, 2], [0, 1, 3], [0, 2, 3]])
        with pytest.raises(InputError, match="R must be (finite|nonnegative)"):
            query(h, p, r)

    @given(
        hypergraphs(min_n=3, max_n=7, max_edges=8, min_edge_size=2).filter(lambda h: h.edges),
        st.sampled_from([F(1), F(2, 3), F(1, 2), F(1, 5), 1.0, 0.5, 0.3]),
        st.sampled_from([F(1, 2), 1 - F(1, 10**9), F(1), 1 + F(1, 10**9), 1 + F(1, 10**6), F(2)]),
    )
    @example(disjoint_edges(3), F(1, 2), F(1))
    @example(disjoint_edges(3), 0.5, 1 + F(1, 10**6))
    @settings(max_examples=150, deadline=None)
    def test_diagonal_no_implies_is_janson_no(self, h, p, factor):
        # R placed around the bound sum_i 1/Q_ii; it equals R* exactly when
        # no two edges share two vertices
        exact = isinstance(p, F)
        bound = sum(1 / closed_form(e.bit_count(), p) for e in h.edges)
        r = bound * factor if exact else float(bound * factor)
        clear_cache()
        if janson._diagonal_no(h, p, r):
            assert is_janson(h, p, r).answer == "NO"
        diagonal = all((a & b).bit_count() < 2 for a, b in itertools.combinations(h.edges, 2))
        if exact and diagonal and len(h.edges) <= janson.KKT_EDGE_CAP:
            assert janson_threshold(h, p) == bound
            assert janson._diagonal_no(h, p, r) == (factor >= 1)

    def test_brackets_are_memoised_until_clear_cache(self):
        # min_lambda's memo: a repeated query reuses its one entry
        h = disjoint_edges(3)
        clear_cache()
        assert require_verdict(h, F(1, 2), F(1, 2)) is True
        assert len(janson._cache) == 1
        assert require_verdict(h, F(1, 2), F(1, 2)) is True
        assert len(janson._cache) == 1
        clear_cache()
        assert not janson._cache

    def test_memoised_minimum_skips_the_bracket(self, monkeypatch):
        # a minimum already in the memo answers without a second solve
        h = disjoint_edges(3)
        clear_cache()
        min_lambda(h, F(1, 2))

        def no_solve(*args):
            raise AssertionError("the memoised minimum was solved again")

        monkeypatch.setattr(janson, "_min_lambda_blocks", no_solve)
        monkeypatch.setattr(janson, "_frank_wolfe", no_solve)
        assert require_verdict(h, F(1, 2), F(1, 2)) is True
        assert len(janson._cache) == 1

    def test_floating_queries_keep_the_old_path(self):
        # floating p takes Frank-Wolfe and keeps an entry apart from the
        # exact one; a floating R on rational p reuses the exact entry
        h = disjoint_edges(3)
        clear_cache()
        assert require_verdict(h, 0.5, 0.5) is True
        assert [key[-1] for key in janson._cache] == [janson.DEFAULT_TOL]
        assert require_verdict(h, F(1, 2), 0.5) is True
        assert sorted(key[-1] is None for key in janson._cache) == [False, True]
        assert require_verdict(h, 0.5, 0.5) is True
        assert len(janson._cache) == 2

    @pytest.mark.parametrize("order", [(F(1, 2), 0.5), (0.5, F(1, 2))])
    def test_rational_and_float_p_do_not_share_a_minimum(self, order):
        # F(1, 2) == 0.5 and both hash alike; within the edge cap the
        # memo key still keeps the exact and the floating minimum apart
        h = Hypergraph(4, (0b0011, 0b0110, 0b1100))
        clear_cache()
        results = {type(p): min_lambda(h, p) for p in order}
        assert results[F].exact and isinstance(results[F].value, F)
        assert not results[float].exact and isinstance(results[float].value, float)
        assert len(janson._cache) == 2

    @pytest.mark.parametrize("p", [F(1, 2**1100), F(1, 2**200), F(1, 2**60)])
    def test_beyond_float_range_agrees(self, p):
        # 1/p or the overlap coefficients of 6-vertex edges overflow a float
        h = Hypergraph(8, (mask_of(range(6)), mask_of(range(2, 8))))
        clear_cache()
        r_star = janson_threshold(h, p)
        for r in (r_star, r_star / 2, r_star * 2, F(1, 10**400), F(10**400)):
            clear_cache()
            want = is_janson(h, p, r).answer == "YES"
            clear_cache()
            assert require_verdict(h, p, r) == want

    @pytest.mark.parametrize("r", [10**400, F(10**400)], ids=["int", "Fraction"])
    def test_r_past_the_float_range_is_no_on_the_floating_path(self, r):
        # float(r) overflows; the floating path reads R as +inf and answers
        # NO, as require_verdict's exact diagonal comparison does
        h = Hypergraph.from_vertex_lists(4, [[0, 1, 2], [0, 1, 3], [0, 2, 3]])
        clear_cache()
        verdict = is_janson(h, 0.5, r)
        assert verdict.answer == "NO" and not verdict.exact
        assert verdict.dual_bound > 0
        assert janson._decide(min_lambda(h, 0.5).witness, 0.5, r)[0] == "NO"
        assert require_verdict(h, 0.5, r) is False


class TestInverseDiagonalMemo:
    @pytest.mark.parametrize("p", [F(1, 2), F(1, 5), F(2, 3), 0.5, 0.3])
    def test_memo_equals_the_coefficient(self, p):
        exact = isinstance(p, F)
        clear_cache()
        for _ in range(2):  # a miss, then a hit
            got = janson._inverse_diagonal(range(2, 9), p, exact)
            assert got == {c: 1 / pair_coefficient(c, p, exact) for c in range(2, 9)}
        assert janson._inverse_coefficient.cache_info().hits == 7

    @pytest.mark.parametrize("order", [(F(1, 2), 0.5), (0.5, F(1, 2))])
    def test_exact_and_floating_p_do_not_share_an_entry(self, order):
        # F(1, 2) == 0.5 and both hash alike; the key's exact flag parts them
        clear_cache()
        got = {type(p): janson._inverse_diagonal([3], p, isinstance(p, F))[3] for p in order}
        assert type(got[F]) is F and type(got[float]) is float
        assert janson._inverse_coefficient.cache_info().currsize == 2

    def test_clear_cache_empties_the_memo(self):
        clear_cache()
        assert require_verdict(disjoint_edges(3), F(1, 2), 100) is False  # the diagonal NO
        assert janson._inverse_coefficient.cache_info().currsize == 1
        clear_cache()
        assert janson._inverse_coefficient.cache_info().currsize == 0
        assert not janson._cache
