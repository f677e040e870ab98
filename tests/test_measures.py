from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jcontainers.errors import BudgetError, InputError
from jcontainers.hypercore import Hypergraph, VertexMap, popcount, project
from jcontainers.measures import Measure, lambda_p, lambda_p_pairwise, lambda_p_subsets

from conftest import hypergraphs, mask, rational_weights
from oracles import zero_measure
from paper import (
    CertificateViolation,
    add,
    degree,
    degree_square_sum,
    extend_by_vertex,
    mass,
    pullback,
    reweight_restrict,
    scale,
)


@st.composite
def measured(draw, max_n=7, max_edges=5, **kw):
    h = draw(hypergraphs(max_n=max_n, max_edges=max_edges, **kw))
    ws = draw(rational_weights(len(h.edges)))
    return Measure(h, ws, exact=True)


small_p = st.sampled_from([F(1, 2), F(1, 3), F(1, 8), F(2, 3), F(1)])


class TestBasics:
    def test_mass_single_edge(self):
        h = Hypergraph.from_vertex_lists(2, [[0, 1]])
        assert mass(Measure(h, (F(1),))) == 1

    def test_mass_zero(self):
        h = Hypergraph.from_vertex_lists(2, [[0, 1]])
        assert mass(zero_measure(h)) == 0

    def test_mass_thirds(self):
        h = Hypergraph.from_vertex_lists(4, [[0, 1], [1, 2], [2, 3]])
        assert mass(Measure(h, (F(1, 3),) * 3)) == 1

    def test_degree_empty_set_is_mass(self):
        h = Hypergraph.from_vertex_lists(3, [[0, 1], [1, 2]])
        m = Measure(h, (F(2), F(5)))
        assert degree(m, 0) == mass(m)

    def test_degree_uncovered_set(self):
        h = Hypergraph.from_vertex_lists(3, [[0, 1]])
        m = Measure(h, (F(1),))
        assert degree(m, mask(2)) == 0

    def test_degree_direct_sum(self):
        h = Hypergraph.from_vertex_lists(3, [[0, 1], [0, 2]])
        m = Measure(h, (F(2), F(3)))
        assert degree(m, mask(0)) == 5

    def test_weight_count_must_match(self):
        h = Hypergraph.from_vertex_lists(2, [[0, 1]])
        with pytest.raises(InputError):
            Measure(h, (F(1), F(2)))

    def test_mode_mixing_rejected(self):
        h = Hypergraph.from_vertex_lists(2, [[0, 1]])
        with pytest.raises(InputError):
            Measure(h, (0.5,), exact=True)
        with pytest.raises(InputError):
            add(Measure(h, (F(1),)), Measure(h, (1.0,), exact=False))


class TestLambda:
    def test_single_2edge_closed_form(self):
        # (1 + 1/p)^s - 1 - s/p at s=2, p=1/2
        h = Hypergraph.from_vertex_lists(2, [[0, 1]])
        m = Measure(h, (F(1),))
        assert lambda_p_subsets(m, F(1, 2)) == 4
        assert lambda_p(m, F(1, 2)) == 4

    def test_two_disjoint_edges_split(self):
        h = Hypergraph.from_vertex_lists(4, [[0, 1], [2, 3]])
        for a in (F(0), F(1, 4), F(1, 2), F(1)):
            m = Measure(h, (a, 1 - a))
            expected = 4 * a**2 + 4 * (1 - a) ** 2
            assert lambda_p(m, F(1, 2)) == expected

    def test_zero_measure(self):
        h = Hypergraph.from_vertex_lists(2, [[0, 1]])
        assert lambda_p(zero_measure(h), F(1, 2)) == 0

    def test_subset_cap(self):
        h = Hypergraph(25, (((1 << 25) - 1),))
        m = Measure(h, (1.0,), exact=False)
        with pytest.raises(BudgetError):
            lambda_p_subsets(m, 0.5)
        assert lambda_p(m, 0.5) > 0  # pairwise has no cap
        assert lambda_p is lambda_p_pairwise  # algorithm B under both names

    @given(measured(), small_p)
    @settings(max_examples=80, deadline=None)
    def test_algorithms_agree_exactly(self, m, p):
        assert lambda_p_subsets(m, p) == lambda_p(m, p)

    @given(measured(max_n=6, max_edges=4), small_p)
    @settings(max_examples=50, deadline=None)
    def test_matches_naive_enumeration_over_all_vertex_sets(self, m, p):
        # third route: walk every vertex subset of the universe directly
        from fractions import Fraction
        from paper import degree

        total = Fraction(0)
        for l_mask in range(1, 1 << m.host.n):
            if popcount(l_mask) >= 2:
                d = degree(m, l_mask)
                total += d * d * (1 / Fraction(p)) ** popcount(l_mask)
        assert total == lambda_p(m, p)

    @given(measured(), small_p, st.integers(0, 9))
    @settings(max_examples=60, deadline=None)
    def test_homogeneity(self, m, p, t):
        assert mass(scale(m, t)) == t * mass(m)
        assert lambda_p(scale(m, t), p) == t * t * lambda_p(m, p)

    @given(measured(), small_p)
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_the_measure(self, m, p):
        bigger = add(m, m)  # pointwise >= m
        assert lambda_p(m, p) <= lambda_p(bigger, p)


class TestLinearity:
    @given(measured(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_degree_additive(self, m, data):
        other = Measure(m.host, data.draw(rational_weights(len(m.host.edges))), True)
        l_mask = data.draw(st.integers(0, (1 << m.host.n) - 1))
        assert degree(add(m, other), l_mask) == degree(m, l_mask) + degree(other, l_mask)

    def test_scale_to_prescribed_mass(self):
        h = Hypergraph.from_vertex_lists(3, [[0, 1], [1, 2]])
        m = Measure(h, (F(3), F(5)))
        assert mass(scale(m, 7 / mass(m))) == 7


class TestPullback:
    def test_bijective_copies_weights(self):
        h = Hypergraph.from_vertex_lists(3, [[0, 1], [1, 2]])
        pi = VertexMap(3, 3, (2, 1, 0))
        theta = Measure(project(h, pi), (F(2), F(5)))
        back = pullback(theta, h, pi)
        assert mass(back) == mass(theta)
        assert sorted(back.weights) == sorted(theta.weights)

    def test_collapse_splits_equally(self):
        h = Hypergraph.from_vertex_lists(4, [[0, 1], [2, 3]])
        pi = VertexMap(4, 2, (0, 1, 0, 1))
        theta = Measure(project(h, pi), (F(1),))
        back = pullback(theta, h, pi)
        assert back.weights == (F(1, 2), F(1, 2))

    def test_zero_pulls_back_to_zero(self):
        h = Hypergraph.from_vertex_lists(4, [[0, 1], [2, 3]])
        pi = VertexMap(4, 2, (0, 1, 0, 1))
        theta = zero_measure(project(h, pi))
        assert mass(pullback(theta, h, pi)) == 0

    def test_host_mismatch_rejected(self):
        h = Hypergraph.from_vertex_lists(4, [[0, 1], [2, 3]])
        pi = VertexMap(4, 2, (0, 1, 0, 1))
        with pytest.raises(InputError):
            pullback(Measure(Hypergraph(2, (1,)), (F(1),)), h, pi)

    @given(hypergraphs(min_n=2, max_n=6, min_edge_size=2), st.data())
    @settings(max_examples=60, deadline=None)
    def test_mass_preserved_and_lambda_contracts(self, h, data):
        # permutation maps keep |pi(E)| = |E| on every edge
        perm = data.draw(st.permutations(range(h.n)))
        pi = VertexMap(h.n, h.n, tuple(perm))
        img = project(h, pi)
        theta = Measure(img, data.draw(rational_weights(len(img.edges))), True)
        back = pullback(theta, h, pi)
        assert mass(back) == mass(theta)
        assert lambda_p(back, F(1, 2)) <= lambda_p(theta, F(1, 2))

    def test_lambda_contracts_on_two_to_one_map(self):
        # folding two disjoint copies of an edge onto one image
        h = Hypergraph.from_vertex_lists(4, [[0, 1], [2, 3]])
        pi = VertexMap(4, 2, (0, 1, 0, 1))
        theta = Measure(project(h, pi), (F(1),))
        back = pullback(theta, h, pi)
        assert lambda_p(back, F(1, 2)) <= lambda_p(theta, F(1, 2))


class TestVertexExtension:
    def test_transport(self):
        h = Hypergraph.from_vertex_lists(2, [[0, 1]])
        m = Measure(h, (F(1),))
        ext = extend_by_vertex(m, 2)
        assert ext.host.edges == (mask(0, 1, 2),)
        assert ext.weights == (F(1),)

    def test_zero_stays_zero(self):
        h = Hypergraph.from_vertex_lists(2, [[0, 1]])
        assert mass(extend_by_vertex(zero_measure(h), 2)) == 0

    @given(measured(max_n=6))
    @settings(max_examples=60, deadline=None)
    def test_mass_preserved(self, m):
        assert mass(extend_by_vertex(m, m.host.n)) == mass(m)

    def test_worked_identity_case(self):
        # single 2-edge, weight 1, p = 1/2: extension gives 20 = 3*4 + 4*2
        h = Hypergraph.from_vertex_lists(2, [[0, 1]])
        m = Measure(h, (F(1),))
        ext = extend_by_vertex(m, 2)
        assert lambda_p(ext, F(1, 2)) == 20

    @given(measured(max_n=6), small_p)
    @settings(max_examples=80, deadline=None)
    def test_extension_identity_exact(self, m, p):
        ext = extend_by_vertex(m, m.host.n)
        lhs = lambda_p(ext, p)
        rhs = (1 + 1 / F(p)) * lambda_p(m, p) + F(p) ** -2 * degree_square_sum(m)
        assert lhs == rhs


class TestReweightRestrict:
    def test_identity_when_everything_survives(self):
        h = Hypergraph.from_vertex_lists(3, [[0, 1], [1, 2]])
        m = Measure(h, (F(1), F(2)))
        out = reweight_restrict(m, 0b111, [F(1), F(1)])
        assert out.weights == m.weights

    def test_empty_window_kills_everything(self):
        h = Hypergraph.from_vertex_lists(3, [[0, 1], [1, 2]])
        m = Measure(h, (F(1), F(2)))
        assert mass(reweight_restrict(m, 0, [F(1), F(1)])) == 0

    def test_survival_reweights_by_inverse_probability(self):
        h = Hypergraph.from_vertex_lists(3, [[0, 1]])
        m = Measure(h, (F(3),))
        q = F(1, 4)
        out = reweight_restrict(m, 0b011, [q**2])
        assert out.weights == (F(3) * 16,)

    def test_zero_probability_on_survivor_is_violation(self):
        h = Hypergraph.from_vertex_lists(3, [[0, 1]])
        m = Measure(h, (F(1),))
        with pytest.raises(CertificateViolation):
            reweight_restrict(m, 0b011, [F(0)])
