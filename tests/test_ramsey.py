import inspect
import itertools
import math
import sys
import time
from fractions import Fraction as F

import pytest

from jcontainers import ramsey
from jcontainers.cli import dispatch
from jcontainers.copies import induced_copy_hypergraph
from jcontainers.errors import BudgetError, InputError, UndecidedError
from jcontainers.hypercore import Coloring, Graph, bits_of
from jcontainers.ramsey import (
    ExperimentConfig,
    arrows_induced,
    check_event_bad,
    check_event_bad_prime,
    check_event_inductive,
    chernoff_experiment,
    extension_experiment,
    find_bad_coloring,
    sample_gnhalf,
)
from jcontainers.prng import SplitMix64

from paper import find_maximal_tuple


class TestConfig:
    def test_derived_constants(self):
        cfg = ExperimentConfig(r=2, k=3)
        assert cfg.p == F(1, (1 << 25) * 9 * 16)
        assert cfg.delta == 2.0**-50
        assert not cfg.scaled

    def test_override_sets_scaled_flag(self):
        cfg = ExperimentConfig(r=2, k=3, delta=0.25)
        assert cfg.scaled

    def test_rejects_bad_counts(self):
        with pytest.raises(InputError):
            ExperimentConfig(r=0, k=3)

    @pytest.mark.parametrize(
        "event", [check_event_bad, check_event_bad_prime, check_event_inductive]
    )
    def test_event_budget_defaults_are_the_configs(self, event):
        cfg = ExperimentConfig()
        params = inspect.signature(event).parameters
        assert params["budget_colorings"].default == cfg.budget_colorings
        if event is not check_event_bad:
            assert params["budget_subsets"].default == cfg.budget_subsets


class TestSampler:
    def test_single_vertex_edgeless(self):
        assert sample_gnhalf(1, 123).edge_count() == 0

    def test_golden_fixture(self):
        # frozen once from the documented generator; guards the PRNG stream
        g = sample_gnhalf(10, 2024)
        assert g.edges() == [
            (0, 1), (0, 3), (0, 4), (0, 6), (0, 7),
            (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7), (1, 8), (1, 9),
            (2, 3), (2, 4), (2, 5),
            (3, 4), (3, 5), (3, 6), (3, 7),
            (4, 7), (4, 8), (4, 9),
            (5, 6), (5, 8), (5, 9),
            (6, 9),
            (8, 9),
        ]

    def test_seed_determinism(self):
        assert sample_gnhalf(12, 7) == sample_gnhalf(12, 7)
        assert sample_gnhalf(12, 7) != sample_gnhalf(12, 8)

    def test_density_in_binomial_band(self):
        n, trials = 20, 400
        pairs = n * (n - 1) // 2
        total = sum(sample_gnhalf(n, seed).edge_count() for seed in range(trials))
        mean = total / (trials * pairs)
        sigma = 0.5 / math.sqrt(trials * pairs)
        assert abs(mean - 0.5) < 4 * sigma


class TestBadColoring:
    def test_k5_two_triangles_has_good_coloring(self):
        c = find_bad_coloring(Graph.complete(5), [Graph.complete(3)] * 2)
        assert c is not None
        # re-verify: no monochromatic triangle in either colour
        g = Graph.complete(5)
        for colour in (1, 2):
            gi = c.color_subgraph(g, colour)
            for trio in [(a, b, d) for a in range(5) for b in range(a + 1, 5) for d in range(b + 1, 5)]:
                assert not all(gi.has_edge(u, v) for u, v in [(trio[0], trio[1]), (trio[0], trio[2]), (trio[1], trio[2])])

    def test_k6_two_triangles_forced(self):
        assert find_bad_coloring(Graph.complete(6), [Graph.complete(3)] * 2) is None

    def test_single_edge_targets_always_hit(self):
        g = Graph.path(3)
        assert find_bad_coloring(g, [Graph.complete(2)] * 3) is None

    def test_edgeless_target_defeats_everything(self):
        g = Graph.path(3)  # vertices 0 and 2 are a non-edge
        assert find_bad_coloring(g, [Graph.empty(2), Graph.complete(2)]) is None

    def test_budget(self):
        with pytest.raises(BudgetError):
            find_bad_coloring(Graph.complete(6), [Graph.complete(3)] * 2, budget=5)


def _search_with_nodes(g, targets, budget=None):
    """(outcome, nodes): the colours in sorted edge order, None, or the
    budget's partial count; nodes counts the calls of the search's nested
    ``backtrack`` under a profile hook, one per search node."""
    codes = {
        c for c in find_bad_coloring.__code__.co_consts
        if getattr(c, "co_name", None) == "backtrack"
    }
    assert codes
    nodes = 0

    def hook(frame, event, arg):
        nonlocal nodes
        if event == "call" and frame.f_code in codes:
            nodes += 1

    sys.setprofile(hook)
    try:
        found = find_bad_coloring(g, targets, budget)
        outcome = None if found is None else "".join(str(c) for _, c in sorted(found.assignment.items()))
    except BudgetError as exc:
        outcome = exc.partial
    finally:
        sys.setprofile(None)
    return outcome, nodes


class TestSearchPinned:
    """Outcomes and node counts of the arrows search, recorded from the
    watcher-list implementation it replaced: the edge order, the colour
    order and the pruning rule must all stay as they were.  Where every
    target is the same graph, colours open in order, which cut the nodes of
    K6/K3/2 from 987 to 494 and of the seeded "P3 P3" host from 9 to 5."""

    K3, K4 = Graph.complete(3), Graph.complete(4)

    def test_k6_arrows_the_triangle(self):
        assert _search_with_nodes(Graph.complete(6), [self.K3] * 2) == (None, 494)

    def test_k5_bad_colouring(self):
        assert _search_with_nodes(Graph.complete(5), [self.K3] * 2) == ("1122212211", 39)

    def test_k9_budget_stops_at_its_cap(self):
        got = _search_with_nodes(Graph.complete(9), [self.K3, self.K4], 20000)
        assert got == (20000, 20001)

    @pytest.mark.parametrize(
        "n, seed, targets, expected",
        [
            (6, 1, "P3 P3", (None, 5)),
            (7, 2, "P3 K3", ("212211122212", 44)),
            (8, 3, "C4 P3", ("1111111221111", 14)),
            (7, 4, "E1 E1", (None, 1)),
            (8, 5, "P3 P3 P3", ("1121123222221213113", 20)),
            (6, 6, "E0 K3", (None, 0)),  # an edgeless copy: no search at all
        ],
    )
    def test_seeded_hosts(self, n, seed, targets, expected):
        pattern = {
            "P3": Graph.path(3),
            "K3": self.K3,
            "C4": Graph.cycle(4),
            "E1": Graph.from_edges(3, [(0, 1)]),
            "E0": Graph.empty(3),
        }
        g = sample_gnhalf(n, seed)
        assert _search_with_nodes(g, [pattern[t] for t in targets.split()]) == expected


class TestArrows:
    def test_classical_triangle_values(self):
        assert arrows_induced(Graph.complete(6), Graph.complete(3), 2)
        assert not arrows_induced(Graph.complete(5), Graph.complete(3), 2)

    def test_single_edge_seven_colours(self):
        assert arrows_induced(Graph.complete(2), Graph.complete(2), 7)

    def test_one_copy_build_per_distinct_target(self, monkeypatch):
        builds = []
        original = ramsey.induced_copy_hypergraph
        monkeypatch.setattr(
            ramsey, "induced_copy_hypergraph", lambda *a: builds.append(a) or original(*a)
        )
        assert arrows_induced(Graph.complete(6), Graph.complete(3), 2)
        assert len(builds) == 1

    @pytest.mark.parametrize("seed", range(12))
    def test_search_returns_the_first_valid_colouring_in_its_order(self, seed):
        # reference: every colouring in the search's edge order, colours
        # ascending; opening colours in order must neither lose a colouring
        # nor return another one
        rng = SplitMix64(seed)
        g = sample_gnhalf(5, rng.next_u64())
        target = [Graph.path(3), Graph.complete(3), Graph.from_edges(3, [(0, 1)])][seed % 3]
        r = 3
        edges = sorted(g.edges(), key=lambda e: (-max(g.degree(e[0]), g.degree(e[1])), e))
        copies = [
            [e for e in itertools.combinations(bits_of(l_mask), 2) if e in edges]
            for l_mask in induced_copy_hypergraph(target, g, g).hyper.edges
        ]
        expected = None
        for combo in itertools.product(range(1, r + 1), repeat=len(edges)):
            colour = dict(zip(edges, combo))
            if not any(all(colour[e] == c for e in inner) for inner in copies for c in range(1, r + 1)):
                expected = colour
                break
        found = find_bad_coloring(g, [target] * r)
        assert (None if found is None else found.assignment) == expected


class TestEvents:
    def test_single_vertex_target_never_bad(self):
        # a one-vertex pattern is a copy at every vertex; zero overlap
        # measures certify it everywhere, so no colouring is bad
        g = Graph.path(4)
        report = check_event_bad(g, [Graph.empty(1), Graph.complete(3)], F(1, 4))
        assert report.holds is False

    def test_edgeless_host_fails_inductive_event(self):
        g = Graph.empty(5)
        report = check_event_inductive(g, [3, 3], F(1, 4), delta=0.3, seed=1)
        assert report.holds is False
        assert report.witness  # carries the failing tuple and window

    def test_inductive_event_notes_subset_sampling_once(self, monkeypatch):
        # several sampled pattern tuples each sample their subsets
        monkeypatch.setattr(ramsey, "PATTERN_BUDGET", 6)
        report = check_event_inductive(
            Graph.cycle(5), [2, 2], F(1, 4), delta=0.3, budget_subsets=4, seed=3,
        )
        assert report.exhaustive is False
        assert report.notes.count("subset space sampled beyond the budget") == 1

    def test_inductive_event_samples_its_pattern_tuples(self, monkeypatch):
        # [2, 2] has 5 pattern tuples below t = 4; a budget of 2 samples them
        full = check_event_inductive(Graph.cycle(5), [2, 2], F(1, 4), delta=0.3, seed=3)
        assert full.exhaustive is True
        monkeypatch.setattr(ramsey, "PATTERN_BUDGET", 2)
        sampled = check_event_inductive(Graph.cycle(5), [2, 2], F(1, 4), delta=0.3, seed=3)
        assert sampled.exhaustive is False
        note = "pattern tuples sampled beyond the budget"
        assert note not in full.notes
        assert sampled.notes.count(note) == 1

    @pytest.mark.parametrize(
        "sizes", [[2, 2], [1, 2], [2, 3], [3, 3], [1, 1, 2], [4, 2], [3, 1, 2]]
    )
    def test_inductive_pattern_order_is_grouped_by_total_size(self, sizes, monkeypatch):
        # reference: one pass over the product, each tuple filed under its
        # total size, the groups joined in increasing size
        pool = {si: ramsey._graphs_up_to(si) for si in set(sizes)}
        by_size = {t: [] for t in range(len(sizes), sum(sizes))}
        for combo in itertools.product(*(pool[si] for si in sizes)):
            by_size.get(sum(f.n for f in combo), []).append(combo)
        expected = [combo for group in by_size.values() for combo in group]

        swept = []

        def record(report, g, windows, p, budget, rng):
            for _, patterns, _ in windows:
                if not swept or swept[-1] is not patterns:
                    swept.append(patterns)

        monkeypatch.setattr(ramsey, "PATTERN_BUDGET", len(expected))
        monkeypatch.setattr(ramsey, "_sweep", record)
        check_event_inductive(Graph.empty(2), sizes, F(1, 4), delta=0.3)
        assert swept == expected

    @pytest.mark.parametrize("kind", ["Bprime", "E"])
    def test_subset_space_capped_before_it_is_listed(self, kind):
        # 2^24 vertex sets on 24 vertices: the count is checked before any
        # set is listed
        g, targets = Graph.complete(24), [Graph.complete(2)] * 2
        start = time.perf_counter()
        with pytest.raises(BudgetError, match="vertex sets, above the cap"):
            if kind == "Bprime":
                check_event_bad_prime(g, targets, F(1, 4), 0.3)
            else:
                check_event_inductive(g, [2, 2], F(1, 4), delta=0.3)
        assert time.perf_counter() - start < 1.0

    def test_inductive_event_lists_each_floor_once(self, monkeypatch):
        calls = []
        original = ramsey._large_subsets
        monkeypatch.setattr(
            ramsey, "_large_subsets", lambda *a: calls.append(a) or original(*a)
        )
        check_event_inductive(Graph.empty(5), [2, 2], F(1, 4), delta=0.3)
        assert len(calls) == len(set(calls)) >= 1

    def test_inductive_pattern_space_capped_before_it_is_built(self):
        # an 8-vertex target spans 2^28 labelled graphs on its own; the
        # cap (2^20 tuples) is checked before any pattern is built
        start = time.perf_counter()
        with pytest.raises(BudgetError, match="pattern tuples"):
            check_event_inductive(Graph.complete(4), [8, 2], F(1, 4), delta=0.3)
        assert time.perf_counter() - start < 1.0

    def test_bad_event_on_pentagon(self):
        # the pentagon two-colouring avoiding mono triangles also defeats
        # the distribution threshold: there are no triangles at all
        g = Graph.complete(5)
        report = check_event_bad(g, [Graph.complete(3)] * 2, F(1, 5))
        assert report.holds is True
        assert report.exhaustive

    def test_sampling_beyond_budget_drops_exhaustive_flag(self):
        g = Graph.complete(5)  # 2^10 colourings exceed a budget of 64
        report = check_event_bad(
            g, [Graph.complete(3)] * 2, F(1, 5), budget_colorings=64, seed=5
        )
        assert report.exhaustive is False
        assert any("sampled" in note for note in report.notes)
        # sampling is seeded: same seed, same verdict
        again = check_event_bad(
            g, [Graph.complete(3)] * 2, F(1, 5), budget_colorings=64, seed=5
        )
        assert report.holds == again.holds

    @pytest.mark.parametrize("budget", [1, 2, 3])
    def test_subset_budget_sweeps_every_set_it_allows(self, budget, monkeypatch):
        # K5 has 16 sets of at least ceil(0.3^(2/3) 5) = 3 vertices: a budget
        # b sweeps floor(b/2) of them in order and samples the other b - floor(b/2)
        counts = []
        sweep = ramsey._sweep

        def counted(report, g, windows, p, budget, rng):
            windows = list(windows)
            counts.append(len(windows))
            return sweep(report, g, windows, p, budget, rng)

        monkeypatch.setattr(ramsey, "_sweep", counted)
        report = check_event_bad_prime(
            Graph.complete(5), [Graph.complete(3)] * 2, F(1, 5), 0.3,
            budget_subsets=budget, seed=1,
        )
        assert counts == [budget]
        assert report.holds is True  # at b = 1 too: the one sampled set has a bad colouring
        assert report.exhaustive is False

    def test_events_take_rational_p_only(self):
        g, targets = Graph.complete(4), [Graph.complete(3)] * 2
        with pytest.raises(InputError, match="p must be an exact rational"):
            check_event_bad(g, targets, 0.25)
        with pytest.raises(InputError, match="p must be an exact rational"):
            check_event_bad_prime(g, targets, 0.25, 0.3)
        with pytest.raises(InputError, match="p must be an exact rational"):
            check_event_inductive(g, [2, 2], 0.25, 0.3)

    def test_implication_bad_to_bad_prime(self):
        rng = SplitMix64(99)
        p, delta = F(1, 5), 0.3
        targets = [Graph.complete(3), Graph.path(3)]
        for seed in range(6):
            g = sample_gnhalf(5, rng.next_u64())
            b = check_event_bad(g, targets, p)
            if b.holds:
                bp = check_event_bad_prime(g, targets, p, delta)
                assert bp.holds is True


def undecided_verdicts(monkeypatch):
    """Make every Janson query ramsey puts undecided; returns the list of
    the contexts it was asked with."""
    contexts = []

    def verdict(h, p, r, context=""):
        contexts.append(context)
        raise UndecidedError(f"Janson query undecided: {context}")

    monkeypatch.setattr(ramsey, "require_verdict", verdict)
    return contexts


class TestUndecidedQueries:
    @pytest.mark.parametrize(
        "event, name",
        [
            (lambda: check_event_bad(Graph.complete(5), [Graph.complete(3)] * 2, F(1, 5)), "B"),
            (
                lambda: check_event_bad_prime(
                    Graph.complete(5), [Graph.complete(3)] * 2, F(1, 5), 0.3
                ),
                "Bprime",
            ),
            (lambda: check_event_inductive(Graph.cycle(5), [2, 2], F(1, 4), 0.3), "E"),
        ],
    )
    def test_events_report_indeterminate(self, event, name, monkeypatch):
        contexts = undecided_verdicts(monkeypatch)
        report = event()
        assert report.name == name
        assert report.holds is None
        assert report.witness == {}
        assert contexts == [f"event {name}"]
        indeterminate = [note for note in report.notes if note.startswith("indeterminate: ")]
        assert indeterminate == [f"indeterminate: Janson query undecided: event {name}"]

    @pytest.mark.parametrize("answer", [True, False, None])
    def test_one_copy_build_per_tried_colour(self, monkeypatch, answer):
        # the sweep builds copy hypergraphs through ramsey's own name, one
        # right before each query it asks: True (every colour YES) tries
        # colour 1 of all 2^10 colourings of K5, False (every colour NO)
        # both colours of the first; None asks the real ladder
        log = []
        build = ramsey.induced_copy_hypergraph
        ask = ramsey.require_verdict

        def counted_build(f, g_prime, g):
            log.append("build")
            return build(f, g_prime, g)

        def counted_ask(h, p, r, context=""):
            log.append("ask")
            return ask(h, p, r, context) if answer is None else answer

        monkeypatch.setattr(ramsey, "induced_copy_hypergraph", counted_build)
        monkeypatch.setattr(ramsey, "require_verdict", counted_ask)

        def event():
            report = check_event_bad(Graph.complete(5), [Graph.complete(3)] * 2, F(1, 5))
            return report.holds, report.witness, report.exhaustive, report.notes

        outcome = event()
        tried = {True: 2**10, False: 2, None: len(log) // 2}[answer]
        assert log == ["build", "ask"] * tried
        if answer is None:
            monkeypatch.undo()
            assert outcome == event()
        else:
            assert outcome[0] is not answer

    def test_cli_event_exits_4(self, monkeypatch, capsys):
        undecided_verdicts(monkeypatch)
        code = dispatch(["ramsey", "event", "--kind", "B", "--G", "K5", "--H", "K3,K3"])
        out = capsys.readouterr().out
        assert code == 4
        assert '"holds": null' in out

    def test_omega_experiment_skips_indeterminate_queries(self, monkeypatch):
        contexts = undecided_verdicts(monkeypatch)
        report = extension_experiment(
            Graph.path(3), m=6, r=2, trials=10, seed=8,
            kind="omega", p=F(1, 5), r_prime=F(1, 100),
        )
        assert contexts and set(contexts) == {"omega event"}
        assert report.successes == 0
        assert report.notes == [
            "bound vacuous at desk scale",
            f"{len(contexts)} indeterminate Janson queries skipped",
        ]


class TestMaximalTuple:
    def test_edgeless_no_growth(self):
        g = Graph.empty(6)
        coloring = Coloring(2, {})
        out = find_maximal_tuple(
            g, (1 << 6) - 1, coloring, [Graph.complete(3)] * 2, F(1, 4), 0.34
        )
        assert out.gains == (0, 0)
        assert bin(out.u_mask).count("1") == math.ceil(0.34 * 6)
        assert out.verified_floor and out.verified_ceiling

    def test_dense_instance_grows_and_verifies(self):
        g = Graph.complete(6)
        edges = g.edges()
        coloring = Coloring(2, {e: 1 + (i % 2) for i, e in enumerate(edges)})
        out = find_maximal_tuple(
            g, (1 << 6) - 1, coloring, [Graph.complete(2)] * 2, F(1, 3), 0.34
        )
        assert out.verified_floor
        assert out.verified_ceiling
        assert sum(out.gains) == bin(out.u_mask).count("1") - math.ceil(0.34 * 6)

    def test_one_copy_build_per_colour(self, monkeypatch):
        builds = []
        original = ramsey.induced_copy_hypergraph
        monkeypatch.setattr(
            ramsey, "induced_copy_hypergraph", lambda *a: builds.append(a) or original(*a)
        )
        g = Graph.complete(6)
        coloring = Coloring(2, {e: 1 + (i % 2) for i, e in enumerate(g.edges())})
        out = find_maximal_tuple(
            g, (1 << 6) - 1, coloring, [Graph.complete(2), Graph.path(3)], F(1), 0.5
        )
        assert out.gains == (3, 0)  # growth went through several windows
        assert len(builds) <= 2

    def test_positive_gains_on_sampled_hosts(self):
        # banking the first raise needs min-lambda below 1 inside a small
        # window, so p must be generous; with p = 1 two same-colour edges
        # suffice and dense hosts must grow
        rng = SplitMix64(2718)
        grew = 0
        for _ in range(4):
            g = sample_gnhalf(6, rng.next_u64())
            if g.edge_count() < 6:
                continue
            edges = g.edges()
            coloring = Coloring(2, {e: 1 + (i % 2) for i, e in enumerate(edges)})
            out = find_maximal_tuple(
                g, (1 << 6) - 1, coloring, [Graph.complete(2), Graph.path(3)],
                F(1), 0.5,
            )
            assert out.verified_floor and out.verified_ceiling
            grew += sum(out.gains) > 0
        assert grew > 0


class TestChernoff:
    def test_unit_u_half_probability(self):
        report = chernoff_experiment(64, 1, 3, trials=200, seed=5)
        assert "1/2" in report.notes[0]

    def test_u4_exact_per_vertex(self):
        report = chernoff_experiment(64, 4, 10, trials=100, seed=5)
        assert "11/16" in report.notes[0]

    def test_large_u_never_fails(self):
        report = chernoff_experiment(64, 32, 64, trials=300, seed=9)
        assert report.successes == 0
        assert report.theory_bound < 1e-4

    def test_frequency_tracks_exact_reference(self):
        report = chernoff_experiment(64, 4, 8, trials=4000, seed=11)
        exact = float(report.exact_reference)
        sigma = math.sqrt(exact * (1 - exact) / report.trials)
        assert abs(report.frequency - exact) <= 4 * sigma + 1e-12

    def test_rows_are_reproducible(self):
        a = chernoff_experiment(64, 4, 8, trials=50, seed=3)
        b = chernoff_experiment(64, 4, 8, trials=50, seed=3)
        assert a.rows == b.rows

    def test_size_contract(self):
        with pytest.raises(InputError):
            chernoff_experiment(64, 8, 4, trials=1, seed=0)


class TestExtensionExperiment:
    def test_k2_gamma_impossible(self):
        # any kept edge at the fresh vertex is already an induced copy
        report = extension_experiment(Graph.complete(2), m=8, r=2, trials=30, seed=4)
        assert report.successes == 0

    def test_zero_trials_empty_report(self):
        report = extension_experiment(Graph.path(3), m=8, r=2, trials=0, seed=4)
        assert report.rows == [] and report.trials == 0

    def test_frozen_frequency_fixture(self):
        # regression pin for the documented generator and search order
        report = extension_experiment(Graph.path(3), m=8, r=2, trials=40, seed=12)
        again = extension_experiment(Graph.path(3), m=8, r=2, trials=40, seed=12)
        assert report.rows == again.rows
        assert report.successes == sum(o for _, _, o, _ in report.rows)

    def test_size_caps(self):
        with pytest.raises(InputError):
            extension_experiment(Graph.path(3), m=17, r=2, trials=1, seed=0)
        with pytest.raises(InputError):
            extension_experiment(Graph.path(3), m=8, r=4, trials=1, seed=0)

    def test_omega_variant_runs(self):
        report = extension_experiment(
            Graph.path(3), m=6, r=2, trials=10, seed=8,
            kind="omega", p=F(1, 5), r_prime=F(1, 100),
        )
        assert report.trials == 10
        assert 0.0 <= report.frequency <= 1.0

    def test_omega_requires_parameters(self):
        with pytest.raises(InputError):
            extension_experiment(Graph.path(3), m=6, r=2, trials=1, seed=0, kind="omega")


class TestSimultaneousArrows:
    def test_observation_runs_and_reproduces(self):
        from paper import simultaneous_arrows_observation

        a = simultaneous_arrows_observation(8, 2, trials=4, seed=21)
        b = simultaneous_arrows_observation(8, 2, trials=4, seed=21)
        assert a.rows == b.rows
        assert 0.0 <= a.frequency <= 1.0
        # the per-trial statistic counts how many patterns arrowed
        assert all(0 <= stat <= 4 for _, _, _, stat in a.rows)
