"""Self-test of the benchmark's tracer and timing arithmetic.

    python3 perfbench/selftest.py

Checks the self-time arithmetic on synthetic span trees, that the speed
factor of a job reads the kernel samples nearest it, that the search
node count comes from the program's own backtracking, that the run record's
undecided ratio reads digested verdicts, and that the call
counts the wrappers record equal a count taken independently with
``sys.setprofile`` over a small mixed workload, which fails if a call made
through an imported name escapes the wrappers.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads as wl  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_and_overlapping_children():
    t = spans.Tracer(clock=FakeClock())
    root = t.open(t.name_id("root"), start=0.0)
    a = t.open(t.name_id("a"), start=1.0)
    aa = t.open(t.name_id("aa"), start=2.0)
    t.close(aa, end=3.0)
    t.close(a, end=4.0)
    # siblings that overlap each other and stick out of the parent: only
    # the union of their parts inside the parent counts
    b = t.open(t.name_id("b"), start=3.5)
    t.close(b, end=6.0)
    c = t.open(t.name_id("c"), start=5.0)
    t.close(c, end=12.0)
    t.close(root, end=10.0)
    got = t.self_times()
    assert got[root] == 10.0 - 9.0, got  # children cover [1, 10]
    assert got[a] == 2.0 and got[aa] == 1.0, got
    assert got[b] == 2.5 and got[c] == 7.0, got
    summary = t.summary()["spans"]
    assert summary["root"] == [1, 1.0] and summary["a"] == [1, 2.0]


def test_generator_span_counts_only_its_busy_time():
    clock = FakeClock()
    t = spans.Tracer(clock=clock)
    parent = t.open(t.name_id("parent"), start=0.0)

    def items():
        for i in range(3):
            clock.now += 1.0  # inside the generator
            yield i

    wrapped = t._wrap("gen", items, None, None, None)
    t.start()
    for _ in wrapped():
        clock.now += 10.0  # consumer work between resumptions
    t.close(parent, end=clock.now)
    gen = t.names.index("gen")
    idx = list(t.name_of).index(gen)
    got = t.self_times()
    assert t.busy[idx] == 3.0 and got[idx] == 3.0, got
    assert got[parent] == clock.now - 3.0, got
    assert t.parents[idx] == parent and t.stack == [-1]


def _profile_counts(codes, fn):
    """Calls of the given code objects, counted by the profiler hook.  A
    generator frame reports a call at every resumption, so frames are
    counted once each."""
    counts = {name: 0 for name in codes.values()}
    seen = []

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            if any(frame is f for f in seen):
                return
            seen.append(frame)
            counts[codes[frame.f_code]] += 1

    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return counts


def _small_mix():
    rng = wl.prng.SplitMix64(7)
    solve = wl.solve_round(rng, wl.solve_pool())  # exact m = 5, 6; two FW, two float, two boundary
    jobs = [solve[i] for i in (0, 1, 6, 7, 14, 15, 22, 23)] + [
        wl._hardcover_job(rng, wl.containers_pool()[0]),
        wl._zeta_fallback_job(rng, "in_cover", 17),
        wl._non_janson_job(rng),
        wl._extension_job(rng, 5, 4),
    ]
    for job in jobs:
        job.run()
    g = wl.hypercore.Graph.cycle(5)
    pats = wl.small_patterns()
    wl.ramsey.check_event_bad(g, [pats[3], pats[4]], wl.EVENT_P)
    wl.ramsey.check_event_bad_prime(g, [pats[2], pats[2]], wl.EVENT_P, wl.EVENT_DELTA)
    wl.ramsey.check_event_inductive(g, [1, 2], wl.E_P, wl.E_DELTA)
    wl._arrows_job(500).run()
    wl.janson.is_janson(wl.hypercore.Hypergraph(4, (3, 12)), Fraction(1, 2), Fraction(1, 5))


def test_wrapped_counts_equal_profiler_counts():
    import jcontainers.cli  # noqa: F401

    codes = {}
    for mod_name, func_name, *_ in spans.TRACED:
        func = getattr(getattr(wl, mod_name), func_name)
        codes[func.__code__] = f"{mod_name}.{func_name}"
    wl.janson.clear_cache()
    expected = _profile_counts(codes, _small_mix)
    wl.janson.clear_cache()
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.start()
        _small_mix()
        tracer.stop()
    finally:
        tracer.uninstall()
    got = {name: calls for name, (calls, _) in tracer.summary()["spans"].items()}
    for name, count in expected.items():
        assert got.get(name, 0) == count, (name, got.get(name, 0), count)
    for name in ("janson.require_verdict", "hypercore.independent_sets", "containers.conditional_prob"):
        assert expected[name] > 0, name  # reached only through imported names
    assert tracer.counters["ramsey.janson_queries"] > 0
    assert tracer.stack == [-1]
    assert all(e >= s for s, e in zip(tracer.starts, tracer.ends))
    # uninstall restores every lookup site
    for mod_name, func_name, *_ in spans.TRACED:
        assert getattr(getattr(wl, mod_name), func_name).__code__ in codes


def test_search_nodes_count_the_programs_own_nodes():
    import jcontainers.cli  # noqa: F401

    g = wl.hypercore.Graph
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.start()
        wl._arrows_job(500).run()  # stopped by its budget
        tracer.stop()
        tracer.count_search_nodes()
        budgeted = tracer.counters["ramsey.search_nodes"]
        tracer.start()
        assert wl.ramsey.arrows_induced(g.complete(6), g.complete(3), 2)  # runs to the end
        tracer.stop()
        tracer.count_search_nodes()
    finally:
        tracer.uninstall()
    # the node past the budget is entered, then raises
    assert budgeted == 501, budgeted
    completed = tracer.counters["ramsey.search_nodes"] - budgeted
    assert completed > 1 and tracer.searches == [], completed


def test_undecided_ratio_reads_digested_verdicts():
    import run

    class Verdict:
        def __init__(self, answer):
            self.answer = answer

    def job(outcome):
        return wl.Job("float", None, None, outcome=outcome)

    jobs = [job((Verdict("UNDECIDED"), None)), job((Verdict("YES"), None)), job(Verdict("NO")), job(3)]
    assert run.undecided_ratio(jobs) == 1 / 3


def test_speed_factor_reads_the_nearest_kernel_samples():
    import speed

    sampler = speed.SpeedSampler(clock=FakeClock())
    w = speed.WINDOW
    sampler.times = [float(t) for t in range(3 * w)]
    # the host is twice as slow in the middle third
    sampler.costs = [0.002] * w + [0.004] * w + [0.002] * w
    fast, slow = speed.REFERENCE_KERNEL_S / 0.002, speed.REFERENCE_KERNEL_S / 0.004
    assert sampler.factor(-5.0) == fast
    assert sampler.factor(1.5 * w) == slow
    assert sampler.factor(3 * w + 5.0) == fast
    # a 40 ms job in the slow third and a 20 ms one in the fast third
    # read the same at reference speed
    assert 0.040 * sampler.factor(1.5 * w) == 0.020 * sampler.factor(2.0)


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
