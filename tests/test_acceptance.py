"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -s`` to see them)."""

import math
import subprocess
import sys
import time
from fractions import Fraction as F

from jcontainers.containers import (
    cover_certificate,
    extension_containers,
    hardcover_family,
    non_janson_containers,
)
from jcontainers.copies import extension_hypergraph, induced_copy_hypergraph
from jcontainers.hypercore import (
    Graph,
    Hypergraph,
    VertexMap,
    bits_of,
    mask_of,
    popcount,
    project,
)
from jcontainers.janson import janson_threshold
from jcontainers.measures import Measure, lambda_p, lambda_p_subsets
from jcontainers.prng import SplitMix64
from jcontainers.ramsey import (
    arrows_induced,
    check_event_bad,
    check_event_bad_prime,
    sample_gnhalf,
)

from paper import (
    bounded_degree_witness,
    degree,
    degree_square_sum,
    extend_by_vertex,
    mass,
    pullback,
)


def report(number, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    line = f"[{tag}] criterion {number}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def random_hypergraph(rng, n, max_edges, sizes):
    edges = set()
    for _ in range(max_edges):
        edges.add(rng.sample_mask(n, sizes[rng.below(len(sizes))]))
    return Hypergraph(n, tuple(sorted(edges)))


def random_float_measure(rng, h):
    return Measure(h, tuple(rng.float01() for _ in h.edges), exact=False)


def random_rational_measure(rng, h):
    return Measure(
        h, tuple(F(rng.below(12), 1 + rng.below(6)) for _ in h.edges), exact=True
    )


def test_criterion_01_lambda_algorithm_agreement():
    start = time.monotonic()
    rng = SplitMix64(101)
    worst = 0.0
    for _ in range(100):
        n = 4 + rng.below(9)  # 4..12
        h = random_hypergraph(rng, n, 1 + rng.below(6), (2, 3, 4))
        if not h.edges:
            continue
        m = random_float_measure(rng, h)
        p = [0.5, 0.125][rng.below(2)]
        a = lambda_p_subsets(m, p)
        b = lambda_p(m, p)
        if a or b:
            worst = max(worst, abs(a - b) / max(abs(a), abs(b)))
    elapsed = time.monotonic() - start
    report(
        1,
        "subset and pairwise overlap sums agree to 1e-12 on 100 random measures",
        worst <= 1e-12 and elapsed < 10,
        f"worst rel diff {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_closed_form_thresholds():
    start = time.monotonic()
    ok = True
    details = []
    for s in (2, 3, 4):
        for p in (0.5, 0.125):
            h = Hypergraph(s, (mask_of(range(s)),))
            got = janson_threshold(h, p)
            want = 1.0 / ((1 + 1 / p) ** s - 1 - s / p)
            if abs(got - want) > 1e-6 * want:
                ok = False
                details.append(f"single {s}-edge at p={p}")
    for k in range(1, 11):
        h = Hypergraph(
            2 * k, tuple(mask_of([2 * i, 2 * i + 1]) for i in range(k))
        )
        got = janson_threshold(h, 0.5)
        if abs(got - k / 4) > 1e-6 * (k / 4):
            ok = False
            details.append(f"{k} disjoint edges")
    tri = Hypergraph.from_vertex_lists(3, [[0, 1], [0, 2], [1, 2]])
    for p in (0.5, 0.125):
        got = janson_threshold(tri, p)
        if abs(got - 3 * p * p) > 1e-6 * 3 * p * p:
            ok = False
            details.append(f"triangle at p={p}")
    elapsed = time.monotonic() - start
    report(
        2,
        "solver thresholds match the closed forms to rel 1e-6",
        ok and elapsed < 30,
        "; ".join(details) or f"{elapsed:.1f}s",
    )


def test_criterion_03_monotonicity_suites():
    rng = SplitMix64(303)
    grid = [0.1, 0.25, 0.5, 0.9]
    violations = 0
    for _ in range(100):
        h = random_hypergraph(rng, 4 + rng.below(4), 1 + rng.below(4), (2, 3))
        if not h.edges:
            continue
        values = [janson_threshold(h, p) for p in grid]
        for a, b in zip(values, values[1:]):
            if a > b * (1 + 1e-9) + 1e-9:
                violations += 1
    for _ in range(100):
        n = 4 + rng.below(4)
        h = random_hypergraph(rng, n, 1 + rng.below(3), (2, 3))
        if not h.edges:
            continue
        extra = rng.sample_mask(n, 2)
        if extra in h.edges:
            continue
        bigger = Hypergraph(n, tuple(sorted(h.edges + (extra,))))
        before = janson_threshold(h, 0.5)
        after = janson_threshold(bigger, 0.5)
        if after < before * (1 - 1e-9) - 1e-9:
            violations += 1
    report(
        3,
        "threshold monotone in p and under edge addition on 200 instances",
        violations == 0,
        f"{violations} violations",
    )


def _random_edge_injective_map(rng, h):
    """A vertex map with |pi(E)| = |E| on every edge: either a permutation or
    a collapse of two vertices that never share an edge."""
    n = h.n
    if rng.bit():
        perm = list(range(n))
        for i in range(n - 1, 0, -1):
            j = rng.below(i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        return VertexMap(n, n, tuple(perm))
    for _ in range(30):
        u, v = rng.below(n), rng.below(n)
        if u == v:
            continue
        if all(not (e >> u & 1 and e >> v & 1) for e in h.edges):
            table = [x if x != v else u for x in range(n)]
            return VertexMap(n, n, tuple(table))
    return VertexMap(n, n, tuple(range(n)))


def test_criterion_04_pullback_suite():
    rng = SplitMix64(404)
    count = 0
    ok = True
    while count < 100:
        h = random_hypergraph(rng, 4 + rng.below(5), 1 + rng.below(5), (2, 3))
        if not h.edges:
            continue
        pi = _random_edge_injective_map(rng, h)
        if any(popcount(pi.apply_mask(e)) != popcount(e) for e in h.edges):
            continue
        theta = random_rational_measure(rng, project(h, pi))
        back = pullback(theta, h, pi)
        if mass(back) != mass(theta):
            ok = False
        if lambda_p(back, F(1, 2)) > lambda_p(theta, F(1, 2)):
            ok = False
        count += 1
    report(
        4,
        "pullback preserves mass exactly and never raises the overlap sum",
        ok,
        f"{count} instances",
    )


def test_criterion_05_extension_identity():
    # worked case first: a single pair at p = 1/2 gives 20 = 12 + 8
    h = Hypergraph.from_vertex_lists(2, [[0, 1]])
    m = Measure(h, (F(1),))
    worked = (
        lambda_p(extend_by_vertex(m, 2), F(1, 2)) == 20
        and 3 * lambda_p(m, F(1, 2)) == 12
        and 4 * degree_square_sum(m) == 8
    )
    rng = SplitMix64(505)
    ok = worked
    for _ in range(100):
        hh = random_hypergraph(rng, 3 + rng.below(5), 1 + rng.below(5), (2, 3))
        if not hh.edges:
            continue
        mm = random_rational_measure(rng, hh)
        p = [F(1, 2), F(1, 3), F(1, 8)][rng.below(3)]
        lhs = lambda_p(extend_by_vertex(mm, hh.n), p)
        rhs = (1 + 1 / p) * lambda_p(mm, p) + p**-2 * degree_square_sum(mm)
        if lhs != rhs:
            ok = False
    report(5, "vertex-extension overlap identity holds exactly", ok)


def test_criterion_06_hardcover_verification():
    start = time.monotonic()
    rng = SplitMix64(606)
    violations = 0
    strict_total = 0
    for i in range(50):
        n = 5 + rng.below(8)  # 5..12
        h = random_hypergraph(rng, n, 1 + rng.below(5), (2, 3))
        fam = hardcover_family(h, F(1, 8), F(1, 2), strict_samples=2, seed=i)
        violations += len(fam.violations)
        strict_total += fam.strict_checked
    elapsed = time.monotonic() - start
    report(
        6,
        "fingerprint/cover construction verifies exactly on 50 instances",
        violations == 0 and strict_total >= 100 and elapsed < 120,
        f"{strict_total} strict checks, {elapsed:.1f}s",
    )


def test_criterion_07_cover_certificates():
    rng = SplitMix64(707)
    ok = True
    count = 0
    while count < 50:
        n = 6 + rng.below(3)
        target = random_hypergraph(rng, n, 1 + rng.below(5), (2, 3, 4))
        if not target.edges:
            continue
        cover_edges = set()
        for e in target.edges:
            verts = bits_of(e)
            size = 2 + rng.below(max(1, len(verts) - 1))
            cover_edges.add(mask_of(verts[:size]))
        cover = Hypergraph(n, tuple(sorted(cover_edges)))
        cert = cover_certificate(target, cover, 0.5)
        r_star = janson_threshold(target, 0.5)
        if r_star > cert.weight * (1 + 1e-6):
            ok = False
        count += 1
    tri = Hypergraph.from_vertex_lists(3, [[0, 1], [0, 2], [1, 2]])
    cert = cover_certificate(tri, tri, 0.5)
    tight = abs(janson_threshold(tri, 0.5) - cert.weight) <= 1e-6 * cert.weight
    report(
        7,
        "p-weight certificates dominate the solver threshold on 50 pairs",
        ok and tight,
        "triangle bound tight",
    )


def test_criterion_08_bounded_degree_witnesses():
    checked = 0
    ok = True
    cases = []
    for k in (8, 9, 10):
        cases.append((2, k, 0.25))
        cases.append((2, k, 0.2))
    for k in (4, 5):
        cases.append((3, k, 0.25))
        cases.append((3, k, 0.2))
    for s, k, beta in cases:
        for r_scale in (0.8, 0.9):
            h = Hypergraph(
                s * k, tuple(mask_of(range(i * s, (i + 1) * s)) for i in range(k))
            )
            c_s = (1 + 2.0) ** s - 1 - 2 * s  # p = 1/2
            worst_edges = k - math.floor(beta * s * k)
            r = r_scale * worst_edges / c_s
            mu = bounded_degree_witness(h, 0.5, r, beta, seed=k)
            e = mass(mu)
            if abs(e - math.sqrt(r)) > 1e-9:
                ok = False
            if not lambda_p(mu, 0.5) < e * e / r:
                ok = False
            dsq = sum(float(degree(mu, 1 << v)) ** 2 for v in range(h.n))
            if dsq > 2 * s * s * e * e / (beta * h.n) + 1e-9:
                ok = False
            checked += 1
    report(
        8,
        "bounded-degree witnesses satisfy all three bounds",
        ok and checked == 20,
        f"{checked} instances",
    )


def test_criterion_09_ramsey_classics():
    start = time.monotonic()
    six = arrows_induced(Graph.complete(6), Graph.complete(3), 2)
    five = arrows_induced(Graph.complete(5), Graph.complete(3), 2)
    elapsed = time.monotonic() - start
    report(
        9,
        "exhaustive search reproduces the classical triangle values",
        six and not five and elapsed < 60,
        f"{elapsed:.1f}s",
    )


SMALL_PATTERNS = [
    Graph.empty(1),
    Graph.complete(2),
    Graph.empty(2),
    Graph.complete(3),
    Graph.path(3),
    Graph.from_edges(3, [(0, 1)]),
    Graph.empty(3),
]


def test_criterion_10_bad_event_implication():
    # p is scaled for decidable verdicts; delta keeps its defining value
    # r^-50 (it only enters thresholds, so nothing blows up), which is the
    # regime the subset-variant implication is actually claimed in: with an
    # oversized delta the implication genuinely fails on, e.g., edgeless
    # patterns over a triangle-free host
    p, delta = F(1, 5), 2.0**-50
    rng = SplitMix64(1010)
    counterexamples = 0
    evaluated = 0
    held = 0
    hosts = [sample_gnhalf(n, rng.next_u64()) for n in (5, 5, 6, 6, 7)]
    hosts = [g for g in hosts if g.edge_count() <= 10]
    hosts.append(Graph.cycle(5))
    hosts.append(Graph.path(6))
    pairs = [
        (SMALL_PATTERNS[i], SMALL_PATTERNS[j])
        for i in range(len(SMALL_PATTERNS))
        for j in range(i, len(SMALL_PATTERNS))
    ]
    for g in hosts:
        for h1, h2 in pairs:
            b = check_event_bad(g, [h1, h2], p)
            evaluated += 1
            if b.holds:
                held += 1
                bp = check_event_bad_prime(g, [h1, h2], p, delta)
                if bp.holds is not True:
                    counterexamples += 1
    report(
        10,
        "the bad event implies its subset variant on every exhaustive instance",
        counterexamples == 0 and evaluated > 0,
        f"{evaluated} instances, {held} with the event",
    )


def test_criterion_11_pipeline_verification():
    rng = SplitMix64(1111)
    violations = 0
    incomplete = 0
    runs = 0
    for _ in range(20):
        n = 8 + rng.below(2)
        h = random_hypergraph(rng, n, 1 + rng.below(4), (2,))
        if not h.edges:
            h = Hypergraph(n, (mask_of([0, 1]),))
        q = F(1, 16)
        p = q / (1 << 12)
        fam = non_janson_containers(h, p, q, p * n / 64)
        violations += len(fam.violations)
        incomplete += len(fam.incomplete)
        runs += 1
    for seed in range(20):
        srng = SplitMix64(9000 + seed)
        m = 5 + srng.below(2)
        edges = [
            (u, v) for u in range(m) for v in range(u + 1, m) if srng.bit()
        ]
        gt = Graph.from_edges(m, edges)
        gt_prime = Graph.empty(m)
        f = Graph.path(3)
        ext = extension_hypergraph(f, 1, gt_prime, gt)
        base = induced_copy_hypergraph(f, gt_prime, gt).hyper
        n2 = ext.hyper.n
        q = F(1, 16)
        p = q / (1 << 14)
        fam = extension_containers(ext, base, ext.m, p, q, p * n2 / 64, F(0))
        violations += len(fam.violations)
        incomplete += len(fam.incomplete)
        runs += 1
    report(
        11,
        "both container pipelines verify with zero theorem violations",
        violations == 0 and runs == 40,
        f"{incomplete} oracle-incomplete reports",
    )


def test_criterion_12_cli_determinism(tmp_path):
    hg = tmp_path / "h.hg"
    hg.write_text("hypergraph 4\nE 0 1\nE 2 3\n")
    cfg = tmp_path / "c.cfg"
    cfg.write_text("trials = 20\nusize = 4\nssize = 8\nn = 16\n")
    golden = [
        ["janson", "--hypergraph", str(hg), "--p", "1/2", "--R", "1/5"],
        ["hardcover", "--hypergraph", str(hg), "--q", "1/8", "--alpha", "1/2"],
        [
            "ramsey", "mc", "--experiment", "chernoff",
            "--config", str(cfg), "--seed", "7",
        ],
    ]
    ok = True
    for argv in golden:
        outputs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "jcontainers.cli", *argv],
                capture_output=True,
                check=False,
            )
            outputs.append((proc.returncode, proc.stdout))
        if outputs[0] != outputs[1] or not outputs[0][1]:
            ok = False
    report(12, "golden CLI invocations are byte-identical across reruns", ok)
