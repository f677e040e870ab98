"""Seeded job streams for the four workloads, and the outcome checks.

A workload is an endless stream of rounds; a round is a fixed mix of job
kinds whose inputs are drawn from ``prng.SplitMix64`` seeded by ``--seed``.
Fixing the mix per round keeps every run's share of each job kind the same,
so the rate and the latency percentiles compare across seeds.  Each job is
one library call (one query, event, search, pipeline or invocation); its
outcome is kept and checked after the timed region by code that does not
share the library's algorithm.

The library is called through its module attributes (``janson.is_janson``),
never through names imported from it, so the tracer's wrappers see every
call.  Import this module only after the BLAS thread variables are set.
"""

from __future__ import annotations

import itertools
import subprocess
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

from jcontainers import containers, copies, errors, fileio, hypercore, janson, measures, prng, ramsey

P_RATIONAL = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 16))
P_FLOAT = (0.5, 0.25, 0.1, 0.03)
SUBPROCESS_TIMEOUT_S = 60


@dataclass
class Job:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]  # None when the outcome is right
    outcome: object = None
    error: Optional[BaseException] = None
    # applied to the outcome as soon as the job returns, outside the timing
    # and the tracing, to keep what the check needs and no more (holding
    # large results would show in peak_rss_mb); the check sees the digest
    digest: Optional[Callable[[object], object]] = None
    midpoint: float = 0.0  # perf_counter time halfway through the run of the job


# ---------------------------------------------------------------------------
# input helpers (benchmark-side, independent of the library's algorithms)


def pair_coef(c: int, p):
    """Sum over |L| >= 2 inside a size-c set of p^-|L|."""
    inv = 1 / p
    return (1 + inv) ** c - 1 - c * inv


def overlap(h, p) -> list:
    return [[pair_coef((a & b).bit_count(), p) for b in h.edges] for a in h.edges]


def random_hypergraph(rng, n: int, m: int, sizes):
    edges: set[int] = set()
    while len(edges) < m:
        edges.add(rng.sample_mask(n, sizes[rng.below(len(sizes))]))
    return hypercore.Hypergraph(n, tuple(sorted(edges)))


def permutation(rng, n: int) -> list[int]:
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.below(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def relabel(g, perm):
    return hypercore.Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def relabel_hypergraph(h, perm):
    edges = (hypercore.mask_of(perm[v] for v in hypercore.bits_of(e)) for e in h.edges)
    return hypercore.Hypergraph(h.n, tuple(sorted(edges)))


def graph_with_edges(rng, n: int, count: int):
    pairs = list(itertools.combinations(range(n), 2))
    chosen = rng.sample_mask(len(pairs), count)
    return hypercore.Graph.from_edges(
        n, [pairs[i] for i in range(len(pairs)) if chosen >> i & 1]
    )


def near_threshold_r(h, p, spread: float, exact: bool):
    """R = spread / lambda_p(uniform).  1 / lambda_p(uniform) is a lower
    bound on R*, and spread, in [1/2, 2^1.5], puts R on both sides of R*,
    so the stream mixes YES and NO verdicts."""
    m = len(h.edges)
    q = overlap(h, float(p))
    r0 = m * m / sum(map(sum, q))
    r = r0 * spread
    if exact:
        return Fraction(r).limit_denominator(1 << 20)
    return r


# ---------------------------------------------------------------------------
# solve: one is_janson query per job


def _check_exact(h, p, r, verdict, minimiser) -> Optional[str]:
    value = verdict.dual_bound
    if verdict.r_star != 1 / value:
        return "r_star is not 1 / minimum"
    xs = list(minimiser.weights)
    if any(w < 0 for w in xs) or sum(xs) != 1:
        return "minimiser is not on the simplex"
    q = overlap(h, Fraction(p))
    qx = [sum(qi[j] * xs[j] for j in range(len(xs))) for qi in q]
    if sum(a * b for a, b in zip(xs, qx)) != value:
        return "minimiser does not attain the reported minimum"
    if any(2 * g < 2 * value for g in qx):
        return "KKT condition (2Qx)_j >= 2 value fails"
    want = "YES" if r * value < 1 else "NO"
    if verdict.answer != want:
        return f"exact verdict {verdict.answer}, minimum says {want}"
    if verdict.answer == "YES":
        lam = measures.lambda_p_subsets(verdict.witness, Fraction(p))
        if lam != value or not r * lam < 1:
            return "YES witness fails the subset recomputation"
    return None


def _own_lower_bound(h, p: float, weights) -> float:
    q = overlap(h, p)
    x = [float(w) for w in weights]
    grad = [2.0 * sum(qi[j] * x[j] for j in range(len(x))) for qi in q]
    value = 0.5 * sum(g * w for g, w in zip(grad, x))
    return value - max(sum(g * w for g, w in zip(grad, x)) - min(grad), 0.0)


def _check_float(h, p, r, verdict, minimiser) -> Optional[str]:
    rf, pf = float(r), float(p)
    value = 1.0 / verdict.r_star
    if verdict.answer == "YES":
        lam = measures.lambda_p_subsets(verdict.witness, pf)
        if not rf * lam < 1.0:
            return "YES witness fails the subset recomputation"
    elif verdict.answer == "NO":
        lower = _own_lower_bound(h, pf, minimiser.weights)
        if rf * lower < 1.0 - 1e-9:
            return "NO verdict without a recomputed lower bound"
    elif abs(rf * value - 1.0) > 1e-6:
        return "UNDECIDED away from the boundary"
    return None


def _query_job(kind, h, p, r) -> Job:
    def run():
        return janson.is_janson(h, p, r)

    def digest(verdict):
        # a NO verdict carries no point; the memo hands back the minimiser
        # the verdict came from, before the next round clears it
        return verdict, janson.min_lambda(h, p, verdict.tol).witness

    def check(outcome):
        verdict, minimiser = outcome
        if verdict.exact:
            return _check_exact(h, p, r, verdict, minimiser)
        return _check_float(h, p, r, verdict, minimiser)

    return Job(kind, run, check, digest=digest)


def _boundary_job(rng, exact: bool) -> Job:
    """A criterion-2 closed form asked at exactly its threshold."""
    shape = rng.below(3)
    p = P_RATIONAL[rng.below(3)]
    if not exact:
        p = float(p)
    if shape == 0:  # one s-edge
        s = 2 + rng.below(3)
        edges = [(1 << s) - 1]
        n, r_star = s, 1 / pair_coef(s, p)
    elif shape == 1:  # k disjoint pairs
        k = 1 + rng.below(6 if exact else 10)
        edges = [3 << (2 * i) for i in range(k)]
        n, r_star = 2 * k, k / pair_coef(2, p)
    else:  # triangle
        edges = [0b011, 0b101, 0b110]
        n, r_star = 3, 3 * p * p
    h = hypercore.Hypergraph(n, tuple(edges))

    def run():
        return janson.is_janson(h, p, r_star)

    def check(verdict):
        if exact:
            if verdict.answer != "NO" or verdict.r_star != r_star:
                return "exact boundary must be NO at R*"
            return None
        if verdict.answer == "YES":
            return "floating boundary answered YES at R*"
        if abs(verdict.r_star - r_star) > 1e-6 * r_star:
            return "floating threshold off the closed form"
        return None

    return Job("boundary_exact" if exact else "boundary_float", run, check)


SOLVE_POOL_SEED = 60
FW_EDGES = (12, 18, 24, 30, 37, 44, 51, 58)
FLOAT_EDGES = (4, 10, 17, 24, 31, 39, 47, 56, 60)


def solve_pool() -> tuple[list, list, list]:
    """The slices' slots, a hypergraph, a p and an R factor each: exact slice
    3-uniform with m = 5, 6, 7, 8, 9, 9; Frank-Wolfe and float slices
    s-uniform (s = 2, 3, 4 in turn) with the edge counts above.  Solver cost
    swings with the shape by a factor of two at equal m, and with R by as
    much again; a round's median job lies where the cost rises steeply, so
    fresh shapes or R per round would move a run's result with the seed.
    The shapes and each slot's R factor (R over 1 / lambda_p(uniform),
    2^-1 to 2^1.5) are fixed, and each round relabels the vertices with the
    run's seed."""
    rng = prng.SplitMix64(SOLVE_POOL_SEED)
    exact = [
        (random_hypergraph(rng, 7 + rng.below(4), m, (3,)), P_RATIONAL[i % 4])
        for i, m in enumerate((5, 6, 7, 8, 9, 9))
    ]
    fw = [
        (random_hypergraph(rng, 12 + rng.below(5), m, (2 + i % 3,)), P_RATIONAL[i % 4])
        for i, m in enumerate(FW_EDGES)
    ]
    floating = [
        (random_hypergraph(rng, 12 + rng.below(5), m, (2 + i % 3,)), P_FLOAT[i % 4])
        for i, m in enumerate(FLOAT_EDGES)
    ]
    return tuple(
        [(shape, p, 2.0 ** (rng.float01() * 2.5 - 1.0)) for shape, p in slots]
        for slots in (exact, fw, floating)
    )


def solve_round(rng, pool) -> list[Job]:
    """Rational p with m <= 10 (the exact KKT path), rational p with
    m = 11..60 (the Frank-Wolfe path), float p (Frank-Wolfe under any
    exact-path change), then one closed form per arithmetic mode."""
    jobs = []
    for kind, slots, exact in zip(("exact", "fw_rational", "float"), pool, (True, True, False)):
        for shape, p, spread in slots:
            h = relabel_hypergraph(shape, permutation(rng, shape.n))
            jobs.append(_query_job(kind, h, p, near_threshold_r(h, p, spread, exact)))
    jobs.append(_boundary_job(rng, exact=True))
    jobs.append(_boundary_job(rng, exact=False))
    return jobs


# ---------------------------------------------------------------------------
# ramsey: colouring events and budgeted arrows searches


RAMSEY_POOL_SEED = 1010  # criterion 10's seed: fixes the host shapes
EVENT_P = Fraction(1, 5)
EVENT_DELTA = 2.0**-50
E_P = Fraction(1, 4)
E_DELTA = 0.3


def small_patterns():
    g = hypercore.Graph
    return [
        g.empty(1), g.complete(2), g.empty(2), g.complete(3), g.path(3),
        g.from_edges(3, [(0, 1)]), g.empty(3),
    ]


def ramsey_pool():
    """Host shapes: G(n, 1/2) draws for n = 5, 6, 7 with at most 10 edges
    (the criterion-10 filter), C5 and P6; and six 5-vertex hosts for event E.
    The shapes are fixed; each round relabels them with the run's seed."""
    g = hypercore.Graph
    rng = prng.SplitMix64(RAMSEY_POOL_SEED)
    hosts = []
    for n in (5, 6, 7):
        while True:
            host = ramsey.sample_gnhalf(n, rng.next_u64())
            if host.edge_count() <= 10:
                hosts.append(host)
                break
    hosts += [g.cycle(5), g.path(6)]
    e_hosts: list = []
    while len(e_hosts) < 6:
        host = ramsey.sample_gnhalf(5, rng.next_u64())
        if 4 <= host.edge_count() <= 6 and host not in e_hosts:
            e_hosts.append(host)
    return hosts, e_hosts


def ramsey_round(rng, pool) -> dict:
    hosts, e_hosts = pool
    return {
        "hosts": [relabel(h, permutation(rng, h.n)) for h in hosts],
        "e_hosts": [relabel(h, permutation(rng, h.n)) for h in e_hosts],
        "budgets": [15000 + rng.below(10001)],
        "seed": rng.next_u64() & 0xFFFF,
    }


def _bprime_job(g, targets) -> Job:
    def run():
        return ramsey.check_event_bad_prime(g, targets, EVENT_P, EVENT_DELTA)

    def check(report):
        return None if report.holds is True else "B holds but B' does not"

    return Job("event_Bprime", run, check)


def _event_e_job(g, seed: int) -> Job:
    def run():
        return ramsey.check_event_inductive(g, [2, 2], E_P, E_DELTA, seed=seed)

    return Job("event_E", run, lambda report: None if report.holds is not None else "E indeterminate")


def ramsey_jobs(round_inputs):
    """Jobs of one round; B' follows every B that holds (B => B')."""
    patterns = small_patterns()
    pairs = [(patterns[i], patterns[j]) for i in range(7) for j in range(i, 7)]
    for g in round_inputs["hosts"]:
        for h1, h2 in pairs:
            targets = [h1, h2]
            job = Job(
                "event_B",
                lambda g=g, t=targets: ramsey.check_event_bad(g, t, EVENT_P),
                lambda report: None if report.holds is not None else "B indeterminate",
            )
            yield job
            if job.error is None and job.outcome.holds:
                yield _bprime_job(g, targets)
    for g in round_inputs["e_hosts"]:
        yield _event_e_job(g, round_inputs["seed"])
    for budget in round_inputs["budgets"]:
        yield _arrows_job(budget)


def _arrows_job(budget: int) -> Job:
    g = hypercore.Graph

    def run():
        try:
            ramsey.find_bad_coloring(g.complete(9), [g.complete(3), g.complete(4)], budget)
        except errors.BudgetError as exc:
            return exc.partial
        return None

    def check(partial):
        return None if partial == budget else f"search ended at {partial}, budget {budget}"

    return Job("arrows", run, check)


# ---------------------------------------------------------------------------
# containers: zeta tables, the direct-summation fallback, both pipelines


HC_Q, HC_ALPHA = Fraction(1, 8), Fraction(1, 2)
HC_POOL_SEED = 606  # criterion 6's seed


def _independent_masks(h) -> list[int]:
    return [m for m in range(1 << h.n) if all(e & ~m for e in h.edges)]


def containers_pool() -> list:
    """hardcover_family shapes, n = 10, 12, 13, 14 with three random edges
    of size 2 or 3: the fingerprint count, and with it the cost, swings with
    the shape, so the shapes are fixed and each round relabels them."""
    rng = prng.SplitMix64(HC_POOL_SEED)
    return [random_hypergraph(rng, n, 3, (2, 3)) for n in (10, 12, 13, 14)]


def _hardcover_job(rng, shape) -> Job:
    h = relabel_hypergraph(shape, permutation(rng, shape.n))
    seed = rng.next_u64() & 0xFFFF

    def run():
        return containers.hardcover_family(h, HC_Q, HC_ALPHA, strict_samples=8, seed=seed)

    def digest(fam):
        return fam.violations, hash(tuple(sorted(fam.phi)))

    def check(outcome):
        violations, phi_hash = outcome
        if violations:
            return f"hardcover violations: {violations[:2]}"
        if phi_hash != hash(tuple(_independent_masks(h))):
            return "fingerprints do not cover every independent set"
        return None

    return Job("hardcover", run, check, digest=digest)


def _matching_host(rng, n: int):
    """Disjoint pairs on a random vertex order (one vertex left over when n
    is odd): the independent-set count is fixed by n, so job cost is too."""
    perm = permutation(rng, n)
    edges = tuple(sorted((1 << perm[2 * i]) | (1 << perm[2 * i + 1]) for i in range(n // 2)))
    return hypercore.Hypergraph(n, edges)


def matching_conditional_prob(h, l_mask: int, q: Fraction, t_mask: int) -> Fraction:
    """P(L in V_q | V_q independent in the link at T), by the product form
    over the components of a matching host."""
    covered = 0
    result = Fraction(1)
    for e in h.edges:
        covered |= e
        link = e & ~t_mask
        total = want = Fraction(0)
        for sub in (0, e & -e, e & (e - 1), e):
            if link & ~sub == 0:
                continue  # contains the link edge: not independent
            w = q ** sub.bit_count() * (1 - q) ** (2 - sub.bit_count())
            total += w
            if l_mask & e & ~sub == 0:
                want += w
        result *= want / total
    free = ((1 << h.n) - 1) & ~covered
    return result * q ** (l_mask & free).bit_count()


def _zeta_fallback_job(rng, kind: str, n: int) -> Job:
    h = _matching_host(rng, n)
    l_mask = rng.sample_mask(n, 1 + rng.below(3))
    t_mask = rng.sample_mask(n, 1)
    want = matching_conditional_prob(h, l_mask, HC_Q, t_mask)
    if kind == "in_cover":
        run = lambda: containers.in_cover(h, l_mask, t_mask, HC_Q, HC_ALPHA)
        expected = want <= ((1 - HC_ALPHA) * HC_Q) ** l_mask.bit_count()
    else:
        run = lambda: containers.conditional_prob(h, l_mask, HC_Q, t_mask)
        expected = want
    return Job(kind, run, lambda got: None if got == expected else f"{kind} mismatch")


def _pipeline_digest(fam):
    return fam.violations, fam.host.n, fam.certified_minimals, fam.containers


def _check_pipeline(outcome) -> Optional[str]:
    violations, n, minimals, emitted = outcome
    if violations:
        return f"pipeline violations: {violations[:2]}"
    for mask in range(1 << n):
        if any(mm & ~mask == 0 for mm in minimals):
            continue
        if not any(mask & ~x == 0 for x in emitted):
            return f"uncertified set {mask:b} outside every container"
    return None


def _non_janson_job(rng) -> Job:
    """Criterion-11 shape: n = 8..9, one to four random pairs."""
    n = 8 + rng.below(2)
    h = random_hypergraph(rng, n, 1 + rng.below(4), (2,))
    q = Fraction(1, 16)
    p = q / (1 << 12)
    run = lambda: containers.non_janson_containers(h, p, q, p * n / 64)
    return Job("non_janson_containers", run, _check_pipeline, digest=_pipeline_digest)


def _extension_job(rng, m: int, edge_count: int) -> Job:
    """Criterion-11 shape (F = P3, w = 1, G' empty) on a random host with a
    fixed edge count, which fixes the size of the two-layer hypergraph."""
    g = graph_with_edges(rng, m, edge_count)
    f = hypercore.Graph.path(3)
    empty = hypercore.Graph.empty(m)
    q = Fraction(1, 16)
    p = q / (1 << 14)

    def run():
        ext = copies.extension_hypergraph(f, 1, empty, g)
        base = copies.induced_copy_hypergraph(f, empty, g).hyper
        return containers.extension_containers(
            ext, base, ext.m, p, q, p * ext.hyper.n / 64, Fraction(0)
        )

    return Job("extension_containers", run, _check_pipeline, digest=_pipeline_digest)


def containers_round(rng, pool) -> list[Job]:
    jobs = [_hardcover_job(rng, shape) for shape in pool]
    jobs += [
        _zeta_fallback_job(rng, kind, n)
        for kind, n in (("in_cover", 17), ("conditional_prob", 19), ("conditional_prob", 21), ("in_cover", 22))
    ]
    jobs += [_non_janson_job(rng) for _ in range(3)]
    jobs += [_extension_job(rng, 5, 4), _extension_job(rng, 6, 8)]
    return jobs


# ---------------------------------------------------------------------------
# cli: fresh `python -m jcontainers.cli` processes


GOLDEN_HG = "hypergraph 4\nE 0 1\nE 2 3\n"
GOLDEN_CFG = "trials = 20\nusize = 4\nssize = 8\nn = 16\n"


CLI_POOL_SEED = 1212


def cli_inputs(rng, workdir: Path) -> list[tuple[str, list[str], bool]]:
    """Write the input files; return (name, argv, uses --out) per invocation.
    The shapes come from ``CLI_POOL_SEED``, since the cost of `copies`,
    `containers` and `ramsey event` swings with the shape; the run's seed
    relabels their vertices."""
    pool = prng.SplitMix64(CLI_POOL_SEED)

    def shuffled(g):
        return relabel(g, permutation(rng, g.n))

    target = random_hypergraph(pool, 8, 4, (3,))
    cover_edges = set()
    for e in target.edges:
        verts = hypercore.bits_of(e)
        cover_edges.add(hypercore.mask_of(verts[: 2 + pool.below(2)]))
    cover = hypercore.Hypergraph(8, tuple(sorted(cover_edges)))
    perm = permutation(rng, 8)  # the target and its cover share one labelling
    n = 8 + pool.below(2)
    pipeline = random_hypergraph(pool, n, 1 + pool.below(4), (2,))
    files = {
        "golden.hg": GOLDEN_HG,
        "golden.cfg": GOLDEN_CFG,
        "event.cfg": "p = 1/5\ndelta = 0.001\n",
        "copies.graph": fileio.write_graph(shuffled(ramsey.sample_gnhalf(7, pool.next_u64()))),
        "target.hg": fileio.write_hypergraph(relabel_hypergraph(target, perm)),
        "cover.hg": fileio.write_hypergraph(relabel_hypergraph(cover, perm)),
        "pipeline.hg": fileio.write_hypergraph(relabel_hypergraph(pipeline, permutation(rng, n))),
        "ext.graph": fileio.write_graph(shuffled(graph_with_edges(pool, 5, 4))),
        "event.graph": fileio.write_graph(shuffled(ramsey.sample_gnhalf(5, pool.next_u64()))),
    }
    for name, text in files.items():
        (workdir / name).write_text(text)

    def path(name):
        return str(workdir / name)

    p_nj = Fraction(1, 16) / (1 << 12)
    p_ext = Fraction(1, 16) / (1 << 14)
    frac = lambda x: f"{x.numerator}/{x.denominator}"
    return [
        ("janson", ["janson", "--hypergraph", path("golden.hg"), "--p", "1/2", "--R", "1/5"], False),
        ("hardcover", ["hardcover", "--hypergraph", path("golden.hg"), "--q", "1/8", "--alpha", "1/2"], False),
        ("ramsey-mc", ["ramsey", "mc", "--experiment", "chernoff", "--config", path("golden.cfg"), "--seed", "7"], False),
        ("copies", ["copies", "--F", "P3", "--Gprime", path("copies.graph"), "--G", path("copies.graph")], True),
        ("certify-cover", ["certify-cover", "--target", path("target.hg"), "--cover", path("cover.hg"), "--p", "1/2"], False),
        ("containers", ["containers", "--hypergraph", path("pipeline.hg"), "--p", frac(p_nj), "--q", "1/16", "--R", frac(p_nj * n / 64)], True),
        ("extend-containers", ["extend-containers", "--F", "P3", "--w", "1", "--Gprime", "E5", "--G", path("ext.graph"), "--p", frac(p_ext), "--q", "1/16", "--R", frac(p_ext * 10 / 64), "--Rprime", "0"], True),
        ("ramsey-arrows", ["ramsey", "arrows", "--G", "K6", "--H", "K3", "--r", "2"], False),
        ("ramsey-event", ["ramsey", "event", "--kind", "B", "--G", path("event.graph"), "--H", "K3,P3", "--config", path("event.cfg")], True),
    ]


def cli_jobs(invocations, workdir: Path, env: dict, launcher: list[str], first_stdout: dict):
    """One round of invocations; ``launcher`` is the command prefix."""
    for name, argv, uses_out in invocations:
        outdir = workdir / f"out-{name}"
        full = list(argv)
        if uses_out:
            full = ["--out", str(outdir)] + full

        def run(full=full):
            proc = subprocess.run(
                launcher + full, capture_output=True, env=env, timeout=SUBPROCESS_TIMEOUT_S
            )
            return proc.returncode, proc.stdout, proc.stderr

        def check(result, name=name, uses_out=uses_out, outdir=outdir):
            code, stdout, _ = result
            if code != 0:
                return f"{name} exited {code}"
            if not stdout:
                return f"{name} printed nothing"
            if first_stdout.setdefault(name, stdout) != stdout:
                return f"{name} stdout differs between runs"
            if uses_out and (outdir / "out.json").read_bytes() != stdout:
                return f"{name} run record out.json differs from stdout"
            return None

        yield Job(f"cli:{name}", run, check)
