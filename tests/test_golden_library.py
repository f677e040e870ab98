"""Golden library results: a fixed, seeded corpus run in process, pinned by
one sha256 per family.

Each family is a list of records, one line each, hashed in order.  Answers
(verdicts, thresholds, bounds, reports, containers, copy sets) and
witnesses (weights, colourings, isomorphisms) are hashed apart, so that a
change allowed to move witnesses on degenerate faces re-records only the
witness digest.  Arrows pins outcomes only: the search's node counts and
the colouring it returns belong to ``TestSearchPinned``.

The digests were recorded before the overlap pass and the fingerprint rule
were each reduced to one implementation and before require_verdict gained
its diagonal bound; any change to a result shows up here."""

import hashlib
import itertools
from fractions import Fraction as F

import pytest

from jcontainers import janson
from jcontainers.containers import (
    extension_containers,
    hardcover_family,
    non_janson_containers,
    uniform_container_oracle,
)
from jcontainers.copies import extension_hypergraph, induced_copy_hypergraph
from jcontainers.errors import BudgetError, UndecidedError
from jcontainers.hypercore import Graph, Hypergraph, mask_of
from jcontainers.prng import SplitMix64
from jcontainers.ramsey import (
    check_event_bad,
    check_event_bad_prime,
    check_event_inductive,
    find_bad_coloring,
    sample_gnhalf,
)

from paper import fingerprint


def _hypergraph(rng, n, m, sizes):
    edges = set()
    while len(edges) < m:
        edges.add(rng.sample_mask(n, sizes[rng.below(len(sizes))]))
    return Hypergraph(n, tuple(sorted(edges)))


def _graph(rng, n):
    """A seeded graph on n vertices, each pair joined with probability 1/2."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph.from_edges(n, [e for e in pairs if rng.below(4) < 2])


def janson_family():
    answers, witnesses = [], []
    rng = SplitMix64(181)
    exact_ps = [F(1, 2), F(1, 3), F(2, 3), F(1, 5), F(1)]
    float_ps = [0.5, 0.3, 0.8]
    for k in range(28):
        # exact solves take m <= 7 to stay fast; the last four are rational
        # queries past KKT_EDGE_CAP, which Frank-Wolfe answers
        exact = k % 2 == 0 or k >= 24
        n = 4 + rng.below(4)
        m = 11 + rng.below(6) if k >= 24 else 1 + rng.below(7 if exact else 10)
        m = min(m, 2 ** n - n - 1)
        h = _hypergraph(rng, n, m, (2, 2, 3, 4))
        p = exact_ps[rng.below(5)] if exact else float_ps[rng.below(3)]
        janson.clear_cache()
        r_star = janson.janson_threshold(h, p)
        eps = F(1, 10**6) if exact else 1e-6
        rs = [r_star, r_star * (1 - eps), r_star * (1 + eps), r_star / 2, r_star * 2]
        janson.clear_cache()
        required = []
        for r in rs:  # first, so that require_verdict runs on a cold memo
            try:
                required.append(janson.require_verdict(h, p, r))
            except UndecidedError:
                required.append("UNDECIDED")
        for r, req in zip(rs, required):
            v = janson.is_janson(h, p, r)
            answers.append((k, h.edges, p, r, v.answer, v.r_star, v.dual_bound, v.exact, req))
            witnesses.append((k, r, v.witness.weights if v.witness else None))
    return answers, witnesses


EVENT_RUNS = [
    # (kind, host n, host seed, targets or sizes, p, delta, colourings, subsets, seed)
    ("B", 5, 1, ("K2", "E2"), F(1), None, 1 << 20, None, 0),
    ("B", 6, 2, ("K3", "K3"), F(1, 2), None, 1 << 20, None, 0),
    ("B", 7, 3, ("P3", "K2"), F(1, 5), None, 6, None, 5),
    ("Bprime", 5, 4, ("K3", "K3"), F(1, 5), 0.3, 1 << 20, 1 << 16, 0),
    ("Bprime", 6, 5, ("K2", "K2"), F(1, 5), 0.3, 2, 4, 4),
    ("Bprime", 20, 6, ("K2", "E2"), F(1, 5), 2.0**-50, 2, 6, 9),
    ("Bprime", 5, 1, ("P3", "K2"), F(1, 2), 0.9, 1 << 20, 1 << 16, 0),
    ("Bprime", 7, 2, ("K2", "K2"), F(1), 0.9, 8, 5, 6),
    ("E", 5, 7, (2, 2), F(1, 4), 0.3, 1 << 14, 1 << 12, 0),
    ("E", 6, 8, (1, 2), F(1, 4), 0.3, 2, 3, 3),
    ("E", 18, 9, (1, 2), F(1, 4), 0.3, 2, 4, 11),
    ("E", 5, 10, (2, 3), F(1, 5), 0.3, 1 << 14, 1 << 12, 0),
    ("E", 7, 11, (2, 3), F(1, 2), 0.3, 16, 6, 2),
]

PATTERNS = {
    "K2": Graph.complete(2),
    "E2": Graph.empty(2),
    "K3": Graph.complete(3),
    "P3": Graph.path(3),
}


def event_family():
    answers, witnesses = [], []
    for kind, n, seed, shape, p, delta, colourings, subsets, run_seed in EVENT_RUNS:
        janson.clear_cache()
        g = sample_gnhalf(n, seed)
        if kind == "B":
            rep = check_event_bad(g, [PATTERNS[t] for t in shape], p, colourings, run_seed)
        elif kind == "Bprime":
            targets = [PATTERNS[t] for t in shape]
            rep = check_event_bad_prime(g, targets, p, delta, colourings, subsets, run_seed)
        else:
            rep = check_event_inductive(g, list(shape), p, delta, colourings, subsets, run_seed)
        answers.append((kind, n, seed, rep.name, rep.holds, rep.exhaustive, rep.notes))
        witnesses.append((kind, n, seed, sorted(rep.witness.items())))
    return answers, witnesses


def container_family():
    answers = []
    rng = SplitMix64(404)
    params = [(F(1, 8), F(1, 2)), (F(1, 4), F(1, 3)), (F(2, 5), F(2, 5))]
    for k in range(12):
        n = 4 + rng.below(6)
        h = _hypergraph(rng, n, rng.below(3 * n), (1, 2, 2, 3) if k % 4 == 3 else (2, 3))
        q, alpha = params[k % 3]
        fam = hardcover_family(h, q, alpha, paper_literal=k % 2 == 0, strict_samples=10, seed=k)
        answers.append(("hardcover", k, fam.fingerprints, sorted(fam.phi.items()),
                        sorted(fam.covers.items()), fam.violations, fam.strict_checked))
        answers.append([fingerprint(h, i, q, alpha) for i in sorted(fam.phi)[::5]])
    for n, s in ((6, 2), (7, 3), (8, 2), (9, 4)):
        combos = [mask_of(c) for c in itertools.combinations(range(n), s)]
        for h in (Hypergraph(n, tuple(combos)), Hypergraph(n, tuple(combos[::3]))):
            oracle = uniform_container_oracle(h, F(1, (1 << 11) * s * s))
            answers.append(("oracle", n, s, sorted(oracle.phi.items()),
                            sorted(oracle.psi.items()), oracle.incomplete))
    for k in range(5):
        n = 5 + rng.below(4)
        h = _hypergraph(rng, n, 1 + rng.below(n), (2,))
        p = F(1, 65536)
        fam = non_janson_containers(h, p, F(1, 16), p * n / 64 * (1 + k))
        answers.append(("pipeline", k, fam.containers, fam.certified_minimals,
                        fam.violations, fam.incomplete, fam.size_bound_ok,
                        sorted(fam.params.items())))
    for k, (gn, g_seed) in enumerate(((5, 1), (5, 2), (6, 3))):
        g = sample_gnhalf(gn, g_seed)
        f = Graph.path(3)
        ext = extension_hypergraph(f, 1, Graph.empty(gn), g)
        base = induced_copy_hypergraph(f, Graph.empty(gn), g).hyper
        p = F(1, 1 << 24)
        fam = extension_containers(ext, base, ext.m, p, F(1, 16), 10 * p, 0, strict=False)
        answers.append(("extension", k, fam.containers, fam.certified_minimals,
                        fam.violations, fam.incomplete, fam.size_bound_ok,
                        sorted(fam.shrunk.items())))
    return answers, []


def arrows_family():
    answers = []
    cases = [
        (Graph.complete(5), ["K3", "K3"]),
        (Graph.complete(6), ["K3", "K3"]),
        (Graph.cycle(5), ["K2", "K2"]),
        (Graph.complete(4), ["P3", "K2"]),
        (Graph.complete(5), ["E2", "K3"]),
    ]
    rng = SplitMix64(77)
    for _ in range(8):
        cases.append((_graph(rng, 5 + rng.below(3)), ["K2", "K3", "P3"][rng.below(3):][:2]))
    for g, names in cases:
        try:
            outcome = find_bad_coloring(g, [PATTERNS[t] for t in names], 20000) is None
        except BudgetError:
            outcome = "BUDGET"
        answers.append((g.adj, names, outcome))
    return answers, []


def copy_family():
    answers, witnesses = [], []
    rng = SplitMix64(315)
    patterns = [Graph.empty(1), Graph.complete(2), Graph.empty(2), Graph.complete(3),
                Graph.path(3), Graph.empty(3), Graph.cycle(4), Graph.path(4)]
    for k in range(30):
        n = 3 + rng.below(6)
        g = _graph(rng, n)
        keep = [e for e in g.edges() if rng.below(3)]
        g_prime = Graph.from_edges(n, keep)
        f = patterns[rng.below(len(patterns))]
        for host in (g, g_prime):
            copies = induced_copy_hypergraph(f, host, g)
            answers.append((k, host.adj, g.adj, f.adj, copies.hyper.edges))
            witnesses.append((k, sorted(copies.witnesses.items())))
    return answers, witnesses


FAMILIES = {
    "janson": janson_family,
    "events": event_family,
    "containers": container_family,
    "arrows": arrows_family,
    "copies": copy_family,
}

GOLDEN = {
    ("janson", "answers"):
        "066bbfa6fb74103c4740c65cbfa423b6d803ab8915c4924fa3d8447d2fe2cc08",
    ("janson", "witnesses"):
        "24e517597df66ee348ef660be5812551587627846ed7cb2f35920459dd9081e4",
    ("events", "answers"):
        "c51a5385dac9751a2ef7150c62058896e598f83e1eee02605e11ad557d22678e",
    ("events", "witnesses"):
        "6084c6eb21d4d802da14266d24156822b3e0095411db00049673c25b6c8bd92c",
    ("containers", "answers"):
        "2f0ef35d23a18011b8f480f83223a25782da5c3ad870be48844c1934d49ecc41",
    ("arrows", "answers"):
        "1b766b250094326d08ad79c0b10081e5d4058d9628462c436cc75bb110e7acdb",
    ("copies", "answers"):
        "781b4f84b4e5164006ffdabcba647bc6a96e717196cd5e7c9b7dacb63dccbb69",
    ("copies", "witnesses"):
        "d42be3e05754a2a9c668ff88c4e036bb0a53aeec8500c6e7fd6fd36377df75b6",
}


def digest(records) -> str:
    text = "".join(f"{r!r}\n" for r in records)
    return hashlib.sha256(text.encode()).hexdigest()


def family_digests(name):
    answers, witnesses = FAMILIES[name]()
    out = {(name, "answers"): digest(answers)}
    if witnesses:
        out[(name, "witnesses")] = digest(witnesses)
    return out


@pytest.mark.parametrize("name", FAMILIES)
def test_golden_library(name):
    got = family_digests(name)
    assert got == {key: d for key, d in GOLDEN.items() if key[0] == name}
