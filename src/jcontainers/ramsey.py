"""Desk-scale experimental harness: random hosts, arrows tests, the
colouring events, and Monte-Carlo replications.

Everything here is exhaustively checkable or explicitly budgeted.  The
headline constants (C = 300, delta = r^-50, p = 2^-25 k^-2 r^-4) make every
probabilistic bound vacuous at this scale, so reports always carry both the
empirical frequency and the (possibly > 1) theoretical bound, and parameter
overrides are recorded as scaled rather than silently applied.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from fractions import Fraction

from .copies import induced_copy_hypergraph
from .errors import BudgetError, InputError, UndecidedError
from .hypercore import Coloring, Graph, Hypergraph, bits_of, popcount
from .janson import require_verdict
from .measures import as_fraction
from .prng import SplitMix64

PATTERN_SPACE_CAP = 1 << 20  # pattern tuples event E may enumerate before sampling
PATTERN_BUDGET = 200  # pattern tuples event E sweeps; beyond it they are sampled
SUBSET_SPACE_CAP = 1 << 20  # vertex sets event B' or E may list before sampling
BUDGET_COLORINGS = 1 << 20  # colourings an event sweeps per window before sampling
BUDGET_SUBSETS = 1 << 16  # vertex sets event B' or E sweeps before sampling


# every config-file key: (key, the type its value is read as, default);
# None stands for "derived" on delta and p, and for "unset" on seed
CONFIG_FIELDS = (
    ("r", int, 2),
    ("k", int, 3),
    ("n", int, 64),
    ("m", int, 8),
    ("seed", int, None),
    ("trials", int, 100),
    ("budget_colorings", int, BUDGET_COLORINGS),
    ("budget_subsets", int, BUDGET_SUBSETS),
    ("delta", float, None),
    ("p", Fraction, None),
    ("usize", int, 8),
    ("ssize", int, 32),
    ("F", str, "P3"),
    ("kind", str, "gamma"),
    ("colorings", int, 8),
    ("Rprime", Fraction, Fraction(0)),
)


class ExperimentConfig:
    """Every key of ``CONFIG_FIELDS``, given by keyword or at its default,
    plus the derived constants; overriding a derived constant sets
    ``scaled`` so reports can flag non-canonical parameters.  An unset
    ``seed`` is None.

    Where an event's vertex sets outnumber ``budget_subsets`` = b, it
    sweeps b of them: the first floor(b/2) in order and b - floor(b/2)
    seeded draws from the rest."""

    __slots__ = (*(key for key, _, _ in CONFIG_FIELDS), "scaled")

    def __init__(self, **settings):
        for key, _, default in CONFIG_FIELDS:
            setattr(self, key, settings.pop(key, default))
        if settings:
            raise TypeError(f"unknown config keys: {', '.join(sorted(settings))}")
        if self.r < 1 or self.k < 1:
            raise InputError("r and k must be at least 1")
        self.scaled = self.delta is not None or self.p is not None
        if self.delta is None:
            self.delta = float(self.r) ** -50
        if self.p is None:
            self.p = Fraction(1, (1 << 25) * self.k**2 * self.r**4)
        self.p = Fraction(self.p)


def sample_gnhalf(n: int, seed: int) -> Graph:
    """Erdos-Renyi host at density one half: each pair appears
    independently with probability 1/2, one splitmix64 word per pair in
    lexicographic pair order, low bit decides."""
    if n > 64:
        raise InputError("sampler capped at 64 vertices")
    rng = SplitMix64(seed)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.bit():
                edges.append((u, v))
    return Graph.from_edges(n, edges)


# ---------------------------------------------------------------------------
# Arrows search


def find_bad_coloring(
    g: Graph, targets: Sequence[Graph], budget: int | None = None
) -> Coloring | None:
    """A colouring with no colour-i induced copy of the i-th target, or None
    when exhaustive search proves every colouring has one.

    Backtracks over edge slots sorted by maximum endpoint degree (earliest
    pruning).  Each candidate copy is the mask of its inner edge slots, filed
    under its colour and its highest slot; it fails the colouring when that
    slot is coloured and the colour wears every slot of the mask.  Copies
    with no inner edges (edgeless targets that appear in the host) defeat
    every colouring outright.
    """
    r = len(targets)
    if r < 1:
        raise InputError("at least one target colour is required")
    built = {h: induced_copy_hypergraph(h, g, g).hyper.edges for h in dict.fromkeys(targets)}
    copies = [built[h] for h in targets]  # one build per distinct target
    edges = sorted(
        g.edges(), key=lambda e: (-max(g.degree(e[0]), g.degree(e[1])), e)
    )
    slot = {e: i for i, e in enumerate(edges)}
    m = len(edges)
    # closing[c][i]: inner-slot masks of the colour-c copies whose last slot is i
    closing = [[[] for _ in range(m)] for _ in range(r)]
    for c, l_masks in enumerate(copies):
        for l_mask in l_masks:
            pairs = itertools.combinations(bits_of(l_mask), 2)
            inner = sum(1 << slot[e] for e in pairs if e in slot)
            if not inner:
                return None  # vacuously monochromatic in its colour
            closing[c][inner.bit_length() - 1].append(inner)

    worn = [0] * r  # per colour, the mask of slots wearing it
    explored = 0
    # With one target for every colour, colours are interchangeable, so the
    # search opens a colour only once the one before it is worn; the first
    # valid colouring in search order already uses its colours in that
    # order.  steps[k] lists, for a slot with colours 0 .. k - 1 open, each
    # colour and the open count after it.
    steps = [[(c, k if c + 1 < k else min(k + 1, r)) for c in range(k)] for k in range(r + 1)]

    def backtrack(i: int, opened: int) -> bool:
        nonlocal explored
        explored += 1
        if budget is not None and explored > budget:
            raise BudgetError("colouring search budget exceeded", partial=explored - 1)
        if i == m:
            return True
        bit = 1 << i
        for c, after in steps[opened]:
            worn[c] |= bit
            if all(inner & ~worn[c] for inner in closing[c][i]) and backtrack(i + 1, after):
                return True
            worn[c] ^= bit
        return False

    if backtrack(0, 1 if len(built) == 1 else r):
        colour_of = {i: c + 1 for c in range(r) for i in bits_of(worn[c])}
        return Coloring(r, {e: colour_of[i] for i, e in enumerate(edges)})
    return None


def arrows_induced(g: Graph, h: Graph, r: int, budget: int | None = None) -> bool:
    """True when every r-colouring of the host has a monochromatic induced
    copy of the target."""
    return find_bad_coloring(g, [h] * r, budget) is None


# ---------------------------------------------------------------------------
# Colouring events


class EventReport:
    __slots__ = ("name", "holds", "witness", "exhaustive", "notes")

    def __init__(self, name: str, holds: bool | None):
        self.name = name
        self.holds = holds  # None when a needed verdict was indeterminate
        self.witness = {}
        self.exhaustive = True
        self.notes = []


def _colorings(g: Graph, r: int, budget: int, rng: SplitMix64):
    """(sampled, colourings): all colourings when they fit the budget, a
    seeded uniform sample of ``budget`` colourings otherwise.  The keys are
    g's edges (u, v), u < v, and the colours lie in 1..r, so each colouring
    is built unchecked."""
    edges = g.edges()
    if r ** len(edges) <= budget:
        combos = itertools.product(range(1, r + 1), repeat=len(edges))
        return False, (Coloring._unchecked(r, dict(zip(edges, combo))) for combo in combos)
    return True, (
        Coloring._unchecked(r, {e: 1 + rng.below(r) for e in edges}) for _ in range(budget)
    )


def _sample_subsets(subsets: list, budget: int, rng: SplitMix64, report: EventReport) -> list:
    """The subsets when they fit the budget b; beyond it, the first
    floor(b/2) subsets in order and b - floor(b/2) seeded draws from the
    rest, so b sets in all (the report drops its exhaustive flag)."""
    if len(subsets) <= budget:
        return subsets
    report.exhaustive = False
    note = "subset space sampled beyond the budget"
    if note not in report.notes:
        report.notes.append(note)
    half = budget // 2
    pool = subsets[half:]
    return subsets[:half] + [pool[rng.below(len(pool))] for _ in range(budget - half)]


def _large_subsets(n: int, floor: int, event: str) -> list:
    """The vertex sets of [0, n) with at least ``floor`` vertices, in
    increasing mask order.  Their number is counted first: above
    ``SUBSET_SPACE_CAP`` that is a BudgetError, and no set is listed."""
    space = sum(math.comb(n, k) for k in range(max(floor, 0), n + 1))
    if space > SUBSET_SPACE_CAP:
        raise BudgetError(
            f"event {event} spans {space} vertex sets, above the cap {SUBSET_SPACE_CAP}"
        )
    return [m for m in range(1 << n) if popcount(m) >= floor]


def _copies_inside(target: Graph, colour_graph: Graph, g: Graph, mask: int) -> Hypergraph:
    """The induced copies of the target in the colour graph that lie inside
    ``mask``; a full mask keeps the copy hypergraph as built.  A
    subsequence of a valid edge tuple is valid, so it is not re-checked."""
    hyper = induced_copy_hypergraph(target, colour_graph, g).hyper
    if mask == (1 << hyper.n) - 1:
        return hyper
    return Hypergraph._unchecked(hyper.n, tuple(e for e in hyper.edges if e & ~mask == 0))


def _sweep(report: EventReport, g: Graph, windows, p, budget: int, rng: SplitMix64):
    """The colouring sweep of every event: the first window (mask, targets,
    r_bar) and colouring of G[mask] under which no colour's copy hypergraph
    inside the mask has a (p, r_bar) witness, as (mask, targets, colouring),
    or None.

    An undecided Janson query ends the sweep with ``report.holds = None``.
    A sampled colouring space drops the report's exhaustive flag; its note
    goes last."""
    context = f"event {report.name}"
    sampled = False
    try:
        for mask, targets, r_bar in windows:
            gm = g.restrict(mask)
            sampled_here, colorings = _colorings(gm, len(targets), budget, rng)
            sampled |= sampled_here
            for coloring in colorings:
                if not any(
                    require_verdict(
                        _copies_inside(target, coloring.color_subgraph(gm, i), g, mask),
                        p, r_bar, context=context,
                    )
                    for i, target in enumerate(targets, start=1)
                ):
                    return mask, targets, coloring
    except UndecidedError as exc:
        report.holds = None
        report.notes.append(f"indeterminate: {exc}")
    finally:
        if sampled:
            report.exhaustive = False
            report.notes.append("colouring space sampled beyond the budget")
    return None


def check_event_bad(
    g: Graph,
    targets: Sequence[Graph],
    p,
    budget_colorings: int = BUDGET_COLORINGS,
    seed: int = 0,
) -> EventReport:
    """Does some colouring leave every colour's copy hypergraph without a
    (p, p v(G)) witness?  Beyond the budget the colouring space is sampled
    and the report drops its exhaustive flag."""
    p = as_fraction(p, "p")
    r_bar = p * g.n
    report = EventReport("B", holds=False)
    window = ((1 << g.n) - 1, targets, r_bar)
    found = _sweep(report, g, [window], p, budget_colorings, SplitMix64(seed))
    if found is not None:
        report.holds = True
        report.witness = {"coloring": dict(found[2].assignment)}
    return report


def check_event_bad_prime(
    g: Graph,
    targets: Sequence[Graph],
    p,
    delta: float,
    budget_colorings: int = BUDGET_COLORINGS,
    budget_subsets: int = BUDGET_SUBSETS,
    seed: int = 0,
) -> EventReport:
    """Does some vertex set S of proportional size carry a colouring of
    G[S] leaving every colour's copy hypergraph inside S without a witness
    at the reduced threshold 2^-9 r^-1 delta p v(G)?

    Beyond the subset budget b, the floor(b/2) smallest sets (where
    witnesses are cheap and common) are swept and b - floor(b/2) more are
    sampled."""
    p = as_fraction(p, "p")
    r = len(targets)
    n = g.n
    floor = max(0, math.ceil(delta ** (2 / 3) * n))
    r_bar = p * Fraction(delta) * n / (512 * r)
    report = EventReport("Bprime", holds=False)
    rng = SplitMix64(seed)
    # small sets first: their copy hypergraphs are empty or tiny, so the
    # common case resolves before the sweep touches anything expensive
    subsets = sorted(_large_subsets(n, floor, "Bprime"), key=popcount)
    subsets = _sample_subsets(subsets, budget_subsets, rng, report)
    windows = ((s_mask, targets, r_bar) for s_mask in subsets)
    found = _sweep(report, g, windows, p, budget_colorings, rng)
    if found is not None:
        s_mask, _, coloring = found
        report.holds = True
        report.witness = {"S": bits_of(s_mask), "coloring": dict(coloring.assignment)}
    return report


def _graphs_up_to(v_max: int):
    """All labelled graphs on 1..v_max vertices (tiny v_max only)."""
    out = []
    for nv in range(1, v_max + 1):
        pairs = list(itertools.combinations(range(nv), 2))
        for bits in range(1 << len(pairs)):
            out.append(
                Graph.from_edges(nv, [e for i, e in enumerate(pairs) if bits >> i & 1])
            )
    return out


def check_event_inductive(
    g: Graph,
    sizes: Sequence[int],
    p,
    delta: float,
    budget_colorings: int = BUDGET_COLORINGS,
    budget_subsets: int = BUDGET_SUBSETS,
    seed: int = 0,
) -> EventReport:
    """The inductive hypothesis event: for every smaller total pattern size,
    every pattern tuple, every large W and every colouring of G[W], some
    colour's copy hypergraph inside W has a (p, p |W|) witness.

    The pattern tuples are combinatorially huge even here, so beyond
    ``PATTERN_BUDGET`` they are sampled and the report drops its exhaustive
    flag and notes why.  The space they are drawn from, every tuple of
    labelled graphs with 1..s_i vertices, is enumerated in full first; above
    ``PATTERN_SPACE_CAP`` tuples that is a BudgetError.  So is a list of
    large W above ``SUBSET_SPACE_CAP`` sets; each size floor is listed once."""
    p = as_fraction(p, "p")
    r = len(sizes)
    t = sum(sizes)
    n = g.n
    space = math.prod(sum(1 << math.comb(v, 2) for v in range(1, si + 1)) for si in sizes)
    if space > PATTERN_SPACE_CAP:
        raise BudgetError(
            f"event E spans {space} pattern tuples, above the cap {PATTERN_SPACE_CAP}"
        )
    rng = SplitMix64(seed)
    report = EventReport("E", holds=True)
    pattern_pool = {si: _graphs_up_to(si) for si in sorted(set(sizes))}

    # the tuples of every smaller total size, in t' order, product order within
    tuples = sorted(
        (
            (total, combo)
            for combo in itertools.product(*(pattern_pool[si] for si in sizes))
            if (total := sum(f.n for f in combo)) < t
        ),
        key=lambda tc: tc[0],
    )
    if len(tuples) > PATTERN_BUDGET:
        report.exhaustive = False
        report.notes.append("pattern tuples sampled beyond the budget")
        idx = sorted(rng.below(len(tuples)) for _ in range(PATTERN_BUDGET))
        tuples = [tuples[i] for i in idx]
    subsets = {}  # floor -> the large W, listed when the sweep first needs them

    def windows():
        # lazily, so that each tuple samples its subsets when the sweep
        # reaches it
        for t_prime, patterns in tuples:
            floor = math.ceil((delta / (8 * r)) ** (t - t_prime) * n)
            if floor not in subsets:
                subsets[floor] = _large_subsets(n, floor, "E")
            for w_mask in _sample_subsets(subsets[floor], budget_subsets, rng, report):
                yield w_mask, patterns, p * popcount(w_mask)

    found = _sweep(report, g, windows(), p, budget_colorings, rng)
    if found is not None:
        w_mask, patterns, coloring = found
        report.holds = False
        report.witness = {
            "t_prime": sum(f.n for f in patterns),
            "patterns": [f.edges() for f in patterns],
            "W": bits_of(w_mask),
            "coloring": dict(coloring.assignment),
        }
    return report


# ---------------------------------------------------------------------------
# Monte-Carlo experiments


class FrequencyReport:
    __slots__ = (
        "name", "trials", "successes", "frequency", "exact_reference", "theory_bound", "rows",
        "notes",
    )

    def __init__(
        self,
        name: str,
        trials: int,
        successes: int,
        frequency: float,
        exact_reference: Fraction | None,
        theory_bound: float,
        rows: list,
        notes: list,
    ):
        self.name = name
        self.trials = trials
        self.successes = successes
        self.frequency = frequency
        self.exact_reference = exact_reference
        self.theory_bound = theory_bound
        self.rows = rows  # (trial, seed, outcome, statistic)
        self.notes = notes


def _binomial_tail_gt(n: int, threshold: Fraction) -> Fraction:
    """P(Bin(n, 1/2) > threshold), exact."""
    num = sum(math.comb(n, k) for k in range(n + 1) if k > threshold)
    return Fraction(num, 1 << n)


def chernoff_experiment(
    n: int, u_size: int, s_size: int, trials: int, seed: int
) -> FrequencyReport:
    """Frequency of the rare event that too few outside vertices see more
    than a quarter of U, against the exact binomial references.  Only the
    edges between S minus U and U matter, so the ambient size n just bounds
    the set sizes."""
    if not 0 < u_size < s_size <= n <= 64:
        raise InputError("need 0 < |U| < |S| <= n <= 64")
    outside = s_size - u_size
    per_vertex = _binomial_tail_gt(u_size, Fraction(u_size, 4))
    cut = Fraction(s_size, 4)
    exact_event = Fraction(0)
    for j in range(outside + 1):
        if j <= cut:
            exact_event += (
                math.comb(outside, j)
                * per_vertex.numerator**j
                * (per_vertex.denominator - per_vertex.numerator) ** (outside - j)
            ) / Fraction(per_vertex.denominator**outside)
    bound = math.exp(-(2.0**-6) * u_size * s_size)
    rng = SplitMix64(seed)
    successes = 0
    rows = []
    for t in range(trials):
        s_prime = 0
        for _ in range(outside):
            deg = sum(rng.bit() for _ in range(u_size))
            if deg > u_size / 4:
                s_prime += 1
        hit = s_prime <= s_size / 4
        successes += hit
        rows.append((t, seed, int(hit), s_prime))
    return FrequencyReport(
        "chernoff",
        trials,
        successes,
        successes / trials if trials else 0.0,
        exact_event,
        bound,
        rows,
        notes=[f"per-vertex P(d > |U|/4) = {per_vertex}"],
    )


def extension_experiment(
    f: Graph,
    m: int,
    r: int,
    trials: int,
    seed: int,
    kind: str = "gamma",
    p=None,
    r_prime=None,
    colorings_per_trial: int = 8,
) -> FrequencyReport:
    """Frequency that some colour subgraph realises the extension-failure
    event at a fresh vertex, over random hosts.

    kind "gamma": the subgraph keeps degree >= m/8 at the fresh vertex yet
    extends no copy at all.  kind "omega": degree >= m/(4r) and the copy
    hypergraph misses (p, R' + 1).  The candidate subgraphs are the colour
    classes of sampled colourings (exhaustive subgraph search is out of
    reach); the report notes that the full-scale bound is vacuous here."""
    if not 1 <= m <= 16:
        raise InputError(f"host size must lie in [1, 16], got {m}")
    if r > 3:
        raise InputError("colour count capped at 3")
    if kind not in ("gamma", "omega"):
        raise InputError("kind must be 'gamma' or 'omega'")
    if kind == "omega" and (p is None or r_prime is None):
        raise InputError("the omega variant needs p and R'")
    rng = SplitMix64(seed)
    successes = 0
    rows = []
    indeterminate = 0
    for t in range(trials):
        host = sample_gnhalf(m + 1, rng.next_u64())
        v = m
        edges = host.edges()
        hit = False
        for _ in range(colorings_per_trial):
            colours = [1 + rng.below(r) for _ in edges]
            coloring = Coloring(r, dict(zip(edges, colours)))
            for colour in range(1, r + 1):
                gp = coloring.color_subgraph(host, colour)
                deg = gp.degree(v)
                copies = induced_copy_hypergraph(f, gp, host).hyper
                if kind == "gamma":
                    if deg >= m / 8 and not copies.edges:
                        hit = True
                else:
                    if deg >= m / (4 * r):
                        try:
                            janson = require_verdict(
                                copies, p, r_prime + 1, context="omega event"
                            )
                        except UndecidedError:
                            indeterminate += 1
                            continue
                        if not janson:
                            hit = True
                if hit:
                    break
            if hit:
                break
        successes += hit
        rows.append((t, seed, int(hit), int(hit)))
    report = FrequencyReport(
        kind,
        trials,
        successes,
        successes / trials if trials else 0.0,
        None,
        min(1.0, 2.0 * math.exp(-(2.0**-7) * m)),
        rows,
        notes=["bound vacuous at desk scale"],
    )
    if indeterminate:
        report.notes.append(f"{indeterminate} indeterminate Janson queries skipped")
    return report
