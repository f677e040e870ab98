"""Graphs, hypergraphs and the structural transforms used by every other module.

Vertex sets are Python ints used as fixed-width bit vectors, one bit per
vertex, so subset tests, unions and intersections are single machine-word
operations for the universes this package targets.  The universe cap is 64
vertices; constructions that would exceed it raise InputError.

Hypergraphs are identified with their edge sets: construction rejects
duplicate edges, and every transform deduplicates and sorts its output edges
by bit pattern so downstream fingerprints are reproducible.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from operator import attrgetter

from .errors import InputError

UNIVERSE_CAP = 64


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits_of(mask: int) -> list[int]:
    """The vertices of a mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def popcount(mask: int) -> int:
    return mask.bit_count()


def submasks(mask: int) -> Iterator[int]:
    """All submasks of ``mask`` including 0 and ``mask`` itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def _check_universe(n: int) -> None:
    if n < 0:
        raise InputError("vertex count must be nonnegative")
    if n > UNIVERSE_CAP:
        raise InputError(f"universe size {n} exceeds cap {UNIVERSE_CAP}")


_set = object.__setattr__  # how a Value's __init__ writes its read-only fields


class Value:
    """Base of the package's immutable value types.

    A subclass names its fields in ``__slots__`` and sets each one once in
    ``__init__`` with ``_set``.  Instances compare equal when they are of
    the same class and their fields are equal, hash by their fields, and
    refuse any later assignment or deletion with an AttributeError.
    Copying and pickling restore the fields as stored."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields_of = attrgetter(*cls.__slots__)  # instance -> its field values

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields_of(self) == self._fields_of(other)

    def __hash__(self):
        return hash(self._fields_of(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        for name, value in state[1].items():
            _set(self, name, value)

    @classmethod
    def _unchecked(cls, *fields):
        """An instance with ``fields`` set in slot order, as
        ``__setstate__`` restores them, and none of ``__init__``'s checks.
        Only for a value valid by construction, derived inside the package
        from values already checked; public constructors always check."""
        self = object.__new__(cls)
        for name, value in zip(cls.__slots__, fields):
            _set(self, name, value)
        return self


# the one tuple of each vertex pair handed out by Graph.edges, filled as
# pairs are first met: at most C(UNIVERSE_CAP, 2) = 2016 entries
_PAIRS: dict[tuple[int, int], tuple[int, int]] = {}
# 1 << v for every vertex v a universe can hold: the diagonal Graph checks
_UNIT_BITS = tuple(1 << v for v in range(UNIVERSE_CAP))


class Graph(Value):
    """Simple undirected graph: ``adj[v]`` is the neighbour bitmask of v.

    Invariants (checked at construction): adjacency symmetric, empty
    diagonal, all bits within [0, n).
    """

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: tuple[int, ...]):
        _set(self, "n", n)
        _set(self, "adj", adj)
        _check_universe(n)
        if len(adj) != n:
            raise InputError("adjacency length must equal vertex count")
        outside = ~((1 << n) - 1)
        # range and diagonal as two C-level passes; the per-vertex loop,
        # which names the first offender, runs only when one of them fails
        if any(map(outside.__and__, adj)) or any(map(int.__and__, adj, _UNIT_BITS)):
            for v, row in enumerate(adj):
                if row & outside:
                    raise InputError(f"vertex {v} has a neighbour outside [0, n)")
                if row >> v & 1:
                    raise InputError(f"self-loop at vertex {v}")
        for v in range(n):
            for u in bits_of(adj[v]):
                if not adj[u] >> v & 1:
                    raise InputError(f"asymmetric adjacency between {u} and {v}")

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        _check_universe(n)
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u},{v}) outside universe [0,{n})")
            if u == v:
                raise InputError(f"self-loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return Graph(n, tuple(adj))

    @staticmethod
    def complete(n: int) -> "Graph":
        full = (1 << n) - 1
        return Graph(n, tuple(full ^ (1 << v) for v in range(n)))

    @staticmethod
    def empty(n: int) -> "Graph":
        return Graph(n, (0,) * n)

    @staticmethod
    def path(n: int) -> "Graph":
        return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])

    @staticmethod
    def cycle(n: int) -> "Graph":
        if n < 3:
            raise InputError("cycle needs at least 3 vertices")
        return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        """The edges (u, v), u < v, in increasing order; each pair is one
        shared tuple, so colourings and witnesses that keep edges as keys
        hold no tuples of their own."""
        return [
            _PAIRS.setdefault((u, v), (u, v))
            for u in range(self.n)
            for v in bits_of(self.adj[u])
            if u < v
        ]

    def edge_count(self) -> int:
        return sum(popcount(row) for row in self.adj) // 2

    def degree(self, v: int) -> int:
        return popcount(self.adj[v])

    def is_subgraph_of(self, other: "Graph") -> bool:
        """Edge containment on a shared vertex set."""
        if self.n != other.n:
            return False
        return not any(map(int.__and__, self.adj, map(int.__invert__, other.adj)))

    def restrict(self, mask: int) -> "Graph":
        """G[mask] on the same vertex set: edges with both ends in ``mask``
        keep their labels; every other vertex becomes isolated.  Masking a
        valid symmetric adjacency keeps it valid, so nothing is re-checked."""
        return Graph._unchecked(
            self.n, tuple(row & mask if mask >> v & 1 else 0 for v, row in enumerate(self.adj))
        )

    def induced(self, mask: int) -> "Graph":
        """Induced subgraph on the vertices of ``mask``, relabelled 0..|mask|-1."""
        verts = bits_of(mask)
        pos = {v: i for i, v in enumerate(verts)}
        adj = [0] * len(verts)
        for v in verts:
            for u in bits_of(self.adj[v] & mask):
                adj[pos[v]] |= 1 << pos[u]
        return Graph(len(verts), tuple(adj))


class Hypergraph(Value):
    """Finite hypergraph: a vertex universe [0, n) and a duplicate-free
    edge list of vertex subsets (bitmasks).  Uniformity is derived, never
    assumed."""

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges: tuple[int, ...]):
        _set(self, "n", n)
        _set(self, "edges", edges)
        _check_universe(n)
        full = (1 << n) - 1
        seen = set()
        for e in edges:
            if e & ~full:
                raise InputError("edge contains a vertex outside the universe")
            if e in seen:
                raise InputError(f"duplicate edge {bits_of(e)}")
            seen.add(e)

    @staticmethod
    def from_vertex_lists(n: int, edge_lists: Iterable[Iterable[int]]) -> "Hypergraph":
        return Hypergraph(n, tuple(mask_of(e) for e in edge_lists))

    def uniformity(self) -> int | None:
        """Common edge size, or None if empty or non-uniform."""
        sizes = {popcount(e) for e in self.edges}
        if len(sizes) == 1:
            return sizes.pop()
        return None


def restrict_edges(h: Hypergraph, w_mask: int) -> Hypergraph:
    """Edges contained in W, keeping the original universe and labels."""
    if w_mask & ~((1 << h.n) - 1):
        raise InputError("W contains a vertex outside the universe")
    return Hypergraph(h.n, tuple(sorted(e for e in h.edges if e & ~w_mask == 0)))


def nonstrict_link(h: Hypergraph, t_mask: int) -> Hypergraph:
    """Non-strict link: {E \\ T for each edge E}, deduplicated.  May contain
    the empty edge when some E is inside T; consumers state their own
    convention for it."""
    return Hypergraph(h.n, tuple(sorted({e & ~t_mask for e in h.edges})))


def edgewise_include(h: Hypergraph, v: int) -> Hypergraph:
    """Add v to every edge.  v must be a fresh vertex (>= h.n); the universe
    grows to include it."""
    if v < h.n:
        raise InputError(f"vertex {v} already lies in the universe [0,{h.n})")
    n = v + 1
    _check_universe(n)
    bit = 1 << v
    return Hypergraph(n, tuple(sorted(e | bit for e in h.edges)))


class VertexMap(Value):
    """Total function [0, n_source) -> [0, n_target), as a lookup table."""

    __slots__ = ("n_source", "n_target", "table")

    def __init__(self, n_source: int, n_target: int, table: tuple[int, ...]):
        _set(self, "n_source", n_source)
        _set(self, "n_target", n_target)
        _set(self, "table", table)
        if len(table) != n_source:
            raise InputError("vertex map must be total on the source universe")
        for img in table:
            if not 0 <= img < n_target:
                raise InputError("vertex map image outside target universe")

    def apply_mask(self, mask: int) -> int:
        out = 0
        for v in bits_of(mask):
            out |= 1 << self.table[v]
        return out


def project(h: Hypergraph, pi: VertexMap) -> Hypergraph:
    """Image hypergraph {pi(E)}, deduplicated and sorted."""
    if pi.n_source != h.n:
        raise InputError("projection domain must match the hypergraph universe")
    return Hypergraph(pi.n_target, tuple(sorted({pi.apply_mask(e) for e in h.edges})))


DEFAULT_ENUM_CAP = 25


def independent_sets(h: Hypergraph) -> Iterator[int]:
    """Yield exactly the vertex sets containing no edge of h, in increasing
    bit-pattern order; universes above ``DEFAULT_ENUM_CAP`` vertices are
    refused.

    The recursion decides the highest-index vertex first (exclude before
    include), which makes the yield order coincide with integer order of the
    masks; an edge is re-checked only when its lowest vertex is added.
    """
    if h.n > DEFAULT_ENUM_CAP:
        raise InputError(f"universe size {h.n} above enumeration cap {DEFAULT_ENUM_CAP}")
    if 0 in h.edges:
        return  # the empty edge is inside every set, nothing is independent
    edges_by_min: list[list[int]] = [[] for _ in range(h.n)]
    for e in h.edges:
        edges_by_min[(e & -e).bit_length() - 1].append(e)

    def rec(v: int, current: int) -> Iterator[int]:
        if v < 0:
            yield current
            return
        yield from rec(v - 1, current)  # without v: smaller bit patterns first
        cand = current | (1 << v)
        if all(e & ~cand != 0 for e in edges_by_min[v]):
            yield from rec(v - 1, cand)

    # Recursion over v = n-1 .. 0 with "exclude first" emits masks in
    # increasing integer order because the highest bit dominates.
    yield from rec(h.n - 1, 0)


def independence_polynomial(h: Hypergraph, x: int, y: int, forced: int = 0) -> int:
    """Sum of x^|I| y^(n-|I|) over the independent sets I of h that contain
    ``forced``: the homogeneous independence polynomial, evaluated exactly.

    With x = a and y = b - a this is b^n times the probability that a
    q-random vertex set (q = a/b) is independent and contains ``forced``.
    No set is enumerated.  Forcing a vertex in removes it from its edges;
    vertices in no edge contribute x + y each; each connected component is
    counted on its own; inside a component the count branches on a vertex
    of largest degree (out: its edges drop; in: it leaves its edges, and an
    edge left empty kills the branch).  Sub-results are memoised for the
    duration of the call."""
    full = (1 << h.n) - 1
    if forced & ~full:
        raise InputError("forced set contains a vertex outside the universe")
    edges = {e & ~forced for e in h.edges}
    if 0 in edges:
        return 0  # an edge lies inside the forced set
    return x ** popcount(forced) * _independence_weight(full & ~forced, edges, x, y, {})


def _independence_weight(verts: int, edges, x: int, y: int, memo: dict) -> int:
    """Independence polynomial on the vertex set ``verts``; every edge is a
    nonempty subset of it."""
    comps: list[tuple[int, list[int]]] = []
    for e in edges:
        span, members, rest = e, [e], []
        for c_span, c_members in comps:
            if c_span & span:
                span |= c_span
                members += c_members
            else:
                rest.append((c_span, c_members))
        rest.append((span, members))
        comps = rest
    result = 1
    covered = 0
    for span, members in comps:
        covered |= span
        result *= _component_weight(span, members, x, y, memo)
    return result * (x + y) ** popcount(verts & ~covered)


def _component_weight(span: int, edges: list[int], x: int, y: int, memo: dict) -> int:
    """Independence polynomial of one connected component on the vertices
    ``span`` (the union of its edges)."""
    if len(edges) == 1:
        return (x + y) ** popcount(span) - x ** popcount(span)
    key = frozenset(edges)
    value = memo.get(key)
    if value is not None:
        return value
    singles = 0
    for e in edges:
        if e & (e - 1) == 0:
            singles |= e
    if singles:
        # a one-vertex edge keeps its vertex out of every independent set
        rest = [e for e in edges if not e & singles]
        value = y ** popcount(singles) * _independence_weight(span & ~singles, rest, x, y, memo)
    else:
        degree: dict[int, int] = {}
        for e in edges:
            while e:
                low = e & -e
                degree[low] = degree.get(low, 0) + 1
                e ^= low
        bit = max(degree, key=degree.__getitem__)
        out = [e for e in edges if not e & bit]
        into = {e & ~bit for e in edges}
        value = y * _independence_weight(span ^ bit, out, x, y, memo) + x * _independence_weight(
            span ^ bit, into, x, y, memo
        )
    memo[key] = value
    return value


class Coloring(Value):
    """Total edge colouring of a Graph with colours 1..r; the hash reads
    ``r`` only, as the assignment is a dict."""

    __slots__ = ("r", "assignment")

    def __init__(self, r: int, assignment: dict[tuple[int, int], int]):
        _set(self, "r", r)
        _set(self, "assignment", assignment)
        for (u, v), c in assignment.items():
            if u >= v:
                raise InputError("colouring keys must be (u, v) with u < v")
            if not 1 <= c <= r:
                raise InputError(f"colour {c} outside [1, {r}]")

    def __hash__(self):
        return hash((self.r,))

    def color_subgraph(self, graph: Graph, colour: int) -> Graph:
        return Graph.from_edges(
            graph.n, [e for e, c in self.assignment.items() if c == colour]
        )
