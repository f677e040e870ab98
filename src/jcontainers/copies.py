"""Hypergraphs that encode induced copies of a pattern graph.

An edge of the copy hypergraph for (F, G', G) is a vertex set L with
G'[L] = G[L] isomorphic to F: a copy of F inside G' that is induced in G.
The extension hypergraph lives on two stacked copies of the host's vertex
set and encodes, for a designated pattern vertex w, which neighbourhood
patterns of a fresh vertex complete a copy of F - w to a copy of F: layer 1
holds the vertices that must be neighbours, layer 0 those that must not.

Vertex (u, b) of the two-layer universe is encoded as u + b*m where m is the
host size; the projection onto the first coordinate is therefore x mod m.
Isomorphisms are found by permutation backtracking with degree pruning
(pattern size capped at 8) and each stored witness is the lexicographically
least bijection, so edges that depend on the witness are reproducible.  That
witness depends only on the adjacency code of G'[L], so the copy test
backtracks once per pattern and code and looks every later set up in the
pattern's copy table.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .errors import InputError
from .hypercore import (
    Graph,
    Hypergraph,
    Value,
    VertexMap,
    _set,
    bits_of,
    edgewise_include,
    mask_of,
    popcount,
    project,
    restrict_edges,
)

PATTERN_CAP = 8
COPY_TABLES = 64  # patterns whose copy tables are kept


def least_isomorphism(pattern: Graph, host: Graph, l_verts: list[int]):
    """Lexicographically least bijection phi: l_verts -> V(pattern) with
    host edges inside l_verts matching pattern edges exactly, or None.

    The returned tuple lists phi(u) for u in ascending order of l_verts;
    "least" refers to that tuple.  Backtracking assigns images in ascending
    candidate order, pruning on degree within the induced subgraph.
    """
    k = len(l_verts)
    if pattern.n != k:
        return None
    if k > PATTERN_CAP:
        raise InputError(f"pattern size {k} above isomorphism cap {PATTERN_CAP}")
    l_mask = mask_of(l_verts)
    local_deg = [popcount(host.adj[u] & l_mask) for u in l_verts]
    pattern_deg = [pattern.degree(x) for x in range(k)]
    if sorted(local_deg) != sorted(pattern_deg):
        return None
    assignment = [-1] * k
    used = [False] * k

    def backtrack(i: int):
        if i == k:
            return True
        for img in range(k):
            if used[img] or local_deg[i] != pattern_deg[img]:
                continue
            ok = True
            for j in range(i):
                if host.has_edge(l_verts[i], l_verts[j]) != pattern.has_edge(img, assignment[j]):
                    ok = False
                    break
            if ok:
                assignment[i] = img
                used[img] = True
                if backtrack(i + 1):
                    return True
                used[img] = False
                assignment[i] = -1
        return False

    if backtrack(0):
        return tuple(assignment)
    return None


class CopyHypergraph(Value):
    """Copy hypergraph plus, per edge, one isomorphism witness
    (re-checkable)."""

    __slots__ = ("hyper", "witnesses")

    def __init__(self, hyper: Hypergraph, witnesses: dict):
        _set(self, "hyper", hyper)
        _set(self, "witnesses", witnesses)  # edge mask -> phi tuple aligned with sorted vertices


def _check_pair(g_prime: Graph, g: Graph):
    if g_prime.n != g.n:
        raise InputError("G' and G must share a vertex set")
    if not g_prime.is_subgraph_of(g):
        raise InputError("G' must be an edge-subgraph of G")


@lru_cache(maxsize=COPY_TABLES)
def _copy_table(f: Graph) -> dict:
    """Pattern F's copy table, adjacency code -> least witness or None,
    filled by :func:`induced_copy_hypergraph`."""
    return {}


def induced_copy_hypergraph(f: Graph, g_prime: Graph, g: Graph) -> CopyHypergraph:
    """All vertex sets L with G'[L] = G[L] isomorphic to F.

    The adjacency code of G'[L] has one bit per pair i < j of positions in
    ascending vertex order, set when G' joins the i-th and j-th vertex of L.
    ``least_isomorphism`` reads nothing else of G', so each code is resolved
    by it on the first vertex set that shows it and read from F's copy table
    afterwards.  Memory: tables are kept for at most ``COPY_TABLES``
    patterns (least recently used out), and a table on k vertices holds the
    distinct codes seen, never more than 2^C(k,2)."""
    _check_pair(g_prime, g)
    k = f.n
    if k > PATTERN_CAP:
        raise InputError(f"pattern size {k} above cap {PATTERN_CAP}")
    table = _copy_table(f)
    adj = g_prime.adj
    missing = [row ^ g_row for row, g_row in zip(adj, g.adj)]  # G-edges not in G'
    pairs = list(itertools.combinations(range(k), 2))
    edges = []
    witnesses = {}
    for combo in itertools.combinations(range(g.n), k):
        code = 0
        for i, j in pairs:
            u, v = combo[i], combo[j]
            if missing[u] >> v & 1:
                break  # a G-edge inside L is missing from G'
            code = code << 1 | adj[u] >> v & 1
        else:
            try:
                phi = table[code]
            except KeyError:
                phi = table[code] = least_isomorphism(f, g_prime, list(combo))
            if phi is not None:
                l_mask = mask_of(combo)
                edges.append(l_mask)
                witnesses[l_mask] = phi
    # distinct k-sets of range(g.n): nothing for Hypergraph to re-check
    return CopyHypergraph(Hypergraph._unchecked(g.n, tuple(sorted(edges))), witnesses)


class ExtensionHypergraph(Value):
    """Two-layer hypergraph recording how a fresh vertex extends copies.

    ``hyper`` lives on [0, 2m); vertex u + b*m is the pair (u, b).  ``pi``
    is the first-coordinate projection u + b*m -> u, built once at
    construction; |pi(E)| = |E| holds for every edge by construction and is
    re-checked here.
    """

    __slots__ = ("hyper", "m", "pi")

    def __init__(self, hyper: Hypergraph, m: int):
        _set(self, "hyper", hyper)
        _set(self, "m", m)
        pi = VertexMap(2 * m, m, tuple(range(m)) * 2)
        _set(self, "pi", pi)
        for e in hyper.edges:
            if popcount(pi.apply_mask(e)) != popcount(e):
                raise InputError("projection must be injective on every edge")


def extension_hypergraph(
    f: Graph, w: int, g_prime: Graph, g: Graph
) -> ExtensionHypergraph:
    """Build the two-layer extension hypergraph for pattern F and removed
    vertex w over the host pair (G', G)."""
    _check_pair(g_prime, g)
    if not 0 <= w < f.n:
        raise InputError(f"removed vertex {w} outside the pattern")
    m = g.n
    f_minus = f.induced(((1 << f.n) - 1) ^ (1 << w))
    reduced_to_full = [x for x in range(f.n) if x != w]  # order-preserving
    copies = induced_copy_hypergraph(f_minus, g_prime, g)
    edges = []
    for l_mask in copies.hyper.edges:
        e = 0
        for u, img in zip(bits_of(l_mask), copies.witnesses[l_mask]):
            layer = 1 if f.has_edge(reduced_to_full[img], w) else 0
            e |= 1 << (u + layer * m)
        edges.append(e)
    # distinct base copies cannot collide, since the first-coordinate
    # projection recovers L from E_L; Hypergraph rejects a duplicate edge
    return ExtensionHypergraph(Hypergraph(2 * m, tuple(sorted(edges))), m)


def extend_copies(ext: ExtensionHypergraph, i_mask: int, v: int) -> Hypergraph:
    """Copies of the full pattern through v certified by the index set I:
    project the edges of the extension hypergraph inside I and adjoin v."""
    if v < ext.m:
        raise InputError(f"fresh vertex {v} must be at least the host size {ext.m}")
    inside = restrict_edges(ext.hyper, i_mask)
    projected = project(inside, ext.pi)
    if not projected.edges:
        return Hypergraph(v + 1, ())
    return edgewise_include(projected, v)
