"""Plain-text formats for graphs, hypergraphs and numbers.

Graph file:       first line ``graph <n>``, then one ``e <u> <v>`` line per
                  edge, 0-indexed with u < v.
Hypergraph file:  first line ``hypergraph <n>``, then one ``E <v1> ... <vk>``
                  line per edge with strictly increasing vertices.
Number:           a finite decimal or an ``a/b`` rational.

Blank lines and ``#`` comments are skipped.  A repeated edge line, a
non-integer token where an integer is expected, a vertex count outside
[0, UNIVERSE_CAP] and a vertex outside [0, n) are InputErrors that name
their line.

The parsers take text; ``cli`` reads each input file once and hands its
text here.  Writers emit exactly what the parsers accept, so every emitted
file round-trips to an equal value.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InputError
from .hypercore import UNIVERSE_CAP, Graph, Hypergraph, bits_of, mask_of

# decimal exponents beyond this are refused before Fraction expands 10**exp
EXPONENT_CAP = 4300


def meaningful_lines(text: str):
    """(line number, stripped line) for each non-blank, non-comment line."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def _integer(token: str, lineno: int, what: str) -> int:
    """A decimal integer token; anything else is an InputError at lineno."""
    try:
        return int(token)
    except ValueError:
        raise InputError(f"line {lineno}: {what} must be an integer, got {token!r}") from None


def _vertex_count(token: str, lineno: int) -> int:
    n = _integer(token, lineno, "the vertex count")
    if not 0 <= n <= UNIVERSE_CAP:
        raise InputError(f"line {lineno}: vertex count {n} outside [0, {UNIVERSE_CAP}]")
    return n


def _vertex(token: str, lineno: int, n: int) -> int:
    v = _integer(token, lineno, "a vertex")
    if not 0 <= v < n:
        raise InputError(f"line {lineno}: vertex {v} outside [0, {n})")
    return v


def _edge_lines(text: str, kind: str, usage: str, arity=None):
    """The vertex count from the ``<kind> <n>`` header, read at once, and a
    lazy stream of (line number, vertex tokens, vertices) for the edge lines
    after it, each shaped as ``usage`` (its first word is the tag; ``arity``
    vertices when given), so that errors come out in line order."""
    lines = meaningful_lines(text)
    first = next(lines, None)
    if first is None:
        raise InputError(f"empty {kind} file")
    lineno, header = first
    parts = header.split()
    if len(parts) != 2 or parts[0] != kind:
        raise InputError(f"line {lineno}: expected '{kind} <n>'")
    n = _vertex_count(parts[1], lineno)
    tag = usage.split()[0]

    def edge_lines():
        for lineno, line in lines:
            head, *tokens = line.split()
            if head != tag or (arity is not None and len(tokens) != arity):
                raise InputError(f"line {lineno}: expected '{usage}'")
            yield lineno, tokens, [_vertex(t, lineno, n) for t in tokens]

    return n, edge_lines()


def parse_graph(text: str) -> Graph:
    n, lines = _edge_lines(text, "graph", "e <u> <v>", arity=2)
    edges = []
    seen = set()
    for lineno, _, (u, v) in lines:
        if not u < v:
            raise InputError(f"line {lineno}: edges must satisfy u < v")
        if (u, v) in seen:
            raise InputError(f"line {lineno}: duplicate edge {u} {v}")
        seen.add((u, v))
        edges.append((u, v))
    return Graph.from_edges(n, edges)


def write_graph(g: Graph) -> str:
    lines = [f"graph {g.n}"]
    lines += [f"e {u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def parse_hypergraph(text: str) -> Hypergraph:
    n, lines = _edge_lines(text, "hypergraph", "E <v1> ... <vk>")
    edges = []
    seen = set()
    for lineno, tokens, verts in lines:
        if any(a >= b for a, b in zip(verts, verts[1:])):
            raise InputError(f"line {lineno}: vertices must be strictly increasing")
        edge = mask_of(verts)
        if edge in seen:
            raise InputError(f"line {lineno}: duplicate edge {' '.join(tokens)}")
        seen.add(edge)
        edges.append(edge)
    return Hypergraph(n, tuple(edges))


def write_hypergraph(h: Hypergraph) -> str:
    lines = [f"hypergraph {h.n}"]
    for e in h.edges:
        lines.append("E " + " ".join(str(v) for v in bits_of(e)))
    return "\n".join(lines) + "\n"


def parse_number(token: str, exact: bool):
    """A finite decimal or an ``a/b`` rational; ``exact`` selects the target
    type.  Anything else (a zero denominator, nan, inf, text) is an
    InputError."""
    try:
        if "/" in token:
            num, den = token.split("/", 1)
            value = Fraction(int(num), int(den))
            return value if exact else float(value)
        if exact:
            _, marker, exponent = token.lower().partition("e")
            if marker and abs(int(exponent)) > EXPONENT_CAP:
                raise InputError(f"exponent beyond {EXPONENT_CAP}: {token!r}")
            return Fraction(token)
        value = float(token)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise InputError(f"not a finite number: {token!r}") from exc
    if not math.isfinite(value):
        raise InputError(f"not a finite number: {token!r}")
    return value
