"""Plain-text file formats for graphs, hypergraphs and measures.

Graph file:       first line ``graph <n>``, then one ``e <u> <v>`` line per
                  edge, 0-indexed with u < v.
Hypergraph file:  first line ``hypergraph <n>``, then one ``E <v1> ... <vk>``
                  line per edge with strictly increasing vertices.
Measure file:     one ``w <edge-index> <value>`` line per positive weight;
                  values are decimals or ``a/b`` rationals; edge indices refer
                  to the host hypergraph file's edge order.

A repeated edge or weight line, a non-integer token where an integer is
expected, a vertex count outside [0, UNIVERSE_CAP] and a vertex outside
[0, n) are InputErrors that name their line.

Writers emit exactly what the parsers accept, so every emitted file
round-trips to an equal value.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InputError
from .hypercore import UNIVERSE_CAP, Graph, Hypergraph, bits_of, mask_of
from .measures import Measure

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


def parse_graph(text: str) -> Graph:
    lines = list(meaningful_lines(text))
    if not lines:
        raise InputError("empty graph file")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] != "graph":
        raise InputError(f"line {lineno}: expected 'graph <n>'")
    n = _vertex_count(parts[1], lineno)
    edges = []
    seen = set()
    for lineno, line in lines[1:]:
        parts = line.split()
        if len(parts) != 3 or parts[0] != "e":
            raise InputError(f"line {lineno}: expected 'e <u> <v>'")
        u, v = _vertex(parts[1], lineno, n), _vertex(parts[2], lineno, n)
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
    lines = list(meaningful_lines(text))
    if not lines:
        raise InputError("empty hypergraph file")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] != "hypergraph":
        raise InputError(f"line {lineno}: expected 'hypergraph <n>'")
    n = _vertex_count(parts[1], lineno)
    edges = []
    seen = set()
    for lineno, line in lines[1:]:
        parts = line.split()
        if not parts or parts[0] != "E":
            raise InputError(f"line {lineno}: expected 'E <v1> ... <vk>'")
        verts = [_vertex(p, lineno, n) for p in parts[1:]]
        if any(a >= b for a, b in zip(verts, verts[1:])):
            raise InputError(f"line {lineno}: vertices must be strictly increasing")
        edge = mask_of(verts)
        if edge in seen:
            raise InputError(f"line {lineno}: duplicate edge {' '.join(parts[1:])}")
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


def format_number(value) -> str:
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return repr(value)


def parse_measure(text: str, host: Hypergraph, exact: bool = True) -> Measure:
    zero = Fraction(0) if exact else 0.0
    weights = [zero] * len(host.edges)
    seen = set()
    for lineno, line in meaningful_lines(text):
        parts = line.split()
        if len(parts) != 3 or parts[0] != "w":
            raise InputError(f"line {lineno}: expected 'w <edge-index> <value>'")
        idx = _integer(parts[1], lineno, "the edge index")
        if not 0 <= idx < len(host.edges):
            raise InputError(f"line {lineno}: edge index {idx} out of range")
        if idx in seen:
            raise InputError(f"line {lineno}: duplicate weight for edge {idx}")
        seen.add(idx)
        weights[idx] = parse_number(parts[2], exact)
    return Measure(host, tuple(weights), exact)


def write_measure(m: Measure) -> str:
    lines = []
    for idx, w in enumerate(m.weights):
        if w > 0:
            lines.append(f"w {idx} {format_number(w)}")
    return "\n".join(lines) + ("\n" if lines else "")
