import importlib
import warnings
from fractions import Fraction

from hypothesis import strategies as st

from jcontainers.hypercore import Graph, Hypergraph, mask_of

# Hypothesis explains a failing test with libcst, whose import raises a
# DeprecationWarning; under -W error that warning ends the run in an
# INTERNALERROR before the falsifying example is shown.  Importing libcst
# here, once and with the warning ignored, leaves nothing to raise later.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        importlib.import_module("libcst")
    except ImportError:
        pass


@st.composite
def hypergraphs(draw, min_n=1, max_n=8, max_edges=6, min_edge_size=1, max_edge_size=4):
    """The edge count is drawn first, clamped to the number of admissible
    (nonempty, size-bounded) masks, and then that many distinct edges."""
    n = draw(st.integers(min_n, max_n))
    admissible = [
        m for m in range(1, 1 << n) if min_edge_size <= m.bit_count() <= max_edge_size
    ]
    k = draw(st.integers(0, min(max_edges, len(admissible))))
    if k == 0:
        return Hypergraph(n, ())
    edges = draw(st.lists(st.sampled_from(admissible), min_size=k, max_size=k, unique=True))
    return Hypergraph(n, tuple(sorted(edges)))


@st.composite
def graphs(draw, min_n=1, max_n=8):
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return Graph.from_edges(n, chosen)


@st.composite
def rational_weights(draw, count):
    return tuple(
        Fraction(draw(st.integers(0, 12)), draw(st.integers(1, 7))) for _ in range(count)
    )


def vertex_subset(n):
    return st.integers(0, (1 << n) - 1)


def edges_of(masks):
    return [sorted(i for i in range(64) if m >> i & 1) for m in masks]


def mask(*verts):
    return mask_of(verts)
