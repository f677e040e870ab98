"""Value semantics of the immutable types: equality and hashing by fields,
read-only fields, and the construction checks, each against a plain
statement of the rule."""

import copy
import pickle
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jcontainers.copies import _copy_table, extension_hypergraph, induced_copy_hypergraph
from jcontainers.errors import InputError
from jcontainers.hypercore import Coloring, Graph, Hypergraph, VertexMap, bits_of
from jcontainers.measures import Measure

from conftest import graphs, hypergraphs

PAIRS = [(u, v) for u in range(3) for v in range(u + 1, 3)]

# valid field tuples for each type, from domains small enough to repeat
VALID = {
    Graph: graphs(max_n=3).map(lambda g: (g.n, g.adj)),
    Hypergraph: hypergraphs(max_n=3, max_edges=2).map(lambda h: (h.n, h.edges)),
    VertexMap: st.integers(1, 2).flatmap(
        lambda t: st.lists(st.integers(0, t - 1), max_size=2).map(
            lambda xs: (len(xs), t, tuple(xs))
        )
    ),
    Coloring: st.integers(1, 2).flatmap(
        lambda r: st.dictionaries(st.sampled_from(PAIRS), st.integers(1, r), max_size=2).map(
            lambda a: (r, a)
        )
    ),
    Measure: hypergraphs(max_n=2, max_edges=2).flatmap(
        lambda h: st.one_of(
            st.lists(st.sampled_from([F(0), F(1, 2), F(1)]), min_size=len(h.edges),
                     max_size=len(h.edges)).map(lambda ws: (h, tuple(ws), True)),
            st.lists(st.sampled_from([0.0, 0.5]), min_size=len(h.edges),
                     max_size=len(h.edges)).map(lambda ws: (h, tuple(ws), False)),
        )
    ),
}


def rebuilt(fields):
    """The same field values in new containers, so equality cannot rest on
    identity."""
    return tuple(
        dict(f) if isinstance(f, dict) else tuple(f) if isinstance(f, tuple) else f
        for f in fields
    )


@pytest.mark.parametrize("cls", VALID, ids=lambda cls: cls.__name__)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_equal_exactly_when_the_fields_are(cls, data):
    fa, fb = data.draw(VALID[cls]), data.draw(VALID[cls])
    a, b = cls(*fa), cls(*rebuilt(fb))
    assert (a == b) == (fa == fb)
    assert (a != b) == (fa != fb)
    if a == b:
        assert hash(a) == hash(b)
    assert a == cls(*rebuilt(fa)) and hash(a) == hash(cls(*rebuilt(fa)))
    assert a != fa  # another class never compares equal


@given(VALID[Coloring], st.dictionaries(st.sampled_from(PAIRS), st.just(1), max_size=3))
def test_coloring_hash_ignores_the_assignment(fields, other):
    r, assignment = fields
    assert hash(Coloring(r, assignment)) == hash(Coloring(r, other)) == hash((r,))


@pytest.mark.parametrize("cls", VALID, ids=lambda cls: cls.__name__)
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_fields_are_read_only(cls, data):
    value = cls(*data.draw(VALID[cls]))
    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert not hasattr(value, "__dict__")
    assert copy.deepcopy(value) == value == pickle.loads(pickle.dumps(value))


@pytest.mark.parametrize("cls", [Graph, Hypergraph, Coloring], ids=lambda cls: cls.__name__)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_unchecked_value_is_the_checked_one(cls, data):
    fields = data.draw(VALID[cls])
    value, checked = cls._unchecked(*fields), cls(*rebuilt(fields))
    assert type(value) is cls
    assert value == checked and hash(value) == hash(checked)
    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
    assert not hasattr(value, "__dict__")
    assert pickle.loads(pickle.dumps(value)) == checked


@given(graphs(max_n=8), graphs(max_n=3), st.integers(0, (1 << 8) - 1))
@settings(max_examples=80, deadline=None)
def test_unchecked_derivations_pass_the_checks(g, f, mask):
    # what restrict and the copy hypergraph build unchecked, the public
    # constructors accept
    sub = g.restrict(mask)
    assert Graph(sub.n, sub.adj) == sub
    for g_prime in (g, sub):
        hyper = induced_copy_hypergraph(f, g_prime, g).hyper
        assert Hypergraph(hyper.n, hyper.edges) == hyper


def test_extension_pi_is_built_once():
    ext = extension_hypergraph(Graph.path(3), 1, Graph.empty(5), Graph.cycle(5))
    assert ext.pi is ext.pi
    assert ext.pi == VertexMap(10, 5, tuple(range(5)) * 2)


# ---------------------------------------------------------------------------
# construction checks: the first rule broken, as each constructor states it


def graph_problem(n, adj):
    if n < 0:
        return "vertex count must be nonnegative"
    if n > 64:
        return f"universe size {n} exceeds cap 64"
    if len(adj) != n:
        return "adjacency length must equal vertex count"
    for v, row in enumerate(adj):
        if row >> n:
            return f"vertex {v} has a neighbour outside [0, n)"
        if row >> v & 1:
            return f"self-loop at vertex {v}"
    for v in range(n):
        for u in range(n):
            if adj[v] >> u & 1 and not adj[u] >> v & 1:
                return f"asymmetric adjacency between {u} and {v}"
    return None


def hypergraph_problem(n, edges):
    if n < 0:
        return "vertex count must be nonnegative"
    if n > 64:
        return f"universe size {n} exceeds cap 64"
    for i, e in enumerate(edges):
        if e >> n:
            return "edge contains a vertex outside the universe"
        if e in edges[:i]:
            return f"duplicate edge {bits_of(e)}"
    return None


def vertex_map_problem(n_source, n_target, table):
    if len(table) != n_source:
        return "vertex map must be total on the source universe"
    if any(not 0 <= img < n_target for img in table):
        return "vertex map image outside target universe"
    return None


def coloring_problem(r, assignment):
    for (u, v), c in assignment.items():
        if u >= v:
            return "colouring keys must be (u, v) with u < v"
        if not 1 <= c <= r:
            return f"colour {c} outside [1, {r}]"
    return None


def measure_problem(host, weights, exact):
    if len(weights) != len(host.edges):
        return "weight count must equal edge count"
    for w in weights:
        if exact and not isinstance(w, (F, int)):
            return "exact measure weights must be rational"
        if not exact and not isinstance(w, float):
            return "floating measure weights must be floats"
        if w < 0:
            return "weights must be nonnegative"
    return None


UNIVERSES = st.sampled_from([-1, 0, 1, 2, 3, 65])
ANY = {
    Graph: (graph_problem, st.tuples(
        UNIVERSES, st.lists(st.integers(-1, 9), max_size=4).map(tuple))),
    Hypergraph: (hypergraph_problem, st.tuples(
        UNIVERSES, st.lists(st.integers(0, 9), max_size=3).map(tuple))),
    VertexMap: (vertex_map_problem, st.tuples(
        st.integers(0, 2), st.integers(0, 2), st.lists(st.integers(-1, 2), max_size=3).map(tuple))),
    Coloring: (coloring_problem, st.tuples(
        st.integers(0, 2),
        st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(-1, 3),
                        max_size=2))),
    Measure: (measure_problem, st.tuples(
        hypergraphs(max_n=2, max_edges=2),
        st.lists(st.sampled_from([F(-1), F(1, 2), 1, 0.5, -0.5, 1e-3]), max_size=3).map(tuple),
        st.booleans())),
}


@pytest.mark.parametrize("cls", ANY, ids=lambda cls: cls.__name__)
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_construction_checks(cls, data):
    problem, fields = ANY[cls]
    drawn = data.draw(fields)
    expected = problem(*drawn)
    if expected is None:
        cls(*drawn)
    else:
        with pytest.raises(InputError) as exc:
            cls(*drawn)
        assert str(exc.value) == expected


@given(graphs(max_n=6))
def test_copy_table_cache_hits_an_equal_graph_built_apart(f):
    twin = Graph(f.n, tuple(list(f.adj)))
    assert twin is not f
    table = _copy_table(f)
    hits = _copy_table.cache_info().hits
    assert _copy_table(twin) is table
    assert _copy_table.cache_info().hits == hits + 1
