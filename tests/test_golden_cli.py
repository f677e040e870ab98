"""Golden CLI output: exit code and stdout of a fixed set of ``jc`` calls,
run in-process through ``cli.dispatch``, pinned by their sha256.

The digests were recorded before the container pipelines and the colouring
events were folded into one core each; any change to what these commands
print or return shows up here."""

import contextlib
import hashlib
import io

import pytest

from jcontainers.cli import dispatch
from jcontainers.hypercore import Graph, bits_of

FILES = {
    "h.hg": "hypergraph 4\nE 0 1\nE 2 3\n",
    "mc.cfg": "trials = 20\nusize = 4\nssize = 8\nn = 16\n",
    "tri.hg": "hypergraph 5\nE 0 1 2\nE 1 2 3\nE 2 3 4\nE 0 3 4\n",
    "pipe.hg": "hypergraph 8\nE 0 1\nE 1 2\nE 2 3\nE 4 5\nE 6 7\n",
    "g.graph": "graph 5\ne 0 1\ne 1 2\ne 2 3\ne 3 4\n",
    "gp.graph": "graph 5\n",
    "b.cfg": "p = 1\ndelta = 0.3\n",
    "bprime.cfg": "p = 1/5\ndelta = 0.3\n",
    "e.cfg": "p = 1/4\ndelta = 0.3\n",
    # small enough budgets that both the subsets and the colourings are sampled
    "sampled.cfg": "p = 1/5\ndelta = 0.3\nbudget_subsets = 4\nbudget_colorings = 1\n",
}

EVENT = ["ramsey", "event", "--kind"]

GOLDEN = [
    (
        ["janson", "--hypergraph", "h.hg", "--p", "1/2", "--R", "1/5"],
        "1ecb81743c837b6c5e9c4ccb63b150fcd878c3d821e72926354045dc2f0bd055",
    ),
    (
        ["hardcover", "--hypergraph", "h.hg", "--q", "1/8", "--alpha", "1/2"],
        "6ef43b93c4e7716b66e017efd3119383ab63bd89a6f6dbbf3ec4a45cd4914f75",
    ),
    (
        ["ramsey", "mc", "--experiment", "chernoff", "--config", "mc.cfg", "--seed", "7"],
        "f21d2312f1a82d0ab74c2b709b8ac5a033b59b4975b4594972fbc87a5ba8df0e",
    ),
    (
        ["janson", "--hypergraph", "tri.hg", "--p", "1/3", "--R", "2"],
        "56c857c76c4fde5a808f2cbe2a49160a62bc0ed42f1ac857e25a73b67c11ff48",
    ),
    (
        ["janson", "--hypergraph", "tri.hg", "--p", "0.25", "--R", "1/50"],
        "8efa9acaadd0d5edaf2c25e3677b80eb2ee42f7b90421ef7100647953127da99",
    ),
    (
        ["hardcover", "--hypergraph", "tri.hg", "--q", "1/8", "--alpha", "1/2", "--paper-literal"],
        "4336efaf73709f1b8cadb848c75604bc628283417b0e00e4ee50f70314d22ee4",
    ),
    (
        ["containers", "--hypergraph", "pipe.hg", "--p", "1/65536", "--q", "1/16",
         "--R", "1/524288"],
        "77cba41b2485d8271b1ee816ed46baa8b95eae04f2bc3d7ae06b1b07fb7e1542",
    ),
    (
        ["extend-containers", "--F", "P3", "--w", "1", "--Gprime", "gp.graph", "--G", "g.graph",
         "--p", "1/16777216", "--q", "1/16", "--R", "10/16777216", "--Rprime", "0",
         "--no-strict"],
        "d701cf819afe58cb37db9fdf618615e11b0c575976eda52e6c7d5b9431728d2c",
    ),
    (
        EVENT + ["B", "--G", "K4", "--H", "K2,E2", "--config", "b.cfg"],
        "46d62562540cbdb49c52a2c7ad32e3ed1e78e395821a9059b63a103a37ce4cc6",
    ),
    (
        EVENT + ["Bprime", "--G", "K5", "--H", "K3,K3", "--config", "bprime.cfg"],
        "b8bf2057d46e8c8ed0431fc72019e4267db76909eeff8021ac2b51c8a3a56bf3",
    ),
    (
        EVENT + ["E", "--G", "K4", "--H", "K2,K2", "--config", "e.cfg"],
        "8d037248890f6b81b6c5ea2acd87b7762762e3e31a9f18355d238999ec133d89",
    ),
    (
        EVENT + ["Bprime", "--G", "C5", "--H", "K2,K2", "--config", "sampled.cfg",
                 "--seed", "4"],
        "ff57e86801faa39b6d14776437202fdcedb382964248d9afecc1e99082a77c87",
    ),
]


def run_digest(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = dispatch(argv)
    return hashlib.sha256(f"{code}\n{out.getvalue()}".encode()).hexdigest()


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[" ".join(a[:4]) for a, _ in GOLDEN])
def test_golden_output(inputs, argv, digest):
    assert run_digest(argv) == digest


@pytest.mark.parametrize("mask", [0, 0b1, 0b10110, 0b11111, 0b1011])
def test_graph_restrict_masks_the_adjacency(mask):
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)])
    expected = [g.adj[v] & mask if v in bits_of(mask) else 0 for v in range(g.n)]
    restricted = g.restrict(mask)
    assert restricted.n == g.n
    assert list(restricted.adj) == expected
