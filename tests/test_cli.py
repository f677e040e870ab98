import collections
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings

import jcontainers
from jcontainers import cli, containers, fileio
from jcontainers.cli import _graph, dispatch, load_config
from jcontainers.containers import UniformContainerFamily
from jcontainers.errors import InputError
from jcontainers.hypercore import Graph, Hypergraph
from jcontainers.ramsey import ExperimentConfig

from conftest import hypergraphs
from hypothesis import strategies as st


class TestFileFormats:
    def test_graph_round_trip(self):
        g = Graph.from_edges(5, [(0, 1), (2, 4), (1, 3)])
        assert fileio.parse_graph(fileio.write_graph(g)) == g

    def test_hypergraph_round_trip(self):
        h = Hypergraph.from_vertex_lists(6, [[0, 1, 4], [2, 5], [3]])
        assert fileio.parse_hypergraph(fileio.write_hypergraph(h)) == h

    @given(hypergraphs())
    @settings(max_examples=50, deadline=None)
    def test_hypergraph_round_trip_random(self, h):
        assert fileio.parse_hypergraph(fileio.write_hypergraph(h)) == h

    def test_graph_rejects_unordered_edge(self):
        with pytest.raises(InputError):
            fileio.parse_graph("graph 3\ne 2 1\n")

    def test_hypergraph_rejects_unsorted_edge(self):
        with pytest.raises(InputError):
            fileio.parse_hypergraph("hypergraph 3\nE 2 1\n")

    @pytest.mark.parametrize(
        "parse, text, line",
        [
            (fileio.parse_graph, "graph x\n", 1),
            (fileio.parse_graph, "graph 3\ne 0 x\n", 2),
            (fileio.parse_hypergraph, "hypergraph x\n", 1),
            (fileio.parse_hypergraph, "hypergraph 3\nE 0 x\n", 2),
            (fileio.parse_hypergraph, "hypergraph 3\nE -1 2\n", 2),
        ],
    )
    def test_non_integer_tokens_report_line(self, parse, text, line):
        with pytest.raises(InputError, match=f"line {line}:"):
            parse(text)

    @pytest.mark.parametrize(
        "parse, text",
        [
            (fileio.parse_graph, "graph 3\ne 0 1\ne 0 1\n"),
            (fileio.parse_hypergraph, "hypergraph 3\nE 0 1\nE 0 1\n"),
        ],
    )
    def test_duplicate_edge_reports_line(self, parse, text):
        with pytest.raises(InputError, match="line 3: duplicate edge"):
            parse(text)

    @pytest.mark.parametrize(
        "parse, text, message",
        [
            (fileio.parse_graph, "# only\n\n", "empty graph file"),
            (fileio.parse_graph, "hypergraph 3\n", "line 1: expected 'graph <n>'"),
            (fileio.parse_graph, "graph 3\nE 0 1\n", "line 2: expected 'e <u> <v>'"),
            (fileio.parse_graph, "graph 3\ne 0 1 2\n", "line 2: expected 'e <u> <v>'"),
            (fileio.parse_graph, "graph 3\ne 2 1\n", "line 2: edges must satisfy u < v"),
            (fileio.parse_graph, "graph 3\ne 0 1\n# c\ne 00 +1\n", "line 4: duplicate edge 0 1"),
            (fileio.parse_hypergraph, "", "empty hypergraph file"),
            (fileio.parse_hypergraph, "hypergraph 3 4\n", "line 1: expected 'hypergraph <n>'"),
            (fileio.parse_hypergraph, "hypergraph 3\ne 0 1\n", "line 2: expected 'E <v1> ... <vk>'"),
            (fileio.parse_hypergraph, "hypergraph 3\nE 1 1\n", "line 2: vertices must be strictly increasing"),
            (fileio.parse_hypergraph, "hypergraph 3\nE 0 1\n\nE 00 +1\n", "line 4: duplicate edge 00 +1"),
            (fileio.parse_hypergraph, "hypergraph 3\nE 0 9\nE 2 1\n", "line 2: vertex 9 outside [0, 3)"),
        ],
    )
    def test_parse_error_messages(self, parse, text, message):
        # the graph parser prints a duplicate's parsed vertices, the
        # hypergraph parser its raw tokens
        with pytest.raises(InputError) as exc:
            parse(text)
        assert str(exc.value) == message

    def test_named_graphs(self):
        assert _graph("K4", "G") == Graph.complete(4)
        assert _graph("P3", "G") == Graph.path(3)
        assert _graph("C5", "G") == Graph.cycle(5)
        assert _graph("E2", "G") == Graph.empty(2)

    @pytest.mark.parametrize(
        "parse, text, line",
        [
            (fileio.parse_graph, "graph 65\n", 1),
            (fileio.parse_graph, "graph 3\ne 0 3\n", 2),
            (fileio.parse_hypergraph, "hypergraph 65\n", 1),
            (fileio.parse_hypergraph, "hypergraph 3\nE 0 99999999999\n", 2),
        ],
    )
    def test_vertex_bounds_report_line(self, parse, text, line):
        with pytest.raises(InputError, match=f"line {line}:"):
            parse(text)

    def test_named_graph_over_the_cap_rejected(self):
        with pytest.raises(InputError):
            _graph("K99999999999", "G")

    @pytest.mark.parametrize("token", ["1e999999999", "1e-999999999", "2E5000"])
    def test_huge_exponent_rejected(self, token):
        with pytest.raises(InputError):
            fileio.parse_number(token, exact=True)
        assert fileio.parse_number("1e-3", exact=True) == F(1, 1000)


_TOKENS = st.sampled_from(
    ["graph", "hypergraph", "e", "E", "w", "#", "0", "1", "2", "3", "-1", "64", "65",
     "99999999999", "1/2", "1/0", "nan", "inf", "1e999999999", "0.5", "x", ""]
)
_LINES = st.lists(st.lists(_TOKENS, max_size=5).map(" ".join), max_size=6).map("\n".join)


class TestParserFuzz:
    """Every parser either parses or raises InputError, whatever the text."""

    @given(st.one_of(st.text(max_size=80), _LINES))
    @settings(max_examples=300, deadline=None)
    def test_parsers_raise_only_input_errors(self, text):
        for parse in (fileio.parse_graph, fileio.parse_hypergraph):
            try:
                parse(text)
            except InputError:
                pass


@pytest.fixture
def single_edge_file(tmp_path):
    path = tmp_path / "single.hg"
    path.write_text(fileio.write_hypergraph(Hypergraph.from_vertex_lists(3, [[0, 1]])))
    return str(path)


class TestDispatch:
    def test_janson_yes(self, capsys, single_edge_file):
        code = dispatch(["janson", "--hypergraph", single_edge_file, "--p", "1/2", "--R", "1/5"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["answer"] == "YES"
        assert out["r_star"] == "1/4"

    def test_janson_no_at_threshold(self, capsys, single_edge_file):
        code = dispatch(["janson", "--hypergraph", single_edge_file, "--p", "1/2", "--R", "1/4"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["answer"] == "NO"

    def test_certify_cover_rejects_small_edge(self, tmp_path, capsys):
        target = tmp_path / "t.hg"
        target.write_text("hypergraph 3\nE 0 1\n")
        cover = tmp_path / "c.hg"
        cover.write_text("hypergraph 3\nE 0\n")
        code = dispatch([
            "certify-cover", "--target", str(target), "--cover", str(cover), "--p", "1/2",
        ])
        assert code == 2
        assert "[0]" in capsys.readouterr().err

    def test_arrows_k6(self, capsys):
        code = dispatch(["ramsey", "arrows", "--G", "K6", "--H", "K3", "--r", "2"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["arrows"] is True

    def test_unknown_flag_exits_2(self, capsys):
        assert dispatch(["janson", "--nope", "x"]) == 2

    def test_hardcover_no_verify_flag_is_gone(self, tmp_path, capsys):
        path = tmp_path / "h.hg"
        path.write_text("hypergraph 4\nE 0 1\n")
        argv = ["hardcover", "--hypergraph", str(path), "--q", "1/8", "--alpha", "1/2"]
        assert dispatch(argv + ["--no-verify"]) == 2
        assert "--no-verify" in capsys.readouterr().err

    @pytest.mark.parametrize("budget", ["-1", "-20"])
    def test_negative_budget_exits_2_naming_budget(self, capsys, budget):
        argv = ["ramsey", "arrows", "--G", "K4", "--H", "K3", "--r", "2"]
        assert dispatch(argv + ["--budget", budget]) == 2
        err = capsys.readouterr().err
        assert "--budget" in err and "budget exceeded" not in err
        # a zero budget is valid input: the search runs out of it
        assert dispatch(argv + ["--budget", "0"]) == 3
        assert "budget exceeded" in capsys.readouterr().err

    def test_colour_count_above_the_edge_cap_exits_2_naming_r(self, capsys):
        # a bad colouring never needs more colours than K64 has edges
        argv = ["ramsey", "arrows", "--G", "K4", "--H", "K3", "--r"]
        assert dispatch(argv + ["2017"]) == 2
        assert "argument --r: at most 2016 colours" in capsys.readouterr().err
        assert dispatch(argv + ["2016", "--budget", "100"]) == 0
        assert json.loads(capsys.readouterr().out) == {"arrows": False, "r": 2016}

    @pytest.mark.parametrize("spec", ["K2,,K2", ",K2", "K2,", ""])
    def test_empty_target_item_exits_2_naming_H(self, tmp_path, capsys, monkeypatch, spec):
        reads = []
        monkeypatch.setattr(cli, "_read", lambda path, key: reads.append(path))
        code = dispatch([
            "ramsey", "event", "--kind", "B", "--G", str(tmp_path / "g.graph"),
            "--H", spec, "--config", str(tmp_path / "c.cfg"),
        ])
        assert code == 2
        assert "--H has an empty item" in capsys.readouterr().err
        assert reads == []  # rejected before any file is read

    def test_event_e_over_the_pattern_cap_exits_3(self, capsys):
        code = dispatch(["ramsey", "event", "--kind", "E", "--G", "K4", "--H", "K7,K2"])
        assert code == 3
        assert "pattern tuples, above the cap" in capsys.readouterr().err

    def test_hardcover_runs_clean(self, tmp_path, capsys):
        path = tmp_path / "h.hg"
        path.write_text("hypergraph 4\nE 0 1\nE 2 3\n")
        code = dispatch([
            "hardcover", "--hypergraph", str(path), "--q", "1/8", "--alpha", "1/2",
        ])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["violations"] == []

    def test_copies_emits_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        code = dispatch([
            "--out", str(out_dir), "copies", "--F", "K2", "--Gprime", "P3", "--G", "P3",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["edge_count"] == 2
        assert (out_dir / "copies.prov").exists()
        # every emitted hypergraph file re-parses to an equal value
        emitted = fileio.parse_hypergraph((out_dir / "copies.hg").read_text())
        assert [sorted(e for e in range(3) if m >> e & 1) for m in emitted.edges] == payload["edges"]
        record = json.loads((out_dir / "record.json").read_text())
        assert record["exit_status"] == 0

    def test_mc_chernoff_csv(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("trials = 5\nusize = 4\nssize = 8\nn = 16\n")
        code = dispatch([
            "ramsey", "mc", "--experiment", "chernoff", "--config", str(cfg), "--seed", "3",
        ])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "trial,seed,outcome,statistic"
        assert len([l for l in lines if not l.startswith("#")]) == 6

    def test_env_seed_fallback(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("trials = 5\nusize = 4\nssize = 8\nn = 16\n")
        argv = ["ramsey", "mc", "--experiment", "chernoff", "--config", str(cfg)]
        monkeypatch.setenv("JC_SEED", "77")
        dispatch(argv)
        via_env = capsys.readouterr().out
        monkeypatch.delenv("JC_SEED")
        dispatch(argv + ["--seed", "77"])
        via_flag = capsys.readouterr().out
        assert via_env == via_flag

    @pytest.mark.parametrize("value", ["abc", "1.5"])
    def test_non_integer_env_seed_exits_2(self, tmp_path, capsys, monkeypatch, value):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("trials = 5\nusize = 4\nssize = 8\nn = 16\n")
        argv = ["ramsey", "mc", "--experiment", "chernoff", "--config", str(cfg)]
        monkeypatch.setenv("JC_SEED", value)
        assert dispatch(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: JC_SEED") and captured.err.count("\n") == 1
        monkeypatch.setenv("JC_SEED", "")  # empty means unset
        assert dispatch(argv) == 0
        via_empty = capsys.readouterr().out
        assert dispatch(argv + ["--seed", "0"]) == 0
        assert capsys.readouterr().out == via_empty

    def test_config_seed_zero_beats_env_seed(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed = 0\ntrials = 5\nusize = 4\nssize = 8\nn = 16\n")
        argv = ["ramsey", "mc", "--experiment", "chernoff", "--config", str(cfg)]
        outs = {}
        for flag in ("0", "77"):
            assert dispatch(argv + ["--seed", flag]) == 0
            outs[flag] = capsys.readouterr().out
        assert outs["0"] != outs["77"]
        monkeypatch.setenv("JC_SEED", "77")
        assert dispatch(argv) == 0
        assert capsys.readouterr().out == outs["0"]

    @pytest.mark.parametrize(
        "experiment, text",
        [("chernoff", "n = 0\n"), ("extension", "trials = 2\nm = 0\n")],
    )
    def test_zero_size_config_reaches_the_range_check(self, tmp_path, capsys, experiment, text):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text)
        argv = ["ramsey", "mc", "--experiment", experiment, "--config", str(cfg)]
        assert dispatch(argv) == 2
        captured = capsys.readouterr()
        assert "input error" in captured.err and captured.out == ""

    @pytest.mark.parametrize(
        "numbers",
        [
            ["--p", "1/0", "--R", "1/5"],
            ["--p", "abc", "--R", "1/5"],
            ["--p", "1/2", "--R", "nan"],
            ["--p", "inf", "--R", "1/5"],
            ["--p", "1/2", "--R", "1/0"],
        ],
    )
    def test_bad_numbers_exit_2(self, capsys, single_edge_file, numbers):
        assert dispatch(["janson", "--hypergraph", single_edge_file] + numbers) == 2
        assert capsys.readouterr().out == ""

    def test_tol_is_an_unrecognized_argument(self, capsys, single_edge_file):
        argv = ["janson", "--hypergraph", single_edge_file, "--p", "1/2", "--R", "1/5"]
        assert dispatch(argv + ["--tol", "1e-9"]) == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments: --tol 1e-9" in captured.err and captured.out == ""

    @pytest.mark.parametrize("command", ["janson", "certify-cover"])
    def test_rational_past_the_digit_limit_exits_3(self, tmp_path, capsys, command):
        # R* = p^2 has 6,001 digits; certify-cover prints p, of 4,001 digits
        path = str(tmp_path / "pair.hg")
        (tmp_path / "pair.hg").write_text("hypergraph 2\nE 0 1\n")
        if command == "janson":
            argv = ["janson", "--hypergraph", path, "--p", "1e-3000", "--R", "1"]
        else:
            argv = ["certify-cover", "--target", path, "--cover", path, "--p", "1e-4000"]
        assert dispatch(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("budget exceeded:") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("p", ["2", "0"])
    @pytest.mark.parametrize(
        "text", ["hypergraph 3\n", "hypergraph 3\nE 0\nE 1 2\n"], ids=["edgeless", "size-1 edge"]
    )
    def test_janson_p_out_of_range_exits_2_whatever_the_edges(self, tmp_path, capsys, p, text):
        path = tmp_path / "h.hg"
        path.write_text(text)
        for r in ("1", "0"):
            assert dispatch(["janson", "--hypergraph", str(path), "--p", p, "--R", r]) == 2
            captured = capsys.readouterr()
            assert "input error" in captured.err and captured.out == ""

    def test_event_e_takes_the_config_budgets(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("p = 1/5\ndelta = 0.3\nbudget_colorings = 1\nbudget_subsets = 2\n")
        argv = ["ramsey", "event", "--kind", "E", "--G", "C5", "--H", "K2,K2", "--config", str(cfg)]
        assert dispatch(argv) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["exhaustive"] is False
        assert "subset space sampled beyond the budget" in out["notes"]
        assert "colouring space sampled beyond the budget" in out["notes"]

    @pytest.mark.parametrize("value", ["nan", "inf", "x"])
    def test_bad_float_config_value_exits_2(self, tmp_path, capsys, value):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"p = 1/5\ndelta = {value}\n")
        argv = ["ramsey", "event", "--kind", "Bprime", "--G", "C5", "--H", "K3,K3"]
        assert dispatch(argv + ["--config", str(cfg)]) == 2
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["bad.hg", "bad.g"])
    def test_malformed_input_file_exits_2(self, tmp_path, capsys, name):
        path = tmp_path / name
        path.write_text("hypergraph x\n" if name == "bad.hg" else "graph 4\ne 0 x\n")
        if name == "bad.hg":
            argv = ["janson", "--hypergraph", str(path), "--p", "1/2", "--R", "1/5"]
        else:
            argv = ["ramsey", "arrows", "--G", str(path), "--H", "K3", "--r", "2"]
        assert dispatch(argv) == 2
        assert "input error" in capsys.readouterr().err

    def test_non_utf8_input_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "h.hg"
        path.write_bytes(b"hypergraph 3\nE 0 1\xff\n")
        assert dispatch(["janson", "--hypergraph", str(path), "--p", "1/2", "--R", "1/5"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("input error: hypergraph file") and captured.out == ""

    def test_unreadable_input_file_exits_2(self, tmp_path, capsys):
        code = dispatch(["ramsey", "arrows", "--G", str(tmp_path), "--H", "K3", "--r", "2"])
        assert code == 2
        assert "input error" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["B", "Bprime"])
    def test_seed_drives_sampled_events(self, tmp_path, capsys, kind):
        # one colouring out of 2^5 (B) or 2^|E(G[S])| (B'): the colouring
        # space is sampled, so the witness follows the seed
        cfg = tmp_path / "c.cfg"
        cfg.write_text("p = 1/5\ndelta = 0.3\nbudget_colorings = 1\n")
        argv = ["ramsey", "event", "--kind", kind, "--G", "C5", "--H", "K3,K3", "--config", str(cfg)]
        witnesses = {}
        for seed in range(1, 6):
            assert dispatch(argv + ["--seed", str(seed)]) == 0
            out = json.loads(capsys.readouterr().out)
            assert out["holds"] is True and out["exhaustive"] is False
            witnesses[seed] = out["witness"]
        assert len({json.dumps(w, sort_keys=True) for w in witnesses.values()}) > 1
        assert dispatch(argv + ["--seed", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["witness"] == witnesses[3]

    @pytest.mark.parametrize(
        "text, line",
        [
            ("p = 1/5\ndelta = -1\n", 2),
            ("p = 1/5\ndelta = 0\n", 2),
            ("p = 0\n", 1),
            ("p = 2\n", 1),
            ("trials = -3\n", 1),
            ("r = 2\nbudget_colorings = -1\n", 2),
        ],
    )
    def test_out_of_range_config_exits_2(self, tmp_path, capsys, text, line):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text)
        argv = ["ramsey", "event", "--kind", "Bprime", "--G", "C5", "--H", "K3,K3"]
        assert dispatch(argv + ["--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert f"line {line}:" in captured.err and captured.out == ""

    def test_unexpected_exception_is_an_internal_error(self, monkeypatch, capsys, single_edge_file):
        def broken(args):
            raise RuntimeError("handler\nfailed")

        monkeypatch.setattr(cli, "cmd_janson", broken)
        code = dispatch(["janson", "--hypergraph", single_edge_file, "--p", "1/2", "--R", "1/5"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_INTERNAL == 5
        assert captured.out == ""
        assert captured.err == "internal error: RuntimeError: handler failed\n"

    def test_jobs_flag_is_gone(self, tmp_path, capsys, single_edge_file):
        argv = ["janson", "--hypergraph", single_edge_file, "--p", "1/2", "--R", "1/5"]
        assert dispatch(["--jobs", "2"] + argv) == 2
        capsys.readouterr()
        assert dispatch(["--out", str(tmp_path / "o")] + argv) == 0
        record = json.loads((tmp_path / "o" / "record.json").read_text())
        assert "jobs" not in record["config"]

    def test_unwritable_out_dir_exits_2(self, tmp_path, capsys, single_edge_file):
        blocker = tmp_path / "file"
        blocker.write_text("")
        argv = ["janson", "--hypergraph", single_edge_file, "--p", "1/2", "--R", "1/5"]
        assert dispatch(["--out", str(blocker / "sub")] + argv) == 2
        assert "input error" in capsys.readouterr().err

    def test_event_command(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("r = 2\nk = 3\np = 1/5\ndelta = 0.3\n")
        code = dispatch([
            "ramsey", "event", "--kind", "B", "--G", "C5", "--H", "K3,K3",
            "--config", str(cfg),
        ])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["holds"] is True  # pentagon host has no triangles at all
        assert out["scaled"] is True


class TestPipelineCommands:
    def test_containers_subcommand(self, tmp_path, capsys):
        path = tmp_path / "h.hg"
        path.write_text("hypergraph 8\nE 0 1\nE 2 3\nE 4 5\nE 6 7\n")
        code = dispatch([
            "containers", "--hypergraph", str(path),
            "--p", "1/65536", "--q", "1/16", "--R", "1/524288",
        ])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["violations"] == []
        assert out["size_bound_ok"] is True

    def test_extend_containers_subcommand(self, tmp_path, capsys):
        g = tmp_path / "g.graph"
        g.write_text("graph 5\ne 0 1\ne 1 2\ne 2 3\ne 3 4\n")
        gp = tmp_path / "gp.graph"
        gp.write_text("graph 5\n")
        code = dispatch([
            "extend-containers", "--F", "P3", "--w", "1",
            "--Gprime", str(gp), "--G", str(g),
            "--p", "1/16777216", "--q", "1/16", "--R", "10/16777216",
            "--Rprime", "0", "--no-strict",
        ])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["violations"] == []
        assert out["params"]["scaled"] is True

    @pytest.mark.parametrize(
        "argv",
        [
            ["containers", "--hypergraph", "e.hg",
             "--p", "1/65536", "--q", "1/16", "--R", "1/524288"],
            ["extend-containers", "--F", "K1", "--w", "0", "--Gprime", "E3", "--G", "E3",
             "--p", "1/1048576", "--q", "1/16", "--R", "3/33554432", "--Rprime", "0"],
        ],
        ids=["containers", "extend-containers"],
    )
    def test_strict_pipeline_at_uniformity_zero(self, tmp_path, capsys, monkeypatch, argv):
        # the only edge is empty (F - w has no vertices for extend-containers):
        # s = 0 makes the p bound vacuous, so strict mode runs like --no-strict
        monkeypatch.chdir(tmp_path)
        (tmp_path / "e.hg").write_text("hypergraph 3\nE\n")
        assert dispatch(argv) == 0
        strict = json.loads(capsys.readouterr().out)
        assert dispatch(argv + ["--no-strict"]) == 0
        loose = json.loads(capsys.readouterr().out)
        assert strict["params"]["s"] == 0
        assert strict["params"].pop("scaled") is False and loose["params"].pop("scaled") is True
        assert strict == loose

    def test_silent_empty_oracle_gives_violations_and_exit_1(
        self, tmp_path, capsys, monkeypatch
    ):
        # an oracle that emits nothing and reports nothing leaves every
        # uncertified set uncovered; on one pair edge these are {}, {0}, {1}
        monkeypatch.setattr(
            containers, "uniform_container_oracle", lambda h, p: UniformContainerFamily({}, {})
        )
        path = tmp_path / "pair.hg"
        path.write_text("hypergraph 2\nE 0 1\n")
        code = dispatch([
            "containers", "--hypergraph", str(path),
            "--p", "1/65536", "--q", "1/16", "--R", "1/2097152",
        ])
        out = json.loads(capsys.readouterr().out)
        assert code == 1
        assert out["incomplete"] == []
        assert out["violations"] == [f"uncovered vertex set {m:b}" for m in (0, 1, 2)]

    def test_budget_exit_code(self, capsys):
        code = dispatch([
            "ramsey", "arrows", "--G", "K6", "--H", "K3", "--r", "2",
            "--budget", "3",
        ])
        assert code == 3
        assert "budget" in capsys.readouterr().err

    def test_undecided_exit_code(self, tmp_path, capsys):
        # 12 disjoint pairs exceed the exact-path edge cap, and R sits a
        # hair inside the true threshold 3: within tolerance of the strict
        # boundary, the floating path must refuse to decide
        hg = tmp_path / "m.hg"
        lines = ["hypergraph 24"] + [f"E {2 * i} {2 * i + 1}" for i in range(12)]
        hg.write_text("\n".join(lines) + "\n")
        code = dispatch([
            "janson", "--hypergraph", str(hg),
            "--p", "1/2", "--R", "2.9999999985",
        ])
        out = json.loads(capsys.readouterr().out)
        assert code == 4
        assert out["answer"] == "UNDECIDED"

    def test_run_record_outputs_reproduce(self, tmp_path, capsys):
        hg = tmp_path / "h.hg"
        hg.write_text("hypergraph 3\nE 0 1\n")
        outs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            code = dispatch([
                "--out", str(out_dir),
                "janson", "--hypergraph", str(hg), "--p", "1/2", "--R", "1/5",
            ])
            capsys.readouterr()
            assert code == 0
            outs.append((out_dir / "out.json").read_bytes())
            record = json.loads((out_dir / "record.json").read_text())
            assert "hypergraph" in record["input_digests"]
        assert outs[0] == outs[1]

    def test_run_record_digests_exactly_the_files_read(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        files = {
            "k2.graph": "graph 2\ne 0 1\n",
            "e2.graph": "graph 2\n",
            "K4": "graph 4\n",  # shadows the built-in name, which wins
            "b.cfg": "p = 1\ndelta = 0.3\n",
        }
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        sha = {name: hashlib.sha256(text.encode()).hexdigest() for name, text in files.items()}
        argv = ["ramsey", "event", "--kind", "B", "--G", "K4", "--config", "b.cfg", "--H"]
        runs = {
            "k2.graph,e2.graph": {"H[0]": sha["k2.graph"], "H[1]": sha["e2.graph"]},
            "K2,e2.graph": {"H[1]": sha["e2.graph"]},
            "e2.graph": {"H": sha["e2.graph"]},
        }
        for i, (targets, digests) in enumerate(runs.items()):
            assert dispatch(["--out", f"o{i}"] + argv + [targets]) == 0
            capsys.readouterr()
            record = json.loads((tmp_path / f"o{i}" / "record.json").read_text())
            assert record["input_digests"] == {**digests, "config": sha["b.cfg"]}
            assert record["config"]["ramsey_cmd"] == "event"


_DIGEST_FILES = {
    "h.hg": "hypergraph 8\nE 0 1\nE 2 3\nE 4 5\nE 6 7\n",
    "g.graph": "graph 5\ne 0 1\ne 1 2\ne 2 3\ne 3 4\n",
    "gp.graph": "graph 5\n",
    "k2.graph": "graph 2\ne 0 1\n",
    "e2.graph": "graph 2\n",
    "K4": "graph 4\n",  # shadows the built-in name, which wins
    "b.cfg": "p = 1\ndelta = 0.3\n",
    "mc.cfg": "trials = 3\nusize = 4\nssize = 8\nn = 16\n",
    "ext.cfg": "trials = 2\nm = 4\nF = k2.graph\n",
}
_EVENT = ["ramsey", "event", "--kind", "B", "--G", "K4", "--config", "b.cfg", "--H"]


class TestInputDigests:
    """With --out, input_digests holds the sha256 of every file read, under
    its record key, and the reader opens each file once."""

    @pytest.mark.parametrize(
        "argv, files",
        [
            (["copies", "--F", "k2.graph", "--Gprime", "gp.graph", "--G", "g.graph"],
             {"F": "k2.graph", "Gprime": "gp.graph", "G": "g.graph"}),
            (["containers", "--hypergraph", "h.hg", "--p", "1/65536", "--q", "1/16",
              "--R", "1/524288"],
             {"hypergraph": "h.hg"}),
            (["extend-containers", "--F", "P3", "--w", "1", "--Gprime", "gp.graph",
              "--G", "g.graph", "--p", "1/16777216", "--q", "1/16", "--R", "10/16777216",
              "--Rprime", "0", "--no-strict"],
             {"Gprime": "gp.graph", "G": "g.graph"}),
            (_EVENT + ["e2.graph"], {"H": "e2.graph", "config": "b.cfg"}),
            (_EVENT + ["k2.graph,K2,e2.graph"],
             {"H[0]": "k2.graph", "H[2]": "e2.graph", "config": "b.cfg"}),
            (["ramsey", "mc", "--experiment", "chernoff", "--config", "mc.cfg"],
             {"config": "mc.cfg"}),
            (["ramsey", "mc", "--experiment", "extension", "--config", "ext.cfg"],
             {"config": "ext.cfg", "F": "k2.graph"}),
        ],
        ids=["copies", "containers", "extend-containers", "event-H", "event-H-list",
             "mc-chernoff", "mc-extension-F"],
    )
    def test_each_file_read_is_digested_once(self, tmp_path, capsys, monkeypatch, argv, files):
        monkeypatch.chdir(tmp_path)
        for name, text in _DIGEST_FILES.items():
            (tmp_path / name).write_text(text)
        reads = collections.Counter()
        read = cli._read

        def counting_read(path, key):
            reads[path] += 1
            return read(path, key)

        monkeypatch.setattr(cli, "_read", counting_read)
        assert dispatch(["--out", "run"] + argv) == 0
        capsys.readouterr()
        record = json.loads((tmp_path / "run" / "record.json").read_text())
        assert record["input_digests"] == {
            key: hashlib.sha256(_DIGEST_FILES[name].encode()).hexdigest()
            for key, name in files.items()
        }
        assert reads == collections.Counter(files.values())


_RANGE_VALUES = st.sampled_from(["-1", "0", "1/1048576", "1/16", "1/2", "1", "2"])


@pytest.fixture(scope="module")
def four_vertex_hypergraph(tmp_path_factory):
    path = tmp_path_factory.mktemp("pipeline") / "h.hg"
    path.write_text("hypergraph 4\nE 0 1\nE 2 3\n")
    return str(path)


class TestPipelineRanges:
    """Both pipelines check their parameter ranges in both modes and name
    the parameter that is out of range."""

    @pytest.mark.parametrize(
        "command, numbers, message",
        [
            ("containers", ["--p", "1/64", "--q", "0", "--no-strict"],
             "p and q must satisfy 0 < p <= q"),
            ("containers", ["--p", "1/64", "--q", "2", "--no-strict"],
             "q + p must be at most 1/2"),
            ("containers", ["--p", "1/2", "--q", "1/16", "--no-strict"],
             "p and q must satisfy 0 < p <= q"),
            ("containers", ["--p", "1/64", "--q", "1/16", "--eta", "-1", "--no-strict"],
             "eta must be positive"),
            ("extend-containers", ["--p", "1/64", "--q", "0", "--no-strict"],
             "q must lie in (0, 1/2]"),
            ("extend-containers", ["--p", "1/16777216", "--q", "1/16", "--r", "0"],
             "r must be at least 1"),
            ("extend-containers", ["--p", "1/16777216", "--q", "1/16", "--r", "0", "--no-strict"],
             "r must be at least 1"),
            ("extend-containers", ["--p", "1/64", "--q", "1/16", "--eta", "-1", "--no-strict"],
             "eta must be positive"),
        ],
    )
    def test_out_of_range_exits_2_naming_the_parameter(
        self, four_vertex_hypergraph, capsys, command, numbers, message
    ):
        if command == "containers":
            argv = [command, "--hypergraph", four_vertex_hypergraph, "--R", "1/1000"]
        else:
            argv = [command, "--F", "P3", "--w", "1", "--Gprime", "E4", "--G", "P4",
                    "--R", "1/1000", "--Rprime", "0"]
        assert dispatch(argv + numbers) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"input error: {message}") and captured.out == ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["containers", "--hypergraph", "pair.hg", "--p", "1e-4299", "--q", "1e-4300",
              "--R", "1", "--no-strict"], "p and q must satisfy 0 < p <= q"),
            (["containers", "--hypergraph", "pair.hg", "--p", "1/65536", "--q", "1/16",
              "--R=-1e-4300", "--no-strict"], "R must be nonnegative"),
            (["extend-containers", "--F", "P3", "--w", "1", "--Gprime", "E4", "--G", "P4",
              "--p", "1/16", "--q", "1/16", "--R", "1", "--Rprime=-1e-4300", "--no-strict"],
             "R' must be nonnegative"),
        ],
        ids=["q", "R", "R'"],
    )
    def test_rational_past_the_digit_limit_in_a_message_exits_2(
        self, tmp_path, capsys, monkeypatch, argv, message
    ):
        # the named value has 4,301 digits, one past the integer-printing limit
        monkeypatch.chdir(tmp_path)
        (tmp_path / "pair.hg").write_text("hypergraph 2\nE 0 1\n")
        assert dispatch(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(f"input error: {message}")
        assert captured.err.endswith("a rational of more than 4300 digits\n")

    @pytest.mark.parametrize(
        "command, code", [("containers", 0), ("extend-containers", 3)]
    )
    def test_size_bound_at_a_q_below_float_range(
        self, four_vertex_hypergraph, capsys, command, code
    ):
        # float(q) is 0.0 here; the extension run then stops at its default
        # eta = p^4 (q/2)^(4s), whose denominator is past the digit limit
        if command == "containers":
            argv = [command, "--hypergraph", four_vertex_hypergraph]
        else:
            argv = [command, "--F", "P3", "--w", "1", "--Gprime", "E4", "--G", "P4",
                    "--Rprime", "0"]
        argv += ["--p", "1e-401", "--q", "1e-400", "--R", "1", "--no-strict"]
        assert dispatch(argv) == code
        captured = capsys.readouterr()
        if code == 0:
            assert json.loads(captured.out)["size_bound_ok"] is True
        else:
            assert captured.out == "" and captured.err.startswith("budget exceeded:")

    @given(
        extension=st.booleans(),
        p=_RANGE_VALUES,
        q=_RANGE_VALUES,
        r_param=_RANGE_VALUES,
        r_prime=_RANGE_VALUES,
        eta=st.none() | _RANGE_VALUES,
        colours=st.integers(-1, 2),
        strict=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_pipeline_exit_codes_stay_in_contract(
        self, four_vertex_hypergraph, extension, p, q, r_param, r_prime, eta, colours, strict
    ):
        if extension:
            argv = ["extend-containers", "--F", "P3", "--w", "1", "--Gprime", "E4", "--G", "P4",
                    "--Rprime", r_prime, "--r", str(colours)]
        else:
            argv = ["containers", "--hypergraph", four_vertex_hypergraph]
        argv += ["--p", p, "--q", q, "--R", r_param]
        argv += ([] if eta is None else ["--eta", eta]) + ([] if strict else ["--no-strict"])
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = dispatch(argv)
        assert 0 <= code <= 4, err.getvalue()
        assert "internal error" not in err.getvalue() and "Traceback" not in err.getvalue()


class TestConfig:
    def test_defaults_from_formulas(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("r = 2\nk = 3\n")
        cfg = load_config(str(path))
        assert cfg.p == F(1, (1 << 25) * 9 * 16)
        assert cfg.delta == 2.0**-50
        assert not cfg.scaled

    def test_override_flags_scaled(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("r = 2\nk = 3\np = 1/4\n")
        cfg = load_config(str(path))
        assert cfg.p == F(1, 4) and cfg.scaled

    def test_unknown_key_reports_line(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("r = 2\nbogus = 7\n")
        with pytest.raises(InputError) as exc:
            load_config(str(path))
        assert "line 2" in str(exc.value)

    def test_malformed_line_reports_line(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("r = 2\nnonsense\n")
        with pytest.raises(InputError) as exc:
            load_config(str(path))
        assert "line 2" in str(exc.value)

    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("")
        cfg = load_config(str(path))
        assert cfg.r == 2 and cfg.k == 3

    def test_c_is_an_unknown_key(self, tmp_path, capsys):
        for key in ("C", "w"):
            cfg = tmp_path / "c.cfg"
            cfg.write_text(f"{key} = 5\ntrials = 2\n")
            argv = ["ramsey", "mc", "--experiment", "chernoff", "--config", str(cfg)]
            assert dispatch(argv) == 2
            captured = capsys.readouterr()
            assert f"line 1: unknown key '{key}'" in captured.err and captured.out == ""

    def test_every_config_key_is_a_field(self):
        names = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert set(cli.CONFIG_KEYS) == names - {"scaled"}


class TestDeterminism:
    GOLDEN = [
        ["janson", "--hypergraph", "{hg}", "--p", "1/2", "--R", "1/5"],
        ["hardcover", "--hypergraph", "{hg}", "--q", "1/8", "--alpha", "1/2"],
        ["ramsey", "mc", "--experiment", "chernoff", "--config", "{cfg}", "--seed", "7"],
    ]

    def test_golden_commands_byte_identical(self, tmp_path, capsys):
        hg = tmp_path / "h.hg"
        hg.write_text("hypergraph 4\nE 0 1\nE 2 3\n")
        cfg = tmp_path / "c.cfg"
        cfg.write_text("trials = 20\nusize = 4\nssize = 8\nn = 16\n")
        for template in self.GOLDEN:
            argv = [a.format(hg=hg, cfg=cfg) for a in template]
            first_code = dispatch(argv)
            first = capsys.readouterr().out
            second_code = dispatch(argv)
            second = capsys.readouterr().out
            assert first_code == second_code
            assert first == second and first


class TestImports:
    def test_frank_wolfe_path_never_loads_numpy(self):
        code = (
            "import sys\n"
            "import jcontainers.cli\n"
            "assert 'numpy' not in sys.modules\n"
            "from jcontainers.hypercore import Hypergraph\n"
            "from jcontainers.janson import is_janson\n"
            "verdict = is_janson(Hypergraph(4, (3, 6, 12)), 0.5, 0.01)\n"
            "print(verdict.answer, verdict.exact, 'numpy' in sys.modules)\n"
        )
        src_dir = os.path.dirname(os.path.dirname(jcontainers.__file__))
        env = dict(os.environ, PYTHONPATH=src_dir)
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["YES", "False", "False"]

    def test_exact_pipelines_and_events_never_load_numpy(self, tmp_path):
        # require_verdict decides these queries in pure Python
        (tmp_path / "h.hg").write_text("hypergraph 8\nE 0 1\nE 2 3\nE 4 5\nE 6 7\n")
        (tmp_path / "g.graph").write_text("graph 5\ne 0 1\ne 1 2\ne 2 3\ne 3 4\n")
        (tmp_path / "gp.graph").write_text("graph 5\n")
        (tmp_path / "c.cfg").write_text("p = 1/5\ndelta = 0.3\n")
        event = ["ramsey", "event", "--H", "K3,K3", "--config", "c.cfg", "--kind"]
        runs = [
            ["containers", "--hypergraph", "h.hg", "--p", "1/65536", "--q", "1/16",
             "--R", "1/524288"],
            ["extend-containers", "--F", "P3", "--w", "1", "--Gprime", "gp.graph",
             "--G", "g.graph", "--p", "1/16777216", "--q", "1/16", "--R", "10/16777216",
             "--Rprime", "0", "--no-strict"],
            event + ["B", "--G", "K5"],
            event + ["Bprime", "--G", "K5"],
            event + ["E", "--G", "C5"],
        ]
        code = (
            "import contextlib, io, json, sys\n"
            "from jcontainers.cli import dispatch\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        print(dispatch(argv), file=sys.stderr)\n"
            "print('numpy' in sys.modules)\n"
        )
        src_dir = os.path.dirname(os.path.dirname(jcontainers.__file__))
        env = dict(os.environ, PYTHONPATH=src_dir)
        done = subprocess.run(
            [sys.executable, "-c", code, json.dumps(runs)], cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stderr.split() == ["0"] * len(runs)
        assert done.stdout.split() == ["False"]


    def test_only_the_run_record_loads_hashlib_and_datetime(self, tmp_path):
        (tmp_path / "h.hg").write_text("hypergraph 4\nE 0 1\nE 2 3\n")
        code = (
            "import contextlib, io, sys\n"
            "from jcontainers.cli import dispatch\n"
            "record = ('hashlib', 'datetime')\n"
            "print(*(m in sys.modules for m in record))\n"
            "argv = ['janson', '--hypergraph', 'h.hg', '--p', '1/2', '--R', '1/5']\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert dispatch(argv) == 0\n"
            "print(*(m in sys.modules for m in record))\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert dispatch(['--out', 'run'] + argv) == 0\n"
            "print(*(m in sys.modules for m in record))\n"
        )
        src_dir = os.path.dirname(os.path.dirname(jcontainers.__file__))
        env = dict(os.environ, PYTHONPATH=src_dir)
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["False"] * 4 + ["True"] * 2
        record = json.loads((tmp_path / "run" / "record.json").read_text())
        assert list(record["input_digests"]) == ["hypergraph"]


class TestEntryPoint:
    def test_console_script_target_matches_dispatch(self, tmp_path, monkeypatch, capsys):
        # [project.scripts] runs jcontainers.cli:main; it must exit and
        # print exactly as dispatch does on the same argv
        (tmp_path / "h.hg").write_text("hypergraph 4\nE 0 1\nE 2 3\n")
        argv = ["janson", "--hypergraph", "h.hg", "--p", "1/2", "--R", "1/5"]
        src_dir = os.path.dirname(os.path.dirname(jcontainers.__file__))
        env = dict(os.environ, PYTHONPATH=src_dir)
        done = subprocess.run(
            [sys.executable, "-c", "from jcontainers.cli import main; main()", *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
        )
        monkeypatch.chdir(tmp_path)
        code = dispatch(argv)
        assert (done.returncode, done.stdout) == (code, capsys.readouterr().out)
        assert code == 0 and done.stderr == ""
