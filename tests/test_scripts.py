import ast
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import jcontainers

ROOT = Path(__file__).resolve().parent.parent


def _run_script(name, *args):
    src_dir = os.path.dirname(os.path.dirname(jcontainers.__file__))
    env = dict(os.environ, PYTHONPATH=src_dir)
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_container_demo_runs():
    done = _run_script("container_demo.py", "7", "6")
    assert done.returncode == 0, done.stderr
    assert "flat pipeline" in done.stdout and "two-layer pipeline" in done.stdout


def test_mc_experiments_prints_its_csv():
    done = _run_script("mc_experiments.py", "0")
    assert done.returncode == 0, done.stderr
    header, *rows = done.stdout.splitlines()
    assert header == "experiment,params,trials,frequency,exact_reference,theory_bound"
    assert all(len(row.split(",")) == 6 for row in rows)
    kinds = [row.split(",", 1)[0] for row in rows]
    assert kinds == ["chernoff"] * 5 + ["extension-gamma"] * 6


def test_benchmark_traced_names_resolve():
    # the benchmark tracer wraps each (module, name) of perfbench/spans.py's
    # TRACED with getattr; a renamed or removed function would break it
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    for module, name, *_ in spans.TRACED:
        target = getattr(importlib.import_module(f"jcontainers.{module}"), name, None)
        assert inspect.isfunction(target), f"jcontainers.{module}.{name}"


def _identifiers(tree) -> list[str]:
    """Every identifier a syntax tree mentions: names, attribute names,
    imported names and string constants that spell an identifier or a
    dotted path (perfbench/spans.py names what it traces as strings)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.append(node.id)
        elif isinstance(node, ast.Attribute):
            found.append(node.attr)
        elif isinstance(node, ast.alias):
            found.extend(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if all(part.isidentifier() for part in node.value.split(".")):
                found.extend(node.value.split("."))
    return found


def test_every_public_definition_has_a_product_reader():
    # the product is what jc, the scripts and the benchmark run: a public
    # function or class of the package that none of them reads belongs
    # with the tests (tests/paper.py holds the paper's constructions).
    # Matching is by name, so a namesake elsewhere hides a dead definition;
    # the check can miss one but never flags a live one.
    package = sorted((ROOT / "src" / "jcontainers").glob("*.py"))
    files = [*package, *sorted(ROOT.glob("scripts/*.py")), *sorted(ROOT.glob("perfbench/*.py"))]
    trees = {path: ast.parse(path.read_text(), str(path)) for path in files}
    readers = Counter()
    for tree in trees.values():
        readers.update(_identifiers(tree))
    unread = []
    for path in package:
        for node in trees[path].body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                own = Counter(_identifiers(node))[node.name]  # recursion reads itself
                if readers[node.name] <= own:
                    unread.append(f"{path.stem}.{node.name}")
    assert not unread, f"no product reader: {', '.join(unread)}"


def test_every_imported_name_is_read():
    # an import that its module never reads is dead weight; a name counts
    # as read where an expression names it, so one that only a string
    # mentions (a monkeypatch target, say) does not.  __future__ imports
    # and the package's __init__ re-exports are exempt
    files = [*sorted(ROOT.glob("src/**/*.py")), *sorted(ROOT.glob("scripts/*.py")),
             *sorted(ROOT.glob("tests/*.py"))]
    unread = []
    for path in files:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unread += [f"{path.relative_to(ROOT)}:{node.lineno} {name}"
                       for name in bound if name not in read]
    assert not unread, f"imported and never read: {', '.join(unread)}"


def test_failing_hypothesis_test_reports_its_example_under_w_error(tmp_path):
    # Hypothesis explains a failure by importing libcst, whose import warns;
    # tests/conftest.py imports it first so that -W error, as CI runs the
    # suite, still shows the falsifying example
    (tmp_path / "test_planted.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_planted(k):\n"
        "    assert k < 3\n"
    )
    src_dir = os.path.dirname(os.path.dirname(jcontainers.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src_dir, str(ROOT / "tests")]))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-W", "error", "-p", "no:cacheprovider",
         "-p", "conftest", "-q", "test_planted.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "Falsifying example" in done.stdout
    assert "INTERNALERROR" not in done.stdout + done.stderr
