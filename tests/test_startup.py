"""What `import jcontainers.cli` costs a fresh `jc` process.

The library's value types and records are plain slotted classes and its
annotations need no `typing`, so starting `jc` loads neither `dataclasses`
nor what that module pulls in (`inspect`, and through it `ast`, `dis` and
`tokenize`).  `cli` registers `containers`, `copies`, `janson` and `ramsey`
as deferred modules, so a subcommand compiles and runs only those it uses."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import jcontainers

SRC = Path(jcontainers.__file__).resolve().parent


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # -S keeps site's own imports (and any .pth file's) out of the check
    probe = (
        "import sys, jcontainers.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_no_library_module_imports_dataclasses_or_typing():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] in ("dataclasses", "typing")]
    assert not found, f"imports dataclasses or typing: {', '.join(found)}"


DEFERRED = ("containers", "copies", "janson", "ramsey")

# Reading any attribute of a deferred module runs it, so the probe tells a
# module that has run from one only registered by its type alone: a plain
# module once it has run, importlib's lazy-module subclass until then.
_PROBE = """
import contextlib, io, json, sys, types
import jcontainers.cli as cli
argv = json.loads(sys.argv[1])
if argv is not None:
    with contextlib.redirect_stdout(io.StringIO()):
        cli.dispatch(argv)
state = {}
for name in %r:
    module = sys.modules.get("jcontainers." + name)
    state[name] = "absent" if module is None else (
        "ran" if type(module) is types.ModuleType else "registered")
print(json.dumps(state))
""" % (DEFERRED,)


def _module_state(argv, cwd) -> dict:
    """Module name -> absent, registered or ran, for each deferred module
    after a fresh `python -S` process imports `jcontainers.cli` and, unless
    ``argv`` is None, dispatches ``argv``."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run(
        [sys.executable, "-S", "-c", _PROBE, json.dumps(argv)],
        env=env, cwd=cwd, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_cli_import_registers_every_deferred_module_and_runs_none(tmp_path):
    assert _module_state(None, tmp_path) == dict.fromkeys(DEFERRED, "registered")


def test_help_runs_no_deferred_module(tmp_path):
    assert _module_state(["--help"], tmp_path) == dict.fromkeys(DEFERRED, "registered")


def test_janson_runs_neither_containers_nor_ramsey(tmp_path):
    (tmp_path / "h.hg").write_text("hypergraph 4\nE 0 1\nE 2 3\n")
    argv = ["janson", "--hypergraph", "h.hg", "--p", "1/2", "--R", "1/5"]
    assert _module_state(argv, tmp_path) == {
        "containers": "registered", "copies": "registered", "janson": "ran", "ramsey": "registered",
    }


def test_ramsey_arrows_does_not_run_containers(tmp_path):
    argv = ["ramsey", "arrows", "--G", "K6", "--H", "K3", "--r", "2"]
    assert _module_state(argv, tmp_path) == {
        "containers": "registered", "copies": "ran", "janson": "ran", "ramsey": "ran",
    }
