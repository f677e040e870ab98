"""What `import jcontainers.cli` costs a fresh `jc` process.

The library's value types and records are plain slotted classes and its
annotations need no `typing`, so starting `jc` loads neither `dataclasses`
nor what that module pulls in (`inspect`, and through it `ast`, `dis` and
`tokenize`)."""

import ast
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
