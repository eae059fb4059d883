"""Package hygiene: every subpackage imports first, and doc pointers resolve.

Each import runs in a fresh interpreter, so an import cycle that only
shows when a given subpackage is the first one loaded cannot hide behind
modules an earlier test already imported.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
PACKAGES = ["repro"] + sorted(
    f"repro.{path.name}" for path in (SRC / "repro").iterdir()
    if (path / "__init__.py").is_file())

_MARKDOWN = re.compile(r"[\w./-]+\.md\b")


@pytest.mark.parametrize("package", PACKAGES)
def test_imports_first_in_fresh_interpreter(package):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    result = subprocess.run([sys.executable, "-c", f"import {package}"],
                            env=env, capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr


def _docstrings(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            docstring = ast.get_docstring(node)
            if docstring:
                yield docstring


def test_markdown_named_in_docstrings_exists():
    missing = []
    for path in sorted(SRC.rglob("*.py")):
        for docstring in _docstrings(path):
            for name in _MARKDOWN.findall(docstring):
                if not (ROOT / name).is_file():
                    missing.append(f"{path.relative_to(ROOT)}: {name}")
    assert missing == []
