"""The package's public surface: ``__all__`` names exactly what it binds or
serves on first use, importing the CLI loads nothing it does not run, and
the runtime imports only the standard library."""

import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import seqtrace

SRC = Path(__file__).resolve().parents[1] / "src"


def test_all_has_no_duplicates():
    assert len(seqtrace.__all__) == len(set(seqtrace.__all__))


def test_every_listed_name_resolves():
    missing = [name for name in seqtrace.__all__ if not hasattr(seqtrace, name)]
    assert missing == []


def test_every_public_name_is_listed():
    # The oracle's names are served by the module __getattr__, whether or not
    # an earlier test has loaded the oracle.
    bound = {name for name, value in vars(seqtrace).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    served = set(seqtrace._ORACLE_NAMES)
    assert all(seqtrace.__getattr__(name) is getattr(seqtrace.oracle, name) for name in served)
    with pytest.raises(AttributeError):
        seqtrace.__getattr__("oracle_strong")
    assert bound | served == set(seqtrace.__all__)


def test_the_cli_starts_without_dataclasses_or_the_oracle():
    # -S leaves out site-packages and its .pth hooks, which may import anything.
    probe = (
        "import sys, seqtrace.cli\n"
        "print(sorted({'dataclasses', 'inspect', 'seqtrace.oracle'} & set(sys.modules)))\n"
        "from seqtrace import GeneratorConfig\n"
        "print(GeneratorConfig.__module__)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\nseqtrace.oracle\n", "")


def test_removed_names_stay_gone():
    for name in ("TraceLog", "Witness", "theorem1_check", "peers", "Diagnostic", "namespace_of"):
        assert not hasattr(seqtrace, name), name
        assert name not in seqtrace.__all__
    assert not hasattr(seqtrace.ast, "peers")


def test_the_runtime_imports_only_the_standard_library():
    # Every import statement, at module level or inside a function.
    imported = set()
    for path in (SRC / "seqtrace").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module.split(".")[0])
    assert "seqtrace" in imported
    assert imported - sys.stdlib_module_names - {"seqtrace"} == set()
