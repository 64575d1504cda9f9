"""The package's public surface: ``__all__`` names exactly what it binds or
serves on first use, importing the CLI loads nothing it does not run, and
the runtime imports only the standard library."""

import ast
import importlib
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
    # Every public name is served from one table by the module __getattr__,
    # whether or not an earlier test has loaded its module.
    for name in seqtrace.__all__:
        module = importlib.import_module(f"seqtrace.{seqtrace._MODULE_OF[name]}")
        value = getattr(module, name)
        assert seqtrace.__getattr__(name) is value, name
        assert getattr(seqtrace, name) is value, name
        if isinstance(value, (type, types.FunctionType)):
            assert value.__module__ == module.__name__, name
    for name in ("oracle_strong", "scope", "_contrast"):
        with pytest.raises(AttributeError):
            seqtrace.__getattr__(name)
    # The submodules, which importing the package once bound, are served too.
    assert seqtrace.__getattr__("semantics") is importlib.import_module("seqtrace.semantics")
    bound = {name for name, value in vars(seqtrace).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert bound == set(seqtrace._MODULE_OF) == set(seqtrace.__all__)


def test_the_cli_starts_without_dataclasses_or_the_oracle():
    # -S leaves out site-packages and its .pth hooks, which may import anything.
    # `check` loads neither the evaluator nor the conformance checks, and
    # `traces` loads the evaluator but not the conformance checks. A
    # well-formed command line is read without argparse, and files without
    # pathlib.
    diagram = SRC.parent / "diagrams" / "nested.sd"
    probe = (
        "import sys, seqtrace.cli\n"
        "watched = {'dataclasses', 'inspect', 'seqtrace.conformance',\n"
        "           'seqtrace.semantics', 'argparse', 'gettext', 'locale', 'pathlib'}\n"
        "print(sorted(watched & set(sys.modules)))\n"
        f"seqtrace.cli.main(['check', {str(diagram)!r}])\n"
        "print(sorted(watched & set(sys.modules)))\n"
        f"seqtrace.cli.main(['traces', {str(diagram)!r}, '--count'])\n"
        "print(sorted(watched & set(sys.modules)))\n"
        "print(sorted(m for m in sys.modules if m.startswith('seqtrace')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=60,
    )
    loaded = ["seqtrace", "seqtrace.ast", "seqtrace.cli", "seqtrace.errors", "seqtrace.parser",
              "seqtrace.semantics"]
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, f"[]\n[]\n6\n['seqtrace.semantics']\n{loaded}\n", ""
    )
    # Help still comes from argparse.
    proc = subprocess.run(
        [sys.executable, "-S", "-m", "seqtrace", "--help"],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0 and proc.stdout.startswith("usage: seqtrace "), proc.stderr


def test_removed_names_stay_gone():
    # The oracles and the fragment generator live in tests/reference.py.
    for name in ("TraceLog", "Witness", "theorem1_check", "peers", "Diagnostic", "namespace_of",
                 "GeneratorConfig", "InputTooLargeError", "generate_fragment",
                 "generate_fragments", "oracle_interleave", "oracle_weak", "oracle"):
        assert not hasattr(seqtrace, name), name
        assert name not in seqtrace.__all__
    assert not hasattr(seqtrace.ast, "peers")
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("seqtrace.oracle")


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


def test_the_program_reaches_every_runtime_module():
    # Every import statement, at module level or inside a function, followed
    # from the program's entry points: a module that it never reaches serves
    # only tests and scripts, which have modules of their own.
    package = SRC / "seqtrace"
    modules = {path.stem for path in package.glob("*.py")} - {"__init__"}

    def imported(module):
        for node in ast.walk(ast.parse((package / f"{module}.py").read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                yield from (alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                yield node.module

    reached, todo = set(), ["__main__", "cli"]
    while todo:
        module = todo.pop()
        if module not in reached:
            reached.add(module)
            todo.extend(name.split(".", 1)[1] for name in imported(module)
                        if name.startswith("seqtrace."))
    assert reached == modules


def test_the_runtime_parses_as_python_3_10():
    # pyproject.toml declares requires-python >= 3.10, so no module may use
    # syntax that a later version added, such as ``except*``.
    for path in (SRC / "seqtrace").glob("*.py"):
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
