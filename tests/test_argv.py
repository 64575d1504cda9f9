"""How the CLI reads its command line: help and usage errors keep their
exact bytes, and the direct reader of well-formed lines agrees with
argparse wherever it accepts."""

import importlib.util
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqtrace import cli

ROOT = Path(__file__).resolve().parents[1]

USAGE = "usage: seqtrace [-h] {parse,check,traces,refine,conform,theorem} ...\n"
TRACES_USAGE = "usage: seqtrace traces [-h] [--max-loop K] [--max-traces M] [--count] file\n"
CONFORM_USAGE = """\
usage: seqtrace conform [-h] [--max-loop K] [--max-traces M] --mode
                        {required,exhaust,forbid}
                        file log
"""
THEOREM_USAGE = "usage: seqtrace theorem [-h] [--max-traces M] --depth K file\n"
LIMITS_HELP = """\
  --max-loop K    loop unrolling bound (default 2)
  --max-traces M  hard cap on trace-set size (default 1000000)
"""

HELP = {
    (): USAGE + """
Parse asynchronous sequence diagrams and reason about their traces

positional arguments:
  {parse,check,traces,refine,conform,theorem}
    parse               Print a stable AST dump of a diagram file
    check               Validate lifeline scoping; print diagnostics
    traces              Enumerate the diagram's traces, sorted
    refine              Check that A's traces are a subset of B's
    conform             Compare diagram traces against a trace log
    theorem             Check the bounded loop-unrolling identity

options:
  -h, --help            show this help message and exit
""",
    **{(command,): f"""usage: seqtrace {command} [-h] file

positional arguments:
  file

options:
  -h, --help  show this help message and exit
""" for command in ("parse", "check")},
    ("traces",): TRACES_USAGE + """
positional arguments:
  file

options:
  -h, --help      show this help message and exit
""" + LIMITS_HELP + """\
  --count         print only the number of traces
""",
    ("refine",): """\
usage: seqtrace refine [-h] [--max-loop K] [--max-traces M] file_a file_b

positional arguments:
  file_a
  file_b

options:
  -h, --help      show this help message and exit
""" + LIMITS_HELP,
    ("conform",): CONFORM_USAGE + """
positional arguments:
  file
  log

options:
  -h, --help            show this help message and exit
  --max-loop K          loop unrolling bound (default 2)
  --max-traces M        hard cap on trace-set size (default 1000000)
  --mode {required,exhaust,forbid}
""",
    ("theorem",): THEOREM_USAGE + """
positional arguments:
  file

options:
  -h, --help      show this help message and exit
  --max-traces M  hard cap on trace-set size (default 1000000)
  --depth K
""",
}

USAGE_ERRORS = {
    (): USAGE + "seqtrace: error: the following arguments are required: command\n",
    ("bogus",): USAGE + "seqtrace: error: argument command: invalid choice: 'bogus' (choose "
                        "from 'parse', 'check', 'traces', 'refine', 'conform', 'theorem')\n",
    ("conform", "a.sd", "b.log"): CONFORM_USAGE
    + "seqtrace conform: error: the following arguments are required: --mode\n",
    ("conform", "a.sd", "b.log", "--mode", "bogus"): CONFORM_USAGE
    + "seqtrace conform: error: argument --mode: invalid choice: 'bogus' "
      "(choose from 'required', 'exhaust', 'forbid')\n",
    ("traces", "a.sd", "--max-loop", "-1"): TRACES_USAGE
    + "seqtrace traces: error: argument --max-loop: must be at least 0, got -1\n",
    ("traces", "a.sd", "--max-traces", "0"): TRACES_USAGE
    + "seqtrace traces: error: argument --max-traces: must be at least 1, got 0\n",
    ("theorem", "a.sd", "--depth", "x"): THEOREM_USAGE
    + "seqtrace theorem: error: argument --depth: invalid int value: 'x'\n",
}


def exit_of(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    out, err = capsys.readouterr()
    return exc.value.code, out, err


@pytest.mark.parametrize("command", list(HELP), ids=lambda c: " ".join(c) or "seqtrace")
def test_help_keeps_its_bytes(capsys, monkeypatch, command):
    assert exit_of(capsys, monkeypatch, [*command, "--help"]) == (0, HELP[command], "")


@pytest.mark.parametrize("argv", list(USAGE_ERRORS), ids=lambda a: " ".join(a) or "none")
def test_usage_errors_keep_their_bytes(capsys, monkeypatch, argv):
    assert exit_of(capsys, monkeypatch, argv) == (2, "", USAGE_ERRORS[argv])


# Words a command line is drawn from: every option, abbreviations and
# `=` forms of them, values argparse reads in ways of its own, and files.
OPTIONS = ["--max-loop", "--max-traces", "--count", "--mode", "--depth"]
ODD_OPTIONS = ["--max", "--max-l", "--max-t", "--co", "--mo", "--dep", "-h", "--help",
               "--max-loop=3", "--max-traces=5", "--mode=exhaust", "--depth=2", "--count=1"]
VALUES = ["0", "1", "2", "3", "10", "-1", "-0", "+3", "007", "1_0", "٣", "²", " 3", "3 ",
          "1" * 700, "required", "exhaust", "forbid", "bogus", "-", "--", "-h", ""]
NAMES = ["a.sd", "b.log", "x y.sd", "check", ""]  # files argparse reads as given
FILES = [*NAMES, "-x.sd", "-1"]


@st.composite
def command_lines(draw):
    """A command and its words: most lines are close to well-formed, and
    some words are swapped, dropped or repeated."""
    command = draw(st.sampled_from([*cli.COMMANDS, "bogus", "-h", "--help", "--"]))
    _, names, options, _ = cli.COMMANDS.get(command, (None, ("file",), (), None))
    chunks = [[draw(st.sampled_from(NAMES))] for _ in names]
    for option in options:
        if draw(st.booleans()):
            chunks.append([option[0]] if option[2] is None
                          else [option[0], draw(st.sampled_from(VALUES))])
    words = [w for chunk in draw(st.permutations(chunks)) for w in chunk]
    for _ in range(draw(st.integers(0, 2))):
        word = draw(st.sampled_from(OPTIONS + ODD_OPTIONS + VALUES + FILES))
        at = draw(st.integers(0, len(words)))
        if words and draw(st.booleans()):
            words[min(at, len(words) - 1)] = word
        elif draw(st.booleans()) and words:
            del words[min(at, len(words) - 1)]
        else:
            words.insert(at, word)
    return [command, *words]


PARSER = cli.build_parser()


@settings(max_examples=1000, deadline=None)
@given(command_lines())
def test_the_direct_reader_agrees_with_argparse(argv):
    args = cli._read_argv(argv)
    if args is not None:
        assert vars(args) == vars(PARSER.parse_args(argv))


@pytest.mark.parametrize("argv", [
    ["check", "a.sd"],
    ["traces", "--count", "a.sd", "--max-loop", "007", "--max-traces", "1"],
    ["refine", "a.sd", "--max-loop", "0", "b.sd"],
    ["conform", "--mode", "forbid", "a.sd", "b.log"],
    ["theorem", "a.sd", "--depth", "0"],
])
def test_the_direct_reader_reads_well_formed_lines(argv):
    assert vars(cli._read_argv(argv)) == vars(PARSER.parse_args(argv))


@pytest.mark.parametrize("argv", [
    [], ["bogus", "a.sd"], ["check"], ["check", "a.sd", "b.sd"], ["check", "-"],
    ["check", "--", "a.sd"], ["check", "a.sd", "-h"], ["traces", "a.sd", "--max-l", "3"],
    ["traces", "a.sd", "--max-loop=3"], ["traces", "a.sd", "--count", "--count"],
    ["traces", "a.sd", "--max-loop"], ["traces", "a.sd", "--max-loop", "٣"],
    ["traces", "a.sd", "--max-traces", "0"], ["traces", "a.sd", "--max-loop", "1" * 641],
    ["conform", "a.sd", "b.log"], ["conform", "a.sd", "b.log", "--mode", "Forbid"],
    ["theorem", "a.sd"],
])
def test_the_direct_reader_leaves_every_other_line_to_argparse(argv):
    assert cli._read_argv(argv) is None


def load_workloads():
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.mark.parametrize("workload", ["weave", "shuffle", "ingest"])
def test_every_benchmark_command_line_is_read_directly(tmp_path, workload):
    generated = load_workloads().WORKLOADS[workload](7, tmp_path)
    for argv in [generated.warmup, *(job.argv for job in generated.jobs)]:
        assert cli._read_argv(list(argv)) is not None, argv
