"""The command-line surface: exit codes, output shape, and determinism."""

import contextlib
import errno
import hashlib
import io
import os
import random
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from seqtrace import (
    EvalLimits,
    TraceSetOverflowError,
    conformance,
    count_traces,
    parse,
    parser,
    semantics,
)
from seqtrace.cli import main

M1_LINES = [
    "A.m1.B A.m2.B C.m3.D B.m4.C",
    "A.m1.B C.m3.D A.m2.B B.m4.C",
    "C.m3.D A.m1.B A.m2.B B.m4.C",
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTraces:
    def test_weak_order_sorted_lines(self, capsys, diagrams_dir):
        code, out, err = run(capsys, "traces", str(diagrams_dir / "weak_order.sd"))
        assert code == 0
        assert out.splitlines() == M1_LINES

    def test_par_invite_six_lines(self, capsys, diagrams_dir):
        code, out, _ = run(capsys, "traces", str(diagrams_dir / "par_invite.sd"))
        assert code == 0
        assert len(out.splitlines()) == 6
        assert "c.invite.x x.accept.c c.invite.y y.accept.c" in out.splitlines()

    def test_loop_count(self, capsys, diagrams_dir):
        code, out, _ = run(
            capsys,
            "traces",
            str(diagrams_dir / "loop_pair.sd"),
            "--max-loop",
            "2",
            "--count",
        )
        assert code == 0
        assert out.strip() == "77"

    def test_listing_is_written_a_window_at_a_time(self, diagrams_dir, monkeypatch):
        # With PYTHONUNBUFFERED set, each write to stdout is a system call.
        class Counting(io.StringIO):
            writes = 0

            def write(self, text):
                self.writes += 1
                return super().write(text)

        out = Counting()
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["traces", str(diagrams_dir / "loop_pair.sd"), "--max-loop", "4"]) == 0
        lines = out.getvalue().splitlines()
        assert lines == sorted(set(lines)) and len(lines) == 13_871
        assert out.writes <= len(lines) / 100

    def test_lifecycle_only_prints_epsilon(self, capsys, diagrams_dir):
        code, out, _ = run(capsys, "traces", str(diagrams_dir / "lifecycle_only.sd"))
        assert code == 0
        assert out.strip() == "ε"

    def test_epsilon_sorts_last(self, capsys, tmp_path):
        # Streamed class by class, the empty trace still prints after every
        # message, as in a sorted listing.
        path = tmp_path / "maybe.sd"
        path.write_text("lifeline A\nlifeline B\nalt {\n  skip\n--\n  A -> B : x\n  B -> B : y\n}\n")
        code, out, _ = run(capsys, "traces", str(path))
        assert (code, out) == (0, "A.x.B B.y.B\nε\n")

    def test_closed_pipe_exits_2_without_traceback(self, diagrams_dir):
        # 13,871 lines: far more than a pipe buffers, so the writer meets the
        # closed read end while it is still printing.
        env = dict(os.environ, PYTHONPATH=str(diagrams_dir.parent / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "seqtrace", "traces", str(diagrams_dir / "loop_pair.sd"),
             "--max-loop", "4"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 2
        assert b"Traceback" not in err

    @pytest.mark.parametrize("encoding", ["ascii", "latin-1"])
    def test_output_is_utf8_whatever_the_locale(self, diagrams_dir, tmp_path, encoding):
        # The listing is log input, and logs are read as UTF-8.
        env = dict(os.environ, PYTHONPATH=str(diagrams_dir.parent / "src"),
                   PYTHONIOENCODING=encoding)

        def seqtrace(*argv):
            proc = subprocess.run([sys.executable, "-m", "seqtrace", *argv],
                                  capture_output=True, env=env, timeout=60)
            return proc.returncode, proc.stdout, proc.stderr

        traces = seqtrace("traces", str(diagrams_dir / "lifecycle_only.sd"))
        assert traces == (0, "ε\n".encode(), b"")
        log = tmp_path / "empty.log"
        log.write_text("ε\n", encoding="utf-8")
        witness = seqtrace("conform", str(diagrams_dir / "weak_order.sd"), str(log),
                           "--mode", "exhaust")
        assert witness == (1, "FAILS\nlog: ε\n".encode(), b"note: loop bound 2\n")

    @pytest.mark.parametrize("argv", [["traces", "lifecycle_only.sd"],
                                      ["traces", "invalid/loop_scope.sd"]])
    def test_main_leaves_the_callers_stdout_as_it_found_it(self, diagrams_dir, monkeypatch,
                                                            argv):
        # main writes UTF-8 through the caller's stream, then gives the
        # stream back its own encoding and error handler.
        raw = io.BytesIO()
        stream = io.TextIOWrapper(raw, encoding="latin-1", errors="backslashreplace")
        monkeypatch.setattr(sys, "stdout", stream)
        main([argv[0], str(diagrams_dir / argv[1])])
        assert (stream.encoding, stream.errors) == ("latin-1", "backslashreplace")
        stream.flush()
        assert raw.getvalue() == ("ε\n".encode() if argv[1] == "lifecycle_only.sd" else b"")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv", [
        ["traces", "weak_order.sd"],
        ["check", "invalid/destroy_absent.sd"],
    ])
    def test_unwritable_output_exits_2_without_traceback(self, diagrams_dir, argv):
        # Every write to /dev/full fails with ENOSPC.
        env = dict(os.environ, PYTHONPATH=str(diagrams_dir.parent / "src"))
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "seqtrace", argv[0], str(diagrams_dir / argv[1])],
                stdout=full, stderr=subprocess.PIPE, env=env, timeout=60,
            )
        want = f"error: cannot write output: {os.strerror(errno.ENOSPC)}\n".encode()
        assert (proc.returncode, proc.stderr) == (2, want)

    @pytest.mark.parametrize("argv,code,err", [
        (["traces", "weak_order.sd"], 2, ""),
        (["traces", "weak_order.sd", "--count"], 2, ""),
        (["check", "weak_order.sd"], 0, None),  # nothing to write
        (["check", "invalid/destroy_absent.sd"], 2, ""),
        # The verdict FAILS, but cannot be written: exit 2, not 1.
        (["refine", "weak_order.sd", "loop_pair.sd"], 2, "note: loop bound 2\n"),
    ])
    def test_closed_stdout_exits_2_without_traceback(self, diagrams_dir, argv, code, err):
        # With descriptor 1 closed at start-up, sys.stdout is None.
        env = dict(os.environ, PYTHONPATH=str(diagrams_dir.parent / "src"))
        files = [str(diagrams_dir / a) if a.endswith(".sd") else a for a in argv[1:]]
        proc = subprocess.run(
            [sys.executable, "-m", "seqtrace", argv[0], *files],
            stderr=subprocess.PIPE, env=env, timeout=60, preexec_fn=lambda: os.close(1),
        )
        want = "" if err is None else f"{err}error: cannot write output: {os.strerror(errno.EBADF)}\n"
        assert (proc.returncode, proc.stderr.decode()) == (code, want)

    @pytest.mark.parametrize("argv,code,out", [
        (["traces", "nosuch.sd"], 2, ""),
        (["traces", "invalid/destroy_absent.sd"], 2, ""),
        (["traces", "loop_pair.sd", "--max-traces", "5"], 2, ""),
        (["refine", "weak_order.sd", "weak_order.sd"], 0, "REFINES\n"),
    ])
    def test_closed_stderr_drops_the_diagnostics(self, capsys, diagrams_dir, monkeypatch,
                                                 argv, code, out):
        # print(file=None) would write them to stdout.
        monkeypatch.setattr(sys, "stderr", None)
        files = [str(diagrams_dir / a) if a.endswith(".sd") else a for a in argv[1:]]
        assert main([argv[0], *files]) == code
        assert capsys.readouterr().out == out

    def test_out_of_memory_while_listing_exits_2_without_traceback(
        self, capsys, diagrams_dir, monkeypatch
    ):
        def exhausted():
            yield ["A.m1.B"]
            raise MemoryError

        monkeypatch.setattr(semantics, "_contrast", lambda left, right: (1, exhausted()))
        code, out, err = run(capsys, "traces", str(diagrams_dir / "weak_order.sd"))
        assert (code, out, err) == (2, "A.m1.B\n", "error: out of memory\n")

    def test_invalid_diagram_exits_2(self, capsys, diagrams_dir):
        code, out, err = run(
            capsys, "traces", str(diagrams_dir / "invalid" / "worker_leaky.sd")
        )
        assert code == 2
        assert not out
        assert "unknown-lifeline" in err

    def test_overflow_exits_2(self, capsys, diagrams_dir):
        code, out, err = run(
            capsys,
            "traces",
            str(diagrams_dir / "loop_pair.sd"),
            "--max-loop",
            "3",
            "--max-traces",
            "50",
        )
        assert code == 2
        assert "cap" in err

    def test_overflow_names_the_innermost_fragment(self, capsys, diagrams_dir, tmp_path):
        # The loop body's basic fragment alone weaves to six traces.
        code, out, err = run(
            capsys, "traces", str(diagrams_dir / "loop_pair.sd"), "--max-traces", "5"
        )
        assert (code, out) == (2, "")
        assert err == "error: 9:3: trace set exceeds the cap of 5 traces\n"
        # A one-trace body: the loop's own closure passes the cap.
        single = tmp_path / "single.sd"
        single.write_text("lifeline A\nloop {\n  A -> A : m\n}\n")
        code, out, err = run(capsys, "traces", str(single), "--max-loop", "9", "--max-traces", "5")
        assert (code, out) == (2, "")
        assert err == "error: 2:1: trace set exceeds the cap of 5 traces\n"

    @pytest.mark.parametrize("cap, loc", [(5, "10:3"), (6, "7:1")])
    def test_overflow_of_a_branch_or_of_the_alt(self, capsys, diagrams_dir, cap, loc):
        # The second branch is a class of six on its own, the alt has seven.
        path = diagrams_dir / "wide_branch.sd"
        diagram = parse(path.read_text())
        with pytest.raises(TraceSetOverflowError) as exc:
            count_traces(diagram.root, diagram.initial_namespace, EvalLimits(max_traces=cap))
        assert str(exc.value.loc) == loc
        want = (2, "", f"error: {loc}: trace set exceeds the cap of {cap} traces\n")
        for count in ([], ["--count"]):
            assert run(capsys, "traces", str(path), "--max-traces", str(cap), *count) == want

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "traces", str(tmp_path / "nope.sd"))
        assert code == 2
        assert "error" in err

    def test_deterministic_output(self, capsys, diagrams_dir):
        first = run(capsys, "traces", str(diagrams_dir / "nested.sd"))
        second = run(capsys, "traces", str(diagrams_dir / "nested.sd"))
        assert first == second


class TestCheck:
    def test_clean_file(self, capsys, diagrams_dir):
        code, out, err = run(capsys, "check", str(diagrams_dir / "worker_scoped.sd"))
        assert (code, out, err) == (0, "", "")

    def test_scope_leak_exits_1(self, capsys, diagrams_dir):
        code, out, _ = run(
            capsys, "check", str(diagrams_dir / "invalid" / "worker_leaky.sd")
        )
        assert code == 1
        lines = out.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("11:1: unknown-lifeline")

    def test_syntax_error_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.sd"
        bad.write_text("lifeline A\nA -> ; m\n")
        code, out, err = run(capsys, "check", str(bad))
        assert code == 2
        assert not out
        assert "error: 2:6:" in err


class TestScopeFindings:
    # loop_scope.sd has one finding of each kind, inside a loop at the root.
    FINDINGS = [
        "7:3: unknown-lifeline: lifeline 'C' is not in scope",
        "8:3: duplicate-create: create of lifeline 'B' which is already in scope",
        "9:3: destroy-absent: destroy of lifeline 'D' which is not in scope",
    ]

    def test_check_prints_them_on_stdout(self, capsys, diagrams_dir):
        code, out, err = run(capsys, "check", str(diagrams_dir / "invalid" / "loop_scope.sd"))
        assert (code, out, err) == (1, "".join(f"{f}\n" for f in self.FINDINGS), "")

    @pytest.mark.parametrize("argv", [
        ["traces", "{bad}"],
        ["refine", "{good}", "{bad}"],
        ["conform", "{bad}", "{log}", "--mode", "exhaust"],
        ["theorem", "{bad}", "--depth", "2"],
    ])
    def test_other_commands_print_them_on_stderr(self, capsys, diagrams_dir, argv):
        bad = str(diagrams_dir / "invalid" / "loop_scope.sd")
        paths = {"bad": bad, "good": str(diagrams_dir / "weak_order.sd"),
                 "log": str(diagrams_dir / "weak_order.log")}
        code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
        assert (code, out, err) == (2, "", "".join(f"{bad}:{f}\n" for f in self.FINDINGS))


class TestParseDump:
    def test_minimal(self, capsys, tmp_path):
        f = tmp_path / "one.sd"
        f.write_text("lifeline A\nlifeline B\nA -> B : m1\n")
        code, out, _ = run(capsys, "parse", str(f))
        assert code == 0
        assert out == "lifelines A B\nbasic @3:1 A.m1.B\n"

    def test_headers_only_gives_skip_root(self, capsys, tmp_path):
        f = tmp_path / "empty.sd"
        f.write_text("lifeline A\n")
        code, out, _ = run(capsys, "parse", str(f))
        assert code == 0
        assert out == "lifelines A\nskip\n"

    def test_alt_structure(self, capsys, diagrams_dir):
        code, out, _ = run(capsys, "parse", str(diagrams_dir / "alt_choice.sd"))
        assert code == 0
        assert out.splitlines()[:2] == ["lifelines A B C", "weakseq @6:1"]
        assert "  alt @6:1" in out.splitlines()

    def test_syntax_error_exits_2(self, capsys, tmp_path):
        f = tmp_path / "bad.sd"
        f.write_text("alt {\n")
        code, _, err = run(capsys, "parse", str(f))
        assert code == 2
        assert "error" in err


class TestRefine:
    @pytest.fixture()
    def single(self, tmp_path, diagrams_dir):
        f = tmp_path / "single.sd"
        f.write_text(
            "lifeline A\nlifeline B\nlifeline C\nA -> B : m1\nA -> C : m3\n"
        )
        return str(f)

    def test_branch_refines_alt(self, capsys, single, diagrams_dir):
        code, out, _ = run(
            capsys, "refine", single, str(diagrams_dir / "alt_choice.sd")
        )
        assert code == 0
        assert out.splitlines() == ["REFINES"]

    def test_reverse_fails_with_witness(self, capsys, single, diagrams_dir):
        code, out, _ = run(
            capsys, "refine", str(diagrams_dir / "alt_choice.sd"), single
        )
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "FAILS"
        assert "A.m2.B A.m3.C" in lines[1:]

    def test_identical_files(self, capsys, diagrams_dir):
        f = str(diagrams_dir / "nested.sd")
        code, out, _ = run(capsys, "refine", f, f)
        assert code == 0
        assert out.splitlines() == ["REFINES"]

    def test_invalid_input_exits_2(self, capsys, single, diagrams_dir):
        code, _, err = run(
            capsys,
            "refine",
            single,
            str(diagrams_dir / "invalid" / "destroy_absent.sd"),
        )
        assert code == 2
        assert "destroy-absent" in err

    def test_max_traces_caps_evaluation(self, capsys, diagrams_dir):
        f = str(diagrams_dir / "loop_pair.sd")
        code, out, err = run(capsys, "refine", f, f, "--max-traces", "5")
        assert (code, out) == (2, "")
        assert err == (
            "note: loop bound 2\n"
            f"error: {f}:9:3: trace set exceeds the cap of 5 traces\n"
        )

    def test_overflow_names_its_file_in_either_order(self, capsys, diagrams_dir):
        small, large = str(diagrams_dir / "weak_order.sd"), str(diagrams_dir / "loop_pair.sd")
        want = (2, "", "note: loop bound 2\n"
                f"error: {large}:9:3: trace set exceeds the cap of 5 traces\n")
        assert run(capsys, "refine", small, large, "--max-traces", "5") == want
        assert run(capsys, "refine", large, small, "--max-traces", "5") == want

    def test_parse_error_names_its_file(self, capsys, tmp_path, single):
        bad = tmp_path / "bad.sd"
        bad.write_text("lifeline A\nA -> : m\n")
        want = (2, "", f"error: {bad}:2:6: expected lifeline name, found ':'\n")
        assert run(capsys, "refine", str(bad), single) == want
        assert run(capsys, "refine", single, str(bad)) == want


class TestConform:
    def test_own_traces_exhaustive(self, capsys, tmp_path, diagrams_dir):
        diagram = str(diagrams_dir / "weak_order.sd")
        code, out, _ = run(capsys, "traces", diagram)
        assert code == 0
        log = tmp_path / "run.log"
        log.write_text(out)
        code, out, _ = run(capsys, "conform", diagram, str(log), "--mode", "exhaust")
        assert code == 0
        assert out.splitlines() == ["HOLDS"]

    def test_reordered_trace_fails_exhaustive(self, capsys, tmp_path, diagrams_dir):
        log = tmp_path / "bad.log"
        log.write_text("A.m2.B A.m1.B C.m3.D B.m4.C\n")
        code, out, _ = run(
            capsys,
            "conform",
            str(diagrams_dir / "weak_order.sd"),
            str(log),
            "--mode",
            "exhaust",
        )
        assert code == 1
        assert out.splitlines()[0] == "FAILS"
        assert out.splitlines()[1] == "log: A.m2.B A.m1.B C.m3.D B.m4.C"

    def test_forbid_empty_log(self, capsys, tmp_path, diagrams_dir):
        log = tmp_path / "empty.log"
        log.write_text("# nothing observed\n")
        code, out, _ = run(
            capsys,
            "conform",
            str(diagrams_dir / "weak_order.sd"),
            str(log),
            "--mode",
            "forbid",
        )
        assert code == 0
        assert out.splitlines() == ["HOLDS"]

    def test_log_error_reports_line(self, capsys, tmp_path, diagrams_dir):
        log = tmp_path / "torn.log"
        log.write_text("A.m1.B\nnot a trace\n")
        code, _, err = run(
            capsys,
            "conform",
            str(diagrams_dir / "weak_order.sd"),
            str(log),
            "--mode",
            "exhaust",
        )
        assert code == 2
        assert "line 2" in err

    def test_max_traces_caps_evaluation(self, capsys, tmp_path, diagrams_dir):
        log = tmp_path / "run.log"
        log.write_text("A.m1.B\n")
        code, out, err = run(
            capsys, "conform", str(diagrams_dir / "loop_pair.sd"), str(log),
            "--mode", "required", "--max-traces", "5",
        )
        assert (code, out) == (2, "")
        assert err == (
            "note: loop bound 2\n"
            "error: 9:3: trace set exceeds the cap of 5 traces\n"
        )


@pytest.mark.parametrize("argv, walks", [
    (["traces", "nested.sd"], 1),
    (["traces", "nested.sd", "--count"], 1),
    (["refine", "nested.sd", "alt_choice.sd"], 2),
    (["refine", "weak_order.sd", "weak_order.sd"], 2),
    *((["conform", "weak_order.sd", "weak_order.log", "--mode", mode], 1)
      for mode in ("required", "exhaust", "forbid")),
    # theorem walks two copies of the body in place of the loop.
    (["theorem", "loop_pair.sd", "--depth", "2"], 1),
    (["theorem", "loop_pair.sd", "--depth", "1"], 1),
])
def test_one_scope_walk_per_diagram(capsys, diagrams_dir, monkeypatch, argv, walks):
    # _load checks each diagram, and the verdict evaluates what it checked.
    seen = []
    scope = parser.scope
    for module in (parser, semantics):  # the evaluator binds scope too
        monkeypatch.setattr(module, "scope", lambda *args: seen.append(1) or scope(*args))
    argv = [str(diagrams_dir / a) if a.endswith((".sd", ".log")) else a for a in argv]
    assert run(capsys, *argv)[0] in (0, 1)
    assert len(seen) == walks


def test_conform_reads_only_the_lines_the_diagram_does_not_spell(capsys, tmp_path, monkeypatch):
    # An alt of 200 five-message walks, each message sent by the previous
    # one's receiver, and skip: every walk is a class of one trace, and so is
    # the empty trace, whose line has no blank.
    rng = random.Random(32)
    names = [f"P{i}" for i in range(8)]
    walks = []
    for w in range(200):
        cur, walk = rng.choice(names), []
        for j in range(5):
            nxt = rng.choice([n for n in names if n != cur])
            walk.append((cur, f"w{w}s{j}", nxt))
            cur = nxt
        walks.append(walk)
    diagram = tmp_path / "wide.sd"
    diagram.write_text("".join(f"lifeline {n}\n" for n in names) + "alt {\n" + "\n--\n".join(
        "\n".join(f"{s} -> {r} : {label}" for s, label, r in walk) for walk in walks)
        + "\n--\nskip\n}\n")
    lines = [" ".join(f"{s}.{label}.{r}" for s, label, r in walk) for walk in walks] + ["ε"]
    foreign = [lines[i].replace(f"w{i}s2", "foreign") for i in range(3)]
    logged = lines * 3 + foreign * 2
    rng.shuffle(logged)
    log = tmp_path / "run.log"
    log.write_text("".join(f"{line}\n" for line in logged))
    seen = []
    read = conformance._read_trace
    monkeypatch.setattr(conformance, "_read_trace", lambda line: seen.append(line) or read(line))
    for mode in ("required", "exhaust", "forbid"):
        seen.clear()
        code, out, _ = run(capsys, "conform", str(diagram), str(log), "--mode", mode)
        assert code == (0 if mode == "required" else 1)
        # Besides its witnesses, read back from their lines, a verdict reads
        # the foreign lines only.
        witnesses = [line.split(": ", 1)[1] for line in out.splitlines()[1:]]
        assert len(seen) - len(witnesses) == 3
        assert sorted(seen) == sorted(foreign + witnesses)


# dotted_order.sd's traces in rendered-line order, which a dotted label sets
# apart from message order: ("S", "a", "c") < ("S", "a.b", "c"), but the line
# S.a.b.c sorts before S.a.c. The class of one falls between the two lines
# of the class of two.
DOTTED_LINES = ("S.a.b.c T.a.d", "S.a.c", "T.a.d S.a.b.c")


def stdout(*lines):
    return "".join(f"{line}\n" for line in lines)


class TestRenderedOrder:
    @pytest.fixture()
    def dotted(self, diagrams_dir):
        return str(diagrams_dir / "dotted_order.sd")

    @pytest.fixture()
    def log(self, tmp_path):
        path = tmp_path / "dotted.log"
        path.write_text("S.a.c\nT.a.d S.a.b.c\nS.a.1.c\nS.a.b.c T.a.d\n")
        return str(path)

    def test_traces(self, capsys, dotted):
        assert run(capsys, "traces", dotted)[:2] == (0, stdout(*DOTTED_LINES))

    def test_refine_lists_every_trace(self, capsys, tmp_path, dotted):
        empty = tmp_path / "empty.sd"
        empty.write_text("lifeline S\nlifeline c\nlifeline T\nlifeline d\n")
        assert run(capsys, "refine", dotted, str(empty))[:2] == (
            1, stdout("FAILS", *DOTTED_LINES))

    def test_required_of_an_empty_log(self, capsys, tmp_path, dotted):
        empty = tmp_path / "empty.log"
        empty.write_text("")
        assert run(capsys, "conform", dotted, str(empty), "--mode", "required")[:2] == (
            1, stdout("FAILS", *(f"diagram: {t}" for t in DOTTED_LINES)))

    def test_forbid(self, capsys, dotted, log):
        assert run(capsys, "conform", dotted, log, "--mode", "forbid")[:2] == (
            1, stdout("FAILS", *(f"both: {t}" for t in DOTTED_LINES)))

    def test_exhaust(self, capsys, dotted, log):
        assert run(capsys, "conform", dotted, log, "--mode", "exhaust")[:2] == (
            1, stdout("FAILS", "log: S.a.1.c"))


def independent_loop(n):
    """A loop over a consider keeping ``n`` pairwise-independent messages
    with dotted labels, which the body orders only through the relays the
    filter erases: at depth 1 the loop side has all n! orders of them and
    the unrolled side one."""
    kept = [f"P{i} -> Q{i} : k.{i}" for i in range(n)]
    body = [kept[0]]
    for i in range(1, n):
        body += [f"Q{i - 1} -> P{i} : r", kept[i]]
    return "".join([
        *(f"lifeline {x}{i}\n" for i in range(n) for x in "PQ"),
        "loop {\n", f"  consider [{', '.join(kept)}] {{\n",
        *(f"    {m}\n" for m in body), "  }\n}\n",
    ])


# filtered_loop.sd at depths 1 to 3: only the one-round traces differ, since
# two rounds in weak sequence weave the kept messages as the loop does. The
# dotted label sorts S.a.b.c before S.a.c.
FILTERED_LOOP_ONLY = (
    "S.a.b.c T.t.d U.u.e", "S.a.b.c U.u.e T.t.d", "S.a.c U.u.e T.t.d",
    "T.t.d S.a.b.c U.u.e", "T.t.d S.a.c U.u.e", "T.t.d U.u.e S.a.b.c",
    "T.t.d U.u.e S.a.c", "U.u.e S.a.b.c T.t.d", "U.u.e S.a.c T.t.d",
    "U.u.e T.t.d S.a.c",
)


class TestTheorem:
    def test_loop_file_equal(self, capsys, diagrams_dir):
        code, out, _ = run(
            capsys, "theorem", str(diagrams_dir / "loop_pair.sd"), "--depth", "2"
        )
        assert code == 0
        assert out.splitlines() == ["EQUAL"]

    def test_depth_zero(self, capsys, diagrams_dir):
        code, out, _ = run(
            capsys, "theorem", str(diagrams_dir / "loop_pair.sd"), "--depth", "0"
        )
        assert code == 0
        assert out.splitlines() == ["EQUAL"]

    def test_non_loop_root_exits_2(self, capsys, diagrams_dir):
        code, _, err = run(
            capsys, "theorem", str(diagrams_dir / "weak_order.sd"), "--depth", "1"
        )
        assert code == 2
        assert "not a loop" in err

    def test_overflow_names_the_loop(self, capsys, diagrams_dir):
        # The loop side at depth 6 has 2,902,783 traces, past the default cap.
        code, out, err = run(
            capsys, "theorem", str(diagrams_dir / "loop_pair.sd"), "--depth", "6"
        )
        assert (code, out) == (2, "")
        assert err == "error: 8:1: trace set exceeds the cap of 1000000 traces\n"

    def test_max_traces_lifts_the_cap(self, capsys, diagrams_dir):
        # Each side at depth 8 has 644,099,773 traces; equal sides list none.
        code, out, err = run(
            capsys, "theorem", str(diagrams_dir / "loop_pair.sd"), "--depth", "8",
            "--max-traces", "1000000000",
        )
        assert (code, out, err) == (0, "EQUAL\n", "")

    def test_out_of_memory_exits_2_without_traceback(self, capsys, diagrams_dir, monkeypatch):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(semantics, "_theorem1_contrasts", exhausted)
        code, out, err = run(
            capsys, "theorem", str(diagrams_dir / "loop_pair.sd"), "--depth", "30000"
        )
        assert (code, out, err) == (2, "", "error: out of memory\n")

    def test_deep_unrolling_is_linear_in_depth(self, capsys, tmp_path):
        # The body's only trace is the empty one, so both sides are one class
        # at any depth; evaluating each n-fold copy afresh was quadratic.
        diagram = tmp_path / "churn.sd"
        diagram.write_text("lifeline A\nloop {\n  create B\n  destroy B\n}\n")
        start = time.perf_counter()
        code, out, err = run(capsys, "theorem", str(diagram), "--depth", "2000")
        assert (code, out, err) == (0, "EQUAL\n", "")
        assert time.perf_counter() - start < 10

    @pytest.mark.parametrize("depth", [10**6, 2**63])
    def test_any_depth_stops_at_the_fixpoint(self, capsys, diagrams_dir, depth):
        # Every power of the idle body is the empty trace; a depth past any
        # machine integer is read as any other.
        start = time.perf_counter()
        code, out, err = run(
            capsys, "theorem", str(diagrams_dir / "idle_worker.sd"), "--depth", str(depth)
        )
        assert (code, out, err) == (0, "EQUAL\n", "")
        assert time.perf_counter() - start < 1

    def test_unrolled_scope_error_names_the_second_copy(self, capsys, tmp_path):
        # One round of the loop is in scope; two copies in sequence create B
        # twice, and the second create is the one reported.
        diagram = tmp_path / "recreate.sd"
        diagram.write_text("lifeline A\nloop {\n  create B\n}\n")
        code, out, err = run(capsys, "theorem", str(diagram), "--depth", "3")
        assert (code, out) == (2, "")
        assert err == (f"{diagram}:3:3: duplicate-create: "
                       "create of lifeline 'B' which is already in scope\n")

    @pytest.mark.parametrize("options", [("--depth", "2000"),
                                         ("--depth", str(2**63), "--max-traces", "50")])
    def test_unrolled_scope_error_comes_before_evaluation(self, capsys, diagrams_dir,
                                                           monkeypatch, options):
        # Two copies of worker_scoped.sd's body create P twice. That is found
        # before anything is evaluated, so the loop side neither takes time at
        # a large depth nor overflows first.
        monkeypatch.setattr(semantics, "_eval", lambda *args: pytest.fail("evaluated"))
        path = diagrams_dir / "worker_scoped.sd"
        assert run(capsys, "theorem", str(path), *options) == (2, "", (
            f"{path}:7:3: duplicate-create: create of lifeline 'P' which is already in scope\n"))

    def test_unequal_lists_the_witnesses(self, capsys, tmp_path):
        # The filtered body's word A.a.B C.c.D is not weakly closed: the loop
        # weaves it, the unrolled alt keeps the single-body branch as words.
        diagram = tmp_path / "filtered_loop.sd"
        diagram.write_text(
            "lifeline A\nlifeline B\nlifeline C\nlifeline D\n"
            "loop {\n"
            "  consider [A -> B : a, C -> D : c] {\n"
            "    A -> B : a\n    B -> C : b\n    C -> D : c\n"
            "  }\n"
            "}\n"
        )
        code, out, err = run(capsys, "theorem", str(diagram), "--depth", "2")
        assert (code, out, err) == (1, "UNEQUAL\nloop-only: C.c.D A.a.B\n", "")

    @pytest.mark.parametrize("depth", ["1", "2", "3"])
    def test_unequal_two_classes_in_rendered_order(self, capsys, diagrams_dir, depth):
        code, out, err = run(
            capsys, "theorem", str(diagrams_dir / "filtered_loop.sd"), "--depth", depth
        )
        assert (code, out, err) == (
            1, stdout("UNEQUAL", *(f"loop-only: {t}" for t in FILTERED_LOOP_ONLY)), "")

    def test_unequal_eight_independent_messages(self, capsys, tmp_path):
        diagram = tmp_path / "eight.sd"
        diagram.write_text(independent_loop(8))
        code, out, err = run(capsys, "theorem", str(diagram), "--depth", "1")
        assert (code, err) == (1, "")
        assert out.count("\n") == 40_320  # UNEQUAL and 8! - 1 loop-only lines
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "36eaf8ca98fcdbe571a7b2468e9e1db3680a3c05ad87ef60bc2fc67756376be6")

    def test_unequal_listing_is_not_held(self, tmp_path):
        # The differences are written a window at a time, never held whole.
        diagram = tmp_path / "eight.sd"
        diagram.write_text(independent_loop(8))
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                code = main(["theorem", str(diagram), "--depth", "1"])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert code == 1
        assert peak < 8 * 2**20

    def test_closed_pipe_exits_2_without_traceback(self, tmp_path):
        # 40,320 lines: far more than a pipe buffers.
        diagram = tmp_path / "eight.sd"
        diagram.write_text(independent_loop(8))
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "seqtrace", "theorem", str(diagram), "--depth", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.readline() == b"UNEQUAL\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 2
        assert b"Traceback" not in err

class TestRoundTripCorpus:
    def test_traces_feed_back_as_exhaustive_log(self, capsys, tmp_path, corpus_files):
        for diagram in corpus_files:
            code, out, _ = run(capsys, "traces", str(diagram))
            assert code == 0, diagram
            log = tmp_path / (diagram.stem + ".log")
            log.write_text(out)
            code, out, _ = run(
                capsys, "conform", str(diagram), str(log), "--mode", "exhaust"
            )
            assert code == 0, diagram
            assert out.splitlines() == ["HOLDS"]


class TestNumericFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["traces", "weak_order.sd", "--max-loop", "-1"],
            ["traces", "weak_order.sd", "--max-traces", "0"],
            ["theorem", "loop_pair.sd", "--depth", "-1"],
            ["theorem", "loop_pair.sd", "--depth", "2", "--max-traces", "0"],
            ["refine", "weak_order.sd", "weak_order.sd", "--max-loop", "-1"],
            ["refine", "weak_order.sd", "weak_order.sd", "--max-traces", "0"],
            ["conform", "weak_order.sd", "weak_order.sd", "--mode", "exhaust",
             "--max-loop", "-1"],
            ["conform", "weak_order.sd", "weak_order.sd", "--mode", "exhaust",
             "--max-traces", "0"],
        ],
    )
    def test_out_of_range_is_a_usage_error(self, capsys, diagrams_dir, argv):
        argv = [str(diagrams_dir / a) if a.endswith(".sd") else a for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "must be at least" in err
        assert "Traceback" not in err


class TestUnreadableInput:
    def test_check_non_utf8_diagram_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.sd"
        bad.write_bytes(b"lifeline A\n\xff\n")
        code, out, err = run(capsys, "check", str(bad))
        assert code == 2
        assert not out
        assert "invalid UTF-8" in err

    def test_conform_non_utf8_log_exits_2(self, capsys, tmp_path, diagrams_dir):
        log = tmp_path / "bad.log"
        log.write_bytes(b"A.m1.B\n\xff\n")
        code, out, err = run(
            capsys,
            "conform",
            str(diagrams_dir / "weak_order.sd"),
            str(log),
            "--mode",
            "exhaust",
        )
        assert code == 2
        assert not out
        assert "invalid UTF-8" in err

    def test_a_file_name_is_opened_as_given(self, capsys, diagrams_dir):
        # A trailing slash names a directory, as open(2) reads it.
        name = f"{diagrams_dir / 'weak_order.sd'}/"
        assert run(capsys, "check", name) == (2, "", f"error: cannot read {name}: Not a directory\n")
        assert run(capsys, "check", "") == (
            2, "", "error: cannot read : No such file or directory\n")


BOM = b"\xef\xbb\xbf"


class TestByteOrderMark:
    def test_diagram_reads_as_its_plain_twin(self, capsys, tmp_path, diagrams_dir):
        plain = diagrams_dir / "weak_order.sd"
        marked = tmp_path / "marked.sd"
        marked.write_bytes(BOM + plain.read_bytes())
        assert run(capsys, "traces", str(marked)) == run(capsys, "traces", str(plain))

    def test_log_gives_the_same_verdict(self, capsys, tmp_path, diagrams_dir):
        diagram = str(diagrams_dir / "weak_order.sd")
        text = b"A.m2.B A.m1.B C.m3.D B.m4.C\nA.m1.B A.m2.B C.m3.D B.m4.C\n"
        plain, marked = tmp_path / "plain.log", tmp_path / "marked.log"
        plain.write_bytes(text)
        marked.write_bytes(BOM + text)
        got = [run(capsys, "conform", diagram, str(log), "--mode", "exhaust")
               for log in (plain, marked)]
        assert got[0] == got[1]
        assert got[0][:2] == (1, "FAILS\nlog: A.m2.B A.m1.B C.m3.D B.m4.C\n")

    def test_bad_byte_offset_counts_the_mark(self, capsys, tmp_path):
        bad = tmp_path / "bad.sd"
        bad.write_bytes(BOM + b"lifeline A\n\xff\n")
        code, out, err = run(capsys, "check", str(bad))
        assert (code, out) == (2, "")
        assert err == f"error: cannot read {bad}: invalid UTF-8 at byte 14\n"


class TestNesting:
    @pytest.mark.parametrize("command", ["parse", "check"])
    def test_too_deep_is_a_located_parse_error(self, capsys, tmp_path, command):
        deep = tmp_path / "deep.sd"
        deep.write_text("lifeline A\n" + "loop {\n" * 3000)
        code, out, err = run(capsys, command, str(deep))
        assert code == 2
        assert not out
        assert err.startswith("error: 202:1: ")

    def test_two_hundred_levels_still_work(self, capsys, tmp_path):
        nested = tmp_path / "nested.sd"
        nested.write_text("lifeline A\n" + "alt {\n" * 200 + "A -> A : m\n" + "}\n" * 200)
        code, out, _ = run(capsys, "parse", str(nested))
        assert code == 0
        assert len(out.splitlines()) == 202
        assert run(capsys, "check", str(nested)) == (0, "", "")
        assert run(capsys, "traces", str(nested)) == (0, "A.m.A\n", "")


def _block(keyword, groups):
    return keyword + " {\n" + "\n--\n".join("\n".join(g) for g in groups) + "\n}"


_STATEMENTS = st.recursive(
    # Weighted towards statements that keep the diagram in scope.
    st.sampled_from(
        ["A -> B : m", "B -> A : n", "A -> A : t"] * 3
        + ["A -> C : m", "create C", "destroy B", "skip"]
    ),
    lambda inner: st.one_of(
        st.builds(
            _block,
            st.sampled_from(["loop", "consider [A -> B : m]", "ignore [B -> A : n]"]),
            st.lists(inner, min_size=1, max_size=2).map(lambda g: [g]),
        ),
        st.builds(
            _block,
            st.sampled_from(["alt", "par"]),
            st.lists(st.lists(inner, min_size=1, max_size=2), min_size=1, max_size=2),
        ),
    ),
    max_leaves=5,
)
# Mostly well-formed diagrams, sometimes with a loop root (for theorem) and
# sometimes with bytes that break parsing or decoding.
_DIAGRAMS = st.builds(
    lambda stmts, loop_root, junk: (
        "lifeline A\nlifeline B\n"
        + (_block("loop", [stmts]) if loop_root else "\n".join(stmts))
    ).encode() + junk,
    st.lists(_STATEMENTS, max_size=3),
    st.booleans(),
    st.sampled_from([b""] * 12 + [b"\n}", b"\n-", b"\nlifeline A", b"\xff"]),
)
_LOGS = st.lists(
    st.lists(
        st.sampled_from(["A.m.B", "B.n.A", "A.m.C", "A.t.A", "\u03b5", "A..B", "#"]),
        min_size=1,
        max_size=4,
    ).map(" ".join),
    max_size=4,
).map(lambda lines: "\n".join(lines).encode())
_LOOP = st.sampled_from(["-1", "0", "1", "2"])
_OPTIONS = {
    "parse": st.just([]),
    "check": st.just([]),
    "traces": st.tuples(
        st.sampled_from([[], ["--count"]]),
        st.sampled_from([[], ["--max-traces", "0"], ["--max-traces", "3"]]),
        _LOOP.map(lambda k: ["--max-loop", k]),
    ).map(lambda parts: [w for part in parts for w in part]),
    "refine": _LOOP.map(lambda k: ["--max-loop", k]),
    "conform": st.tuples(
        st.sampled_from(["required", "exhaust", "forbid"]), _LOOP
    ).map(lambda mk: ["--mode", mk[0], "--max-loop", mk[1]]),
    "theorem": _LOOP.map(lambda k: ["--depth", k]),
}
_POSITIONALS = {
    "parse": ("a",), "check": ("a",), "traces": ("a",), "theorem": ("a",),
    "refine": ("a", "b"), "conform": ("a", "log"),
}


class TestExitContract:
    """Exit 0/1/2 for any input, 1 only for a failed property, no traceback."""

    @given(
        data=st.data(),
        command=st.sampled_from(sorted(_POSITIONALS)),
        a=_DIAGRAMS,
        b=_DIAGRAMS,
        log=_LOGS,
        missing=st.integers(0, 9),  # 0: the last file does not exist
    )
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_exit_codes(self, data, command, a, b, log, missing):
        options = data.draw(_OPTIONS[command])
        with tempfile.TemporaryDirectory() as tmp:
            for name, content in (("a", a), ("b", b), ("log", log)):
                Path(tmp, name).write_bytes(content)
            files = [str(Path(tmp, n)) for n in _POSITIONALS[command]]
            if missing == 0:
                files[-1] += ".missing"
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main([command, *files, *options])
                except SystemExit as exc:
                    code = exc.code
        out, err = out.getvalue(), err.getvalue()
        assert "Traceback" not in err
        assert code in (0, 1, 2)
        if code == 1:
            first = out.splitlines()[0] if out else ""
            assert first in ("FAILS", "UNEQUAL") or (command == "check" and out)
