"""The command-line surface: exit codes, output shape, and determinism."""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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

    def test_lifecycle_only_prints_epsilon(self, capsys, diagrams_dir):
        code, out, _ = run(capsys, "traces", str(diagrams_dir / "lifecycle_only.sd"))
        assert code == 0
        assert out.strip() == "ε"

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
            ["refine", "weak_order.sd", "weak_order.sd", "--max-loop", "-1"],
            ["conform", "weak_order.sd", "weak_order.sd", "--mode", "exhaust",
             "--max-loop", "-1"],
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
