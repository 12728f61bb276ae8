"""The command line front end: output shapes and exit codes."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ptq
import ptq.harness
import ptq.machine
from ptq import cli
from ptq.cli import build_parser, main
from ptq.typecheck import parse_judgment, parse_lam_judgment

import test_parser
import test_typecheck
from test_printer import church_image


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParse:
    def test_ptq(self, capsys):
        code, out, _ = run(capsys, "parse", "* ; y")
        assert code == 0 and out.strip() == "* ; y"

    def test_lam(self, capsys):
        code, out, _ = run(capsys, "parse", "--lang", "lam", r"(\x:A. x) y")
        assert code == 0 and out.strip() == r"(\x:A. x) y"

    def test_judgment(self, capsys):
        code, out, _ = run(capsys, "parse", "--lang", "judgment", "x:pX |- x : pX")
        assert code == 0 and out.strip() == "x:pX |- x : pX"

    def test_parse_error_is_exit_1(self, capsys):
        code, _, err = run(capsys, "parse", "<<<")
        assert code == 1 and "error:" in err

    def test_file_extension_detection(self, capsys, tmp_path):
        f = tmp_path / "t.lam"
        f.write_text(r"\x:A. x")
        code, out, _ = run(capsys, "parse", "--file", str(f))
        assert code == 0 and out.strip() == r"\x:A. x"

    def test_dash_reads_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("*;y\n"))
        code, out, _ = run(capsys, "parse", "-")
        assert code == 0 and out == "* ; y\n"

    @pytest.mark.parametrize(
        "name, text, printed",
        [
            ("t.ptq", "<x,*>", "<x, *>"),
            ("t.jdg", "x:pX|-x:pX", "x:pX |- x : pX"),
        ],
    )
    def test_file_extension_picks_the_reader(self, capsys, tmp_path, name, text, printed):
        f = tmp_path / name
        f.write_text(text)
        code, out, _ = run(capsys, "parse", "--file", str(f))
        assert code == 0 and out == printed + "\n"

    def test_no_term_given(self, capsys):
        assert run(capsys, "parse") == (
            1, "", "error: no term given; pass it as an argument or via --file\n"
        )

    def test_jdg_file_is_read_back_as_a_judgment(self, capsys, tmp_path):
        f = tmp_path / "t.jdg"
        f.write_text("x:pX |- x : pX")
        code, out, _ = run(capsys, "readback", "--file", str(f))
        assert code == 0 and out == "x:X |- x : X\n"


class TestTypecheck:
    def test_ok(self, capsys):
        code, out, _ = run(capsys, "typecheck", "x:pX |- x : pX")
        assert code == 0 and out.strip() == "OK pX"

    def test_e_judgment_ok(self, capsys):
        code, out, _ = run(capsys, "typecheck", "x:pA |> *:tA |- * ; x")
        assert code == 0 and out.strip() == "OK"

    def test_lambda_judgment(self, capsys):
        code, out, _ = run(capsys, "typecheck", "[]:B |- [] : B")
        assert code == 0 and out.strip() == "OK B"

    def test_fail(self, capsys):
        code, out, _ = run(capsys, "typecheck", "x:pX |- x : pA")
        assert code == 1 and out.startswith("FAIL TypeClash")

    @pytest.mark.parametrize("name", ["->", "X", "o", "*"])
    def test_lambda_context_name_must_be_a_variable(self, capsys, name):
        # every one of these printed `OK A -> A` and exited 0
        code, out, err = run(capsys, "typecheck", rf"{name}:A |- \x:A. x : A -> A")
        assert code == 1 and out == ""
        assert err == f"error: bad environment variable {name!r}\n"


class TestJudgmentReader:
    """`typecheck`, `parse --lang judgment` and `readback --judgment` read a
    judgment with one reader, chosen from its text (for errors, see
    `TestRejectedInput`)."""

    GOOD = [
        *(text for text, _ in test_typecheck.TestJudgmentChecker.GOOD),
        *test_parser.TestJudgments.PTQ,
        *test_parser.TestJudgments.LAM,
        "|- * ; y",
        "k:A |- k : A",
        r"|- \x:A. x : A -> A",
        r"|- (\x:A. x) ([]:A) : A",
        r"|- \x:o. x : o -> o",
    ]

    @pytest.mark.parametrize("text", GOOD)
    def test_good_judgment_keeps_its_reader(self, text):
        # the calculus reader took every judgment it accepted, the lambda
        # reader the rest
        try:
            parse_judgment(text)
            want = "ptq"
        except ptq.PtqError:
            parse_lam_judgment(text)
            want = "lam"
        assert cli._parse_any_judgment(text)[0] == want


class TestTranslate:
    def test_cbn(self, capsys):
        code, out, _ = run(
            capsys, "translate", "--strategy", "cbn", "--env", "x:A -> B, y:A", "x y"
        )
        assert code == 0 and out.strip() == r"\k:B. <y, k> ; x"

    def test_eterm(self, capsys):
        code, out, _ = run(
            capsys,
            "translate", "--strategy", "cbv", "--form", "eterm", "--env", "y:A",
            r"(\x:A. x) y",
        )
        assert code == 0 and out.strip() == r"<y, *> ; (\(x:A, k:A). (%k:A. k ; x) ! k)"

    def test_plotkin(self, capsys):
        code, out, _ = run(
            capsys,
            "translate", "--strategy", "cbv", "--form", "plotkin", "--env", "y:X", "y",
        )
        assert code == 0 and out.strip() == r"\k:X -> o. k y"

    def test_plotkin_uncurried(self, capsys):
        code, out, _ = run(
            capsys,
            "translate", "--strategy", "cbn", "--form", "plotkin",
            "--pairing", "uncurried", r"\x:X. x",
        )
        assert code == 0 and "," in out

    def test_strategy_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["translate", "x"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("strategy", ["cbn", "cbv"])
    def test_bound_k_is_renamed(self, capsys, strategy):
        # k is the calculus's test variable; a source binder named k used to
        # be printed as is, and that output did not parse back
        source = r"(\k:A. k) y"
        for form in ("term", "eterm"):
            code, out, _ = run(
                capsys, "translate", "--strategy", strategy, "--form", form,
                "--env", "y:A", source,
            )
            assert code == 0 and "k_1" in out
            ptq.parse_term(out)
        code, final, _ = run(capsys, "reduce", out.strip())
        assert code == 0
        assert ptq.lam_str(ptq.readback(ptq.parse_term(final))) == "y"

    @pytest.mark.parametrize("env", [":A", "o:A", "X:A", "x y:A", "<x>:A"])
    def test_env_entry_must_name_a_variable(self, capsys, env):
        # an empty name used to be bound and the translation printed
        code, out, err = run(capsys, "translate", "--strategy", "cbv", "--env", env, "x")
        assert code == 1 and out == ""
        assert err.startswith("error:") and "does not name a variable" in err

    def test_env_skips_an_empty_entry(self, capsys):
        argv = ["translate", "--strategy", "cbv", "--form", "plotkin", "--env"]
        assert run(capsys, *argv, "y:A,", "y") == (0, "\\k:A -> o. k y\n", "")

    def test_env_entry_needs_a_type(self, capsys):
        code, out, err = run(capsys, "translate", "--strategy", "cbv", "--env", "x", "x")
        assert (code, out) == (1, "")
        assert err == "error: environment entry 'x' is missing a type\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["--strategy", "cbn"],
            ["--strategy", "cbv"],
            ["--strategy", "cbn", "--form", "plotkin"],
            ["--strategy", "cbv", "--form", "plotkin", "--pairing", "uncurried"],
        ],
    )
    @pytest.mark.parametrize("source", ["[]", r"\x:A. []", r"\k:A. []"])
    def test_hole_is_rejected(self, capsys, argv, source):
        # a hole used to reach the translation and end in a traceback
        code, out, err = run(capsys, "translate", *argv, source)
        assert code == 1 and out == ""
        assert err == "error: translation handles terms without holes\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["--strategy", "cbn"],
            ["--strategy", "cbv", "--form", "eterm"],
            ["--strategy", "cbn", "--form", "plotkin"],
            ["--strategy", "cbv", "--form", "plotkin", "--pairing", "uncurried"],
        ],
    )
    @pytest.mark.parametrize("source", [r"\x:o. x", r"(\x:A -> o. x) y"])
    def test_answer_type_in_the_source_is_rejected(self, capsys, argv, source):
        # o is the answer type of every image; a source with it used to be
        # translated into a text that `ptq parse` rejects
        code, out, err = run(capsys, "translate", *argv, source)
        assert (code, out) == (1, "")
        assert err == "error: base type o is reserved for CPS types\n"

    def test_duplicate_env_name_is_rejected(self, capsys):
        # the env used to keep the last type given for y
        code, out, err = run(
            capsys, "translate", "--strategy", "cbn", "--env", "y:B, y:A", "y"
        )
        assert (code, out) == (1, "")
        assert err == "error: y is already bound\n"

    def test_free_k_is_rejected(self, capsys):
        code, _, err = run(
            capsys, "translate", "--strategy", "cbn", "--env", "k:A", r"(\x:A. x) k"
        )
        assert code == 1 and err.startswith("error:")


class TestReduce:
    GOLDEN = r"<y,*> ; \(x:A, k:A). (%k:A. k ; x) ! k"

    def test_plain(self, capsys):
        code, out, _ = run(capsys, "reduce", self.GOLDEN)
        assert code == 0 and out.strip() == "* ; y"

    def test_trace(self, capsys):
        code, out, _ = run(capsys, "reduce", "--trace", self.GOLDEN)
        lines = out.strip().splitlines()
        assert lines[0].startswith("initial:")
        assert lines[1].startswith("[Beta]")
        assert lines[2] == "[QApp] * ; y"
        assert lines[3] == "normal: yes"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "reduce", "--json", self.GOLDEN)
        doc = json.loads(out)
        assert doc["normal"] is True
        assert [s["rule"] for s in doc["steps"]] == ["Beta", "QApp"]
        assert doc["steps"][-1]["term"] == "* ; y"

    def test_json_is_trace_to_json_streamed(self, capsys):
        text = ptq.term_str(church_image(3, ptq.Strategy.CBV))
        code, out, _ = run(capsys, "reduce", "--json", text)
        trace = ptq.normalize(ptq.parse_term(text)).trace
        assert code == 0 and len(trace.steps) > 10
        assert out == json.dumps(ptq.trace_to_json(trace), indent=2) + "\n"

    def assert_json_is_trace_to_json(self, capsys, text, fuel=ptq.machine.DEFAULT_FUEL):
        code, out, _ = run(capsys, "reduce", "--json", "--fuel", str(fuel), text)
        trace = ptq.normalize(ptq.parse_term(text), fuel).trace
        assert code == 0
        assert out == json.dumps(ptq.trace_to_json(trace), indent=2) + "\n"
        return trace

    @pytest.mark.parametrize("strategy", list(ptq.Strategy))
    def test_json_is_trace_to_json_on_corpus(self, capsys, corpus, strategy):
        for m, _, _, _ in corpus:
            u = ptq.ptq_translate_e(m, strategy)
            self.assert_json_is_trace_to_json(capsys, ptq.term_str(u))

    @pytest.mark.parametrize("strategy", list(ptq.Strategy))
    @pytest.mark.parametrize("n", [0, 1, 3, 20])
    def test_json_is_trace_to_json_on_church(self, capsys, n, strategy):
        text = ptq.term_str(church_image(n, strategy))
        assert self.assert_json_is_trace_to_json(capsys, text).normal

    def test_json_is_trace_to_json_when_already_normal(self, capsys):
        trace = self.assert_json_is_trace_to_json(capsys, "* ; y")
        assert trace.steps == () and trace.normal

    def test_json_is_trace_to_json_when_fuel_runs_out(self, capsys):
        text = ptq.term_str(church_image(3, ptq.Strategy.CBV))
        trace = self.assert_json_is_trace_to_json(capsys, text, fuel=2)
        assert len(trace.steps) == 2 and not trace.normal

    def test_json_is_trace_to_json_with_renaming(self, capsys):
        trace = self.assert_json_is_trace_to_json(capsys, self.RENAMING)
        assert "y_2" in ptq.term_str(trace.steps[0].term)

    @pytest.mark.parametrize("strategy", list(ptq.Strategy))
    def test_trace_lines_are_trace_to_json_strings(self, capsys, strategy):
        u = church_image(2, strategy)
        code, out, _ = run(capsys, "reduce", "--trace", ptq.term_str(u))
        doc = ptq.trace_to_json(ptq.normalize(u).trace)
        assert code == 0
        assert out.splitlines() == [
            f"initial: {doc['initial']}",
            *(f"[{s['rule']}] {s['term']}" for s in doc["steps"]),
            "normal: yes",
        ]

    def test_wrong_sort(self, capsys):
        code, _, err = run(capsys, "reduce", "<y, *>")
        assert code == 1 and "computation" in err

    def test_fuel_exhaustion(self, capsys):
        code, _, err = run(capsys, "reduce", "--fuel", "0", r"* ; \k:A. k ; x")
        assert code == 1 and ("fuel" in err.lower() or "normal form" in err)

    @pytest.mark.parametrize("fuel", ["-1", "-50"])
    def test_negative_fuel_is_rejected(self, capsys, fuel):
        code, out, err = run(capsys, "reduce", "--fuel", fuel, r"* ; \k:A. k ; x")
        assert code == 1 and out == ""
        assert err.startswith("error:") and "--fuel" in err

    # Beta puts a payload with free y and y_1 under the binder \y, which must
    # be renamed to a name free in neither: y_1 would capture the payload's y_1
    RENAMING = (
        r"<\(q:A,k:A). (\w:A. k ; y_1) ; y, *> ; "
        r"\(x:A->A, k:A). (\y:A. k ; x) ; v"
    )

    def test_rename_does_not_capture(self, capsys):
        code, out, _ = run(capsys, "reduce", self.RENAMING)
        assert code == 0
        assert out.strip() == r"* ; (\(q:A, k:A). (\w:A. k ; y_1) ; y)"

    def test_same_trace_in_process_and_across_processes(self, capsys):
        outs = [run(capsys, "reduce", "--json", self.RENAMING)[1] for _ in range(2)]
        env = {**os.environ, "PYTHONPATH": str(Path(ptq.__file__).parents[1])}
        cmd = [sys.executable, "-m", "ptq.cli", "reduce", "--json", self.RENAMING]
        for _ in range(2):
            done = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
            outs.append(done.stdout)
        assert outs[1:] == outs[:1] * 3
        assert json.loads(outs[0])["steps"][0]["term"].startswith(r"(\y_2:A. ")


class TestReadback:
    def test_term(self, capsys):
        code, out, _ = run(capsys, "readback", r"\k:B. <y, k> ; x")
        assert code == 0 and out.strip() == "x y"

    def test_judgment(self, capsys):
        code, out, _ = run(capsys, "readback", "--judgment", "|> * : tB |- * : tB")
        assert code == 0 and out.strip() == "[]:B |- [] : B"

    def test_open_term_is_exit_1(self, capsys):
        code, out, err = run(capsys, "readback", r"\x:A. k ; x")
        assert code == 1 and out == "" and err.startswith("error:")

    def test_open_term_says_k_is_free(self, capsys):
        for argv in (["readback", "k"], ["measure", "k"], ["reduce", "k ; x"]):
            code, out, err = run(capsys, *argv)
            assert code == 1 and out == ""
            assert err == f"error: not t-closed, k is free in: {argv[1]}\n"


class TestRejectedInput:
    """Input the CLI rejects gives one `error:` line and exit 1, never a
    Python traceback."""

    @pytest.mark.parametrize(
        "case", ["lambda-judgment", "missing", "directory", "not-utf8"]
    )
    def test_one_error_line(self, capsys, tmp_path, case):
        (tmp_path / "bad.ptq").write_bytes(b"* ; \xff\xfe")
        argv = {
            "lambda-judgment": ["readback", "--judgment", "x:A |- x : A"],
            "missing": ["parse", "--file", str(tmp_path / "none.ptq")],
            "directory": ["parse", "--file", str(tmp_path)],
            "not-utf8": ["parse", "--file", str(tmp_path / "bad.ptq")],
        }[case]
        code, out, err = run(capsys, *argv)  # an exception escaping main fails here
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "text, error",
        [
            # the calculus's errors; each read `expected a base type, got 'pX'`
            ("x:pX, x:pX |- x : pX", "x is already bound"),
            ("x:pX |- x : qX q", "trailing input after judgment: 'q'"),
            ("x:pX |> *:tX |- <x, *> ; ", "unexpected end of input"),
            ("x:pX |- x : A", "expected a role letter p/t/q, got 'A'"),
            # an anchor makes a calculus judgment too
            ("|> *:A |- *", "expected a role letter p/t/q, got 'A'"),
            # a lambda judgment keeps the lambda parser's error
            ("x:A |- x : A B", "trailing input after judgment: 'B'"),
            # the claim used to be cut at the subject's own colon
            (r"|- \x:A. x", "missing claimed type"),
        ],
    )
    @pytest.mark.parametrize(
        "command",
        [["typecheck"], ["parse", "--lang", "judgment"], ["readback", "--judgment"]],
    )
    def test_malformed_judgment_error(self, capsys, command, text, error):
        assert run(capsys, *command, text) == (1, "", f"error: {error}\n")


class TestMeasure:
    def test_e_term(self, capsys):
        code, out, _ = run(capsys, "measure", r"* ; \k:A. (k ; x)")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines == ["measure 2", "control-length 1"]

    def test_p_term(self, capsys):
        code, out, _ = run(capsys, "measure", r"\(x:A, k:A). k ; x")
        assert code == 0 and out.strip() == "measure 0"

    def test_t_term(self, capsys):
        code, out, _ = run(capsys, "measure", "<x, *>")
        assert code == 0 and out == "measure 0\n"


class TestEval:
    def test_plain(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--strategy", "cbv", r"(\x:X. x) ((\y:X. y) z)"
        )
        assert code == 0 and out.strip() == "z"

    def test_trace(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--strategy", "cbn", "--trace", r"(\x:X. x) y"
        )
        lines = out.strip().splitlines()
        assert code == 0 and lines[-1] == "steps 1"

    def test_negative_fuel_is_rejected(self, capsys):
        code, out, err = run(
            capsys, "eval", "--strategy", "cbv", "--fuel", "-1", r"(\x:X. x) y"
        )
        assert code == 1 and out == ""
        assert err.startswith("error:") and "--fuel" in err

    @pytest.mark.parametrize("fuel, source, nf", [("0", "x", "x"), ("1", r"(\x:X. x) y", "y")])
    def test_exactly_fuel_steps_suffice(self, capsys, fuel, source, nf):
        # as `ptq reduce --fuel 0 '* ; y'` prints `* ; y`
        code, out, err = run(capsys, "eval", "--strategy", "cbn", "--fuel", fuel, source)
        assert (code, out, err) == (0, nf + "\n", "")

    @pytest.mark.parametrize(
        "strategy, source", [("cbn", "[]"), ("cbv", r"(\x:A. x) []")]
    )
    def test_hole_is_rejected(self, capsys, strategy, source):
        # a hole used to be evaluated and printed, with exit 0
        code, out, err = run(capsys, "eval", "--strategy", strategy, source)
        assert code == 1 and out == ""
        assert err == "error: evaluation handles terms without holes\n"


class TestVerify:
    def test_single_property(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--property", "typing", "--count", "6", "--max-size", "3",
            "--seed", "1",
        )
        assert code == 0 and out.startswith("PASS typing")

    def test_json(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--property", "readback", "--count", "4", "--max-size", "3",
            "--seed", "2", "--json",
        )
        doc = json.loads(out)
        assert code == 0 and doc["readback"]["ok"] is True

    def test_failure_is_exit_1(self, capsys, monkeypatch):
        def planted(m, strategy, size, seed):
            report = ptq.harness.PropertyReport("typing", size, seed, ptq.lam_str(m), True)
            report.fail("planted")
            return report

        monkeypatch.setitem(ptq.harness.CHECKS, "typing", planted)
        code, out, _ = run(
            capsys, "verify", "--property", "typing", "--count", "3", "--max-size", "0",
        )
        m, _ = ptq.harness.gen_typed_term(0, 0)
        assert code == 1
        assert out == f"FAIL typing: 6/6 instances; first: {ptq.lam_str(m)} (size 0, seed 0): planted\n"

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_count_below_one_is_rejected(self, capsys, count):
        # zero instances would print a vacuous PASS
        code, out, err = run(capsys, "verify", "--property", "typing", "--count", count)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "--count" in err

    @pytest.mark.parametrize("size", ["-1", "-3"])
    def test_max_size_below_zero_is_rejected(self, capsys, size):
        # -1 divided by zero when drawing sizes, -3 ran negative sizes
        code, out, err = run(capsys, "verify", "--property", "typing", "--max-size", size)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "--max-size" in err


class TestUsage:
    def test_no_command(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        assert exc.value.code == 2


class TestParserReuse:
    TERM = TestReduce.GOLDEN

    @pytest.fixture(autouse=True)
    def fresh_process(self, monkeypatch):
        # as in a new process: no parser built yet, and build_parser counted
        calls = []

        def counted():
            calls.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", counted)
        return calls

    def test_built_once(self, capsys, fresh_process):
        for argv in (["parse", "x"], ["reduce", self.TERM], ["eval", "--strategy", "cbn", "y"]):
            assert run(capsys, *argv)[0] == 0
        assert len(fresh_process) == 1

    def test_build_parser_is_fresh(self):
        assert build_parser() is not build_parser()

    def test_no_flag_carries_over(self, capsys):
        code, out, _ = run(capsys, "reduce", "--json", self.TERM)
        assert code == 0 and json.loads(out)["normal"] is True
        assert run(capsys, "reduce", self.TERM) == (0, "* ; y\n", "")

    def test_fuel_default_comes_back(self, capsys):
        code, _, err = run(capsys, "reduce", "--fuel", "0", self.TERM)
        assert code == 1 and err.startswith("error:")
        assert run(capsys, "reduce", self.TERM) == (0, "* ; y\n", "")

    def test_usage_error_leaves_the_next_call_working(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["reduce", "--fuel", "many", self.TERM])
        assert exc.value.code == 2
        capsys.readouterr()
        assert run(capsys, "reduce", self.TERM) == (0, "* ; y\n", "")


class TestDeepInput:
    @pytest.mark.parametrize(
        "args", [["parse", "--lang", "lam"], ["eval", "--strategy", "cbn"]]
    )
    def test_too_deep_is_exit_1(self, tmp_path, args):
        # a fresh process, so the depth that fails does not depend on the
        # frames pytest already holds
        f = tmp_path / "deep.lam"
        f.write_text("(" * 600 + "x" + ")" * 600)
        env = {**os.environ, "PYTHONPATH": str(Path(ptq.__file__).parents[1])}
        cmd = [sys.executable, "-m", "ptq.cli", *args, "--file", str(f)]
        done = subprocess.run(cmd, env=env, capture_output=True, text=True)
        assert done.returncode == 1
        assert done.stderr.startswith("error:")
        assert "Traceback" not in done.stderr

    def test_deep_translation_prints(self, tmp_path):
        # the by-name image of church(400) nests deeper than a recursive
        # printer can go at the default recursion limit
        f = tmp_path / "church400.lam"
        f.write_text(r"(\f:A->A. \x:A. " + "f (" * 400 + "x" + ")" * 400 + r") (\y:A. y) z")
        env = {**os.environ, "PYTHONPATH": str(Path(ptq.__file__).parents[1])}
        cmd = [sys.executable, "-m", "ptq.cli", "translate", "--strategy", "cbn",
               "--form", "eterm", "--env", "z:A", "--file", str(f)]
        done = subprocess.run(cmd, env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""
        assert len(done.stdout.splitlines()) == 1

    @pytest.mark.parametrize(
        "strategy, code, out, err",
        [
            (ptq.Strategy.CBV, 0, "* ; z\n", ""),
            # the reader takes the by-name image too; the run then fails in
            # `normalize`, whose program substitution recurses once per level
            (ptq.Strategy.CBN, 1, "", "error: term nested too deeply to process\n"),
        ],
    )
    def test_reduce_reads_a_deep_printed_image(self, tmp_path, strategy, code, out, err):
        f = tmp_path / "church400.ptq"
        f.write_text(ptq.term_str(church_image(400, strategy)))
        env = {**os.environ, "PYTHONPATH": str(Path(ptq.__file__).parents[1])}
        cmd = [sys.executable, "-m", "ptq.cli", "reduce", "--file", str(f)]
        done = subprocess.run(cmd, env=env, capture_output=True, text=True)
        assert (done.returncode, done.stdout, done.stderr) == (code, out, err)
