import argparse
import json
import os
import re
import subprocess
import sys

import pytest

from cfspectra import cli


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(*args):
    """Run the CLI in a child process that imports this checkout's sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-m", "cfspectra.cli", *args],
                          capture_output=True, text=True, timeout=300, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def test_eval_markov():
    code, out, _ = run_cli("eval", "--seq", "per(2211)")
    assert code == 0
    assert "√221/5" in out and "2.9732137" in out


def test_eval_two_sided_literal_and_lambda():
    code, out, _ = run_cli("eval", "--seq", "l:per(1) mid(22) r:per(1)", "--at", "0")
    assert code == 0 and "lambda" in out


def test_interval_json():
    code, out, _ = run_cli("--format", "json", "interval", "--word", "2211")
    assert code == 0
    obj = json.loads(out)
    assert obj["length"] == "1/228" and obj["r"] == 5


def test_sigma_csv_and_determinism():
    a = run_cli("sigma", "--t", "3", "--n", "4", "-f", "csv")
    b = run_cli("sigma", "--t", "3", "--n", "4", "-f", "csv")
    assert a == b and a[0] == 0
    assert a[1].splitlines()[0] == "word,verdict,witness-period,refutation-depth"


def test_exit_codes():
    code, _, err = run_cli("interval", "--word", "301")
    assert code == 1
    code, _, _ = run_cli("nonsense")
    assert code == 3
    code, _, _ = run_cli("eval", "--seq", "per(2211)", "--verify")
    assert code == 0


@pytest.mark.parametrize("text", ["3+0^-1", "3+6^--2", "2^-3"])
def test_malformed_threshold_is_one_error_line(text):
    code, out, err = run_cli("sigma", "--t", text, "--n", "3")
    assert (code, out) == (1, "")
    assert err.splitlines() == ["error: cannot parse threshold %r" % text]


@pytest.mark.parametrize("text", ["1,2,3", "1"])
def test_malformed_alphabet_is_one_error_line(text):
    code, out, err = run_cli("connect", "--kind", "a-to-alphabet", "--n", "2",
                             "--alphabet", text)
    assert (code, out) == (1, "")
    assert err.splitlines() == ["error: cannot parse alphabet %r" % text]


@pytest.mark.parametrize("flag", [("--workers", "2"), ("--seed", "1"),
                                  ("--precision-budget", "64")])
def test_unknown_common_flags_are_usage_errors(flag):
    assert cli.main([*flag, "sigma", "--t", "3", "--n", "4"]) == 3


def _subcommand_options():
    """{subcommand: its long options} from the parser."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: {o for a in q._actions for o in a.option_strings if o.startswith("--")}
            for name, q in sub.choices.items()}


def test_common_flags():
    opts = {o for a in cli.build_parser()._actions for o in a.option_strings
            if o.startswith("--")}
    assert opts == {"--help", "--format", "--timing"}
    for name, sub_opts in _subcommand_options().items():
        assert {"--format", "--timing"} <= sub_opts, name
    assert cli.main(["interval", "--word", "2211", "--timing", "-f", "json"]) == 0
    assert cli.main(["--timing", "-f", "json", "interval", "--word", "2211"]) == 0


def test_flags_live_on_the_subcommands_that_read_them():
    where = {name: {o for o in opts if o in ("--enum-budget", "--verify")}
             for name, opts in _subcommand_options().items()}
    assert {name: got for name, got in where.items() if got} == {
        "eval": {"--verify"}, "sigma": {"--enum-budget", "--verify"},
        "pushcut": {"--verify"}}
    # checked where sigma reads it
    assert cli.main(["sigma", "--t", "3", "--n", "4", "--enum-budget", "0"]) == 1
    assert cli.main(["sigma", "--t", "3", "--n", "4", "--enum-budget", "-1"]) == 1
    # a flag before the subcommand, or on one that would ignore it, is a usage error
    assert cli.main(["--enum-budget", "0", "sigma", "--t", "3", "--n", "4"]) == 3
    assert cli.main(["--verify", "sigma", "--t", "3", "--n", "4"]) == 3
    assert cli.main(["interval", "--word", "2211", "--enum-budget", "-1"]) == 3
    assert cli.main(["cuts", "--cut", "2211|2211", "--verify"]) == 3
    assert cli.main(["dim", "--blocks", "1,2", "--level", "4", "--verify"]) == 3


@pytest.mark.parametrize("argv", [("asym", "--rho", "0^-1"), ("asym", "--rho", "1/0"),
                                  ("bound", "--rho", "0^-3"), ("asym", "--rho", "x")])
def test_malformed_rho_is_one_error_line(argv, capsys):
    assert cli.main(list(argv)) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["error: cannot parse rho %r" % argv[2]]


def test_unresolved_exit_code(monkeypatch):
    from cfspectra.lang import LanguageSet, MembershipCertificate
    from cfspectra.words import Word

    def fake(t, n, max_depth=28):
        cert = MembershipCertificate(Word("1" * n), t, "unresolved",
                                     refutation_depth=0)
        return LanguageSet(n, t, {}, {"1" * n: cert})

    monkeypatch.setattr(cli, "sigma_enumerate", fake)
    assert cli.main(["sigma", "--t", "3", "--n", "4"]) == 2


@pytest.mark.parametrize("argv, code", [([], 1), (["--full"], 0)])
def test_verify_suite_exit_codes(argv, code, monkeypatch, capsys):
    """verify-suite exits 0 when every criterion passes and 1 otherwise;
    --full runs criterion "3" with full=True.  Two stub criteria stand in
    for the real ones."""
    from cfspectra import acceptance

    monkeypatch.setattr(acceptance, "_CRITERIA", [
        ("1", lambda: (True, "stub")),
        ("3", lambda full=False: (full, "full=%s" % full))])
    assert cli.main(["verify-suite", *argv]) == code
    out = capsys.readouterr().out.splitlines()
    assert [line.rsplit(" (", 1)[0] for line in out] == [
        "criterion 1: PASS - stub",
        "criterion 3: %s - full=%s" % (("PASS", True) if code == 0 else ("FAIL", False))]
    assert cli.main(["-f", "json", "verify-suite", *argv]) == code
    obj = json.loads(capsys.readouterr().out)
    assert obj == {"passed": code == 0}


def test_sigma_verify(monkeypatch, capsys):
    """--verify re-checks every in-certificate and changes no output byte;
    a certificate that fails its check is an error, exit 1."""
    argv = ["sigma", "--t", "3+6^-6", "--n", "8", "--verify"]
    assert cli.main(argv[:-1]) == 0
    plain = capsys.readouterr().out
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == plain
    assert plain.startswith("36 words in Sigma(3+6^-6, 8)")
    from cfspectra.lang import MembershipCertificate

    monkeypatch.setattr(MembershipCertificate, "verify", lambda self: False)
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: certificate failed for ")


def test_eval_at_verify_rechecks_lambda_by_shift(monkeypatch, capsys):
    """eval --at N --verify reads lambda again at N - 3 of the sequence
    shifted by 3 and changes no output byte; a lambda_at that disagrees with
    itself under the shift is an error, exit 1."""
    from cfspectra.biseq import lambda_at

    argv = ["eval", "--seq", "l:per(12) mid(2) r:per(1)", "--at", "1", "--verify"]
    assert cli.main(argv[:-1]) == 0
    plain = capsys.readouterr().out
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == plain
    monkeypatch.setattr(cli, "lambda_at", lambda seq, i: lambda_at(seq, i) + i)
    assert cli.main(argv[:-1]) == 0
    capsys.readouterr()
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: verification failed: shift invariance\n"


@pytest.mark.parametrize("kind", ["ab", "ba"])
def test_connect_refuses_an_alphabet_it_would_ignore(kind, capsys):
    """connect --kind ab/ba reads no alphabet, so --alphabet there is a
    domain error (exit 1), not a flag silently dropped."""
    assert cli.main(["connect", "--kind", kind, "--n", "3", "--alphabet", "ab,b"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: kind %r takes no alphabet\n" % kind


def test_timing_is_kept_out_of_the_output(capsys):
    argv = ["interval", "--word", "2211"]
    assert cli.main(["-f", "json", "--timing", *argv]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert isinstance(obj.pop("elapsed"), float)
    assert cli.main(["-f", "json", *argv]) == 0
    assert json.loads(capsys.readouterr().out) == obj
    assert cli.main(["--timing", *argv]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("I(2211) = [5/12, 8/19]")
    assert re.fullmatch(r"elapsed: \d+\.\d{3}s\n", err)


def test_csv_without_rows_lists_the_payload(capsys):
    """A command without rows prints its payload as sorted key,value lines."""
    assert cli.main(["-f", "csv", "interval", "--word", "2211"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "hi,8/19", "length,1/228", "lo,5/12", "r,5", "word,2211"]


def test_pushcut_verify_and_cuts():
    code, out, _ = run_cli("pushcut", "--w", "U", "--cut", "2211|2211",
                           "--kind", "good-symmetric", "--verify")
    assert code == 0 and "verified" in out
    code, out, _ = run_cli("cuts", "--cut", "2222|1111")
    assert code == 0 and "bad" in out


def test_dim_and_asym():
    code, out, _ = run_cli("--format", "json", "dim", "--blocks", "1,2",
                           "--level", "4")
    obj = json.loads(out)
    assert code == 0 and obj["lower"] < 0.5313 < obj["upper"]
    assert "elapsed" not in obj  # deterministic output by default
    code, out, _ = run_cli("dim", "--blocks", "1,1")  # repeated block
    assert code == 0 and "over 1 cylinders" in out
    code, out, _ = run_cli("bound", "--rho", "e^-100", "--C", "0")
    assert code == 0 and "0.030779" in out


@pytest.mark.parametrize("rho, asym, bound", [
    ("e^-1000", "0.01056358128", "0.004975110545"),
    ("6^-500", "0.01158520305", "0.005448506146"),
])
def test_asym_and_bound_take_rho_below_the_float_range(rho, asym, bound, capsys):
    # e^-1000 and 6^-500 underflow a float; both values read L = |log rho| alone
    assert cli.main(["asym", "--rho", rho]) == 0
    assert capsys.readouterr().out == "d_asymptotic(%s) = %s\n" % (rho, asym)
    assert cli.main(["bound", "--rho", rho, "--C", "0"]) == 0
    assert capsys.readouterr().out == "difference-set dimension bound = %s\n" % bound


@pytest.mark.parametrize("blocks", ["1,3", "1,x"])
def test_dim_rejects_blocks_that_are_not_digit_words(blocks, capsys):
    assert cli.main(["dim", "--blocks", blocks, "--level", "4"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "nonempty words over {1, 2}" in err


def test_dim_refuses_a_refinement_too_large(capsys):
    assert cli.main(["dim", "--blocks", "1,2", "--level", "23"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "refinement too large" in err


@pytest.mark.parametrize("flags", [(), ("--blocks", "1,2", "--words-file", "w.txt")])
def test_dim_needs_exactly_one_block_source(flags):
    assert cli.main(["dim", "--level", "4", *flags]) == 3


def test_dim_words_file(tmp_path, capsys):
    path = tmp_path / "blocks.txt"
    path.write_text("1\n2\n\n")
    assert cli.main(["dim", "--words-file", str(path), "--level", "4"]) == 0
    from_file = capsys.readouterr().out
    assert cli.main(["dim", "--blocks", "1,2", "--level", "4"]) == 0
    assert capsys.readouterr().out == from_file
    missing = tmp_path / "missing.txt"
    assert cli.main(["dim", "--words-file", str(missing)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["error: cannot read %s: No such file or directory"
                                % missing]
    assert cli.main(["dim", "--blocks", ""]) == 1
    assert capsys.readouterr().err == "error: moran_bracket needs at least one word\n"
    assert cli.main(["dim", "--blocks", "1", "--level", "0"]) == 1
    assert capsys.readouterr() == ("", "error: level must be >= 1\n")


def test_sigma_csv_is_the_language_csv(capsys, monkeypatch):
    from cfspectra.lang import MembershipCertificate, sigma_enumerate
    from cfspectra.words import Word

    def csv_of(ls):  # no cell of a language row holds a comma or a quote
        return "".join(",".join(row) + "\n" for row in ls.rows())

    assert cli.main(["sigma", "--t", "3+6^-6", "--n", "12", "-f", "csv"]) == 0
    lang = sigma_enumerate("3+6^-6", 12)
    assert capsys.readouterr().out == csv_of(lang)

    def with_unresolved(t, n, max_depth=28):
        # the language with its first three words turned unresolved
        ls = sigma_enumerate(t, n, max_depth)
        for w in ls.sorted_words()[:3]:
            del ls.words[w]
            ls.unresolved[w] = MembershipCertificate(Word(w), ls.threshold,
                                                     "unresolved", refutation_depth=28)
        return ls

    monkeypatch.setattr(cli, "sigma_enumerate", with_unresolved)
    assert cli.main(["sigma", "--t", "3+6^-6", "--n", "12", "-f", "csv"]) == 2
    lang = with_unresolved("3+6^-6", 12)
    csv = capsys.readouterr().out
    assert len(lang.unresolved) == 3 and csv == csv_of(lang)
    assert csv.splitlines()[-1].endswith(",unresolved,,28")


def test_farey_and_alphabets_and_renorm():
    code, out, _ = run_cli("farey", "--n", "3")
    assert code == 0 and out.splitlines()[1].startswith("aab")
    code, out, _ = run_cli("alphabets", "--depth", "2", "-f", "json")
    assert code == 0 and json.loads(out)["count"] == 7
    code, out, _ = run_cli("renorm", "--word", "221122112211", "--n", "6")
    assert code == 0 and "alphabet" in out
