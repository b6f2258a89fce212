import argparse
import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
import traceback
from pathlib import Path
from types import SimpleNamespace

import pytest

from weilgap.cli import build_parser, main
from weilgap.series import delta_delta_p, eisenstein_level1


def run_cli(*args, cwd=None):
    """main(args) in this process, read back like a finished subprocess:
    returncode, stdout and stderr.  argparse's SystemExit gives its code;
    an uncaught exception gives 1 and its traceback, as the interpreter
    would."""
    out, err = io.StringIO(), io.StringIO()
    before = os.getcwd()
    try:
        if cwd is not None:
            os.chdir(cwd)  # no contextlib.chdir before Python 3.11
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                returncode = main(list(args))
            except SystemExit as exc:
                returncode = exc.code
            except Exception:
                traceback.print_exc()
                returncode = 1
    finally:
        os.chdir(before)
    return SimpleNamespace(returncode=returncode, stdout=out.getvalue(), stderr=err.getvalue())


def strip_timestamp(doc):
    doc = dict(doc)
    doc.pop("timestamp", None)
    return doc


def test_gens_13():
    proc = run_cli("gens", "--p", "13")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    result = doc["result"]
    assert (result["l"], result["a"], result["b"]) == (5, 1, 1)
    assert 1 in result["Q"]
    assert len(result["generators"]) == 5


def test_gens_rejects_composite():
    proc = run_cli("gens", "--p", "12")
    assert proc.returncode != 0
    assert "not prime" in proc.stderr


@pytest.mark.parametrize("command", [["gens"], ["Q"], ["sixth-root"], ["multiplier", "--qmax", "1"]])
def test_level_messages_are_one_line(capsys, command):
    # one check for every command: a composite level is not prime, and the
    # primes 2 and 3 are below the levels the presentation covers
    for p, message in (("9", "9 is not prime"), ("1", "1 is not prime"), ("3", "level must be a prime > 3, got 3")):
        assert main([command[0], "--p", p, *command[1:]]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_word_roundtrip():
    proc = run_cli("word", "--p", "13", "--matrix", "1,0,-13,1")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["result"]["sign"] in (1, -1)
    assert doc["result"]["word"]


def test_word_rejects_non_member():
    proc = run_cli("word", "--p", "13", "--matrix", "0,-1,1,0")
    assert proc.returncode != 0


def test_missing_coefficient_file():
    proc = run_cli("lambda", "--coeffs", "/nonexistent/f.jsonl", "--s", "14,0")
    assert proc.returncode != 0
    assert "not found" in proc.stderr


def test_q_command():
    proc = run_cli("Q", "--p", "29")
    doc = json.loads(proc.stdout)
    assert doc["result"]["size"] == 7


def test_sixth_root_command():
    proc = run_cli("sixth-root", "--p", "11")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["result"]["torsion_zero"] is True


def test_multiplier_to_eisenstein_pipeline(tmp_path):
    ms = tmp_path / "ms.json"
    proc = run_cli(
        "multiplier", "--p", "29", "--qmax", "1", "--chi", "trivial", "--out", str(ms)
    )
    assert proc.returncode == 0
    doc = json.loads(ms.read_text())
    assert doc["p"] == 29 and any(e["irrational"] != "0/1" for e in doc["angles"])
    stdout_doc = json.loads(proc.stdout[proc.stdout.index("{"):])
    assert stdout_doc["result"]["kernel_dim"] >= 1
    assert stdout_doc["result"]["infinite_order"] is True
    assert stdout_doc["result"]["reflection_symmetric"] is True

    series_out = tmp_path / "eis.jsonl"
    proc = run_cli(
        "series", "--kind", "eis-mult", "--p", "29", "--M", "10", "--cmax", "290",
        "--multiplier", str(ms), "--out", str(series_out),
    )
    assert proc.returncode == 0
    header, *records = map(json.loads, series_out.read_text().splitlines())
    assert header["weight"] == 4 and header["level"] == 29
    # a reflection-symmetric multiplier gives real coefficients
    assert all(record["im"] == 0 for record in records)


def test_multiplier_reports_reflection_symmetry(capsys):
    # of the four kernel directions at p = 29, q_max = 1, 0 and 1 are symmetric
    for index, symmetric in ((1, True), (2, False)):
        assert main(["multiplier", "--p", "29", "--qmax", "1", "--kernel-index", str(index)]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["reflection_symmetric"] is symmetric


@pytest.mark.parametrize("p", [5, 13])
def test_multiplier_trivial_kernel_is_a_computed_answer(tmp_path, capsys, p):
    # the system is solved; it has no infinite-order solution, so the run
    # fails its check (exit 1) and --out writes no multiplier file
    ms = tmp_path / "ms.json"
    assert main(["multiplier", "--p", str(p), "--qmax", "1", "--out", str(ms)]) == 1
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["kernel_dim"] == 0 and result["infinite_order"] is False
    assert result["rows"] == 3 and result["rank"] > 0
    assert not ms.exists()


def test_multiplier_kernel_index_out_of_range_is_invalid_input(capsys):
    assert main(["multiplier", "--p", "29", "--qmax", "1", "--kernel-index", "5"]) == 2
    assert "kernel index out of range" in capsys.readouterr().err


def test_multiplier_negative_qmax_is_one_line(capsys):
    assert main(["multiplier", "--p", "29", "--qmax", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: q_max must be >= 0, got -3\n"


def test_series_certify_pipeline(tmp_path):
    coeffs = tmp_path / "dd5.jsonl"
    proc = run_cli("series", "--kind", "delta-delta-p", "--p", "5", "--M", "900",
                   "--out", str(coeffs))
    assert proc.returncode == 0
    proc = run_cli(
        "certify", "--p", "5", "--k", "24", "--chi", "trivial",
        "--coeffs", str(coeffs), "--coeffs-g", str(coeffs), "--tol", "1e-6",
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["result"]["verdict"] == "pass"


def test_lambda_command(tmp_path):
    coeffs = tmp_path / "delta.jsonl"
    run_cli("series", "--kind", "delta", "--M", "300", "--out", str(coeffs))
    proc = run_cli("lambda", "--coeffs", str(coeffs), "--s", "14,0")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert abs(doc["result"]["value"][0] - 0.0416050793983) < 1e-6


def test_check_fe_command(tmp_path):
    coeffs = tmp_path / "dd5.jsonl"
    run_cli("series", "--kind", "delta-delta-p", "--p", "5", "--M", "900", "--out", str(coeffs))
    proc = run_cli(
        "check-fe", "--p", "5", "--k", "24", "--q", "2", "--coeffs", str(coeffs),
        "--coeffs-g", str(coeffs),
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["result"]["verdict"] is True


def test_check_fe_passes_e4_at_level_1(tmp_path):
    coeffs = tmp_path / "e4.jsonl"
    coeffs.write_text(eisenstein_level1(4, 600).to_json_lines())
    proc = run_cli("check-fe", "--p", "1", "--k", "4", "--coeffs", str(coeffs), "--s=2,0;2,1")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"]["verdict"] is True


@pytest.mark.parametrize("twist", [[], ["--a", "3"]])
def test_check_fe_rejects_q_divisible_by_p(tmp_path, twist):
    coeffs = tmp_path / "dd5.jsonl"
    run_cli("series", "--kind", "delta-delta-p", "--p", "5", "--M", "50", "--out", str(coeffs))
    proc = run_cli("check-fe", "--p", "5", "--k", "24", "--q", "10", *twist, "--coeffs", str(coeffs))
    assert proc.returncode == 2
    assert "q = 10 is divisible by p = 5" in proc.stderr


@pytest.mark.parametrize(
    "s, message",
    [
        ("-3,0", "error: Gamma(s) has a pole at s = -3\n"),
        ("30,0", "error: Gamma(k - s) has a pole at s = 30 (k - s = -6)\n"),
        ("24,0", "error: Gamma(k - s) has a pole at s = 24 (k - s = 0)\n"),
        ("400,0", "error: Gamma(s) overflows double precision at s = 400\n"),
        ("-160.5,1", "error: Gamma(k - s) overflows double precision at s = -160.5+1j (k - s = 184.5-1j)\n"),
    ],
    ids=["pole-at-s", "pole-at-k-minus-s", "pole-at-k-minus-s-zero", "overflow", "overflow-at-k-minus-s"],
)
def test_check_fe_gamma_pole_or_overflow_is_invalid_input(tmp_path, s, message):
    coeffs = tmp_path / "dd5.jsonl"
    run_cli("series", "--kind", "delta-delta-p", "--p", "5", "--M", "900", "--out", str(coeffs))
    proc = run_cli("check-fe", "--p", "5", "--k", "24", "--q", "2", "--coeffs", str(coeffs), f"--s={s}")
    assert proc.returncode == 2
    assert proc.stderr == message
    assert proc.stdout == ""


def test_check_fe_without_a_window_is_invalid_input(tmp_path):
    # at M = 20 no rung beside the balance height is reliable, so there is
    # no window to integrate over, and no verdict
    coeffs = tmp_path / "dd5.jsonl"
    run_cli("series", "--kind", "delta-delta-p", "--p", "5", "--M", "20", "--out", str(coeffs))
    proc = run_cli("check-fe", "--p", "5", "--k", "24", "--q", "1", "--coeffs", str(coeffs))
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: insufficient coefficients")


@pytest.mark.parametrize("q", ["0", "-3"])
def test_check_fe_rejects_nonpositive_q(tmp_path, q):
    coeffs = tmp_path / "dd5.jsonl"
    run_cli("series", "--kind", "delta-delta-p", "--p", "5", "--M", "50", "--out", str(coeffs))
    proc = run_cli("check-fe", "--p", "5", "--k", "24", "--q", q, "--a", "1", "--coeffs", str(coeffs))
    assert proc.returncode == 2
    assert proc.stderr == f"error: modulus q = {q} must be a positive integer\n"


def test_check_fe_mult_command(tmp_path):
    coeffs = tmp_path / "dd5.jsonl"
    run_cli("series", "--kind", "delta-delta-p", "--p", "5", "--M", "200", "--out", str(coeffs))
    proc = run_cli("check-fe-mult", "--p", "5", "--k", "24", "--q", "3", "--coeffs", str(coeffs))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"]["verdict"] is True


@pytest.mark.parametrize("index", ["7", "-1"])
def test_check_fe_mult_rejects_psi_index_out_of_range(tmp_path, index):
    coeffs = tmp_path / "dd5.jsonl"
    run_cli("series", "--kind", "delta-delta-p", "--p", "5", "--M", "50", "--out", str(coeffs))
    proc = run_cli("check-fe-mult", "--p", "5", "--k", "24", "--q", "3", "--psi-index", index,
                   "--coeffs", str(coeffs))
    assert proc.returncode == 2
    assert proc.stderr == f"error: --psi-index must lie in [0, 1) for q = 3, got {index}\n"


def test_determinism_modulo_timestamp(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    run_cli("gens", "--p", "13", "--out", str(out1))
    run_cli("gens", "--p", "13", "--out", str(out2))
    doc1 = strip_timestamp(json.loads(out1.read_text()))
    doc2 = strip_timestamp(json.loads(out2.read_text()))
    assert doc1 == doc2


def test_reproduce_all_subset():
    proc = run_cli("reproduce-all", "--only", "3")
    assert proc.returncode == 0
    assert "criterion 3: PASS" in proc.stdout


def test_reproduce_all_rejects_unknown_criterion():
    proc = run_cli("reproduce-all", "--only", "3,99")
    assert proc.returncode == 2
    assert proc.stderr == "error: unknown criterion [99]; valid criteria are 1-10\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("only", ["3,x", ","])
def test_reproduce_all_malformed_only_is_one_line(only):
    proc = run_cli("reproduce-all", "--only", only)
    assert proc.returncode == 2
    assert proc.stderr == (
        f"error: --only expects comma-separated criterion numbers, got {only!r}; valid criteria are 1-10\n"
    )
    assert proc.stdout == ""


def test_reproduce_all_seeded_determinism(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    run_cli("reproduce-all", "--only", "6", "--seed", "7", "--out", str(out1))
    run_cli("reproduce-all", "--only", "6", "--seed", "7", "--out", str(out2))

    def normalize(path):
        doc = json.loads(path.read_text())
        doc.pop("timestamp", None)
        for crit in doc["result"]["criteria"]:
            crit.pop("seconds", None)
        return doc

    assert normalize(out1) == normalize(out2)


def test_truncated_coefficient_file_is_invalid_input(tmp_path):
    from weilgap.series import delta_delta_p

    f, _ = delta_delta_p(5, 40)
    lines = f.to_json_lines().splitlines()
    path = tmp_path / "short.jsonl"
    path.write_text("\n".join(lines[:-10]) + "\n")
    proc = run_cli("lambda", "--coeffs", str(path), "--s", "14,0")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: ")
    assert "a_31 is missing" in proc.stderr


@pytest.mark.parametrize(
    "line, old, new",
    [(2, '"re": "0"', '"re": null'), (1, '"m": 1', '"m": "1"'), (0, '"sigma": 12.0', '"sigma": "12"')],
    ids=["re-null", "m-string", "sigma-string"],
)
def test_wrong_typed_coefficient_file_is_one_line(tmp_path, capsys, line, old, new):
    f, _ = delta_delta_p(5, 40)
    lines = f.to_json_lines().splitlines()
    assert old in lines[line]
    lines[line] = lines[line].replace(old, new)
    path = tmp_path / "typed.jsonl"
    path.write_text("\n".join(lines) + "\n")
    assert main(["lambda", "--coeffs", str(path), "--s", "14"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and err.startswith("error: ")
    assert "wrong type" in err or "malformed coefficient record" in err


def test_run_document_without_multiplier_is_one_line(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"result": {"Q": [1]}}))
    assert main(["series", "--kind", "eis-mult", "--p", "5", "--M", "10", "--multiplier", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err == f"error: run document {path} has no result.multiplier\n"


def test_multiplier_document_with_a_zero_denominator_is_one_line(tmp_path, capsys):
    ms = tmp_path / "ms.json"
    assert main(["multiplier", "--p", "29", "--qmax", "1", "--out", str(ms)]) == 0
    doc = json.loads(ms.read_text())
    doc["angles"][1]["irrational"] = "1/0"
    ms.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["series", "--kind", "eis-mult", "--p", "29", "--M", "3", "--multiplier", str(ms)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: malformed multiplier document: ZeroDivisionError")


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "weilgap.cli", "gens", "--p", "13"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"]["l"] == 5


def _modules_after(statement):
    """The names in sys.modules after statement runs in a fresh interpreter."""
    probe = f"import json, sys\n{statement}\nprint(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def test_import_weilgap_loads_no_submodule():
    assert not {name for name in _modules_after("import weilgap") if name.startswith("weilgap.")}


def test_exact_layers_load_neither_numpy_nor_mpmath():
    loaded = _modules_after("import weilgap.presentation, weilgap.matrices, weilgap.characters, weilgap.linalg")
    assert {"weilgap.presentation", "weilgap.linalg"} <= loaded
    assert not {name.split(".")[0] for name in loaded} & {"numpy", "mpmath"}


@pytest.mark.parametrize("argv", [["gens", "--p", "13"], ["word", "--p", "13", "--matrix", "1,0,13,1"], ["Q", "--p", "13"]])
def test_exact_commands_load_neither_numpy_nor_mpmath(argv):
    run = f"import contextlib, io\nfrom weilgap.cli import main\nwith contextlib.redirect_stdout(io.StringIO()):\n    assert main({argv!r}) == 0"
    loaded = _modules_after(run)
    assert "weilgap.presentation" in loaded and not {"weilgap.series", "weilgap.analytic", "weilgap.multiplier"} & loaded
    assert not {name.split(".")[0] for name in loaded} & {"numpy", "mpmath"}


def test_lambda_overflow_is_invalid_input(tmp_path):
    coeffs = tmp_path / "delta.jsonl"
    run_cli("series", "--kind", "delta", "--M", "50", "--out", str(coeffs))
    proc = run_cli("lambda", "--coeffs", str(coeffs), "--s", "400,0")
    assert proc.returncode == 2
    assert proc.stderr == "error: Gamma((400+0j)) overflows double precision\n"


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("lambda", "--s", "nan,0"),
        ("lambda", "--s", "14,inf"),
        ("check-fe", "--tol", "nan"),
        ("check-fe", "--tol", "0"),
        ("check-fe", "--s", "12,0;nan,1"),
        ("certify", "--tol", "nan"),
        ("certify", "--tol", "-1e-6"),
        ("check-fe-mult", "--tol", "inf"),
    ],
)
def test_non_finite_or_nonpositive_numbers_are_invalid_input(tmp_path, command, flag, value):
    coeffs = tmp_path / "dd5.jsonl"
    run_cli("series", "--kind", "delta-delta-p", "--p", "5", "--M", "50", "--out", str(coeffs))
    args = {
        "lambda": ["--s", "14,0"],
        "check-fe": ["--p", "5", "--k", "24"],
        "certify": ["--p", "5", "--k", "24"],
        "check-fe-mult": ["--p", "5", "--k", "24", "--q", "3"],
    }[command]
    proc = run_cli(command, *args, "--coeffs", str(coeffs), f"{flag}={value}")
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith(f"error: {flag} ")
    assert proc.stdout == ""


@pytest.mark.parametrize("command, value, bad", [("lambda", "1,2,3", "1,2,3"), ("check-fe", "12,0;", "")])
def test_malformed_s_names_the_flag_and_the_value(tmp_path, capsys, command, value, bad):
    f, _ = delta_delta_p(5, 40)
    path = tmp_path / "dd5.jsonl"
    path.write_text(f.to_json_lines())
    args = {"lambda": [], "check-fe": ["--p", "5", "--k", "24"]}[command]
    assert main([command, *args, "--coeffs", str(path), "--s", value]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: --s expects re or re,im, got {bad!r}\n"


def test_certify_reports_the_character_it_checked(tmp_path):
    coeffs = tmp_path / "dd5.jsonl"
    run_cli("series", "--kind", "delta-delta-p", "--p", "5", "--M", "200", "--out", str(coeffs))
    proc = run_cli("certify", "--p", "5", "--k", "24", "--chi", "2", "--coeffs", str(coeffs))
    assert proc.returncode in (0, 1), proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["config"]["chi"] == doc["result"]["chi"] == "2"


@pytest.mark.parametrize(
    "multiplier, options, message",
    [
        ({}, "--M 10", "malformed multiplier document"),
        ({"p": 5, "angles": [{"label": "S"}]}, "--M 10", "malformed multiplier document"),
        ([1, 2], "--M 10", "malformed multiplier document"),
        (5, "--M 10", "malformed multiplier document"),
        (None, "--M 0", "need M >= 1"),
        (None, "--M 5 --cmax -1", "need c_max >= p = 5"),
        (None, "--M 5 --cmax 0", "need c_max >= p = 5"),
    ],
    ids=["empty", "angle-without-rational", "list", "number", "M=0", "cmax=-1", "cmax=0"],
)
def test_series_eis_mult_invalid_input(tmp_path, multiplier, options, message):
    args = ["series", "--kind", "eis-mult", "--p", "5", *options.split()]
    if multiplier is not None:
        path = tmp_path / "ms.json"
        path.write_text(json.dumps(multiplier))
        args += ["--multiplier", str(path)]
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: ")
    assert message in proc.stderr


# every subcommand that emits a run document, with a cheap valid invocation
CONFIG_CASES = {
    "gens": ["--p", "13"],
    "word": ["--p", "13", "--matrix", "1,0,-13,1"],
    "Q": ["--p", "13"],
    "multiplier": ["--p", "29", "--qmax", "1"],
    "sixth-root": ["--p", "13"],
    "lambda": ["--coeffs", "{dd5}", "--s", "14,0"],
    "check-fe": ["--p", "5", "--k", "24", "--q", "2", "--a", "1", "--coeffs", "{dd5}"],
    "check-fe-mult": ["--p", "5", "--k", "24", "--q", "3", "--coeffs", "{dd5}"],
    "certify": ["--p", "5", "--k", "24", "--coeffs", "{dd5}"],
    "reproduce-all": ["--only", "3"],
}


def subcommand_flags():
    """The option dests each subcommand's parser defines."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: {a.dest for a in sp._actions if a.option_strings and a.dest != "help"}
        for name, sp in sub.choices.items()
    }


def test_config_cases_cover_every_document_command():
    # series writes JSON lines, not a run document
    assert set(CONFIG_CASES) == set(subcommand_flags()) - {"series"}


@pytest.mark.parametrize("command", sorted(CONFIG_CASES))
def test_config_records_every_flag_but_out(tmp_path, capsys, command):
    dd5 = tmp_path / "dd5.jsonl"
    dd5.write_text(delta_delta_p(5, 200)[0].to_json_lines())
    assert main([command, *(arg.format(dd5=dd5) for arg in CONFIG_CASES[command])]) in (0, 1)
    stdout = capsys.readouterr().out
    config = json.loads(stdout[stdout.index("{"):])["config"]
    assert set(config) == (subcommand_flags()[command] - {"out"}) | {"command"}
    assert config["command"] == command
    if command == "word":
        assert config["matrix"] == [1, 0, -13, 1]


def test_check_fe_mult_config_names_its_coefficient_files(tmp_path):
    configs = []
    for M in (200, 400):
        coeffs = tmp_path / f"dd5_{M}.jsonl"
        run_cli("series", "--kind", "delta-delta-p", "--p", "5", "--M", str(M), "--out", str(coeffs))
        proc = run_cli("check-fe-mult", "--p", "5", "--k", "24", "--q", "3", "--coeffs", str(coeffs))
        assert proc.returncode == 0, proc.stderr
        configs.append(json.loads(proc.stdout)["config"])
    assert configs[0] != configs[1]


def test_failed_check_exits_1(tmp_path):
    # dd5 has the trivial character; the quadratic one fails the V_q relations
    coeffs = tmp_path / "dd5.jsonl"
    run_cli("series", "--kind", "delta-delta-p", "--p", "5", "--M", "200", "--out", str(coeffs))
    proc = run_cli("certify", "--p", "5", "--k", "24", "--chi", "2", "--coeffs", str(coeffs))
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["result"]["verdict"].startswith("fail at V_")


def test_negative_values_take_the_space_separated_form(tmp_path, capsys):
    # argparse alone reads a value with a leading "-" as an option
    assert main(["word", "--p", "13", "--matrix", "-1,5,0,-1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["matrix"] == [-1, 5, 0, -1]
    assert doc["result"] == {"word": [{"gen": "S", "exp": -5}], "sign": -1}
    dd5 = tmp_path / "dd5.jsonl"
    dd5.write_text(delta_delta_p(5, 200)[0].to_json_lines())
    for s in ("-2.5,1", "-.5,0"):
        assert main(["lambda", "--coeffs", str(dd5), "--s", s]) == 0
        spaced = json.loads(capsys.readouterr().out)
        assert main(["lambda", "--coeffs", str(dd5), f"--s={s}"]) == 0
        assert strip_timestamp(json.loads(capsys.readouterr().out)) == strip_timestamp(spaced)
        assert spaced["config"]["s"] == s
    assert main(["check-fe", "--p", "5", "--k", "24", "--q", "2", "--coeffs", str(dd5), "--s", "-2.5,1;14,0"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["s"] == "-2.5,1;14,0"
    # s = -3 is a pole of Gamma: the value is parsed, and refused in one line
    assert main(["lambda", "--coeffs", str(dd5), "--s", "-3,0"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: Gamma pole at s = (-3+0j)\n"


@pytest.mark.parametrize("matrix", ["1,0,x,1", "1,0,1"])
def test_word_malformed_matrix_is_one_line(matrix):
    proc = run_cli("word", "--p", "13", "--matrix", matrix)
    assert proc.returncode == 2
    assert proc.stderr == "error: --matrix expects four comma-separated integers a,b,c,d\n"
    assert proc.stdout == ""


def test_word_with_too_many_crossings_is_one_line(monkeypatch, capsys):
    # 10^12 crossings of coset 12 -> 0: the count must stop it before any word is built
    from weilgap.presentation import GenSet

    def no_word(self, word):
        raise AssertionError("the word was built")

    monkeypatch.setattr(GenSet, "rewrite_st_word", no_word)
    assert main(["word", "--p", "13", "--matrix", "1,0,13000000000000,1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert "1000000000000 times" in err and "at most 1000000 crossings" in err


def test_word_over_the_token_limit_is_one_line(capsys):
    # at p = 1009 15,000 crossings write 15,000 copies of a 337-token wrap word
    assert main(["word", "--p", "1009", "--matrix", "1,0,15135000,1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert "15000 times" in err and "5055000 tokens" in err


@pytest.mark.parametrize("q, a", [(1, 0), (3, 2), (4, -1), (7, 10)])
def test_check_fe_twist_is_the_residue_statement(tmp_path, capsys, q, a):
    from weilgap.analytic import additive_statements_for_psi

    dd5 = tmp_path / "dd5.jsonl"
    dd5.write_text(delta_delta_p(5, 200)[0].to_json_lines())
    main(["check-fe", "--p", "5", "--k", "24", "--q", str(q), "--a", str(a), "--coeffs", str(dd5)])
    result = json.loads(capsys.readouterr().out)["result"]
    fe = additive_statements_for_psi(5, 24, q)[a % q]
    assert (result["twist"], result["dual_twist"]) == (str(fe.twist()), str(fe.dual_twist()))


def readme_cli_lines():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True) for line in block.splitlines() if line.startswith("weilgap ")]


def test_readme_cli_examples_run_in_order(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    lines = readme_cli_lines()
    assert len(lines) >= 10
    for argv in lines:
        assert main(argv[1:]) == 0, (argv, capsys.readouterr().err)
