import json
import subprocess
import sys

import pytest


def run_cli(*args, cwd=None):
    proc = subprocess.run(
        [sys.executable, "-m", "weilgap.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )
    return proc


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

    series_out = tmp_path / "eis.jsonl"
    proc = run_cli(
        "series", "--kind", "eis-mult", "--p", "29", "--M", "10", "--cmax", "290",
        "--multiplier", str(ms), "--out", str(series_out),
    )
    assert proc.returncode == 0
    header = json.loads(series_out.read_text().splitlines()[0])
    assert header["weight"] == 4 and header["level"] == 29


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


@pytest.mark.parametrize("twist", [[], ["--a", "3"]])
def test_check_fe_rejects_q_divisible_by_p(tmp_path, twist):
    coeffs = tmp_path / "dd5.jsonl"
    run_cli("series", "--kind", "delta-delta-p", "--p", "5", "--M", "50", "--out", str(coeffs))
    proc = run_cli("check-fe", "--p", "5", "--k", "24", "--q", "10", *twist, "--coeffs", str(coeffs))
    assert proc.returncode == 2
    assert "q = 10 is divisible by p = 5" in proc.stderr


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


def test_weilgap_threads_caps_blas_before_numpy():
    import os

    variables = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    # record the variables at the moment numpy is first looked up
    probe = f"""
import json, os, sys
seen = {{}}
class Probe:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.update({{v: os.environ.get(v) for v in {variables!r}}})
sys.meta_path.insert(0, Probe())
import weilgap
print(json.dumps([seen, {{v: os.environ.get(v) for v in {variables!r}}}]))
"""
    env = {k: v for k, v in os.environ.items() if k not in variables}
    env["WEILGAP_THREADS"] = "3"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    at_numpy_import, after = json.loads(proc.stdout)
    assert at_numpy_import == {v: "3" for v in variables}
    assert after == {v: "3" for v in variables}


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
        ("lambda", "--y0", "nan"),
        ("lambda", "--y0", "0"),
        ("lambda", "--y0", "-0.5"),
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
