import json
import subprocess
import sys

import pytest

from korbits.cli import main


def run_cli(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out.read_text(encoding="utf-8")


def test_pairs_json(tmp_path):
    code, text = run_cli(["pairs", "A", "5"], tmp_path)
    assert code == 0
    doc = json.loads(text)
    assert doc["meta"]["command"] == "pairs"
    assert len(doc["data"]) == 5
    assert {row["m"] for row in doc["data"]} == {2, 3, 6}


def test_pairs_unsupported_type():
    assert main(["pairs", "E", "6"]) == 2


def test_orbits_report_and_determinism(tmp_path):
    code1, t1 = run_cli(["orbits", "C:2"], tmp_path, "a.json")
    code2, t2 = run_cli(["orbits", "C:2"], tmp_path, "b.json")
    assert code1 == code2 == 0
    assert t1 == t2
    doc = json.loads(t1)
    assert doc["data"]["all_ok"]
    assert all(row["sl2_ok"] for row in doc["data"]["rows"])


def test_orbits_tsv(tmp_path):
    code, text = run_cli(["orbits", "B:3", "--format", "tsv"], tmp_path, "o.tsv")
    assert code == 0
    lines = text.strip().split("\n")
    assert lines[0].split("\t")[0] == "orbit"
    assert len(lines) == 7  # header + 6 orbit rows


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_orbits_rejects_cap_below_one(cap, capsys):
    assert main(["orbits", "A:5:p=2", "--max-params", cap]) == 2
    assert "--max-params must be at least 1" in capsys.readouterr().err


def test_triple_command(tmp_path):
    code, text = run_cli(["triple", "A:3:p=2/1.1/r=1"], tmp_path)
    assert code == 0
    doc = json.loads(text)
    assert doc["data"]["h"]["num"][0][0] == 1
    assert all(doc["data"]["checks"].values())


def test_semigroup_match(tmp_path):
    code, text = run_cli(["semigroup", "1.4", "--p", "5", "--max-degree", "3"], tmp_path)
    assert code == 0
    doc = json.loads(text)
    assert doc["data"]["match"]
    assert len(doc["data"]["generators"]) == 5


def test_semigroup_16(tmp_path):
    code, text = run_cli(["semigroup", "1.6", "--r", "1", "--s", "1",
                          "--p", "5", "--q", "5"], tmp_path)
    assert code == 0
    assert json.loads(text)["data"]["match"]


def test_semigroup_unknown_case():
    assert main(["semigroup", "9.9"]) == 2


def test_semigroup_missing_params(capsys):
    assert main(["semigroup", "1.6", "--p", "5"]) == 2
    assert "case 1.6 needs --q, --r, --s" in capsys.readouterr().err


def test_normality_missing_params(capsys):
    assert main(["normality", "1.4", "--q", "5"]) == 2
    assert "case 1.4 needs --p" in capsys.readouterr().err


def test_normality_command(tmp_path):
    code, text = run_cli(["normality", "1.4", "--p", "5"], tmp_path)
    assert code == 0
    doc = json.loads(text)
    assert doc["data"]["normal"]
    assert doc["data"]["covering_plus_heights"] == [2]


def test_cg_verify(tmp_path):
    code, text = run_cli(["cg-verify", "3"], tmp_path)
    assert code == 0
    doc = json.loads(text)
    assert doc["data"]["ok"]
    assert [[2, 2, 2], [1, 1, 2], [1, 1, 2]] in doc["data"]["degenerate"]


def test_cg_verify_zero(tmp_path):
    code, text = run_cli(["cg-verify", "0"], tmp_path)
    assert code == 0
    assert json.loads(text)["data"]["ok"]


def test_cg_verify_flag_form(tmp_path):
    code, text = run_cli(["cg-verify", "--max-entry", "2"], tmp_path)
    assert code == 0 and json.loads(text)["data"]["ok"]


def test_report_all(tmp_path):
    code, text = run_cli(["report-all"], tmp_path)
    assert code == 0
    doc = json.loads(text)
    assert "semigroup/1.4" in doc["data"]
    assert doc["data"]["semigroup/1.6"]["match"]
    assert any(k.startswith("orbits/") for k in doc["data"])


def test_module_entrypoint_runs():
    proc = subprocess.run([sys.executable, "-m", "korbits.cli", "pairs", "B", "4"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["data"][0]["key"] == "B:4"


def test_usage_error_exit_code():
    assert main(["no-such-command"]) == 2
    assert main([]) == 2
