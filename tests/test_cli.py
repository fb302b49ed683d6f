import ast
import hashlib
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import korbits
from korbits import cli, orbits
from korbits.cli import main

REPORT_ALL_SHA256 = "82321344592a3466aa7af541c10c963afde0babea13b781456770f97d54c5439"
CG_VERIFY_4_SHA256 = "92528de8197655a80ab8986a5b692d6b59141a75133d6756e71445f58d66c12d"
SEMIGROUP_16_DEGREE_5_SHA256 = "8286adc1e87b60509a7c723697048a7c2d1ad2bfbaab5a6404ede6dda2b36d43"


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


@pytest.mark.parametrize("pair, fmt, digest", [
    ("A:5:p=2", "json", "f02739db4171a4ba142dac14c574b91c3acfad358c34e0688ac9f7e03bc0e4cf"),
    ("A:5:p=2", "tsv", "89e9329790264764549fa8fd875a81a55d50a0ed93cc434cd5aa076877f7eb9b"),
    ("B:4", "json", "260fa68d2ce546b90bae0cb9a61e212faf9cb98885571c28d05e1a4918205af6"),
    ("B:4", "tsv", "ecd377c2609fab4439f054d5a2cc8dc567e10cd44a13e28f2615423b75926cba"),
    ("C:5", "json", "e606ae5cbf6936866c50d48b8a700c7ed28a0d0e3f56c616261431020f4cc2e9"),
    ("C:5", "tsv", "a0e67ec3360c44b997827006aa48dfe5838428b7e2a4d2d34eb38fb76d0dbd54"),
    ("D:6:p=6", "json", "7c7d0e7749521adc248f3a96cfcc79a5687915089f61d8ec0eaa247c0a517263"),
    ("D:6:p=6", "tsv", "9c8c47c5966dde020475328c5fee9c8620a7b9f76815ca94ec91548fe7c3223b"),
])
def test_orbits_golden_output(pair, fmt, digest, tmp_path):
    code, text = run_cli(["orbits", pair, "--format", fmt], tmp_path)
    assert code == 0
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def test_orbits_computes_each_centralizer_once(monkeypatch, tmp_path):
    calls = []
    centralizer_dim = orbits.centralizer_dim

    def counting(triple):
        calls.append(triple.record)
        return centralizer_dim(triple)

    monkeypatch.setattr(orbits, "centralizer_dim", counting)
    code, _ = run_cli(["orbits", "B:4"], tmp_path)
    assert code == 0
    assert len(calls) == 6


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_orbits_rejects_cap_below_one(cap, capsys):
    assert main(["orbits", "A:5:p=2", "--max-params", cap]) == 2
    assert "--max-params must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("pair", ["A:5:p=x", "A:5:p="])
def test_orbits_rejects_bad_marked_root_tag(pair, capsys):
    assert main(["orbits", pair]) == 2
    tag = pair.split(":")[2]
    assert f"bad marked-root tag '{tag}' in pair key '{pair}'" in capsys.readouterr().err


@pytest.mark.parametrize("pair, extra", [("A:3:p=2:x", "x"), ("D:5:vec:p=1:y", "p=1:y"),
                                         ("B:4:x", "x")])
def test_orbits_rejects_extra_pair_key_segment(pair, extra, capsys):
    assert main(["orbits", pair]) == 2
    err = capsys.readouterr().err
    assert f"bad pair key '{pair}': unexpected segment '{extra}'" in err
    assert "marked root" not in err


def test_triple_command(tmp_path):
    code, text = run_cli(["triple", "A:3:p=2/1.1/r=1"], tmp_path)
    assert code == 0
    doc = json.loads(text)
    assert doc["data"]["h"]["num"][0][0] == 1
    assert all(doc["data"]["checks"].values())


@pytest.mark.parametrize("orbit", ["A:5:p=3/1.6/r=x", "A:5:p=3/1.6/r",
                                   "A:5:p=3/1.6/r=1=0,s=0"])
def test_triple_rejects_malformed_params(orbit, capsys):
    assert main(["triple", orbit]) == 2
    assert "bad orbit id" in capsys.readouterr().err


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


@pytest.mark.parametrize("argv, case, need", [
    (["semigroup", "1.6", "--p", "5", "--q", "5", "--r", "2", "--s", "1"], "1.6", 5),
    (["report-all", "--max-degree", "3"], "1.6", 4),
])
def test_degree_below_closed_forms_is_usage_error(argv, case, need, tmp_path, capsys):
    # A truncated enumeration cannot match the closed forms; that is a bad
    # bound, not a failed verification.
    assert main(argv + ["--out", str(tmp_path / "out.json")]) == 2
    err = capsys.readouterr().err
    assert f"closed forms of case {case}" in err and f"reach degree {need}" in err


def test_semigroup_at_the_closed_form_degree(tmp_path):
    code, text = run_cli(["semigroup", "1.6", "--p", "5", "--q", "5", "--r", "2", "--s", "1",
                          "--max-degree", "5"], tmp_path)
    assert code == 0 and json.loads(text)["data"]["match"]
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == SEMIGROUP_16_DEGREE_5_SHA256


def test_semigroup_unknown_case():
    assert main(["semigroup", "9.9"]) == 2


def test_semigroup_missing_params(capsys):
    assert main(["semigroup", "1.6", "--p", "5"]) == 2
    assert "case 1.6 needs --q, --r, --s" in capsys.readouterr().err


def test_normality_missing_params(capsys):
    assert main(["normality", "1.4", "--q", "5"]) == 2
    assert "case 1.4 needs --p" in capsys.readouterr().err


def test_semigroup_rejects_unused_params(tmp_path, capsys):
    out = tmp_path / "out.json"
    assert main(["semigroup", "1.4", "--p", "4", "--q", "9", "--out", str(out)]) == 2
    assert "case 1.4 takes no --q" in capsys.readouterr().err
    assert not out.exists()


def test_normality_rejects_unused_params(tmp_path, capsys):
    out = tmp_path / "out.json"
    assert main(["normality", "1.5", "--q", "4", "--p", "3", "--r", "2",
                 "--out", str(out)]) == 2
    assert "case 1.5 takes no --p, --r" in capsys.readouterr().err
    assert not out.exists()


def test_normality_command(tmp_path):
    code, text = run_cli(["normality", "1.4", "--p", "5"], tmp_path)
    assert code == 0
    doc = json.loads(text)
    assert doc["data"]["normal"]
    assert doc["data"]["covering_plus_heights"] == [2]


def test_normality_work_guard(tmp_path, capsys, monkeypatch):
    # 10^11 sub-box tests: refused before any work, and nothing written.
    out = tmp_path / "out.json"
    assert main(["normality", "1.6", "--p", "7", "--q", "7", "--r", "3", "--s", "2",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--bound 3 over the 11 Sigma coordinates" in err
    assert "1.0e+11 sub-box tests, above the budget of 1e+08" in err
    assert not out.exists()
    # 10^7 sub-box tests (k = 7 at bound 3) still run.
    calls = []
    monkeypatch.setattr(cli, "covering_differences",
                        lambda system, bound: calls.append(bound) or [])
    assert main(["normality", "1.6", "--p", "5", "--q", "5", "--r", "2", "--s", "1",
                 "--out", str(out)]) == 0
    assert calls == [3]
    # A bound below 1 keeps its own error, even where the formula is large.
    monkeypatch.undo()
    assert main(["normality", "1.6", "--p", "7", "--q", "7", "--r", "3", "--s", "2",
                 "--bound", "-9", "--out", str(out)]) == 2
    assert "bound must be >= 1" in capsys.readouterr().err
    # An estimate beyond every float is still formatted, in integers.
    big = tmp_path / "big.json"
    assert main(["normality", "1.6", "--p", "7", "--q", "7", "--r", "3", "--s", "2",
                 "--bound", str(10 ** 20), "--out", str(big)]) == 2
    assert_one_error_line(capsys, f"--bound {10 ** 20} over the 11 Sigma coordinates")
    assert not big.exists()


def test_cg_verify_work_guard(tmp_path, capsys, monkeypatch):
    # 9^9 = 3.9 x 10^8 triples (k, m, n) at bound 8: refused before any work.
    out = tmp_path / "out.json"
    for bound, estimate in (("8", "3.9e+8"), (str(10 ** 20), "1.0e+180")):
        assert main(["cg-verify", bound, "--out", str(out)]) == 2
        assert_one_error_line(capsys, f"cg-verify {bound} means up to {estimate} triples "
                                      "(k, m, n), above the budget of 2e+8")
    assert not out.exists()
    # 8^9 = 1.3 x 10^8 at bound 7 still runs.
    calls = []
    monkeypatch.setattr(cli.cg, "section_sweep",
                        lambda top: calls.append(top) or {"ok": True})
    assert main(["cg-verify", "7", "--out", str(out)]) == 0
    assert calls == [7]


def test_max_degree_work_guard(tmp_path, capsys, monkeypatch):
    # (D + 1)^(k + 2) summed over the systems, against a budget of 3 x 10^7:
    # 32^5 for 1.4 --p 5 (k = 3) at degree 31, 2 (11^5 + 11^7) for report-all
    # at 10.
    out = tmp_path / "out.json"
    for argv, estimate in ((["semigroup", "1.4", "--p", "5", "--max-degree", "31"], "3.4e+7"),
                           (["semigroup", "1.4", "--p", "5", "--max-degree", BIG], "1.0e+100"),
                           # k = 8 at its closed forms' degree: 6^10.
                           (["semigroup", "1.6", "--p", "6", "--q", "5", "--r", "0", "--s", "4",
                             "--max-degree", "5"], "6.0e+7"),
                           (["report-all", "--max-degree", "10"], "3.9e+7"),
                           (["report-all", "--max-degree", BIG], "2.0e+140")):
        assert main(argv + ["--out", str(out)]) == 2
        assert_one_error_line(capsys, f"--max-degree {argv[-1]} means up to {estimate} "
                                      "enumerated points, above the budget of 3e+7")
    assert not out.exists()
    # One degree lower each passes the guard, before any orbit or enumeration.
    calls = []
    monkeypatch.setattr(cli, "_check_case",
                        lambda system, closed, degree: calls.append(degree) or ([], True, True))
    monkeypatch.setattr(cli, "gamma_sigma_semigroup", lambda system, bound: [])
    monkeypatch.setattr(cli, "_orbit_rows", lambda spec: ([], True))
    assert main(["semigroup", "1.4", "--p", "5", "--max-degree", "30", "--out", str(out)]) == 0
    assert main(["report-all", "--max-degree", "9", "--out", str(out)]) == 0
    assert calls == [30] + [9] * 4


@pytest.mark.parametrize("argv, digest", [
    (["normality", "1.6", "--p", "4", "--q", "4", "--r", "1", "--s", "1", "--bound", "3"],
     "e97e35e09793243ffd9f67f822832433c7c879b5099968ee92026623a8d853b5"),
    (["normality", "1.4", "--p", "5", "--bound", "3"],
     "f99a0feab1542b7a09643b0505199c9a1c55810c066764b6c99f262a63d51e6f"),
    # The mirror cases, built from the 1.4 and 1.6 formulas with p and q exchanged.
    (["semigroup", "1.5", "--q", "5"],
     "430cd2cad5781e24af46bbe032e9b6f81f22347b7519bf87ad975fad968e2415"),
    (["semigroup", "1.7", "--p", "5", "--q", "4", "--r", "1", "--s", "1"],
     "098debb62ebe254dff5b386b95e149ac89b075a1a502fb8f91d9074bf01f417a"),
    (["semigroup", "1.4", "--p", "5"],
     "1e4473711480132dd6645ad8cac88b21f24b4f52ff9a5e5c4d1f020b36fdfa85"),
])
def test_normality_golden_output(tmp_path, argv, digest):
    code, text = run_cli(argv, tmp_path)
    assert code == 0
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("argv", [["triple", "A:3:p=2/1.1/r=1"], ["normality", "1.4", "--p", "5"],
                                  ["cg-verify", "2"], ["report-all"]])
def test_format_only_where_a_table_exists(argv, tmp_path, capsys):
    # These reports have no TSV table: --format tsv must not write an empty file.
    out = tmp_path / "out.tsv"
    assert main(argv + ["--format", "tsv", "--out", str(out)]) == 2
    assert "unrecognized arguments: --format tsv" in capsys.readouterr().err
    assert not out.exists()


def test_cg_verify(tmp_path):
    code, text = run_cli(["cg-verify", "3"], tmp_path)
    assert code == 0
    doc = json.loads(text)
    assert doc["data"]["ok"]
    assert [[2, 2, 2], [1, 1, 2], [1, 1, 2]] in doc["data"]["degenerate"]


def test_cg_verify_golden_output(tmp_path):
    code, text = run_cli(["cg-verify", "4"], tmp_path)
    assert code == 0
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == CG_VERIFY_4_SHA256


def test_cg_verify_zero(tmp_path):
    code, text = run_cli(["cg-verify", "0"], tmp_path)
    assert code == 0
    assert json.loads(text)["data"]["ok"]


def test_cg_verify_needs_a_bound(capsys):
    assert main(["cg-verify"]) == 2
    assert "the following arguments are required: max_entry" in capsys.readouterr().err


def test_report_all(tmp_path):
    code, text = run_cli(["report-all"], tmp_path)
    assert code == 0
    doc = json.loads(text)
    assert "semigroup/1.4" in doc["data"]
    assert doc["data"]["semigroup/1.6"]["match"]
    assert any(k.startswith("orbits/") for k in doc["data"])
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == REPORT_ALL_SHA256


@pytest.mark.parametrize("argv, name", [
    (["cg-verify", "-1"], "max_entry"),
    (["cg-verify", "-3"], "max_entry"),
    (["semigroup", "1.4", "--p", "5", "--max-degree", "0"], "--max-degree"),
    (["report-all", "--max-degree", "0"], "--max-degree"),
    (["report-all", "--max-degree", "-1"], "--max-degree"),
])
def test_rejects_bound_below_minimum(argv, name, capsys):
    assert main(argv) == 2
    assert f"argument {name}: must be at least" in capsys.readouterr().err


def test_module_entrypoint_runs():
    proc = subprocess.run([sys.executable, "-m", "korbits.cli", "pairs", "B", "4"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["data"][0]["key"] == "B:4"


def test_usage_error_exit_code():
    assert main(["no-such-command"]) == 2
    assert main([]) == 2


def assert_one_error_line(capsys, text):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert text in err


def test_unwritable_out_is_usage_error(tmp_path, capsys):
    assert main(["pairs", "A", "3", "--out", str(tmp_path / "missing" / "x.json")]) == 2
    assert_one_error_line(capsys, "No such file or directory")
    assert main(["pairs", "A", "3", "--out", str(tmp_path)]) == 2
    assert_one_error_line(capsys, "Is a directory")


BIG = str(10 ** 20)


@pytest.mark.parametrize("argv, text", [
    (["pairs", "A", BIG], "cannot fit 'int' into an index-sized integer"),
    (["orbits", f"A:{BIG}:p=1"], "cannot fit 'int' into an index-sized integer"),
    (["triple", f"A:{BIG}:p=1/1.1/r=1"], "cannot fit 'int' into an index-sized integer"),
    (["semigroup", "1.4", "--p", BIG], "cannot fit 'int' into an index-sized integer"),
    # The two-wing systems walk the ambient rank before they index by it.
    (["semigroup", "1.6", "--p", BIG, "--q", BIG, "--r", "0", "--s", "0"],
     "p and q must fit an index-sized integer"),
    (["normality", "1.6", "--p", BIG, "--q", "1", "--r", "0", "--s", "0"],
     "p and q must fit an index-sized integer"),
])
def test_integer_beyond_index_range_is_usage_error(argv, text, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path / "out.json")]) == 2
    assert_one_error_line(capsys, text)


# Integers for the fuzz test: small ones, and one beyond the index range.
# None is mid-size: `pairs A 1000000` is slow rather than wrong.
SMALL = st.integers(-3, 4).map(str)
ANY_INT = st.one_of(SMALL, st.just(BIG))
PAIR_KEYS = st.builds("{}:{}{}".format, st.sampled_from("ABCDE"), ANY_INT,
                      st.one_of(st.sampled_from(["", ":vec", ":gl", ":x", ":p=1:x"]),
                                ANY_INT.map(":p={}".format)))
PARAMS = st.one_of(st.sampled_from(["", "r", "r=x"]), ANY_INT.map("r={}".format),
                   st.builds("r={},s={}".format, ANY_INT, ANY_INT))
ORBIT_IDS = st.builds("{}/{}/{}{}".format, PAIR_KEYS,
                      st.sampled_from(["1.1", "1.3", "1.4", "1.6", "1.7", "2.1", "3.3",
                                       "5.4", "9.9"]),
                      PARAMS, st.sampled_from(["", "/I", "/II", "/x/y"]))
CASES = st.sampled_from(["1.4", "1.5", "1.6", "1.7", "9.9"])


def flags(draw, names, values):
    """Some of the flags, each with a drawn value."""
    return [x for name in names if draw(st.booleans())
            for x in (name, draw(values))]


@st.composite
def cli_argvs(draw, out_paths):
    command = draw(st.sampled_from(["pairs", "orbits", "triple", "semigroup", "normality",
                                    "cg-verify", "report-all", "bogus"]))
    if command == "pairs":
        argv = [command, draw(st.sampled_from("ABCDE")), draw(ANY_INT)]
    elif command == "orbits":
        argv = [command, draw(PAIR_KEYS)] + flags(draw, ["--max-params"], ANY_INT)
    elif command == "triple":
        argv = [command, draw(ORBIT_IDS)]
    elif command in ("semigroup", "normality"):
        argv = [command, draw(CASES)] + flags(draw, ["--p", "--q", "--r", "--s"], ANY_INT)
        argv += flags(draw, ["--max-degree" if command == "semigroup" else "--bound"],
                      ANY_INT)
    elif command == "cg-verify":
        argv = [command] + draw(st.lists(ANY_INT, max_size=1))
    else:
        argv = [command] + flags(draw, ["--max-degree"], ANY_INT)
    return argv + flags(draw, ["--format"], st.sampled_from(["json", "tsv", "xml"])) + [
        "--out", draw(st.sampled_from(out_paths))]


@pytest.fixture(scope="module")
def fuzz_out_paths(tmp_path_factory):
    base = tmp_path_factory.mktemp("fuzz")
    return [str(base / "out.json"), str(base / "missing" / "out.json"), str(base)]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_any_argv_exits_with_a_documented_code(fuzz_out_paths, data):
    argv = data.draw(cli_argvs(fuzz_out_paths))
    assert main(argv) in (0, 1, 2), argv


# Each command once; run in a fresh interpreter so that no cache filled by an
# earlier test hides a function that only runs on a cache miss.
REACH_ARGV = [
    ["pairs", "A", "5"],
    ["orbits", "A:3:p=2"], ["orbits", "B:3"], ["orbits", "C:2"],
    ["orbits", "D:5:vec"], ["orbits", "D:4:gl"],
    ["triple", "A:3:p=2/1.1/r=1"],
    ["semigroup", "1.4", "--p", "5"], ["semigroup", "1.5", "--q", "5"],
    ["semigroup", "1.6", "--p", "4", "--q", "4", "--r", "1", "--s", "1"],
    ["semigroup", "1.7", "--p", "4", "--q", "4", "--r", "1", "--s", "1"],
    ["normality", "1.4", "--p", "5"],
    ["cg-verify", "2"],
    ["report-all"],
]
REACH_SCRIPT = """
import json, os, sys
src, argvs = sys.argv[1], json.loads(sys.argv[2])
reached = set()

def profile(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_filename.startswith(src):
        reached.add((os.path.basename(code.co_filename), code.co_firstlineno, code.co_name))

sys.setprofile(profile)
from korbits.cli import main
codes = [main(argv + ["--out", os.devnull]) for argv in argvs]
sys.setprofile(None)
print(json.dumps({"codes": codes, "reached": sorted(reached)}))
"""

# Top-level src/ functions and methods that no command runs, each kept for
# a stated reason.
UNREACHED_ALLOWLIST = {
    # Dense matrix helpers, the tests' reference for the sparse orbit layer.
    "linalg.identity", "linalg.mat_mul", "linalg.mat_add", "linalg.mat_sub",
    # Wrapped by the benchmark tracer through a bare getattr.
    "linalg.commutator",
    # Library calls the benchmark makes.
    "semigroup.leq_sigma", "semigroup.is_minuscule", "spherical.system_ax111",
    "spherical.system_case_1_6", "spherical.system_case_1_7", "cg.TTriple.entries",
}


def src_functions(src):
    """{(file, first line, name): dotted name} of every module-level function
    and class method in src/.  A decorated function's code starts at its
    first decorator."""
    out = {}
    for fname in sorted(os.listdir(src)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(src, fname), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                defs = [(node.name + ".", sub) for sub in node.body]
            else:
                defs = [("", node)]
            for prefix, fn in defs:
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    line = min([fn.lineno] + [d.lineno for d in fn.decorator_list])
                    out[(fname, line, fn.name)] = f"{fname[:-3]}.{prefix}{fn.name}"
    return out


def test_every_src_function_is_reached_or_allowlisted():
    src = os.path.dirname(korbits.__file__)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(src))
    proc = subprocess.run([sys.executable, "-c", REACH_SCRIPT, src, json.dumps(REACH_ARGV)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0] * len(REACH_ARGV)
    reached = {tuple(key) for key in result["reached"]}
    functions = src_functions(src)
    unreached = {name for key, name in functions.items() if key not in reached}
    assert unreached == UNREACHED_ALLOWLIST
