import itertools
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import opialcheck
from opialcheck import IntervalSequence, NonRational, registry
from opialcheck.cli import SchemaError, main, parse_sequence

SAMPLES = Path(__file__).resolve().parents[1] / "samples"


def sample(name):
    """Absolute path of a bundled sample, wherever pytest started."""
    return str(SAMPLES / name)


# -- document parsing -----------------------------------------------------------


def test_parse_sequence_from_text():
    s = parse_sequence('{"u": [[0, 0], ["1/3", "2/3"]], "base_index": 1}')
    assert isinstance(s, IntervalSequence)
    assert s.base_index == 1
    assert s.at(2).lo == Fraction(1, 3)


def test_parse_sequence_pair():
    u, v = parse_sequence('{"u": [[0, 0], [1, 2]], "v": [[0, 0], [1, 3]]}')
    assert u.base_index == v.base_index == 0
    assert v.at(1).hi == 3


def test_decimal_text_is_exact():
    # JSON number literals are read as exact decimals, never binary floats
    s = parse_sequence('{"u": [[0, 0.1]]}')
    assert s.at(0).hi == Fraction(1, 10)
    s2 = parse_sequence('{"u": [[0, "0.1"]]}')
    assert s2.at(0).hi == Fraction(1, 10)


def test_float_objects_rejected_with_path():
    with pytest.raises(NonRational, match=r"u\[0\]\[1\]"):
        parse_sequence({"u": [[0, 0.1]]})


def test_schema_errors():
    with pytest.raises(SchemaError, match="NaN"):
        parse_sequence('{"u": [[0, NaN]]}')
    with pytest.raises(SchemaError, match=r"u\[0\]"):
        parse_sequence('{"u": [[2, 1]]}')
    with pytest.raises(SchemaError, match="unknown keys"):
        parse_sequence('{"u": [[0, 0]], "extra": 1}')
    with pytest.raises(SchemaError, match="missing required key"):
        parse_sequence('{"v": [[0, 0]]}')
    with pytest.raises(SchemaError, match="top level"):
        parse_sequence('[1, 2]')
    with pytest.raises(SchemaError, match="base_index"):
        parse_sequence('{"u": [[0, 0]], "base_index": true}')
    with pytest.raises(SchemaError, match="invalid JSON"):
        parse_sequence('not json')


def test_round_trip_preserves_values(tmp_path):
    doc = {"u": [["-3/7", "1/7"], [0, 0], ["5/2", 3]], "base_index": 2}
    s = parse_sequence(json.dumps(doc))
    assert s.to_pairs() == (
        (Fraction(-3, 7), Fraction(1, 7)),
        (Fraction(0), Fraction(0)),
        (Fraction(5, 2), Fraction(3)),
    )


# -- command driver -----------------------------------------------------------------


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_targeted_pass(capsys):
    code, out, _ = run_cli(capsys, [
        "check", "--in", sample("tent_classical.json"),
        "--theorem", "T2_2", "--format", "json",
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"]["holds"] is True
    assert doc["verdict"]["lhs"] == 4
    assert doc["verdict"]["rhs"] == 4


def test_check_targeted_out_of_hypotheses(capsys):
    # ex33 breaks the monotonicity requirement, so the claim does not apply
    code, out, _ = run_cli(capsys, [
        "check", "--in", sample("ex33.json"),
        "--theorem", "T3_1", "--format", "json",
    ])
    assert code == 2
    doc = json.loads(out)
    assert doc["verdict"]["in_hypotheses"] is False


def test_check_windowed_requires_window(capsys):
    code, _, err = run_cli(capsys, [
        "check", "--in", sample("ex32_n5.json"), "--theorem", "T3_2",
    ])
    assert code == 3
    assert "error:" in err

    code2, out, _ = run_cli(capsys, [
        "check", "--in", sample("ex32_n5.json"), "--theorem", "T3_2",
        "--l1", "1", "--l2", "2", "--window", "2,5", "--format", "json",
    ])
    assert code2 == 0
    doc = json.loads(out)
    assert doc["verdict"]["lhs"] == "235/216"
    assert doc["verdict"]["rhs"] == "28/9"


def test_check_discovery(capsys):
    code, out, _ = run_cli(capsys, [
        "check", "--in", sample("ex33.json"), "--format", "json",
    ])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["verdicts"]) == 8
    skipped = {row["theorem"] for row in doc["skipped"]}
    assert skipped == {"L3_02", "T3_2", "T3_4", "T4_2"}
    for row in doc["skipped"]:
        assert "window" in row["reason"]
    conforming = [v for v in doc["verdicts"] if v["in_hypotheses"]]
    assert conforming and all(v["holds"] for v in conforming)


def test_check_discovery_none_conforming(tmp_path, capsys):
    path = tmp_path / "free.json"
    path.write_text('{"u": [[1, 2], [3, 4]]}')
    code, out, _ = run_cli(capsys, ["check", "--in", str(path), "--format", "json"])
    assert code == 2
    doc = json.loads(out)
    assert all(not v["in_hypotheses"] for v in doc["verdicts"])


def test_check_discovery_pair(capsys):
    code, out, _ = run_cli(capsys, [
        "check", "--in", sample("pair_t36.json"), "--format", "json",
    ])
    assert code == 0
    doc = json.loads(out)
    names = {v["theorem"] for v in doc["verdicts"]}
    assert names == {"T3_6", "T3_8", "T3_10"}
    assert {row["theorem"] for row in doc["skipped"]} == {"T3_7", "T3_9"}


def test_check_alt_boundary_guard(capsys):
    code, _, err = run_cli(capsys, [
        "check", "--in", sample("pair_t36.json"),
        "--theorem", "T3_6", "--alt-boundary",
    ])
    assert code == 3
    assert "alt_boundary" in err


def test_classify_single(capsys):
    code, out, _ = run_cli(capsys, [
        "classify", "--in", sample("ex33.json"), "--format", "json",
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["u"]["direction"] == "non-monotone"
    assert doc["u"]["mu_direction"] == "mu-non-monotone"
    assert doc["u"]["segments"]["breakpoints"] == [0, 3, 5]
    parts = doc["u"]["segments"]["segments"]
    assert [p["profile"]["direction"] for p in parts] == ["increasing", "decreasing"]


def test_classify_pair(capsys):
    code, out, _ = run_cli(capsys, [
        "classify", "--in", sample("pair_t36.json"), "--format", "json",
    ])
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"u", "v", "synchrony"}
    assert doc["synchrony"] == "synchronous"


def test_fuzz_clean_exit_zero(capsys):
    code, out, _ = run_cli(capsys, [
        "fuzz", "--theorem", "T2_2", "--trials", "40", "--seed", "3",
        "--format", "json",
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["trials_run"] == 40
    assert doc["violations"] == []


def test_fuzz_relax_exit_one(capsys):
    code, out, _ = run_cli(capsys, [
        "fuzz", "--theorem", "T2_2", "--trials", "200", "--seed", "0",
        "--relax", "last_zero", "--format", "json",
    ])
    assert code == 1
    doc = json.loads(out)
    assert len(doc["violations"]) == 9
    assert doc["violations"][0]["verdict"]["holds"] is False


RELAX_PAIRS = [
    (spec.id.value, f"{a},{b}")
    for spec in registry()
    for a, b in itertools.combinations(spec.preconditions, 2)
]


@pytest.mark.parametrize("theorem,relax", RELAX_PAIRS)
def test_fuzz_relax_pairs_exit_cleanly(capsys, theorem, relax):
    # a combination the mutation table cannot break at a drawn length is a
    # usage error (exit 3), never an uncaught exception or a false exit 1
    code, out, err = run_cli(capsys, [
        "fuzz", "--theorem", theorem, "--relax", relax,
        "--trials", "200", "--seed", "0", "--format", "json",
    ])
    assert code in (0, 1, 3)
    if code == 3:
        assert err.startswith("error: could not violate") and out == ""
    else:
        assert json.loads(out)["trials_run"] == 200


@pytest.mark.parametrize("theorem,relax", [
    ("T3_1", "monotone,mu_increasing"),
    ("T3_5", "first_zero,alternate"),
    ("T4_5", "last_zero,alternate"),
])
def test_fuzz_relax_uncovered_combination_is_usage_error(
    capsys, monkeypatch, theorem, relax
):
    # a relax set the mutation table cannot break is a usage error (exit 3);
    # these sets now run to completion, so the table is made to break nothing
    monkeypatch.setattr(opialcheck.oracle, "_mutate", lambda *args: False)
    code, out, err = run_cli(capsys, [
        "fuzz", "--theorem", theorem, "--relax", relax,
        "--trials", "20", "--seed", "0",
    ])
    assert code == 3
    assert err.startswith("error: could not violate") and out == ""


def test_scan_exit_codes(capsys):
    code, out, _ = run_cli(capsys, [
        "scan", "--theorem", "T2_2", "--length", "4", "--bound", "2",
        "--format", "json",
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["violations"] == 0

    code2, _, err = run_cli(capsys, [
        "scan", "--theorem", "T3_6", "--length", "6", "--bound", "8",
        "--budget", "1000",
    ])
    assert code2 == 3
    assert "budget" in err


def test_examples_command(capsys):
    code, out, _ = run_cli(capsys, ["examples", "--format", "json"])
    assert code == 0
    reports = json.loads(out)
    assert [r["example"] for r in reports] == ["3.1", "3.2", "3.3a", "3.3b"]
    assert [r["match"] for r in reports] == [True, True, False, False]


def test_check_default_format_is_json(capsys):
    code, out, _ = run_cli(capsys, [
        "check", "--in", sample("ex33.json"), "--theorem", "T3_5",
        "--l1", "2", "--l2", "3",
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"]["rhs"] == "31104/5"


def test_json_output_is_float_free(capsys):
    code, out, _ = run_cli(capsys, [
        "check", "--in", sample("ex32_n5.json"), "--theorem", "T3_2",
        "--l1", "1", "--l2", "2", "--window", "2,5", "--format", "json",
    ])
    assert code == 0

    def walk(node):
        assert not isinstance(node, float)
        if isinstance(node, dict):
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)

    walk(json.loads(out))


def test_table_format_smoke(capsys):
    code, out, _ = run_cli(capsys, [
        "check", "--in", sample("ex33.json"), "--theorem", "T3_5",
        "--l1", "2", "--l2", "3",
    ])
    assert code == 0
    assert "T3_5" in out
    assert "704" in out
    assert "31104/5" in out


def test_error_exit_codes(capsys, tmp_path):
    code, _, err = run_cli(capsys, ["check", "--in", "/nonexistent.json"])
    assert code == 3 and "error:" in err

    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code2, _, err2 = run_cli(capsys, ["check", "--in", str(bad)])
    assert code2 == 3 and "invalid JSON" in err2

    code3, _, _ = run_cli(capsys, [
        "check", "--in", sample("ex33.json"), "--theorem", "T99",
    ])
    assert code3 == 3

    code4, _, _ = run_cli(capsys, [])
    assert code4 == 3


def test_help_exits_zero(capsys):
    assert run_cli(capsys, ["--help"])[0] == 0
    assert run_cli(capsys, ["check", "--help"])[0] == 0


@pytest.mark.skipif(shutil.which("opialcheck") is None,
                    reason="console script not on PATH (pip install -e .)")
def test_console_script_installed():
    exe = shutil.which("opialcheck")
    assert exe is not None
    proc = subprocess.run(
        [exe, "examples", "--format", "json"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)[0]["example"] == "3.1"


def test_module_entry_point():
    # run the package under test, from the repo root, wherever pytest started
    root = Path(__file__).resolve().parents[1]
    pkg_dir = str(Path(opialcheck.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_dir, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "opialcheck", "check",
         "--in", "samples/tent_classical.json", "--theorem", "T2_2"],
        capture_output=True, text=True, timeout=120, cwd=root, env=env,
    )
    assert proc.returncode == 0
