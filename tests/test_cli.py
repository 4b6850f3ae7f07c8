import json

import pytest

from treeperc.cli import main, parse_grid
from treeperc.errors import ParameterError, SizeCapError


def run(tmp_path, name, *argv):
    out = tmp_path / name
    code = main(list(argv) + ["--out", str(out)])
    return code, out


def test_parse_grid_inclusive_and_on_grid():
    grid = parse_grid("0:0.5:0.1")
    assert grid == [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
    assert parse_grid("0.25:0.25:1") == [0.25]
    assert parse_grid("0:1:0.25")[-1] == 1.0


def test_parse_grid_errors():
    for bad in ("0:1", "0:1:0", "1:0:0.1", "a:b:c", "0:inf:0.1", "0:nan:0.1"):
        with pytest.raises(ParameterError):
            parse_grid(bad)
    with pytest.raises(SizeCapError):
        parse_grid("0:0.5:1e-30")


def test_qc_point_json(tmp_path):
    code, out = run(
        tmp_path, "point.json", "qc-point", "--d", "2", "--k", "2", "--p", "0.0"
    )
    assert code == 0
    payload = json.loads(out.read_text())
    row = payload["rows"][0]
    assert abs(row["qc"] - 0.25) < 1e-9
    assert row["lower_bound"] == 0.25
    assert payload["meta"]["config"]["d"] == 2


def test_qc_curve_csv_layout(tmp_path):
    code, out = run(
        tmp_path, "curve.csv", "qc-curve", "--d", "2", "--k", "2",
        "--p-grid", "0:0.4:0.2", "--tol", "1e-8",
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# treeperc ")
    assert lines[1].startswith("# config: ")
    assert lines[2] == "p,qc,lower_bound,gap,rho_residual"
    assert len(lines) == 6
    values = [float(line.split(",")[1]) for line in lines[3:]]
    assert values[0] > values[1] > values[2]


def test_survival_json_and_determinism(tmp_path):
    argv = [
        "survival", "--d", "2", "--k", "2", "--p", "0.2", "--q", "0.25",
        "--trials", "2000", "--depth", "40",
    ]
    code1, out1 = run(tmp_path, "s1.json", *argv)
    code2, out2 = run(tmp_path, "s2.json", *argv)
    assert code1 == code2 == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["rows"][0]["frequency"] > 0
    assert "depth_proxy" in payload["meta"]["config"]


def test_survival_direct_method_runs(tmp_path):
    code, out = run(
        tmp_path, "sd.json", "survival", "--d", "2", "--k", "2",
        "--p", "0.1", "--q", "0.05", "--trials", "300", "--depth", "30",
        "--method", "direct",
    )
    assert code == 0
    assert json.loads(out.read_text())["rows"][0]["frequency"] < 0.1


def test_matrix_summary_and_dump(tmp_path):
    dump = tmp_path / "m.csv"
    code, out = run(
        tmp_path, "m.json", "matrix", "--d", "2", "--k", "2",
        "--p", "0.2", "--q", "0.25", "--dump", str(dump),
    )
    assert code == 0
    payload = json.loads(out.read_text())
    row = payload["rows"][0]
    assert row["n_types"] == 7
    lines = dump.read_text().splitlines()
    assert lines[2] == "row_window_hex,col_window_hex,rate"
    assert len(lines) - 3 == row["nnz"]
    for body in lines[3:]:
        a, b, rate = body.split(",")
        assert 1 <= int(a, 16) <= 7 and 0 <= int(b, 16) <= 7
        assert float(rate) > 0


def test_criteria_reports_confidence_interval(tmp_path):
    code, out = run(
        tmp_path, "c.json", "criteria", "--d", "2", "--k", "2",
        "--p", "0.25", "--s", "1.0", "--trials", "4000",
    )
    assert code == 0
    row = json.loads(out.read_text())["rows"][0]
    assert row["lhs_a_lo"] <= row["lhs_a"] <= row["lhs_a_hi"]
    assert row["lhs_b_lo"] <= row["lhs_b"] <= row["lhs_b_hi"]


def test_limits_sub_regime(tmp_path):
    code, out = run(
        tmp_path, "sub.csv", "limits", "--regime", "sub", "--d", "2", "--k", "2",
        "--p", "0.2", "--q", "0.1", "--trials", "3000",
        "--horizon", "12", "--horizon-low", "8",
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[2].startswith("# seed: ")
    assert lines[3] == "i,pmf_low,pmf_high,tv"
    assert lines[4].split(",")[0] == "1"
    tv = float(lines[4].split(",")[3])
    assert 0.0 <= tv <= 1.0


def test_exit_code_usage(capsys):
    for argv in (
        ["qc-curve", "--d", "2", "--k", "2", "--p-grid", "1:0:0.1"],
        ["qc-curve", "--d", "2", "--k", "2", "--p-grid", "0:inf:0.1"],
        ["qc-curve", "--d", "2", "--k", "2", "--p-grid=-0.2:0:0.1"],
        ["qc-point", "--d", "2", "--k", "2", "--p", "1.5"],
        ["matrix", "--d", "2", "--k", "2", "--p", "-0.5", "--q", "0.1"],
        ["survival", "--method", "chain", "--d", "2", "--k", "2", "--p", "1.5", "--q", "0.1"],
        ["survival", "--d", "2", "--k", "2", "--p", "0.2", "--q", "0.1", "--trials", "0"],
    ):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("treeperc: ") and err.count("\n") == 1, (argv, err)


def test_exit_code_cap(tmp_path):
    # impossible conditioning budget: no accepted samples
    code = main([
        "limits", "--regime", "critical", "--d", "2", "--k", "2", "--p", "0.0",
        "--size-threshold", "1000000", "--trials", "40",
        "--out", str(tmp_path / "never.csv"),
    ])
    assert code == 3
    # the chain refuses 10^5 trials at (2,4) before allocating them
    code = main([
        "survival", "--d", "2", "--k", "4", "--p", "0.25", "--q", "0.05",
        "--out", str(tmp_path / "never.json"),
    ])
    assert code == 3
    code = main([
        "qc-curve", "--d", "2", "--k", "2", "--p-grid", "0:0.5:1e-30",
        "--out", str(tmp_path / "never.csv"),
    ])
    assert code == 3


def test_missing_subcommand_is_argparse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()
