import json
import signal

import pytest
from hypothesis import event, given, settings, strategies as st

from treeperc.cli import main, parse_grid, write_output
from treeperc.errors import ParameterError, SizeCapError
from treeperc.window_chain import SparseOffspringMatrix


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


def test_matrix_pinned(tmp_path):
    # rho, iterations and sizes must match bit for bit; mu_max and nu_max
    # come out of a cross-normalization and must match to 1e-12
    code, out = run(
        tmp_path, "m.json", "matrix", "--d", "2", "--k", "2", "--p", "0.2", "--q", "0.25",
    )
    assert code == 0
    row = json.loads(out.read_text())["rows"][0]
    assert row["rho"] == 1.1898192770418226
    assert (row["iterations"], row["n_types"], row["nnz"]) == (128, 7, 33)
    assert row["residual"] <= 0.25e-12
    assert row["mu_max"] == pytest.approx(0.32909467493103073, rel=1e-12)
    assert row["nu_max"] == pytest.approx(2.0044419515323852, rel=1e-12)


def test_write_output_failure_keeps_target(tmp_path):
    target = tmp_path / "result.csv"
    target.write_bytes(b"old contents\n")

    def failing(stream):
        stream.write("partial row\n")
        raise RuntimeError("write failed")

    with pytest.raises(RuntimeError):
        write_output(str(target), failing)
    assert target.read_bytes() == b"old contents\n"
    assert [f.name for f in tmp_path.iterdir()] == ["result.csv"]
    write_output(str(target), lambda stream: stream.write("new\n"))
    assert target.read_text() == "new\n"
    assert [f.name for f in tmp_path.iterdir()] == ["result.csv"]


def test_matrix_dump_failure_keeps_target(tmp_path, monkeypatch):
    dump = tmp_path / "m.csv"
    dump.write_bytes(b"previous dump\n")
    entries = SparseOffspringMatrix.iter_entries

    def failing_entries(self):
        for n, entry in enumerate(entries(self)):
            if n == 5:
                raise OSError("disk full")
            yield entry

    monkeypatch.setattr(SparseOffspringMatrix, "iter_entries", failing_entries)
    with pytest.raises(OSError):
        run(
            tmp_path, "m.json", "matrix", "--d", "2", "--k", "2",
            "--p", "0.2", "--q", "0.25", "--dump", str(dump),
        )
    assert dump.read_bytes() == b"previous dump\n"
    assert sorted(f.name for f in tmp_path.iterdir()) == ["m.csv"]


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


# Byte-exact outputs of the earlier hand-written oracle walks; the shared walk
# kernels in percolation must reveal the same clusters.
CRITICAL_CSV = (
    "# treeperc 0.1.0\n"
    "# config: acceptance_rate=0.32 command=limits d=2 horizon=25 horizon_low=15 k=2 p=0.2 q=0.158493649068987 radius=1 regime=critical seed=20240817 size_threshold=10 trials=300\n"
    "# seed: 20240817\n"
    "neighborhood_class,probability\n"
    "29862a67825a096525a8286876a1d29c,0.03125\n"
    "2d743d23e0edf74063bea6c6e2abf816,0.3125\n"
    "4a323a974c700ac53fd693d4ce6ca9f2,0.020833333333333332\n"
    "7fd7a2a64de15d554bb487d82fb3ad8d,0.020833333333333332\n"
    "85eca55ecfd32074bfe202c8896891b6,0.4479166666666667\n"
    "c16ed023ab293286f104f6f2f752482e,0.010416666666666666\n"
    "c8aef8c7b66d5d2b6a46d49de54acc8a,0.15625\n"
)

DOMINANCE_CSV = (
    "# treeperc 0.1.0\n"
    "# config: command=dominance d=2 delta=0.05 dominates=True k=2 max_violation_sigma=2.3465415211226652 p=0.2 q=0.25 seed=20240817 trials=200\n"
    "# seed: 20240817\n"
    "threshold,surv_Z,se_Z,surv_Zhat,se_Zhat,violation_sigma\n"
    "0,1.0,0.0,1.0,0.0,0.0\n"
    "1,0.705,0.03224709289222828,0.63,0.034139420030223126,1.597055614224511\n"
    "2,0.545,0.035211858797853886,0.45,0.03517811819867572,1.908656299142864\n"
    "3,0.39,0.03448912872196107,0.28,0.03174901573277509,2.3465415211226652\n"
    "4,0.27,0.03139267430468452,0.185,0.027456784225396828,2.0380850995869784\n"
    "5,0.135,0.024163505540380516,0.1,0.021213203435596427,1.0885140208312087\n"
    "6,0.1,0.021213203435596427,0.05,0.015411035007422441,1.9069251784911847\n"
    "7,0.055,0.016120638945153507,0.03,0.012062338081814818,1.241685266216521\n"
    "8,0.04,0.013856406460551017,0.02,0.009899494936611665,1.174440439029407\n"
    "9,0.025,0.011039701082909808,0.01,0.007035623639735145,1.1458229725677067\n"
    "10,0.01,0.007035623639735145,0.01,0.007035623639735145,0.0\n"
    "11,0.01,0.007035623639735145,0.0,0.0,1.4213381090374029\n"
    "12,0.005,0.004987484335815001,0.0,0.0,1.002509414234171\n"
    "13,0.0,0.0,0.0,0.0,0.0\n"
)


def test_limits_critical_regime_pinned(tmp_path):
    code, out = run(
        tmp_path, "crit.csv", "limits", "--regime", "critical", "--d", "2", "--k", "2",
        "--p", "0.2", "--trials", "300", "--size-threshold", "10",
    )
    assert code == 0
    assert out.read_text() == CRITICAL_CSV


def test_dominance_pinned(tmp_path):
    code, out = run(
        tmp_path, "dom.csv", "dominance", "--d", "2", "--k", "2", "--p", "0.2",
        "--q", "0.25", "--delta", "0.05", "--trials", "200",
    )
    assert code == 0
    assert out.read_text() == DOMINANCE_CSV


def test_exit_code_usage(capsys):
    for argv in (
        ["qc-curve", "--d", "2", "--k", "2", "--p-grid", "1:0:0.1"],
        ["qc-curve", "--d", "2", "--k", "2", "--p-grid", "0:inf:0.1"],
        ["qc-curve", "--d", "2", "--k", "2", "--p-grid=-0.2:0:0.1"],
        ["qc-point", "--d", "2", "--k", "2", "--p", "1.5"],
        ["matrix", "--d", "2", "--k", "2", "--p", "-0.5", "--q", "0.1"],
        ["survival", "--method", "chain", "--d", "2", "--k", "2", "--p", "1.5", "--q", "0.1"],
        ["survival", "--d", "2", "--k", "2", "--p", "0.2", "--q", "0.1", "--trials", "0"],
        *(
            ["qc-point", "--d", "2", "--k", "2", "--p", "0.2", "--tol", tol]
            for tol in ("0", "-1", "nan", "inf", "1e-300")
        ),
        *(
            ["matrix", "--d", "2", "--k", "2", "--p", "0.2", "--q", "0.1", "--tol", tol]
            for tol in ("0", "1e-300")
        ),
        *(
            ["asymptotics", "--d", "2", "--p", "0.25", "--k-min", "2", "--k-max", "3", "--tol", tol]
            for tol in ("0", "1e-300")
        ),
        # the default --horizon-low 15 lies beyond --horizon 10
        ["limits", "--regime", "sub", "--d", "2", "--k", "2", "--p", "0.2", "--q", "0.1",
         "--trials", "50", "--horizon", "10"],
        ["limits", "--regime", "sub", "--d", "2", "--k", "2", "--p", "0.2", "--q", "0.1",
         "--trials", "50", "--horizon-low", "-3"],
        ["limits", "--regime", "critical", "--d", "2", "--k", "2", "--p", "0.2",
         "--trials", "20", "--radius", "-1"],
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
    # about 10^11 candidate matrix entries at (16,2), refused before the build
    code = main([
        "matrix", "--d", "16", "--k", "2", "--p", "0.01", "--q", "0.01",
        "--out", str(tmp_path / "never.json"),
    ])
    assert code == 3


def test_missing_subcommand_is_argparse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()


# Values for p, q and grid ends: the edge cases plus any probability.
VALUES = st.sampled_from(["nan", "inf", "-inf", "-0.5", "1e-300", "0", "1", "1.5"]) | st.floats(
    0.0, 1.0
).map(repr)
# Grid steps stay coarse enough that a valid grid holds a few points.
STEPS = st.sampled_from(["nan", "inf", "-0.1", "0", "1e-300", "0.1", "0.25", "1"])
TOLS = st.sampled_from(["nan", "inf", "-1", "0", "1e-300", "1e-13", "1e-12", "1e-8", "1e-4", "0.5"])
# One exact solve at (3,3) takes seconds and about 0.4 GB, so the commands
# that build the mean matrix or the chain tables draw from the cheaper sizes.
OPERATOR_SIZES = [(2, 2), (2, 3), (3, 2)]
ALL_SIZES = OPERATOR_SIZES + [(3, 3)]
EXAMPLE_SECONDS = 10


@st.composite
def cli_argvs(draw):
    command = draw(st.sampled_from(["qc-point", "qc-curve", "matrix", "survival"]))
    method = draw(st.sampled_from(["chain", "direct"])) if command == "survival" else None
    d, k = draw(st.sampled_from(ALL_SIZES if method == "direct" else OPERATOR_SIZES))
    argv = [command, f"--d={d}", f"--k={k}"]
    if command == "qc-curve":
        argv.append(f"--p-grid={draw(VALUES)}:{draw(VALUES)}:{draw(STEPS)}")
    else:
        argv.append(f"--p={draw(VALUES)}")
    if command in ("matrix", "survival"):
        argv.append(f"--q={draw(VALUES)}")
    if command == "survival":
        argv += [f"--method={method}", f"--trials={draw(st.integers(-1, 50))}"]
    else:
        argv.append(f"--tol={draw(TOLS)}")
    return argv


class ExampleTimeout(Exception):
    pass


def _timeout(signum, frame):
    raise ExampleTimeout(f"example ran longer than {EXAMPLE_SECONDS} s")


@settings(max_examples=40, deadline=EXAMPLE_SECONDS * 1000)
@given(cli_argvs())
def test_cli_exit_codes_property(argv):
    # the deadline only judges examples that return; the alarm ends a hang
    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.setitimer(signal.ITIMER_REAL, EXAMPLE_SECONDS)
    try:
        code = main(argv + ["--out=-"])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    event(f"{argv[0]} exit {code}")
    assert code in (0, 2, 3, 4), argv
