import json
import math
import os
import re
import signal
import subprocess
import sys
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from treeperc import critical
from treeperc.cli import _conditional_pmf, build_parser, emit, main, parse_grid, write_output
from treeperc.errors import ParameterError, SizeCapError
from treeperc.tree import TreeParams
from treeperc.window_chain import OffspringMatrix, build_offspring_matrix


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



def test_qc_point_pinned_d2k4(tmp_path):
    code, out = run(
        tmp_path, "point.json", "qc-point", "--d", "2", "--k", "4", "--p", "0.25", "--tol", "1e-4"
    )
    assert code == 0
    row = json.loads(out.read_text())["rows"][0]
    # q_c to an ulp or so: the BLAS kernel's dot product can move it
    assert abs(row["qc"] - 0.031517982169739174) <= 1e-15
    assert row["bisection_width"] == 4.999999999999449e-05


def test_qc_point_d16k2_runs(tmp_path):
    # 2^16 top-slot subsets per child window, but 3 ray states
    code, out = run(
        tmp_path, "point.json", "qc-point", "--d", "16", "--k", "2", "--p", "0.01", "--tol", "1e-6"
    )
    assert code == 0
    row = json.loads(out.read_text())["rows"][0]
    # the gap (3.5e-7) is below tol here; the bracket starts at the lower
    # bound, so it stays above it
    assert row["qc"] - 0.5 * row["bisection_width"] >= row["lower_bound"]
    assert row["qc"] <= 16.0**-2


def test_qc_curve_byte_identical_across_blas_threads(tmp_path):
    # each rho solve starts from a LAPACK eigenvector; the curve may not
    # depend on how many threads BLAS and LAPACK run
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        out = tmp_path / f"curve_{threads}.csv"
        subprocess.run(
            [
                sys.executable, "-m", "treeperc.cli", "qc-curve", "--d", "2", "--k", "4",
                "--p-grid", "0:0.5:0.05", "--out", str(out),
            ],
            check=True,
            env=env,
        )
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == 3 + 11


@pytest.mark.parametrize("d, k, p, q", [(2, 4, 0.1, 0.03), (19, 2, 0.01, 0.01)])
def test_matrix_byte_identical_across_blas_threads(tmp_path, d, k, p, q):
    # matrix runs its power solves through BLAS matrix-vector products on
    # the dense ray matrix; its output may not depend on the thread count
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        out = tmp_path / f"matrix_{threads}.csv"
        subprocess.run(
            [
                sys.executable, "-m", "treeperc.cli", "matrix", "--d", str(d), "--k", str(k),
                "--p", str(p), "--q", str(q), "--format", "csv", "--out", str(out),
            ],
            check=True,
            env=env,
        )
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == 3 + 1


HASH_SEED_RUNS = {
    "survival": ["survival", "--method", "direct", "--d", "2", "--k", "3", "--p", "0.2",
                 "--q", "0.0861", "--depth", "60", "--trials", "300"],
    "dominance": ["dominance", "--d", "2", "--k", "3", "--p", "0.3", "--q", "0.1",
                  "--delta", "0.02", "--trials", "200"],
    "limits": ["limits", "--regime", "critical", "--d", "2", "--k", "3", "--p", "0.2",
               "--trials", "200", "--size-threshold", "8", "--radius", "2"],
    "criteria": ["criteria", "--d", "2", "--k", "3", "--p", "0.3", "--s", "1.0",
                 "--trials", "300"],
}

# the sweep's cap message counts the layer as far as it got, so it shows the
# order in which the sweep visits a layer's vertices
CAP_MESSAGES = """
import treeperc.percolation as P
from treeperc.tree import TreeParams
P.DEFAULT_CLUSTER_CAP = 300
tp, perc = TreeParams(2, 3), P.PercParams(0.8, 0.5)
for trial in range(8):
    try:
        P.explore_layers(tp, perc, P.make_oracle(tp, perc, 1, trial), 40)
    except P.SizeCapError as exc:
        print(exc)
"""


def test_outputs_byte_identical_across_hash_seeds(tmp_path):
    # tree vertices are byte strings, whose hashes Python salts per process;
    # no output, nor the order of a sweep, may depend on the salt
    outputs = {}
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        for name, argv in HASH_SEED_RUNS.items():
            out = tmp_path / f"{name}_{hash_seed}.csv"
            subprocess.run(
                [sys.executable, "-m", "treeperc.cli", *argv, "--out", str(out)],
                check=True,
                env=env,
            )
            outputs.setdefault(name, []).append(out.read_bytes())
        cap = subprocess.run(
            [sys.executable, "-c", CAP_MESSAGES], check=True, env=env, capture_output=True
        )
        outputs.setdefault("cap", []).append(cap.stdout)
    for name, (first, second) in outputs.items():
        assert first == second, name
    assert len(outputs["cap"][0].splitlines()) == 8


def test_cli_import_loads_no_scipy_or_networkx():
    # scipy and networkx are test dependencies only
    code = (
        "import sys, treeperc.cli; "
        "print([m for m in sys.modules if m.startswith(('scipy', 'networkx'))])"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


# one small run of every command, read without scipy or networkx
SCIPY_FREE_RUNS = [
    ["qc-point", "--d", "2", "--k", "3", "--p", "0.2"],
    ["qc-curve", "--d", "2", "--k", "2", "--p-grid", "0:0.5:0.25"],
    ["asymptotics", "--d", "2", "--p", "0.25", "--k-min", "2", "--k-max", "3"],
    # at p = q = 0 the matrix is nilpotent, which the solve finds by peeling
    ["matrix", "--d", "2", "--k", "2", "--p", "0", "--q", "0"],
    *(
        ["survival", "--method", method, "--d", "2", "--k", "2", "--p", "0.2",
         "--q", "0.1", "--trials", "20", "--depth", "10"]
        for method in ("chain", "direct")
    ),
    *(
        ["limits", "--regime", regime, "--d", "2", "--k", "2", "--p", "0.2",
         "--q", "0.1", "--trials", "20", "--horizon", "5", "--horizon-low", "2"]
        for regime in ("super", "sub")
    ),
    # every cluster exceeds size 0, so acceptance is certain on any stream
    ["limits", "--regime", "critical", "--d", "2", "--k", "2", "--p", "0.2",
     "--trials", "20", "--size-threshold", "0"],
    ["dominance", "--d", "2", "--k", "2", "--p", "0.2", "--q", "0.25",
     "--delta", "0.05", "--trials", "20"],
    ["criteria", "--d", "2", "--k", "2", "--p", "0.25", "--s", "1.0", "--trials", "20"],
]


def test_commands_run_without_scipy_or_networkx(tmp_path):
    script = (
        "import json, sys\n"
        "sys.modules['scipy'] = sys.modules['networkx'] = None\n"
        "from treeperc.cli import main\n"
        "print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))\n"
    )
    dump = tmp_path / "dump.csv"
    argvs = [
        argv + ["--out", str(tmp_path / f"run{n}")]
        for n, argv in enumerate(
            SCIPY_FREE_RUNS
            + [["matrix", "--d", "2", "--k", "3", "--p", "0.2", "--q", "0.1", "--dump", str(dump)]]
        )
    ]
    done = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argvs)], capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    codes = json.loads(done.stdout)
    assert codes == [0] * len(argvs), list(zip(codes, argvs))
    assert dump.read_text().splitlines()[2] == "row_state_hex,col_state_hex,rate"


def _same_cell(csv_cell: str, value) -> bool:
    """Whether CSV's ``csv_cell`` and JSON's ``value`` hold one table value:
    CSV writes a string as it is and any other value by its repr, JSON a
    non-finite float as null."""
    if value is None:
        return not math.isfinite(float(csv_cell))
    return csv_cell == (value if isinstance(value, str) else repr(value))


@pytest.mark.parametrize("argv", SCIPY_FREE_RUNS, ids=lambda argv: "-".join(argv[:3]))
def test_commands_write_one_table_in_both_formats(tmp_path, argv):
    csv_code, csv_out = run(tmp_path, "run.csv", *argv, "--format", "csv")
    json_code, json_out = run(tmp_path, "run.json", *argv, "--format", "json")
    assert csv_code == json_code == 0
    lines = csv_out.read_text().splitlines()
    payload = _strict_json(json_out.read_text())
    # the config line is sorted key=value pairs; a value may hold spaces
    assert lines[1].startswith("# config: ")
    pairs = re.split(r" (?=\w+=)", lines[1][len("# config: "):])
    config = dict(pair.split("=", 1) for pair in pairs)
    assert config.keys() == payload["meta"]["config"].keys()
    for key, value in payload["meta"]["config"].items():
        assert _same_cell(config[key], value), (key, config[key], value)
    seed = payload["meta"]["seed"]
    seed_lines = [line for line in lines if line.startswith("# seed: ")]
    assert seed_lines == ([] if seed is None else [f"# seed: {seed}"])
    body = [line for line in lines if not line.startswith("#")]
    header = body[0].split(",")
    assert len(payload["rows"]) == len(body) - 1 > 0
    for line, row in zip(body[1:], payload["rows"]):
        assert row.keys() == set(header)
        assert all(_same_cell(cell, row[h]) for h, cell in zip(header, line.split(","))), line


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


def test_survival_chain_stops_at_extinction(tmp_path):
    # the trial dies within a few generations; the run must not step through
    # the remaining ten million empty ones
    start = time.perf_counter()
    code, out = run(
        tmp_path, "s.json", "survival", "--method", "chain", "--d", "2", "--k", "2",
        "--p", "0.2", "--q", "0.1", "--depth", "10000000", "--trials", "1",
    )
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert json.loads(out.read_text())["rows"][0]["frequency"] == 0.0


def test_matrix_summary_and_dump(tmp_path):
    dump = tmp_path / "m.csv"
    code, out = run(
        tmp_path, "m.json", "matrix", "--d", "2", "--k", "2",
        "--p", "0.2", "--q", "0.25", "--dump", str(dump),
    )
    assert code == 0
    payload = json.loads(out.read_text())
    row = payload["rows"][0]
    assert row["n_types"] == 3
    lines = dump.read_text().splitlines()
    assert lines[2] == "row_state_hex,col_state_hex,rate"
    assert len(lines) - 3 == row["nnz"]
    for body in lines[3:]:
        a, b, rate = body.split(",")
        assert 1 <= int(a, 16) <= 3 and 1 <= int(b, 16) <= 3
        assert float(rate) > 0


def test_matrix_pinned(tmp_path):
    # iterations and sizes must match bit for bit, rho to the 1e-15 that
    # the BLAS kernel's dot product in its Rayleigh quotient can move it;
    # mu_max and nu_max come out of a cross-normalization and must match to
    # 1e-12; recorded from the 3-state ray matrix
    code, out = run(
        tmp_path, "m.json", "matrix", "--d", "2", "--k", "2", "--p", "0.2", "--q", "0.25",
    )
    assert code == 0
    row = json.loads(out.read_text())["rows"][0]
    assert abs(row["rho"] - 1.1898192770417875) <= 1e-15
    assert (row["iterations"], row["n_types"], row["nnz"]) == (128, 3, 5)
    assert row["residual"] <= 0.25e-12
    assert row["mu_max"] == pytest.approx(0.5401204819721664, rel=1e-12)
    assert row["nu_max"] == pytest.approx(1.7128587707884542, rel=1e-12)


@pytest.mark.parametrize(
    "p, q, expect", [(0.2, 0.25, 0), (0.0, 1e-9, 0), (0.1, 0.0, 4), (2e-5, 0.0, 4), (1e-7, 0.0, 4)]
)
def test_matrix_prints_rho_only_when_certified(tmp_path, capsys, p, q, expect):
    # at q = 0 the (2,2) ray matrix is near rank one and its Perron root
    # badly conditioned: the left and right solves each meet their residual but
    # disagree on rho (by 4e-7 at p = 1e-7, where rho is 2e-7), so the
    # command exits 4; a printed rho lies within tol of the dense eigenvalue
    code, out = run(
        tmp_path, "m.json", "matrix", "--d", "2", "--k", "2", "--p", str(p), "--q", str(q),
    )
    assert code == expect
    if code == 0:
        row = json.loads(out.read_text())["rows"][0]
        dense = build_offspring_matrix(TreeParams(2, 2), p, q).dense
        assert row["residual"] <= 1e-12
        assert abs(row["rho"] - max(np.linalg.eigvals(dense).real)) <= 1e-12
    else:
        assert not out.exists()
        assert "agree only to residual" in capsys.readouterr().err


@pytest.mark.parametrize("d, k, p, q", [(2, 4, 0.1, 0.03), (19, 2, 0.01, 0.01)])
def test_matrix_runs_on_the_ray(tmp_path, d, k, p, q):
    # points where the full window matrix is past solving: 32767 types at
    # (2,4), where its left and right solves disagree, and about 3e5 GiB at
    # (19,2); the ray has 2^k - 1 states and the rho that q_c solves
    code, out = run(
        tmp_path, "m.json", "matrix", "--d", str(d), "--k", str(k), "--p", str(p), "--q", str(q),
    )
    assert code == 0
    row = json.loads(out.read_text())["rows"][0]
    assert row["n_types"] == 2**k - 1
    assert row["residual"] <= 1e-12
    assert abs(row["rho"] - critical.rho(p, q, TreeParams(d, k))) <= 1e-12


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
    entries = OffspringMatrix.iter_entries

    def failing_entries(self):
        for n, entry in enumerate(entries(self)):
            if n == 2:
                raise OSError("disk full")
            yield entry

    monkeypatch.setattr(OffspringMatrix, "iter_entries", failing_entries)
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


def test_conditional_pmf_matches_counting():
    # the pmf of the positive counts, keyed by int in increasing order, as a
    # loop over the counts gives it
    rng = np.random.default_rng(3)
    for _ in range(200):
        values = rng.integers(0, rng.integers(2, 9), size=rng.integers(1, 60))
        positive = [int(v) for v in values if v > 0]
        if not positive:
            continue
        counts = Counter(positive)
        expect = [(i, counts[i] / len(positive)) for i in sorted(counts)]
        got = list(_conditional_pmf(values).items())
        assert got == expect
        assert [(type(i), type(pr)) for i, pr in got] == [(int, float)] * len(got)


# Byte-exact outputs for the default seed: a change to the walk kernels in
# percolation or to the edge stream in rng moves them.
CRITICAL_CSV = (
    "# treeperc 0.1.0\n"
    "# config: acceptance_rate=0.31 command=limits d=2 horizon=25 horizon_low=15 k=2 p=0.2 q={q} radius=1 regime=critical seed=20240817 size_threshold=10 trials=300\n"
    "# seed: 20240817\n"
    "neighborhood_class,probability\n"
    "29862a67825a096525a8286876a1d29c,0.010752688172043012\n"
    "2d743d23e0edf74063bea6c6e2abf816,0.3978494623655914\n"
    "4a323a974c700ac53fd693d4ce6ca9f2,0.03225806451612903\n"
    "85eca55ecfd32074bfe202c8896891b6,0.44086021505376344\n"
    "c8aef8c7b66d5d2b6a46d49de54acc8a,0.11827956989247312\n"
)

DOMINANCE_CSV = (
    "# treeperc 0.1.0\n"
    "# config: command=dominance d=2 delta=0.05 dominates=True k=2 max_violation_sigma=2.5197951509967504 p=0.2 q=0.25 seed=20240817 trials=200\n"
    "# seed: 20240817\n"
    "threshold,surv_Z,se_Z,surv_Zhat,se_Zhat,violation_sigma\n"
    "0,1.0,0.0,1.0,0.0,0.0\n"
    "1,0.71,0.03208582241426889,0.6,0.034641016151377546,2.3296407095063176\n"
    "2,0.565,0.03505531343462785,0.44,0.03509985754956849,2.5197951509967504\n"
    "3,0.395,0.03456696399743547,0.33,0.0332490601370926,1.355233214905313\n"
    "4,0.295,0.03224709289222828,0.215,0.029049526674285075,1.843225009046585\n"
    "5,0.21,0.028801041647829335,0.13,0.02378024390118823,2.141918210406663\n"
    "6,0.13,0.02378024390118823,0.075,0.018624580532189176,1.82085767547575\n"
    "7,0.07,0.01804161855266872,0.055,0.016120638945153507,0.6199749948461352\n"
    "8,0.015,0.008595056718835542,0.035,0.012995191418367026,0.0\n"
    "9,0.01,0.007035623639735145,0.015,0.008595056718835542,0.0\n"
    "10,0.0,0.0,0.005,0.004987484335815001,0.0\n"
    "11,0.0,0.0,0.0,0.0,0.0\n"
)


def test_limits_critical_regime_pinned(tmp_path):
    code, out = run(
        tmp_path, "crit.csv", "limits", "--regime", "critical", "--d", "2", "--k", "2",
        "--p", "0.2", "--trials", "300", "--size-threshold", "10",
    )
    assert code == 0
    # byte-exact but for the header's q_c, which the BLAS kernel's dot
    # product can move by an ulp or so
    text = out.read_text()
    q = re.search(r" q=(\S+) ", text).group(1)
    assert abs(float(q) - 0.15849364905389038) <= 1e-15
    assert text == CRITICAL_CSV.format(q=q)


def test_dominance_pinned(tmp_path):
    code, out = run(
        tmp_path, "dom.csv", "dominance", "--d", "2", "--k", "2", "--p", "0.2",
        "--q", "0.25", "--delta", "0.05", "--trials", "200",
    )
    assert code == 0
    assert out.read_text() == DOMINANCE_CSV


def test_dominance_runs_at_large_d(tmp_path):
    # cover digits run up to d + d^k = 380, beyond one byte each
    code, out = run(
        tmp_path, "dom.csv", "dominance", "--d", "19", "--k", "2", "--p", "0.01",
        "--q", "0.001", "--delta", "0", "--trials", "3",
    )
    assert code == 0
    assert out.read_text().splitlines()[3].startswith("threshold,")


def test_seed_range_ends_run(tmp_path):
    # 2^64 - 1 is a valid seed; dominance seeds its cover side with the next
    # seed, which wraps to 0
    for seed in ("0", str(2**64 - 1)):
        for argv in (
            ["survival", "--method", "direct", "--d", "2", "--k", "2", "--p", "0.2",
             "--q", "0.1", "--trials", "3"],
            ["dominance", "--d", "2", "--k", "2", "--p", "0.2", "--q", "0.25",
             "--delta", "0.05", "--trials", "3"],
        ):
            assert main(argv + ["--seed", seed, "--out", str(tmp_path / "out")]) == 0, argv


def test_exit_code_usage(capsys, tmp_path):
    missing = str(tmp_path / "missing" / "x.json")
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
        ["limits", "--regime", "critical", "--d", "2", "--k", "2", "--p", "0.2",
         "--trials", "20", "--size-threshold", "-5"],
        ["limits", "--regime", "critical", "--d", "2", "--k", "2", "--p", "0.2",
         "--trials", "0"],
        *(
            ["limits", "--regime", regime, "--d", "2", "--k", "2", "--p", "0.2",
             "--trials", "20", "--horizon", "5", "--horizon-low", "2"]
            for regime in ("super", "sub")
        ),
        # the two-term expansion needs p d < 1, and the k range must be nonempty
        ["asymptotics", "--d", "2", "--p", "0.8", "--k-min", "2", "--k-max", "3"],
        ["asymptotics", "--d", "2", "--p", "0.6", "--k-min", "2", "--k-max", "3"],
        ["asymptotics", "--d", "3", "--p", "0.4", "--k-min", "2", "--k-max", "2"],
        ["asymptotics", "--d", "2", "--p", "0.25", "--k-min", "4", "--k-max", "2"],
        # criteria need p d < 1: above it the short cluster is supercritical
        *(
            ["criteria", "--d", "2", "--k", "2", "--p", p, "--s", "1", "--trials", "1"]
            for p in ("0.5", "0.6")
        ),
        # output paths that cannot be written are refused before computing
        ["qc-point", "--d", "2", "--k", "2", "--p", "0.6", "--out", missing],
        ["qc-point", "--d", "2", "--k", "2", "--p", "0.6", "--out", str(tmp_path)],
        ["matrix", "--d", "2", "--k", "2", "--p", "0.2", "--q", "0.1", "--dump", str(tmp_path)],
        # every stochastic command refuses a seed outside [0, 2^64)
        *(
            stochastic + ["--seed", seed]
            for seed in ("-1", "-5", str(2**64))
            for stochastic in (
                ["survival", "--method", "direct", "--d", "2", "--k", "2", "--p", "0.2",
                 "--q", "0.1", "--trials", "3"],
                ["survival", "--method", "chain", "--d", "2", "--k", "2", "--p", "0.2",
                 "--q", "0.1", "--trials", "3"],
                *(
                    ["limits", "--regime", regime, "--d", "2", "--k", "2", "--p", "0.2",
                     "--q", "0.1", "--trials", "3", "--horizon", "5", "--horizon-low", "2"]
                    for regime in ("super", "sub", "critical")
                ),
                ["dominance", "--d", "2", "--k", "2", "--p", "0.2", "--q", "0.25",
                 "--delta", "0.05", "--trials", "3"],
                ["criteria", "--d", "2", "--k", "2", "--p", "0.25", "--s", "1.0",
                 "--trials", "3"],
            )
        ),
    ):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("treeperc: ") and err.count("\n") == 1, (argv, err)
        if "--out" in argv or "--dump" in argv:
            assert repr(argv[-1]) in err, (argv, err)
    # --tol passes its own floor, but the solve tolerance derived from it,
    # tol d^k / (10 k), does not at (2,2); the message names the smallest
    # --tol accepted there
    for argv in (
        ["qc-point", "--d", "2", "--k", "2", "--p", "0.2", "--tol", "1e-13"],
        ["asymptotics", "--d", "2", "--p", "0.25", "--k-min", "2", "--k-max", "3", "--tol", "1e-13"],
    ):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert "--tol 1e-13" in err and "5e-13" in err, (argv, err)
    # matrix solves at tol/4: the message names the user's --tol, which
    # passes the floor itself, and the smallest --tol accepted
    argv = ["matrix", "--d", "2", "--k", "2", "--p", "0.2", "--q", "0.1", "--tol", "3e-13"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "--tol 3e-13" in err and "4e-13" in err and "7.5e-14" not in err, err
    assert list(tmp_path.iterdir()) == []


def test_exit_code_cap(tmp_path):
    # impossible conditioning budget: no accepted samples
    code = main([
        "limits", "--regime", "critical", "--d", "2", "--k", "2", "--p", "0.0",
        "--size-threshold", "1000000", "--trials", "40",
        "--out", str(tmp_path / "never.csv"),
    ])
    assert code == 3
    # the chain refuses a history of 10^5 trials over 10^9 generations
    # before allocating it
    code = main([
        "limits", "--regime", "super", "--d", "2", "--k", "2", "--p", "0.2", "--q", "0.26",
        "--horizon", "1000000000", "--out", str(tmp_path / "never.csv"),
    ])
    assert code == 3
    code = main([
        "qc-curve", "--d", "2", "--k", "2", "--p-grid", "0:0.5:1e-30",
        "--out", str(tmp_path / "never.csv"),
    ])
    assert code == 3
    # the supercritical chain at (17,2) passes POPULATION_CAP at generation 13
    for argv in (
        ["survival", "--method", "chain", "--d", "17", "--k", "2", "--p", "0.01", "--q", "0.01"],
        # a trial alive to depth 2*10^8 would draw for most of an hour
        ["survival", "--method", "chain", "--d", "2", "--k", "2", "--p", "0.2", "--q", "0.1",
         "--depth", "200000000", "--trials", "1"],
        # no trial survives to the low horizon: nothing to condition on
        ["limits", "--regime", "sub", "--d", "2", "--k", "2", "--p", "0.2", "--q", "0.1",
         "--trials", "3", "--horizon", "25", "--horizon-low", "15"],
        # 31 window slots, above the width cap
        ["qc-point", "--d", "2", "--k", "5", "--p", "0.2"],
        ["asymptotics", "--d", "2", "--p", "0.25", "--k-min", "2", "--k-max", "5"],
    ):
        assert main(argv + ["--out", str(tmp_path / "never.json")]) == 3


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
# Seeds at and beyond both ends of [0, 2^64).
SEEDS = st.sampled_from([-1, 0, 2**64 - 1, 2**64])
TOLS = st.sampled_from(["nan", "inf", "-1", "0", "1e-300", "1e-13", "1e-12", "1e-8", "1e-4", "0.5"])
# Every command runs on the 7 ray states at (3,3), about a millisecond per
# solve or generation.
SIZES = [(2, 2), (2, 3), (3, 2), (3, 3)]
EXAMPLE_SECONDS = 10


@st.composite
def cli_argvs(draw):
    command = draw(
        st.sampled_from(["qc-point", "qc-curve", "matrix", "survival", "limits", "asymptotics"])
    )
    method = draw(st.sampled_from(["chain", "direct"])) if command == "survival" else None
    d, k = draw(st.sampled_from(SIZES))
    if command == "asymptotics":
        # k ranges over the sizes above, and may be empty or start below 2
        return [
            command, f"--d={d}", f"--p={draw(VALUES)}", f"--k-min={draw(st.integers(1, 3))}",
            f"--k-max={draw(st.integers(1, 3))}", f"--tol={draw(TOLS)}",
        ]
    argv = [command, f"--d={d}", f"--k={k}"]
    if command == "limits":
        argv.append(f"--regime={draw(st.sampled_from(['super', 'sub']))}")
    if command == "qc-curve":
        argv.append(f"--p-grid={draw(VALUES)}:{draw(VALUES)}:{draw(STEPS)}")
    else:
        argv.append(f"--p={draw(VALUES)}")
    # limits sometimes omits --q, which both of its chain regimes need
    if command in ("matrix", "survival") or command == "limits" and draw(st.booleans()):
        argv.append(f"--q={draw(VALUES)}")
    if command in ("survival", "limits") and draw(st.booleans()):
        argv.append(f"--seed={draw(SEEDS)}")
    if command == "survival":
        argv += [f"--method={method}", f"--trials={draw(st.integers(-1, 50))}"]
    elif command == "limits":
        argv += [
            f"--trials={draw(st.integers(-1, 50))}",
            f"--horizon={draw(st.integers(-1, 10))}",
            f"--horizon-low={draw(st.integers(-1, 10))}",
        ]
    else:
        argv.append(f"--tol={draw(TOLS)}")
    return argv


class ExampleTimeout(Exception):
    pass


def _timeout(signum, frame):
    raise ExampleTimeout(f"example ran longer than {EXAMPLE_SECONDS} s")


@settings(max_examples=60, deadline=EXAMPLE_SECONDS * 1000)
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
    if "--seed=-1" in argv or f"--seed={2**64}" in argv:
        assert code == 2, argv


# vars() of the parsed namespace, without func, for a minimal argv of every
# command; recorded before the shared flags moved into parent parsers
NAMESPACE_PINS = [
    (["qc-point", "--d", "2", "--k", "2", "--p", "0.2"],
     {"command": "qc-point", "d": 2, "k": 2, "p": 0.2, "tol": 1e-10, "out": "-", "format": "json"}),
    (["qc-curve", "--d", "2", "--k", "2", "--p-grid", "0:0.5:0.25"],
     {"command": "qc-curve", "d": 2, "k": 2, "p_grid": "0:0.5:0.25", "tol": 1e-10, "out": "-",
      "format": "csv"}),
    (["asymptotics", "--d", "2", "--p", "0.25", "--k-min", "2", "--k-max", "3"],
     {"command": "asymptotics", "d": 2, "p": 0.25, "k_min": 2, "k_max": 3, "tol": 1e-09,
      "out": "-", "format": "csv"}),
    (["survival", "--d", "2", "--k", "2", "--p", "0.2", "--q", "0.1"],
     {"command": "survival", "d": 2, "k": 2, "p": 0.2, "q": 0.1, "trials": 100000, "depth": 60,
      "method": "chain", "out": "-", "format": "json", "seed": 20240817}),
    *(
        (["limits", "--regime", regime, "--d", "2", "--k", "2", "--p", "0.2", *q_argv],
         {"command": "limits", "regime": regime, "d": 2, "k": 2, "p": 0.2, "q": q,
          "trials": 100000, "horizon": 25, "horizon_low": 15, "size_threshold": 50, "radius": 1,
          "out": "-", "format": "csv", "seed": 20240817})
        for regime, q_argv, q in (
            ("super", ["--q", "0.1"], 0.1), ("sub", ["--q", "0.1"], 0.1), ("critical", [], None)
        )
    ),
    (["dominance", "--d", "2", "--k", "2", "--p", "0.2", "--q", "0.25", "--delta", "0.05"],
     {"command": "dominance", "d": 2, "k": 2, "p": 0.2, "q": 0.25, "delta": 0.05,
      "trials": 100000, "out": "-", "format": "csv", "seed": 20240817}),
    (["matrix", "--d", "2", "--k", "2", "--p", "0.2", "--q", "0.25"],
     {"command": "matrix", "d": 2, "k": 2, "p": 0.2, "q": 0.25, "tol": 1e-12, "dump": None,
      "out": "-", "format": "json"}),
    (["criteria", "--d", "2", "--k", "2", "--p", "0.25", "--s", "1.0"],
     {"command": "criteria", "d": 2, "k": 2, "p": 0.25, "s": 1.0, "trials": 100000, "out": "-",
      "format": "json", "seed": 20240817}),
]


@pytest.mark.parametrize(
    "argv, expect",
    NAMESPACE_PINS,
    ids=[argv[0] + ("-" + argv[2] if argv[0] == "limits" else "") for argv, _ in NAMESPACE_PINS],
)
def test_parsed_namespace_pinned(argv, expect):
    # the namespace is the # config: line and meta.config of every run
    args = vars(build_parser().parse_args(argv))
    del args["func"]
    assert args == expect
    assert [type(v) for v in args.values()] == [type(expect[k]) for k in args]


@pytest.mark.parametrize(
    "command",
    ["qc-point", "qc-curve", "asymptotics", "survival", "limits", "dominance", "matrix", "criteria"],
)
def test_command_help_exits_0(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: treeperc {command} ")


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


def test_json_writes_non_finite_values_as_null(tmp_path):
    # every trial dies out, so the later growth ratios are 0/0
    code, out = run(
        tmp_path, "super.json", "limits", "--regime", "super", "--d", "2", "--k", "2",
        "--p", "0.2", "--q", "0.01", "--trials", "10", "--horizon", "8", "--format", "json",
    )
    assert code == 0
    ratios = [row["growth_ratio"] for row in _strict_json(out.read_text())["rows"]]
    assert ratios[-1] is None and ratios[0] == 0.5
    # the same table in CSV still prints nan
    code, out = run(
        tmp_path, "super.csv", "limits", "--regime", "super", "--d", "2", "--k", "2",
        "--p", "0.2", "--q", "0.01", "--trials", "10", "--horizon", "8",
    )
    assert code == 0
    assert out.read_text().splitlines()[-1].split(",")[2] == "nan"


def test_emit_converts_numpy_and_non_finite_scalars(capsys):
    meta = {"version": "v", "config": {"sigma": np.float64(np.inf), "n": np.int64(3)}, "seed": None}
    row = [np.float64(np.nan), -math.inf, np.int64(7), np.float32(0.5), np.bool_(True), "x"]
    header = ["a", "b", "c", "d", "e", "f"]
    emit("-", "json", meta, header, [row])
    payload = _strict_json(capsys.readouterr().out)
    assert payload["meta"]["config"] == {"sigma": None, "n": 3}
    assert payload["rows"] == [{"a": None, "b": None, "c": 7, "d": 0.5, "e": True, "f": "x"}]
    emit("-", "csv", meta, header, [row])
    assert capsys.readouterr().out.splitlines()[1:] == [
        "# config: n=3 sigma=inf", "a,b,c,d,e,f", "nan,-inf,7,0.5,True,x",
    ]
