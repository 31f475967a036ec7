"""End-to-end tests of the command-line interface."""

import csv
import io
import json

import pytest

from slepian_bcp import (ProcessParams, affine_boundary, approximate,
                         dump_boundary, noncross_affine_product)
from slepian_bcp import cli
from slepian_bcp.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_compute_quad_record(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "--q", "1", "--d", "2", "--const-boundary", "1",
        "--method", "quad", "--partition", "auto", "--tol", "1e-6")
    assert code == 0
    rec = json.loads(out)
    assert 0.0 <= rec["value"] <= 1.0
    assert rec["error"] <= 1e-6
    assert rec["method"] == "quadrature"
    assert rec["partition"] == [1.0, 2.0]
    assert rec["q"] == 1.0 and rec["d"] == 2.0
    assert len(rec["boundary_digest"]) == 64
    assert rec["wall_time"] > 0


def test_horizon_restriction_exit_code(capsys):
    code, _, err = run_cli(capsys, "compute", "--q", "1", "--d", "2.5",
                           "--const-boundary", "1")
    assert code == 2
    assert "2*q" in err


def test_tol_only_with_quad(capsys):
    code, _, err = run_cli(capsys, "compute", "--q", "1", "--d", "2",
                           "--const-boundary", "1", "--method", "mc",
                           "--tol", "1e-6")
    assert code == 2
    assert "--tol" in err


def test_boundary_source_required(capsys):
    code, _, err = run_cli(capsys, "compute", "--q", "1", "--d", "2")
    assert code == 2


def test_nonconvergence_exit_code(capsys):
    # a horizon this short exhausts the quadrature ladder
    code, _, err = run_cli(
        capsys, "compute", "--q", "1", "--d", "1.000001",
        "--const-boundary", "1", "--method", "quad")
    assert code == 3


def test_bridge_quadrature_value(capsys):
    code, out, _ = run_cli(
        capsys, "bridge", "--q", "1", "--d", "2", "--t-start", "1.0",
        "--t-end", "1.8", "--x-start", "0", "--x-end", "0.1",
        "--intercept", "1", "--slope", "-0.5")
    assert code == 0
    rec = json.loads(out)
    assert rec["value"] == pytest.approx(0.46473857148, abs=1e-6)


@pytest.mark.parametrize("slope", [0.0, 0.7, -0.5])
def test_bridge_quadrature_is_the_exact_product(capsys, slope):
    code, out, _ = run_cli(
        capsys, "bridge", "--q", "1", "--d", "2", "--t-start", "1.0",
        "--t-end", "1.8", "--x-start", "0", "--x-end", "0.1",
        "--intercept", "1", "--slope", str(slope))
    assert code == 0
    rec = json.loads(out)
    assert rec["value"] == noncross_affine_product(1.0, 0.8, 1.0, slope,
                                                   0.0, 0.1)
    assert rec["error"] == 0.0


def test_bridge_closed_form_is_labelled_analytic(capsys):
    # no quadrature runs on the exact route, so the record says so, as
    # density records do
    code, out, _ = run_cli(
        capsys, "bridge", "--q", "1", "--d", "2", "--t-start", "1.0",
        "--t-end", "1.8", "--x-start", "0", "--x-end", "0.1",
        "--intercept", "1", "--slope", "-0.5", "--method", "quad")
    assert code == 0
    rec = json.loads(out)
    assert rec["method"] == "analytic"
    assert rec["seed"] is None


def test_bridge_rejects_pin_above_boundary(capsys):
    # both methods validate the pins before dispatch
    for method in ("quad", "mc"):
        code, _, err = run_cli(
            capsys, "bridge", "--q", "1", "--d", "2", "--t-start", "1.0",
            "--t-end", "1.8", "--x-start", "0", "--x-end", "0.8",
            "--intercept", "1", "--slope", "-0.5", "--method", method)
        assert code == 2, method
        assert "strictly below" in err, method


def test_bridge_mc_record(capsys):
    code, out, _ = run_cli(
        capsys, "bridge", "--q", "1", "--d", "2", "--t-start", "1.0",
        "--t-end", "1.8", "--x-start", "0", "--x-end", "0.1",
        "--intercept", "1", "--slope", "-0.5", "--method", "mc",
        "--n-paths", "2000", "--grid-step", "0.01", "--seed", "4")
    assert code == 0
    rec = json.loads(out)
    assert rec["method"] == "oracle" and rec["seed"] == 4
    assert abs(rec["value"] - 0.46473857148) <= 4.0 * rec["error"]


@pytest.mark.parametrize("argv", [
    ("density", "--kind", "pair", "--times", "1,2", "--values", "0,0",
     "--seed", "99"),
    ("density", "--kind", "pair", "--times", "1,2", "--values", "0,0",
     "--workers", "7"),
    ("oracle", "--const-boundary", "1", "--workers", "3"),
    ("bridge", "--t-start", "1.0", "--t-end", "1.8", "--x-start", "0",
     "--x-end", "0.1", "--intercept", "1", "--workers", "3"),
    ("bridge", "--t-start", "1.0", "--t-end", "1.8", "--x-start", "0",
     "--x-end", "0.1", "--intercept", "1", "--tol", "1e-8"),
], ids=["density-seed", "density-workers", "oracle-workers",
        "bridge-workers", "bridge-tol"])
def test_flags_a_command_does_not_read_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--q", "1", "--d", "2", *argv[1:]])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (("converge", "--q", "1", "--d", "2", "--expr", "t", "--pieces", "2,x"),
     "--pieces"),
    (("converge", "--q", "1", "--d", "2", "--expr", "t**", "--pieces", "2"),
     "--expr"),
    (("converge", "--q", "1", "--d", "2", "--expr", "foo(t)", "--pieces",
      "2"), "--expr"),
    (("density", "--kind", "hitting-single", "--q", "1", "--d", "2",
      "--x-start", "0", "--t", "1.5"), "--intercept"),
    (("density", "--kind", "hitting-single", "--q", "1", "--d", "2",
      "--intercept", "1", "--t", "1.5"), "--x-start"),
    (("density", "--kind", "hitting-double", "--q", "1", "--d", "2",
      "--t-start", "1", "--t-end", "1.5", "--x-start", "0", "--x-end", "0",
      "--intercept", "1"), "--t"),
    (("converge", "--q", "1", "--d", "2", "--expr", "log(t-1)", "--pieces",
      "2"), "--expr"),
    (("bridge", "--q", "1", "--d", "2", "--t-start", "1.0", "--t-end", "1.8",
      "--x-start", "0", "--x-end", "0.1", "--intercept", "1", "--slope",
      "-0.5", "--method", "mc", "--n-paths", "0"), "--n-paths"),
    (("converge", "--q", "1", "--d", "2", "--expr", "1/(t-1)", "--pieces",
      "2"), "--expr"),
])
def test_validation_errors_exit_2_and_name_the_flag(capsys, recwarn, argv,
                                                   flag):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and flag in err
    # e.g. "1/(t-1)" at t = q: a ZeroDivisionError, not numpy's warning
    assert "RuntimeWarning" not in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_density_pair_value(capsys):
    code, out, _ = run_cli(
        capsys, "density", "--kind", "pair", "--q", "1", "--d", "2",
        "--times", "1,2", "--values", "0,0")
    assert code == 0
    rec = json.loads(out)
    assert rec["value"] == pytest.approx(1.0 / (2.0 * 3.141592653589793),
                                         rel=1e-12)


def test_compute_mc_with_boundary_file(capsys, tmp_path):
    bnd = affine_boundary(ProcessParams(1.0, 2.0), 0.5, 1.0)
    path = tmp_path / "b.json"
    dump_boundary(bnd, str(path))
    code, out, _ = run_cli(
        capsys, "compute", "--q", "1", "--d", "2", "--boundary", str(path),
        "--method", "mc", "--n-paths", "20000", "--seed", "11")
    assert code == 0
    rec = json.loads(out)
    assert rec["method"] == "montecarlo"
    assert rec["seed"] == 11
    assert rec["n_samples"] == 20000


def test_json_and_csv_carry_identical_values(capsys, tmp_path):
    args = ["compute", "--q", "1", "--d", "2", "--const-boundary", "1",
            "--method", "mc", "--n-paths", "5000", "--seed", "3"]
    code, out_json, _ = run_cli(capsys, *args, "--format", "json")
    code2, out_csv, _ = run_cli(capsys, *args, "--format", "csv")
    assert code == 0 and code2 == 0
    rec = json.loads(out_json)
    rows = list(csv.DictReader(io.StringIO(out_csv)))
    assert len(rows) == 1
    assert float(rows[0]["value"]) == rec["value"]
    assert float(rows[0]["error"]) == rec["error"]


def test_identical_config_reproducible_apart_from_wall_time(capsys):
    args = ["compute", "--q", "1", "--d", "2", "--const-boundary", "1",
            "--method", "mc", "--n-paths", "5000", "--seed", "3"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    rec1, rec2 = json.loads(out1), json.loads(out2)
    rec1.pop("wall_time"), rec2.pop("wall_time")
    assert rec1 == rec2


def test_oracle_command(capsys):
    code, out, _ = run_cli(
        capsys, "oracle", "--q", "1", "--d", "2", "--const-boundary", "-10",
        "--grid-step", "0.01", "--n-paths", "2000", "--seed", "1")
    assert code == 0
    rec = json.loads(out)
    assert rec["value"] == 1.0
    assert rec["method"] == "oracle"
    assert rec["grid_step"] == 0.01


def test_converge_emits_monotone_records(capsys):
    code, out, _ = run_cli(
        capsys, "converge", "--q", "1", "--d", "2", "--expr", "t**2",
        "--pieces", "2,4,8", "--method", "mc", "--n-paths", "40000",
        "--seed", "7")
    assert code == 0
    recs = [json.loads(line) for line in out.strip().split("\n")]
    assert [r["n_pieces"] for r in recs] == [2, 4, 8]
    values = [r["value"] for r in recs]
    assert values[0] < values[1] < values[2]
    assert recs[1]["diff_se"] < recs[1]["error"]


@pytest.mark.parametrize("method, flags", [("mc", ("--n-paths", "2000")),
                                           ("quad", ("--tol", "1e-6"))])
def test_converge_evaluates_the_target_once_per_knot(capsys, monkeypatch,
                                                    method, flags):
    # the records read each approximant from the study's rows, so an
    # n-piece interpolant costs n + 1 evaluations of the expression
    calls = []

    def tick(t):
        calls.append(t)
        return t * t

    monkeypatch.setitem(cli._EXPR_NAMES, "tick", tick)
    code, out, _ = run_cli(
        capsys, "converge", "--q", "1", "--d", "2", "--expr", "tick(t)",
        "--pieces", "2,4,8", "--method", method, *flags)
    assert code == 0
    assert len(calls) == 3 + 5 + 9
    recs = [json.loads(line) for line in out.strip().split("\n")]
    want = [approximate(lambda t: t * t, ProcessParams(1.0, 2.0), n)
            for n in (2, 4, 8)]
    assert [r["partition"] for r in recs] == [list(b.knots) for b in want]


def test_converge_partition_auto_uses_boundary_knots(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "--q", "1", "--d", "2", "--affine-boundary",
        "0.5,1.0", "--method", "quad")
    assert code == 0
    rec = json.loads(out)
    assert rec["partition"] == [1.0, 2.0]


def test_partition_count_merges_knots_equal_up_to_rounding(capsys, tmp_path):
    # the file's knots and the 2-piece grid's midpoint differ by one ulp;
    # a union by exact equality would keep both, one ulp apart
    params = ProcessParams(0.9, 1.755)
    path = tmp_path / "b.json"
    dump_boundary(approximate(lambda t: 0.8 + 0.2 * t, params, 6), str(path))
    args = ["compute", "--q", "0.9", "--d", "1.755", "--boundary", str(path),
            "--method", "quad"]
    code, out, _ = run_cli(capsys, *args, "--partition", "auto")
    assert code == 0
    auto = json.loads(out)
    code, out, _ = run_cli(capsys, *args, "--partition", "2")
    assert code == 0
    rec = json.loads(out)
    assert rec["partition"] == auto["partition"]
    assert rec["value"] == pytest.approx(auto["value"], abs=1e-15)
    code, _, err = run_cli(capsys, *args, "--partition", "0")
    assert code == 2
    assert "subinterval" in err


def test_output_file(capsys, tmp_path):
    path = tmp_path / "out.json"
    code, out, _ = run_cli(
        capsys, "density", "--kind", "pair", "--q", "1", "--d", "2",
        "--times", "1,1.5", "--values", "0,0", "--output", str(path))
    assert code == 0
    assert out == ""
    rec = json.loads(path.read_text())
    assert rec["kind"] == "pair"
