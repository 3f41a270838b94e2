import json

import numpy as np
import pytest

from gini_bounds import LatticeFunction, check_properties, frechet_lower, frechet_upper
from gini_bounds.checkerboard import Checkerboard
from gini_bounds.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def test_eval_upper_example(capsys):
    code, payload, _ = run_json(
        capsys, "eval", "--t", "-1", "--u", "0.25", "--v", "0.75", "--side", "upper"
    )
    assert code == 0
    assert payload["bound"] == 0.0
    assert payload["active"] == [True, False, False, False, False]
    assert payload["theta"][1] is None  # negative radicand reported as null


def test_eval_no_active_regions(capsys):
    code, payload, _ = run_json(
        capsys, "eval", "--t", "0.75", "--u", "0.3", "--v", "0.6", "--side", "upper"
    )
    assert code == 0
    assert payload["bound"] == 0.3
    assert payload["active"] == [False] * 5
    assert payload["inner_max"] is None


def test_eval_lower_example(capsys):
    code, payload, _ = run_json(
        capsys, "eval", "--t", "0", "--u", "0.5", "--v", "0.5", "--side", "lower"
    )
    assert code == 0
    assert payload["bound"] == pytest.approx(0.5 - np.sqrt(6.0) / 6.0, abs=1e-12)


def test_eval_domain_error_exit_2(capsys):
    for argv in (
        ["eval", "--t", "3", "--u", "0.5", "--v", "0.5"],
        ["grid", "--t", "5", "--n", "2"],
        ["check", "--t", "5", "--grid", "2"],
        ["regions", "--t", "5", "--n", "2"],
        ["regions", "--t", "0", "--n", "0"],
        ["regions", "--t", "0", "--n", "-3"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and "domain error" in err, argv
        assert out == "", argv


def test_usage_error_exit_2(capsys):
    assert main(["eval", "--t", "oops", "--u", "0", "--v", "0"]) == 2
    assert main(["no-such-command"]) == 2


def test_classify_examples(capsys):
    code, payload, _ = run_json(capsys, "classify", "--t", "-0.5")
    assert code == 0
    assert payload["results"]["upper"] == "ProperQuasiCopula"
    assert payload["results"]["lower"] == "FrechetLower"
    code, payload, _ = run_json(capsys, "classify", "--t", "0.5")
    assert payload["results"]["upper"] == "FrechetUpper"


def test_gamma_builtins(capsys):
    code, payload, _ = run_json(capsys, "gamma", "--copula", "pi")
    assert code == 0
    assert payload["results"]["closed"] == 0.0
    assert abs(payload["results"]["quadrature"]) <= 1e-8


def test_gamma_pointbound(capsys):
    code, payload, _ = run_json(
        capsys, "gamma", "--copula", "pointbound", "0.5", "0.5", "0.5"
    )
    assert code == 0
    res = payload["results"]
    assert res["branch"] == 5
    assert res["closed"] == pytest.approx(0.5, abs=1e-12)
    assert res["quadrature"] == pytest.approx(0.5, abs=1e-6)


def test_gamma_checkerboard(capsys, tmp_path):
    path = tmp_path / "diag2.json"
    Checkerboard(2, np.array([[0.5, 0.0], [0.0, 0.5]])).to_json(path)
    code, payload, _ = run_json(capsys, "gamma", "--copula", "checkerboard", str(path))
    assert code == 0
    assert payload["results"]["exact"] == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_gamma_checkerboard_validates_margins(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "mass": [0.6, 0.0, 0.0, 0.4]}))
    code, out, err = run(capsys, "gamma", "--copula", "checkerboard", str(path))
    assert code == 2 and "margins" in err


def test_check_copula_regime(capsys):
    code, payload, _ = run_json(capsys, "check", "--t", "0.25", "--grid", "120")
    assert code == 0 and payload["checks_passed"]
    assert payload["results"]["upper_report"]["is_copula"]
    assert payload["results"]["upper_min_volume_cell_distance_to_density_minimiser"] is None


def test_check_proper_quasi_copula_regime(capsys):
    for t in ("-0.5", "-0.9"):
        code, payload, _ = run_json(capsys, "check", "--t", t, "--grid", "150")
        assert code == 0 and payload["checks_passed"]
        res = payload["results"]
        assert res["upper_classification"] == "ProperQuasiCopula"
        assert not res["upper_report"]["is_copula"]
        assert res["upper_report"]["min_volume"] < 0
        assert res["upper_min_volume_cell_distance_to_density_minimiser"] <= 2.0


def test_check_domain_error(capsys):
    code, out, err = run(capsys, "check", "--t", "2", "--grid", "50")
    assert code == 2


def test_oracle_report(capsys):
    code, payload, _ = run_json(
        capsys, "oracle", "--t", "0", "--n", "8", "--u", "0.5", "--v", "0.5"
    )
    assert code == 0 and payload["checks_passed"]
    res = payload["results"]
    assert res["lp_max"] <= res["upper_bound"] + 1e-9
    assert res["lp_min"] >= res["lower_bound"] - 1e-9
    assert res["gap_upper"] >= -1e-9


def test_oracle_infeasible_is_reported_not_failed(capsys):
    code, payload, _ = run_json(
        capsys, "oracle", "--t", "0.9", "--n", "2", "--u", "0.5", "--v", "0.5"
    )
    assert code == 0
    assert payload["results"]["status"] == "infeasible"


def test_oracle_target_just_beyond_the_gamma_range_is_not_a_domain_error(capsys):
    # 1e-9 above the order-2 maximum 2/3: unreachable, not bad input.
    code, payload, _ = run_json(
        capsys, "oracle", "--t", "0.6666666676666696", "--n", "2", "--u", "0.5", "--v", "0.5"
    )
    assert code == 0 and payload["results"]["status"] == "infeasible"


def test_grid_round_trip_matches_memory(capsys, tmp_path):
    path = tmp_path / "grid.csv"
    code, _, _ = run(
        capsys, "grid", "--t", "0", "--n", "40", "--side", "upper", "--out", str(path)
    )
    assert code == 0
    lf = LatticeFunction.from_csv(path)
    from gini_bounds import upper_bound_values

    uu, vv = np.meshgrid(lf.nodes, lf.nodes, indexing="ij")
    direct = upper_bound_values(uu, vv, 0.0)
    assert np.max(np.abs(lf.values - direct)) <= 1e-11
    before = check_properties(LatticeFunction(40, direct), tol=1e-9)
    after = check_properties(lf, tol=1e-9)
    assert (before.is_copula, before.is_quasicopula) == (after.is_copula, after.is_quasicopula)


def test_grid_endpoint_files_match_frechet(capsys, tmp_path):
    out = tmp_path / "w.csv"
    run(capsys, "grid", "--t", "-1", "--n", "60", "--side", "upper", "--out", str(out))
    lf = LatticeFunction.from_csv(out)
    uu, vv = np.meshgrid(lf.nodes, lf.nodes, indexing="ij")
    assert np.max(np.abs(lf.values - frechet_lower(uu, vv))) <= 1e-11
    run(capsys, "grid", "--t", "1", "--n", "60", "--side", "lower", "--out", str(out))
    lf = LatticeFunction.from_csv(out)
    assert np.max(np.abs(lf.values - frechet_upper(uu, vv))) <= 1e-11


def test_grid_unwritable_path_exit_1(capsys):
    code, out, err = run(
        capsys, "grid", "--t", "0", "--n", "10", "--out", "/nonexistent/dir/grid.csv"
    )
    assert code == 1 and "io error" in err


def test_determinism_byte_identical(capsys):
    _, out1, _ = run(capsys, "grid", "--t", "0.2", "--n", "30")
    _, out2, _ = run(capsys, "grid", "--t", "0.2", "--n", "30")
    assert out1 == out2
    _, out1, _ = run(capsys, "regions", "--t", "-0.5", "--n", "30")
    _, out2, _ = run(capsys, "regions", "--t", "-0.5", "--n", "30")
    assert out1 == out2
    _, out1, _ = run(capsys, "eval", "--t", "-0.3", "--u", "0.4", "--v", "0.8")
    _, out2, _ = run(capsys, "eval", "--t", "-0.3", "--u", "0.4", "--v", "0.8")
    assert out1 == out2


def test_reports_deterministic_modulo_elapsed(capsys):
    _, p1, _ = run_json(capsys, "classify", "--t", "0.1")
    _, p2, _ = run_json(capsys, "classify", "--t", "0.1")
    p1.pop("elapsed_ms"), p2.pop("elapsed_ms")
    assert p1 == p2


def test_regions_atlas_columns(capsys):
    def column_any(t):
        _, out, _ = run(capsys, "regions", "--t", str(t), "--n", "100")
        rows = out.strip().split("\n")
        assert rows[0] == "u,v,r1,r2,r3,r4,r5"
        cols = np.array([[int(x) for x in r.split(",")[2:]] for r in rows[1:]])
        return [bool(a) for a in cols.any(axis=0)]

    assert column_any(-1) == [True] * 5
    assert column_any(0.4) == [False, False, False, False, True]
    assert column_any(0.6) == [False] * 5
