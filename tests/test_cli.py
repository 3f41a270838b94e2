import dataclasses
import itertools
import json
import tracemalloc

import numpy as np
import pytest

from _support import SEAM_T, lattice
from gini_bounds import (
    LatticeFunction,
    LpOutcome,
    check_properties,
    envelope_audit,
    frechet_lower,
    frechet_upper,
    lens_density_floor,
    lower_bound,
    lower_bound_values,
    region_masks,
    upper_bound,
    upper_bound_values,
)
from gini_bounds import cli
from gini_bounds.bounds import _BLOCK
from gini_bounds.checkerboard import Checkerboard
from gini_bounds.cli import main
from gini_bounds.errors import InternalError
from gini_bounds.lattice import _envelope_lattice, _region_atlas, _triangle_lattice, lattice_nodes


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
        ["eval", "--side", "lower", "--t", "0", "--u=-1e-20", "--v", "0.5"],
        ["grid", "--t", "5", "--n", "2"],
        ["grid", "--side", "lower", "--t", "5", "--n", "2"],
        ["check", "--t", "5", "--grid", "2"],
        ["regions", "--t", "5", "--n", "2"],
        ["regions", "--t", "0", "--n", "0"],
        ["regions", "--t", "0", "--n", "-3"],
        ["gamma", "--copula", "pointbound", "0.5", "x", "0.2"],
        ["gamma", "--copula", "pointbound", "0.3", "0.3", "nan"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and "domain error" in err, argv
        assert out == "", argv
        if "5" in argv:
            # The lower side reflects to -t; the error still names the t given.
            assert "t=5.0 outside" in err, argv


@pytest.mark.parametrize("value", ("-1e-3", "-1E-3", "-1e-320", "-.5e-1"))
@pytest.mark.parametrize("option", ("--t", "--u", "--v"))
def test_a_negative_float_in_exponent_form_is_a_value(capsys, option, value):
    # argparse alone reads -1e-3 as an option string and exits 2 with
    # "expected one argument"; the "=" form was always read as a value.
    values = {"--t": "0.3", "--u": "0.5", "--v": "0.5", option: value}
    spaced = [x for item in values.items() for x in item]
    joined = [f"{name}={x}" for name, x in values.items()]
    got = run(capsys, "eval", *spaced)
    assert got == run(capsys, "eval", *joined)
    # A negative t is in range; a negative u or v is outside the square.
    assert got[0] == (0 if option == "--t" else 2), got
    if option == "--t":
        assert json.loads(got[1])["t"] == float(value)
        assert run(capsys, "classify", "--t", value) == run(capsys, "classify", f"--t={value}")


def test_main_finds_the_handler_at_call_time(monkeypatch):
    # A handler bound into the cached parser would miss a replaced cmd_*.
    seen = []
    monkeypatch.setattr(cli, "cmd_classify", lambda args: seen.append(args.t) or 0)
    assert cli.main(["classify", "--t", "0.1"]) == 0
    assert cli.main(["classify", "--t", "-0.2"]) == 0
    assert seen == [0.1, -0.2]


def test_an_internal_error_exits_1(monkeypatch, capsys):
    def broken(args):
        raise InternalError("a broken invariant")

    monkeypatch.setattr(cli, "cmd_classify", broken)
    assert run(capsys, "classify", "--t", "0.1") == (1, "", "internal error: a broken invariant\n")


@pytest.mark.parametrize("spec, message", [
    (["pi", "x"], "copula 'pi' takes no extra arguments"),
    (["pointbound", "0.5", "0.5"], "usage: --copula pointbound A B THETA"),
    (["checkerboard"], "usage: --copula checkerboard FILE"),
    (["frank"], "unknown copula spec 'frank'; expected pi|w|m|pointbound|checkerboard"),
])
def test_gamma_spec_errors_exit_2(capsys, spec, message):
    assert run(capsys, "gamma", "--copula", *spec) == (2, "", f"domain error: {message}\n")


def test_gamma_on_a_board_with_a_bool_mass_exits_2(capsys, tmp_path):
    path = tmp_path / "board.json"
    path.write_text('{"n": 1, "mass": [true]}')
    code, out, err = run(capsys, "gamma", "--copula", "checkerboard", str(path))
    assert (code, out) == (2, "") and "mass entry True is not a number" in err


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
    for text, message in (
        (json.dumps({"n": 2, "mass": [0.6, 0.0, 0.0, 0.4]}), "margins"),
        ('{"n": 2, "mass": [NaN, 0.0, 0.0, 0.5]}', "NaN"),
        ('{"n": 2, "mass": [0.5, 0.0,', "malformed"),
        ('{"n": 2, "mass": 5}', "fields n, mass"),
        ('{"n": true, "mass": [1.0]}', "checkerboard order must be an integer, got True"),
        ('{"n": 1, "mass": "1"}', "array"),
    ):
        path.write_text(text)
        code, out, err = run(capsys, "gamma", "--copula", "checkerboard", str(path))
        assert code == 2 and "domain error" in err and message in err, text
        assert out == "", text


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


@pytest.mark.parametrize("t, n", [
    # The exact tail's big integers: a subnormal and a tiny target, and
    # order 4's upper range end, which rounds above the exact one.
    ("5e-324", "8"),
    ("-1e-300", "4096"),
    ("0.8333333333333334", "4"),
    # Near both ends of the order-16 range, +-(1 - 2/48): each optimum
    # mixes in the reversal or the identity, the ends of the hull.
    ("-0.95", "16"),
    ("0.95", "16"),
])
def test_oracle_report_at_edge_targets(capsys, t, n):
    code, payload, _ = run_json(capsys, "oracle", f"--t={t}", "--n", n, "--u", "0.3", "--v", "0.7")
    assert code == 0 and payload["checks_passed"]
    res = payload["results"]
    assert res["lp_max"] <= res["upper_bound"] + 1e-9
    assert res["lp_min"] >= res["lower_bound"] - 1e-9
    assert res["gap_upper"] >= -1e-9


@pytest.mark.parametrize("excess, sound", [(5e-13, True), (2e-12, False)])
def test_oracle_soundness_at_its_tolerance(capsys, monkeypatch, excess, sound):
    # LP optima planted past both envelopes by half and twice ENVELOPE_TOL (1e-12).
    upper, lower = upper_bound(0.5, 0.5, 0.0).bound, lower_bound(0.5, 0.5, 0.0)

    def planted(n, u, v, t, direction):
        return LpOutcome(direction, upper + excess if direction == "max" else lower - excess, "optimal")

    monkeypatch.setattr(cli, "lp_extreme", planted)
    code, payload, _ = run_json(capsys, "oracle", "--t", "0", "--n", "8", "--u", "0.5", "--v", "0.5")
    assert payload["results"]["checks"] == {"lp_max_sound": sound, "lp_min_sound": sound}
    assert code == (0 if sound else 1)


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
    uu, vv = lattice(40)
    direct = upper_bound_values(uu, vv, 0.0)
    assert np.max(np.abs(lf.values - direct)) <= 1e-11
    before = check_properties(LatticeFunction(40, direct), tol=1e-9)
    after = check_properties(lf, tol=1e-9)
    assert (before.is_copula, before.is_quasicopula) == (after.is_copula, after.is_quasicopula)


def test_grid_endpoint_files_match_frechet(capsys, tmp_path):
    out = tmp_path / "w.csv"
    run(capsys, "grid", "--t", "-1", "--n", "60", "--side", "upper", "--out", str(out))
    lf = LatticeFunction.from_csv(out)
    uu, vv = lattice(60)
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


@pytest.mark.parametrize("argv, parameters", [
    (("gamma", "--copula", "pi"), {"copula": ["pi"]}),
    (("classify", "--t", "-0.5"), {"t": -0.5}),
    (("check", "--t", "0.2", "--grid", "8"), {"t": 0.2, "grid": 8}),
    (("oracle", "--t", "0", "--u", "0.5", "--v", "0.25"), {"t": 0.0, "u": 0.5, "v": 0.25, "n": 16}),
], ids=["gamma", "classify", "check", "oracle"])
def test_report_states_its_command_and_parameters(capsys, argv, parameters):
    _, payload, _ = run_json(capsys, *argv)
    assert (payload["command"], payload["parameters"]) == (argv[0], parameters)


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


# The t of the envelope-audit benchmark.
_AUDIT_T = (-0.9, -0.5, -0.1, 0.2, 0.45, 0.7)


def _survival_lattice(n, t):
    """The order-n upper lattice at t as the survival rule derives it, and the
    kernel's values on the full square that it is derived from.

    Where i + j <= n the kernel's value; where i + j > n, M - (M' - K')
    raised to W, with K' the kernel's value and M' = M at the mirror node
    (n - i, n - j), and W and M at the node itself.
    """
    uu, vv = lattice(n)
    full = upper_bound_values(uu, vv, t)
    mirror = frechet_upper(uu[::-1, ::-1], vv[::-1, ::-1]) - full[::-1, ::-1]
    derived = np.maximum(frechet_lower(uu, vv), frechet_upper(uu, vv) - mirror)
    i, j = np.indices(full.shape)
    return np.where(i + j > n, derived, full), full


def test_check_upper_triangle_matches_full_square_audit(capsys):
    ts = (-1.0, -0.9, -0.75, -0.5, -4.0 / 9.0, -4.0 / 13.0, -0.1, 0.0, 0.2, 0.5, 0.7, 1.0)
    for n, t in itertools.product((37, 60, 181), ts):
        uu, vv = lattice(n)
        want, full = _survival_lattice(n, t)
        upper = _envelope_lattice("upper", t, n).values
        assert np.array_equal(upper, want), (n, t)
        assert np.max(np.abs(upper - full)) <= 2.0**-50, (n, t)
        code, payload, _ = run_json(capsys, "check", f"--t={t!r}", "--grid", str(n))
        # The order-37 lattice is too coarse to see the upper envelope's
        # negative mass at t = -0.1, so its copula verdict misses there; the
        # report shows the cell volume the lens can reach.
        assert code == int((n, t) == (37, -0.1)), (n, t)
        results = payload["results"]
        for side, lens_t in (("upper", t), ("lower", -t)):
            floor = results[f"{side}_lens_floor_cell_volume"]
            if -1.0 < lens_t < 0.0:
                assert floor == lens_density_floor(lens_t)[0] / n**2, (side, n, t)
            else:
                assert floor is None, (side, n, t)
        if (n, t) == (37, -0.1):
            assert results["upper_report"]["min_volume"] == 0.0
            assert results["upper_lens_floor_cell_volume"] == pytest.approx(-2.435e-5, rel=1e-3)
        audit = check_properties(LatticeFunction(n, want), tol=1e-10)
        report = json.loads(json.dumps(dataclasses.asdict(audit)))
        assert payload["results"]["upper_report"] == report, (n, t)
        # Both reflection forms read off the survival reference at -t, at the
        # exact reflected nodes (n - k)/n.
        reflected = _survival_lattice(n, -t)[0]
        lower = vv - reflected[::-1]
        second_form = uu - reflected[:, ::-1]
        two_call_err = float(np.max(np.abs(lower - second_form)))
        assert payload["results"]["reflection_max_err"] == two_call_err, (n, t)
        audit = check_properties(LatticeFunction(n, lower), tol=1e-10)
        want = json.loads(json.dumps(dataclasses.asdict(audit)))
        assert payload["results"]["lower_report"] == want, (n, t)


# README's small-|t| limit of `check` at its default --grid 400: the lens of
# negative density near the corner points is about |t| wide, narrower than a
# cell, so the side whose classification has a lens finds no negative cell
# and fails its copula check on a correct envelope.  ROADMAP item 12's lens
# probe is the fix, and it will move this pin on purpose.
_UPPER_MISS = ["upper_copula_matches_classification"]
_LOWER_MISS = ["lower_copula_matches_classification"]


@pytest.mark.parametrize("t,failed", [
    (-0.005, _UPPER_MISS), (-0.001, _UPPER_MISS), (0.001, _LOWER_MISS), (0.005, _LOWER_MISS),
    (-0.0078, []), (0.0078, []), (-0.1, []),
])
def test_check_at_small_t_misses_a_lens_narrower_than_a_cell(capsys, t, failed):
    code, payload, _ = run_json(capsys, "check", f"--t={t!r}")
    assert payload["parameters"] == {"t": t, "grid": 400}
    assert [name for name, ok in payload["results"]["checks"].items() if not ok] == failed
    assert code == int(bool(failed))


def test_grid_upper_triangle_matches_full_square(capsys):
    n = 37
    uu, vv = lattice(n)
    for t in (-1.0, -0.6, -4.0 / 13.0, 0.0, 0.45, 1.0):
        want, full = _survival_lattice(n, t)
        code, payload, _ = run_json(
            capsys, "grid", "--t", repr(t), "--n", str(n), "--format", "json"
        )
        assert code == 0 and payload["values"] == want.ravel().tolist(), t
        assert np.max(np.abs(np.reshape(payload["values"], full.shape) - full)) <= 2.0**-50, t
        code, payload, _ = run_json(
            capsys, "grid", "--t", repr(t), "--n", str(n), "--side", "lower", "--format", "json"
        )
        lower = np.reshape(payload["values"], (n + 1, n + 1))
        assert code == 0 and np.array_equal(lower, vv - _survival_lattice(n, -t)[0][::-1]), t
        assert np.max(np.abs(lower - lower_bound_values(uu, vv, t))) <= 1e-15, t


@pytest.mark.parametrize("n", (1, 2, 37, 60, 64, 180, 181, 256, 400))
def test_lower_lattice_and_atlas_match_full_square(n):
    uu, vv = lattice(n)
    for t in SEAM_T + _AUDIT_T:
        lower = _envelope_lattice("lower", t, n).values
        full = lower_bound_values(uu, vv, t)
        assert np.max(np.abs(lower - full)) <= 1e-15, (n, t)
        # The reflection of the survival reference at -t, at the exact node
        # (n - i)/n; lower_bound_values reflects to 1 - i/n, which is that
        # node only when n is a power of two.
        assert np.array_equal(lower, vv - _survival_lattice(n, -t)[0][::-1]), (n, t)
        if n in (1, 37, 181):
            atlas = _region_atlas(t, n)
            assert np.array_equal(atlas, np.stack(region_masks(uu, vv, t))), (n, t)


@pytest.mark.parametrize("n", (1, 2, 179, 180, 181, 254, 255, 400))
def test_triangle_lattice_calls_f_in_blocks_on_each_upper_node_once(n):
    calls = []
    nodes = lattice_nodes(n)

    def index_recorder(x, m):
        # The node's indices (i, j), i <= j, at the exact nodes x = v_j, m = u_i.
        calls.append((x, m))
        i, j = np.rint(m * n).astype(int), np.rint(x * n).astype(int)
        assert np.array_equal(x, nodes[j]) and np.array_equal(m, nodes[i])
        return np.stack([i, j]).astype(float)

    def survival(values, m, sv, w):
        # The image of the node (i, j), i <= j, is (n - i, n - j), whose sorted
        # indices are (n - j, n - i); the rule sees its M and W at the exact
        # nodes (n - i)/n and (n - j)/n.
        i, j = values.astype(int)
        assert np.array_equal(m, nodes[i]) and np.array_equal(sv, nodes[n - j])
        assert np.array_equal(w, frechet_lower(nodes[n - i], nodes[n - j]))
        return n - values[::-1]

    k = np.arange(n + 1.0)
    out = np.full((2, n + 1, n + 1), np.nan)
    assert _triangle_lattice(index_recorder, n, survival, out) is None
    assert np.array_equal(out, np.stack([np.minimum.outer(k, k), np.maximum.outer(k, k)]))
    assert all(len(x) <= _BLOCK for x, _ in calls)
    # The order-255 quarter, 128 * 129 = 16,512 nodes, is the first that
    # needs two calls.
    if n <= 255:
        assert len(calls) == (1 if n < 255 else 2)
    rows = np.rint(np.concatenate([m for _, m in calls]) * n).astype(int)
    cols = np.rint(np.concatenate([x for x, _ in calls]) * n).astype(int)
    counts = np.bincount(rows * (n + 1) + cols, minlength=(n + 1) ** 2).reshape(n + 1, n + 1)
    i, j = np.indices(counts.shape)
    assert np.array_equal(counts, ((i <= j) & (i + j <= n)).astype(int))


@pytest.mark.parametrize("n", (1, 2, 3, 37, 60, 181, 200, 256, 400))
def test_envelope_lattice_from_one_quarter(n):
    # The upper lattice that _triangle_lattice derives by the survival rule:
    # the reference's bits, and every exact property of the envelope kept.
    uu, vv = lattice(n)
    nodes = lattice_nodes(n)
    low, high = frechet_lower(uu, vv), frechet_upper(uu, vv)
    for t in SEAM_T + _AUDIT_T:
        upper = _envelope_lattice("upper", t, n).values
        want, full = _survival_lattice(n, t)
        assert np.array_equal(upper, want), (n, t)
        assert np.array_equal(upper, upper.T), (n, t)
        assert np.array_equal(upper[full == high], high[full == high]), (n, t)
        assert np.all(upper[0] == 0.0) and np.array_equal(upper[n], nodes), (n, t)
        assert np.all((low <= upper) & (upper <= high)), (n, t)
        assert np.max(np.abs(upper - full)) <= 2.0**-50, (n, t)


@pytest.mark.parametrize("n", (1, 2, 3, 37, 60, 181, 200, 400))
def test_region_masks_trade_regions_3_and_4_under_the_survival_map(n):
    # The atlas's survival rule: the masks at (n - i, n - j) are those at
    # (i, j) with regions 3 and 4 swapped, exactly.
    uu, vv = lattice(n)
    for t in SEAM_T + _AUDIT_T:
        masks = np.stack(region_masks(uu, vv, t))
        assert np.array_equal(masks[:, ::-1, ::-1], masks[[0, 1, 3, 2, 4]]), (n, t)


@pytest.mark.parametrize("n", (1, 37, 181))
@pytest.mark.parametrize("t", (-1.0, -0.9, -0.1, 0.0, 0.45, 1.0))
def test_check_results_are_the_envelope_audit(capsys, t, n):
    code, payload, _ = run_json(capsys, "check", f"--t={t!r}", "--grid", str(n))
    audit = envelope_audit(t, n)
    assert json.loads(json.dumps(dataclasses.asdict(audit))) == payload["results"]
    assert code == int(not all(audit.checks.values()))
    assert payload["parameters"] == {"t": t, "grid": n}


@pytest.mark.parametrize("t", (-0.9, 0.2))
def test_check_allocates_no_lattice_sized_temporaries(capsys, t):
    # Beyond the two lattices that envelope_audit builds and does not
    # return, check holds only the kernel's per-block working set and its
    # report: its traced peak was 5.1 lattices when the mirror, the audit
    # and the sandwich each built full-size arrays.  check is envelope_audit
    # plus JSON, so this bounds the library call too.
    n = 400
    run(capsys, "check", f"--t={t!r}", "--grid", str(n))
    tracemalloc.start()
    try:
        code, _, _ = run(capsys, "check", f"--t={t!r}", "--grid", str(n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= 3.5 * (n + 1) ** 2 * 8
