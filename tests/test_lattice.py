import csv
import io

import numpy as np
import pytest

from gini_bounds import (
    DomainError,
    LatticeFunction,
    check_properties,
    frechet_lower,
    frechet_upper,
    product,
)
from gini_bounds.lattice import write_node_csv


def test_sampled_frechet_upper_is_copula():
    rep = check_properties(LatticeFunction.from_evaluator(frechet_upper, 100))
    assert rep.is_copula and rep.is_quasicopula
    assert rep.min_volume >= 0.0
    assert rep.boundary_max_err == 0.0


def test_explicit_w_lattice_matches_w_report():
    n = 64
    vals = np.fromfunction(lambda i, j: np.maximum(0.0, (i + j) / n - 1.0), (n + 1, n + 1))
    rep = check_properties(LatticeFunction(n, vals))
    assert rep.is_copula
    ref = check_properties(LatticeFunction.from_evaluator(frechet_lower, n))
    assert rep.min_volume == pytest.approx(ref.min_volume, abs=1e-15)


def test_violations_are_detected():
    n = 10
    lf = LatticeFunction.from_evaluator(product, n)
    vals = lf.values.copy()
    vals[5, 5] += 0.05  # breaks 2-increasingness around the bumped node
    rep = check_properties(LatticeFunction(n, vals), tol=1e-9)
    assert not rep.is_copula
    assert rep.min_volume <= -0.0399
    i, j, i2, j2 = rep.min_volume_rect
    assert (i2, j2) == (i + 1, j + 1)
    assert {i, i2} & {5} and {j, j2} & {5}

    vals = lf.values.copy()
    vals[:, n] += 0.01  # breaks the upper boundary condition
    rep = check_properties(LatticeFunction(n, vals), tol=1e-9)
    assert not rep.is_quasicopula
    assert rep.boundary_max_err >= 0.01


def test_point_bound_copulas_pass_copula_audit_at_n200():
    from gini_bounds import PointBoundSpec, point_bound_lower, point_bound_upper

    rng = np.random.default_rng(31)
    for _ in range(10):
        a, b = rng.random(2)
        lo, hi = max(0.0, a + b - 1.0), min(a, b)
        spec = PointBoundSpec(a, b, lo + (hi - lo) * rng.random())
        for make in (point_bound_lower, point_bound_upper):
            rep = check_properties(
                LatticeFunction.from_evaluator(make(spec), 200), tol=1e-12
            )
            assert rep.is_copula and rep.min_volume >= -1e-12


def test_lattice_shape_validation():
    with pytest.raises(DomainError):
        LatticeFunction(4, np.zeros((4, 4)))
    with pytest.raises(DomainError):
        LatticeFunction(0, np.zeros((1, 1)))


def test_csv_round_trip_preserves_verdicts(tmp_path):
    path = tmp_path / "m.csv"
    lf = LatticeFunction.from_evaluator(frechet_upper, 50)
    lf.to_csv(path)
    back = LatticeFunction.from_csv(path)
    assert back.N == lf.N
    # 12 significant digits: values agree far below verdict tolerances
    assert np.max(np.abs(back.values - lf.values)) <= 1e-11
    before = check_properties(lf, tol=1e-9)
    after = check_properties(back, tol=1e-9)
    assert before.is_copula == after.is_copula
    assert before.is_quasicopula == after.is_quasicopula


def test_csv_round_trip_bytes_are_stable(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    lf = LatticeFunction.from_evaluator(product, 20)
    lf.to_csv(p1)
    LatticeFunction.from_csv(p1).to_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()


def _csv_module_reference(n, columns):
    # The csv-module loop the shared writer replaced: one row per node.
    nodes = np.arange(n + 1, dtype=float) / n
    fmt = "{:.11e}".format
    ref = io.StringIO()
    writer = csv.writer(ref, lineterminator="\n")
    writer.writerow(["u", "v", *columns])
    for i in range(n + 1):
        for j in range(n + 1):
            writer.writerow([fmt(nodes[i]), fmt(nodes[j])] + [
                str(int(c[i, j])) if c.dtype == bool else fmt(c[i, j])
                for c in columns.values()
            ])
    return ref.getvalue()


def test_node_csv_matches_csv_module_reference(tmp_path):
    n = 4
    rng = np.random.default_rng(5)
    values = rng.normal(size=(n + 1, n + 1)) * 10.0 ** rng.integers(-20, 5, (n + 1, n + 1))
    values[0, 0], values[1, 2] = -0.0, 0.0
    flags = rng.random((n + 1, n + 1)) < 0.5
    out = io.StringIO()
    write_node_csv(out, n, {"value": values, "flag": flags})
    assert out.getvalue() == _csv_module_reference(n, {"value": values, "flag": flags})
    LatticeFunction(n, values).to_csv(tmp_path / "m.csv")
    assert (tmp_path / "m.csv").read_text() == _csv_module_reference(n, {"value": values})


def test_csv_rejects_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("u,v,value\n0.0,0.0,0.0\n0.0,1.0,0.0\n1.0,0.0,0.0\n")
    with pytest.raises(DomainError):
        LatticeFunction.from_csv(path)
