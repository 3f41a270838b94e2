import csv
import dataclasses
import io
import json
import math
import os
import re
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from _support import SEAM_T, bits, lattice, random_specs
from gini_bounds import (
    DomainError,
    EnvelopeAudit,
    LatticeFunction,
    PropertyReport,
    check_properties,
    envelope_audit,
    frechet_lower,
    frechet_upper,
    point_bound_lower,
    point_bound_upper,
    product,
    region_masks,
    upper_bound_values,
)
from gini_bounds.bounds import _BLOCK
from gini_bounds.lattice import (
    _CHECK_TOL, _CSV_FORMAT, _envelope_lattice, _envelope_lattices, _fast_fields,
    _fixed_width_rows, _quarter_groups, _region_atlas, _row_groups, lattice_nodes, write_node_csv,
)


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


def test_lipschitz_excess_counts_the_steepest_decrease():
    # Rising slowly in u and falling steeply in v: the largest step in size
    # is the most negative one, which a monotone envelope lattice never has.
    n = 20
    vals = np.fromfunction(lambda i, j: 0.5 * i / n - 3.0 * (j / n) ** 2, (n + 1, n + 1))
    rep = check_properties(LatticeFunction(n, vals))
    du, dv = np.diff(vals, axis=0), np.diff(vals, axis=1)
    want = max(float(np.abs(du).max()), float(np.abs(dv).max())) - 1.0 / n
    assert rep.lipschitz_max_excess == want
    assert want > 0.0 and not rep.is_quasicopula


# One interior node of each edge of the order-4 lattice.
@pytest.mark.parametrize("node", [(1, 0), (0, 1), (2, 4), (4, 2)], ids=["v=0", "u=0", "v=1", "u=1"])
def test_a_nan_on_any_edge_makes_the_boundary_error_nan(node):
    values = LatticeFunction.from_evaluator(frechet_upper, 4).values.copy()
    values[node] = np.nan
    assert math.isnan(check_properties(LatticeFunction(4, values)).boundary_max_err)


def _whole_array_report(g, tol):
    """check_properties over whole-array temporaries, as it was before the
    audit read the lattice in row strips, with its boundary error taken over
    all four edges at once, so that a NaN on any edge reaches it: the
    reference for that audit."""
    v, n, nodes = g.values, g.N, g.nodes
    edges = np.concatenate([v[:, 0], v[0, :], v[:, n] - nodes, v[n, :] - nodes])
    boundary = float(np.abs(edges).max())
    du = v[1:, :] - v[:-1, :]
    dv = v[:, 1:] - v[:, :-1]
    du_min, dv_min = float(du.min()), float(dv.min())
    mono = min(du_min, dv_min)
    lip = max(float(du.max()), -du_min, float(dv.max()), -dv_min) - 1.0 / n
    vols = v[1:, 1:] - v[1:, :-1] - v[:-1, 1:] + v[:-1, :-1]
    i, j = divmod(int(np.argmin(vols)), n)
    min_vol = float(vols[i, j])
    is_quasi = boundary <= tol and mono >= -tol and lip <= tol
    return PropertyReport(
        boundary_max_err=boundary,
        monotonicity_min_step=mono,
        lipschitz_max_excess=lip,
        min_volume=min_vol,
        min_volume_rect=(i, j, i + 1, j + 1),
        is_quasicopula=is_quasi,
        is_copula=is_quasi and min_vol >= -tol,
    )


def _same_bits(a, b) -> bool:
    if isinstance(a, float):
        return (math.isnan(a) and math.isnan(b)) or np.float64(a).tobytes() == np.float64(b).tobytes()
    return a == b


# Node values drawn from few distinct doubles, so that cell volumes tie and
# zero steps come with both signs.
_PALETTES = [(0.0, -0.0), (0.0, -0.0, 0.25, 1.0), (-0.5, 0.0, 0.5), (0.1, 0.2, 0.7)]


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
    layout=st.sampled_from(["palette", "blocks", "copula", "uniform", "edge"]),
    palette=st.sampled_from(_PALETTES),
    nans=st.integers(0, 3),
)
# The edge layout at orders of one row group and of several (n >= 128).
@example(n=1, seed=0, layout="edge", palette=_PALETTES[0], nans=0)
@example(n=40, seed=1, layout="edge", palette=_PALETTES[0], nans=1)
@example(n=200, seed=2, layout="edge", palette=_PALETTES[0], nans=0)
@example(n=300, seed=3, layout="edge", palette=_PALETTES[0], nans=2)
def test_strip_audit_matches_whole_array_reference(n, seed, layout, palette, nans):
    rng = np.random.default_rng(seed)
    side = n + 1
    if layout == "palette":
        vals = rng.choice(palette, size=(side, side))
    elif layout == "blocks":
        # Constant blocks: runs of equal minimal volumes across strip
        # boundaries, where the first in row-major order must win.
        edge = int(rng.integers(1, 40))
        coarse = rng.choice(palette, size=(-(-side // edge),) * 2)
        vals = np.kron(coarse, np.ones((edge, edge)))[:side, :side]
    elif layout == "copula":
        vals = LatticeFunction.from_evaluator(product, n).values.copy()
    elif layout == "edge":
        # The copula lattice with a node of its last row or column raised
        # (by 1e-3, a Lipschitz excess, or 0.5, a decreasing step too) or,
        # where NaNs are drawn, its NaNs put there: its only violations, or
        # its only NaNs, lie on the last lattice row or column.
        vals = LatticeFunction.from_evaluator(product, n).values.copy()
        k = rng.integers(0, side, max(nans, 1))
        edge = (n, k) if rng.random() < 0.5 else (k, n)
        vals[edge] = np.nan if nans else vals[edge] + rng.choice([1e-3, 0.5])
        nans = 0  # none elsewhere
    else:
        vals = rng.random((side, side))
    vals[rng.integers(0, side, nans), rng.integers(0, side, nans)] = np.nan
    g = LatticeFunction(n, vals)
    got, want = check_properties(g, tol=1e-9), _whole_array_report(g, tol=1e-9)
    for field in dataclasses.fields(PropertyReport):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if field.name == "monotonicity_min_step" and a == b == 0.0:
            # numpy's min of a whole array picks the sign of a zero minimum
            # by its reduction order (np.min([0.0, -0.0]) is -0.0, of
            # [-0.0, 0.0] it is 0.0), which no strip order reproduces.
            continue
        assert _same_bits(a, b), (field.name, a, b)


@pytest.mark.parametrize(
    "tol", [math.nan, math.inf, -math.inf, -1e-12, True, False, "x", None, np.array(-1.0)]
)
def test_check_properties_rejects_a_bad_tolerance(tol):
    g = LatticeFunction.from_evaluator(product, 4)
    with pytest.raises(DomainError, match="tolerance"):
        check_properties(g, tol=tol)


def test_check_properties_accepts_a_zero_or_numpy_tolerance():
    g = LatticeFunction.from_evaluator(frechet_upper, 4)
    for tol in (0, 0.0, np.float64(1e-9), np.float32(1e-6), np.array(1e-9), Fraction(1, 10**9),
                np.longdouble(1e-9), 10**400):
        rep = check_properties(g, tol=tol)
        # tol is compared as the Python number _check_real returns, so a numpy
        # tolerance gives no numpy bools, and a huge int (which float() would
        # overflow on) is a tolerance too.
        assert type(rep.is_quasicopula) is bool and type(rep.is_copula) is bool
        assert rep.is_copula, tol


def test_check_properties_compares_a_fraction_tolerance_exactly():
    # The boundary error is the double 1e-9, which lies above 1/10**9; read
    # as float(tol), the tolerance was that double and the error passed.
    values = LatticeFunction.from_evaluator(frechet_upper, 4).values.copy()
    values[0, 2] = 1e-9
    g = LatticeFunction(4, values)
    assert not check_properties(g, tol=Fraction(1, 10**9)).is_quasicopula
    assert check_properties(g, tol=1e-9).is_quasicopula


def test_check_properties_defaults_to_the_audit_tolerance():
    # A boundary node 5e-10 off: a quasi-copula at 1e-9, but not at the one
    # audit tolerance _CHECK_TOL = 1e-10 that envelope_audit judges by.
    values = LatticeFunction.from_evaluator(frechet_upper, 4).values.copy()
    values[4, 2] += 5e-10
    g = LatticeFunction(4, values)
    assert check_properties(g, tol=1e-9).is_quasicopula
    assert not check_properties(g).is_quasicopula
    assert check_properties(g) == check_properties(g, tol=_CHECK_TOL)


def test_point_bound_copulas_pass_copula_audit_at_n200():
    for spec in random_specs(10, seed=31):
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
    with pytest.raises(DomainError, match="integer"):
        lattice_nodes(2.5)


@pytest.mark.parametrize("values", [
    np.full((3, 3), "0.5"), np.eye(3, dtype=bool), [[True] * 3] * 3, [[None] * 3] * 3,
])
def test_lattice_values_that_are_not_int_or_float_are_a_domain_error(values):
    # asarray(values, dtype=float) would read "0.5" as 0.5 and True as 1.0.
    with pytest.raises(DomainError, match="lattice values is not real: dtype"):
        LatticeFunction(2, values)


def test_lattice_values_of_ints_or_nan_build():
    assert LatticeFunction(2, np.eye(3, dtype=int)).values.dtype == np.float64
    # check_properties reads NaN nodes (test_strip_audit_matches_whole_array_reference).
    assert np.isnan(LatticeFunction(2, np.full((3, 3), np.nan)).values).all()


def test_numpy_integer_order_gives_builtin_reports():
    values = LatticeFunction.from_evaluator(frechet_upper, 6).values
    lf = LatticeFunction(np.int64(6), values)
    assert type(lf.N) is int
    rep = check_properties(lf)
    assert rep == check_properties(LatticeFunction(6, values))
    assert all(type(x) is int for x in rep.min_volume_rect)
    assert type(rep.is_quasicopula) is bool and type(rep.is_copula) is bool


def test_numpy_integer_order_audit_dumps_as_the_int_one():
    # The README's promise: dataclasses.asdict(audit) is the JSON.
    def dump(n):
        return json.dumps(dataclasses.asdict(envelope_audit(-0.5, n)), sort_keys=True)

    assert dump(np.int64(8)) == dump(8)

    # json.dumps writes a numpy float as the builtin one, so the types are
    # checked apart: every number of the audit is builtin, as at order 8.
    def leaves(x):
        if isinstance(x, dict):
            return [y for value in x.values() for y in leaves(value)]
        if isinstance(x, (list, tuple)):
            return [y for value in x for y in leaves(value)]
        return [x]

    audit = dataclasses.asdict(envelope_audit(-0.5, np.int64(8)))
    types = [type(x) for x in leaves(audit)]
    assert types == [type(x) for x in leaves(dataclasses.asdict(envelope_audit(-0.5, 8)))]
    assert set(types) <= {float, int, bool, str, type(None)}
    assert type(audit["upper_lens_floor_cell_volume"]) is float
    assert type(audit["upper_min_volume_cell_distance_to_density_minimiser"]) is float


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


def _csv_module_reference(n, values):
    # The csv-module loop the shared writer replaced: one row per node, a
    # float lattice in the column `value` and a stack of flags in r1..rk.
    if values.dtype == bool:
        columns = {f"r{k + 1}": flag for k, flag in enumerate(values)}
    else:
        columns = {"value": values}
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
    flags = rng.random((5, n + 1, n + 1)) < 0.5
    # One write per layout: a float lattice, and stacks of five and of one flag.
    for lattice_values in (values, flags, flags[:1]):
        out = io.StringIO()
        write_node_csv(out, n, lattice_values)
        assert out.getvalue() == _csv_module_reference(n, lattice_values)
    LatticeFunction(n, values).to_csv(tmp_path / "m.csv")
    assert (tmp_path / "m.csv").read_text() == _csv_module_reference(n, values)


# Doubles the format must print alike: signed zeros, infinities, nan, the
# subnormal and normal extremes, and three-digit exponents of both signs.
_EDGE_DOUBLES = st.sampled_from([
    0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-320,
    2.2250738585072014e-308, -1.0e-100, 9.999999999995e-100, 1.0e100,
    -1.7976931348623157e308, 1.7976931348623157e308,
])
# The two layouts the writer takes: a float lattice (k = 0), or a stack of
# 1 to 7 flag lattices.
_LAYOUTS = st.just(0) | st.integers(1, 7)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12), _LAYOUTS, st.data())
def test_node_csv_matches_csv_module_reference_on_any_doubles(n, k, data):
    if k:
        values = data.draw(arrays(bool, (k, n + 1, n + 1)))
    else:
        values = data.draw(
            arrays(np.float64, (n + 1, n + 1), elements=st.floats() | _EDGE_DOUBLES)
        )
    out = io.StringIO()
    write_node_csv(out, n, values)
    assert out.getvalue() == _csv_module_reference(n, values)


# The float writer's fast-path seams, each with its neighbours one ulp either
# side: 12-digit half-way points (M + 1/2) * 10**(E - 11), the doubles
# nearest the powers of ten, and 10**(E +- ulp(E)), whose log10 is within an
# ulp of an integer.  E runs a little beyond the fast path's -11..11.
_SEAM_EXPONENTS = st.integers(-13, 13)
_SEAM_DOUBLES = (
    st.builds(lambda m, e: float(Fraction(2 * m + 1, 2) * Fraction(10) ** (e - 11)),
              st.integers(10**11, 10**12 - 1), _SEAM_EXPONENTS)
    | st.builds(lambda e: float(Fraction(10) ** e), _SEAM_EXPONENTS)
    | st.builds(lambda e, s: 10.0 ** (e + s * math.ulp(e)), _SEAM_EXPONENTS, st.sampled_from([-1, 1]))
).flatmap(lambda x: st.sampled_from([math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6), st.data())
def test_node_csv_matches_csv_module_reference_at_the_fast_path_seams(n, data):
    values = data.draw(arrays(np.float64, (n + 1, n + 1), elements=_SEAM_DOUBLES))
    out = io.StringIO()
    write_node_csv(out, n, values)
    assert out.getvalue() == _csv_module_reference(n, values)


def test_float_writer_takes_the_fast_path():
    # The bytes stay the same if every value falls back to `%`; only the speed
    # goes.  The order-200 upper grid at t = -0.9 sends 24 of its 40,401
    # values to `%`, all near-halves.
    values = _envelope_lattice("upper", -0.9, 200).values
    fields, slow = _fast_fields(values)
    assert np.count_nonzero(slow) <= 64
    assert fields[~slow].tobytes() == "".join(_CSV_FORMAT % v for v in values[~slow].tolist()).encode()


@pytest.mark.parametrize("shape", [(4, 3), (5, 5), (3, 4)])
def test_node_csv_rejects_a_misshaped_column_before_writing(shape):
    # Before, with n = 3: (4, 3) wrote 12 three-field rows, (5, 5) its 4 x 4
    # corner, and (3, 4) 12 rows and then an IndexError.  A float lattice,
    # and a stack of two flag lattices.
    for values in (np.zeros(shape), np.zeros((2, *shape), dtype=bool)):
        out = io.StringIO()
        with pytest.raises(DomainError, match=re.escape(f"shape {values.shape} are not an order-3")):
            write_node_csv(out, 3, values)
        assert out.getvalue() == ""


_NOT_A_LAYOUT = "are not an order-3 float lattice or a stack of order-3 flag lattices"


@pytest.mark.parametrize("layout", [
    (), ("float", "float"), ("float", "bool"), ("bool", "float"), ("bool", "float", "bool"),
])
def test_node_csv_rejects_any_other_layout_before_writing(layout):
    # No caller writes these, so they are errors, not bare u,v rows or an
    # interleave of float and flag fields.  Stacked, the columns of a layout
    # with a float column are a float stack; no columns are an empty flag stack.
    out = io.StringIO()
    columns = [np.zeros((4, 4), dtype=float if kind == "float" else bool) for kind in layout]
    values = np.stack(columns) if columns else np.zeros((0, 4, 4), dtype=bool)
    with pytest.raises(DomainError, match=_NOT_A_LAYOUT):
        write_node_csv(out, 3, values)
    assert out.getvalue() == ""


@pytest.mark.parametrize("dtype", [complex, str, object])
def test_node_csv_rejects_a_column_that_is_not_real_before_writing(dtype):
    # The float layout takes int and float columns only: a complex, string
    # or object lattice would be cast to floats, or fail in mid-write.
    out = io.StringIO()
    with pytest.raises(DomainError, match=_NOT_A_LAYOUT):
        write_node_csv(out, 3, np.zeros((4, 4)).astype(dtype))
    assert out.getvalue() == ""


def test_node_csv_streams_without_lattice_sized_buffers():
    # The order-200 grid and atlas: one float64 column alone is 323 KB and
    # the grid's text 2.2 MB, so a 256 KB peak leaves room for rows only.
    n, t = 200, -0.9
    uu, vv = lattice(n)
    values, masks = upper_bound_values(uu, vv, t), np.array(region_masks(uu, vv, t))
    for lattice_values in (values, masks):
        with open(os.devnull, "w") as sink:
            tracemalloc.start()
            try:
                write_node_csv(sink, n, lattice_values)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 256 * 1024


_GOOD_ROWS = ["0,0,0", "0,1,0", "1,0,0", "1,1,1"]


@pytest.mark.parametrize(
    "text, message",
    [
        ("u,v,val\n" + "\n".join(_GOOD_ROWS) + "\n", "header"),
        ("", "header"),
        ("u,v,value\n", "0 rows"),
        ("u,v,value\n0,0,0\n", "has 1 rows; an order-N lattice has (N + 1)**2 >= 4 rows"),
        ("u,v,value\n0.0,0.0,0.0\n0.0,1.0,0.0\n1.0,0.0,0.0\n", "has 3 rows"),
        ("u,v,value\n0,0,0\n0,1\n1,0,0\n1,1,1\n", "malformed"),  # short row
        ("u,v,value\n0,0,0\n0,1,0,7\n1,0,0\n1,1,1\n", "malformed"),  # extra column
        ("u,v,value\n0,0,0,7\n0,1,0,7\n1,0,0,7\n1,1,1,7\n", "4 columns"),
        ("u,v,value\n0,0,0\n0,1,x\n1,0,0\n1,1,1\n", "malformed"),  # not a number
        ("u,v,value\n0,0,0\n0,1,nan\n1,0,0\n1,1,1\n", "row 1: value nan"),
        ("u,v,value\n0,0,0\n0,1,0\n1,0,inf\n1,1,1\n", "row 2: value inf"),
        ("u,v,value\n0,0,0\n0,1,0\n1,1,0\n1,0,1\n", "row 2: node (1.0, 1.0)"),
        ("u,v,value\n0,0,0\nnan,1,0\n1,0,0\n1,1,1\n", "row 1: node (nan, 1.0)"),
        # Twice _NODE_TOL (1e-9) off.
        ("u,v,value\n0,0,0\n0,1.000000002,0\n1,0,0\n1,1,1\n", "row 1: node (0.0, 1.000000002)"),
    ],
)
def test_csv_rejects_each_malformed_case(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(DomainError, match=re.escape(message)):
        LatticeFunction.from_csv(path)


def test_csv_reads_a_node_within_its_tolerance(tmp_path):
    # Half _NODE_TOL (1e-9) off: the node is read as its lattice position.
    path = tmp_path / "near.csv"
    path.write_text("u,v,value\n0,0,0\n0,1.0000000005,0\n1,0,0\n1,1,1\n")
    lf = LatticeFunction.from_csv(path)
    assert lf.N == 1 and lf.values.tolist() == [[0.0, 0.0], [0.0, 1.0]]


def _csv_loop_reader(path):
    # The row-by-row reader that np.loadtxt replaced.
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        assert next(reader) == ["u", "v", "value"]
        rows = [(float(r[0]), float(r[1]), float(r[2])) for r in reader]
    side = round(len(rows) ** 0.5)
    values = np.empty((side, side))
    for k, (_, _, val) in enumerate(rows):
        values[divmod(k, side)] = val
    return values


def test_csv_reader_matches_row_loop_reference(tmp_path):
    path = tmp_path / "m.csv"
    for t in (-0.9, 0.2):
        LatticeFunction.from_evaluator(lambda u, v: upper_bound_values(u, v, t), 60).to_csv(path)
        back = LatticeFunction.from_csv(path)
        assert back.N == 60
        assert np.array_equal(back.values, _csv_loop_reader(path))


# Values that to_csv writes in its fixed-width layout (>= 0, two-digit
# exponents), and any finite double: the edge pool's finite entries add
# signed zeros, subnormals and three-digit exponents of both signs.
_FIXED_WIDTH_DOUBLES = st.just(0.0) | st.floats(1e-99, 9e99)
_FINITE_DOUBLES = (
    st.floats(allow_nan=False, allow_infinity=False) | _EDGE_DOUBLES.filter(math.isfinite)
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(1, 12), st.booleans(), st.data())
def test_csv_reader_reads_float_of_each_field_on_any_doubles(tmp_path, n, fixed, data):
    elements = _FIXED_WIDTH_DOUBLES if fixed else _FIXED_WIDTH_DOUBLES | _FINITE_DOUBLES
    values = data.draw(arrays(np.float64, (n + 1, n + 1), elements=elements))
    path = tmp_path / "m.csv"
    LatticeFunction(n, values).to_csv(path)
    assert np.array_equal(bits(LatticeFunction.from_csv(path).values), bits(_csv_loop_reader(path)))
    # The byte reader takes exactly the files whose rows are all 54 bytes.
    rows = path.read_bytes().splitlines(keepends=True)[1:]
    assert (_fixed_width_rows(path) is not None) == all(len(row) == 54 for row in rows)


@pytest.mark.parametrize("side", ["upper", "lower"])
def test_csv_reader_matches_row_loop_reference_at_every_seam_t(tmp_path, side):
    # Order 200, as grid-export reads it.  Every such grid is fixed-width.
    # Values below 1e-11 have exponents off the division path: the upper
    # seam grids have many near t = -1, the lower ones only 2, at t = 3/4.
    # So t = 1's lattice is read once more, with 49 such values planted.
    path = tmp_path / "m.csv"
    planted = _envelope_lattice(side, 1.0, 200).values.copy()
    planted[1:50, 1] = np.geomspace(1.4e-17, 9e-12, 49)
    for t in (*SEAM_T, None):
        lf = LatticeFunction(200, planted) if t is None else _envelope_lattice(side, t, 200)
        lf.to_csv(path)
        assert _fixed_width_rows(path) is not None, t
        reference = _csv_loop_reader(path)
        assert np.array_equal(bits(LatticeFunction.from_csv(path).values), bits(reference)), t
    assert np.count_nonzero((reference > 0) & (reference < 1e-11)) == 49


def test_csv_reader_reads_a_crlf_copy_alike(tmp_path):
    path, crlf = tmp_path / "m.csv", tmp_path / "crlf.csv"
    _envelope_lattice("lower", -0.9, 60).to_csv(path)
    crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert _fixed_width_rows(crlf) is None
    back = LatticeFunction.from_csv(crlf)
    assert back.N == 60
    assert np.array_equal(bits(back.values), bits(LatticeFunction.from_csv(path).values))


def test_csv_reader_reads_a_body_shorter_than_its_size_alike(tmp_path, monkeypatch):
    # fstat reports one 54-byte row more than the body holds, as for a file
    # cut while it is read: the short read sends it to np.loadtxt.
    path = tmp_path / "m.csv"
    _envelope_lattice("lower", -0.9, 60).to_csv(path)
    want = LatticeFunction.from_csv(path).values
    grown = SimpleNamespace(fstat=lambda fd: SimpleNamespace(st_size=os.fstat(fd).st_size + 54))
    monkeypatch.setattr("gini_bounds.lattice.os", grown)
    assert _fixed_width_rows(path) is None
    assert np.array_equal(bits(LatticeFunction.from_csv(path).values), bits(want))


@pytest.mark.parametrize(
    "offset, byte, message",
    [
        (0, b"x", "could not convert string 'x.00000000000e+00' to float64 at row 440, column 1."),
        (1, b",", "the number of columns changed from 3 to 4 at row 441;"),
        (17, b";", "the number of columns changed from 3 to 2 at row 441;"),
        (40, b" ", "could not convert string '1.00 00000000e+00' to float64 at row 440, column 3."),
        (49, b"+", "could not convert string '1.00000000000++00' to float64 at row 440, column 3."),
        (50, b",", "the number of columns changed from 3 to 4 at row 441;"),  # the exponent sign
        (52, b"a", "could not convert string '1.00000000000e+0a' to float64 at row 440, column 3."),
        (53, b",", "the number of columns changed from 3 to 4 at row 441;"),
        # The offset in the file, 10 header bytes and 440 rows of 54 before it.
        (5, b"\xff", "'utf-8' codec can't decode byte 0xff in position 23775: "),
        (13, b"E", None),  # a valid file out of the fixed-width layout
        (47, b"5", None),  # a valid file in it, with another value
    ],
)
def test_csv_reader_on_a_corrupt_last_row(tmp_path, offset, byte, message):
    # The messages are np.loadtxt's, as the reader gave them before it read
    # bytes; a byte out of the layout anywhere sends the file to np.loadtxt.
    path = tmp_path / "m.csv"
    _envelope_lattice("upper", -0.9, 20).to_csv(path)
    data = bytearray(path.read_bytes())
    data[len(data) - 54 + offset] = byte[0]
    path.write_bytes(data)
    if message is None:
        assert np.array_equal(bits(LatticeFunction.from_csv(path).values), bits(_csv_loop_reader(path)))
        return
    with pytest.raises(DomainError, match=re.escape(f"malformed lattice CSV: {message}")):
        LatticeFunction.from_csv(path)


@pytest.mark.parametrize(
    "data",
    [
        b"u,v,val\xffue\n0,0,0\n0,1,0\n1,0,0\n1,1,1\n",  # in the header
        b"u,v,value\n0,0,0\n0,1,\xff\n1,0,0\n1,1,1\n",  # in the body
        # Past the first 8 KB, under a wrong header: the whole file is
        # decoded before the header is read.
        pytest.param(b"u,v,wrong\n" + b"0,0,0\n" * 2000 + b"\xff\n", id="past-8k-under-a-wrong-header"),
    ],
)
def test_csv_that_is_not_utf8_is_a_domain_error(tmp_path, data):
    # Each raised UnicodeDecodeError before; a byte past the first decoded
    # chunk was already a DomainError (test_csv_reader_on_a_corrupt_last_row).
    path = tmp_path / "bad.csv"
    path.write_bytes(data)
    with pytest.raises(DomainError, match="can't decode byte 0xff"):
        LatticeFunction.from_csv(path)


def test_csv_reader_holds_few_lattice_sizes(tmp_path):
    # The nodes and values (three lattice sizes), the reader's row groups,
    # and the node check's temporaries; np.loadtxt's reader peaked at 5.13.
    n = 400
    path = tmp_path / "m.csv"
    _envelope_lattice("upper", -0.9, n).to_csv(path)
    LatticeFunction.from_csv(path)
    tracemalloc.start()
    try:
        LatticeFunction.from_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.5 * (n + 1) ** 2 * 8


def test_csv_fallback_reader_holds_the_file_as_bytes(tmp_path):
    # A CRLF copy goes to np.loadtxt, which reads a stream over the file's
    # bytes, where the whole file as an io.StringIO (4 bytes a character once
    # read by lines) peaked at 5.0 file sizes.
    path, crlf = tmp_path / "m.csv", tmp_path / "crlf.csv"
    _envelope_lattice("upper", -0.9, 100).to_csv(path)
    crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    tracemalloc.start()
    try:
        LatticeFunction.from_csv(crlf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * crlf.stat().st_size


def test_csv_fallback_reader_skips_the_decode_of_an_ascii_file(tmp_path):
    # An ASCII file is UTF-8 as it is, so only its bytes are held: 1.58 file
    # sizes (14.0 MB for the 8.8 MB order-400 file), where the validating
    # decode of the whole file took 2.0.  M's values i/400 are exact in the
    # 12 digits to_csv writes, so the read equals the lattice.
    path, crlf = tmp_path / "m.csv", tmp_path / "crlf.csv"
    lf = LatticeFunction.from_evaluator(frechet_upper, 400)
    lf.to_csv(path)
    crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    tracemalloc.start()
    try:
        back = LatticeFunction.from_csv(crlf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.75 * crlf.stat().st_size
    assert np.array_equal(bits(back.values), bits(lf.values))


@pytest.mark.parametrize("n", [181, 200, 400])
def test_atlas_csv_matches_csv_module_reference(n):
    # At order 181 the writer's groups of five 182-node rows do not divide
    # the 182 rows; at t = -0.9 every region is non-empty.
    masks = _region_atlas(-0.9, n)
    out = io.StringIO()
    write_node_csv(out, n, masks)
    assert out.getvalue() == _csv_module_reference(n, masks)


@pytest.mark.parametrize(
    "lengths",
    [[], [1], [_BLOCK], [_BLOCK + 1], [3, _BLOCK + 1, 2, 5], [_BLOCK // 2 + 1] * 5,
     [401] * 401, list(range(401, 0, -1)), [_BLOCK - 1, 1, 1, _BLOCK]],
)
def test_row_groups_partition_the_rows_in_order(lengths):
    groups = _row_groups(lengths)
    # Non-empty runs of consecutive rows that, in order, cover every row once.
    rows = range(len(lengths))
    assert [r for g in groups for r in rows[g]] == list(rows)
    assert all(g.step is None and g.start < g.stop for g in groups)
    for k, g in enumerate(groups):
        size = sum(lengths[g])
        # At most _BLOCK points, or one row that alone is longer; and greedy:
        # the next group's first row would not have fitted.
        assert size <= _BLOCK or g.stop - g.start == 1, (k, g)
        if k + 1 < len(groups):
            assert size + lengths[g.stop] > _BLOCK, (k, g)


@pytest.mark.parametrize("n", (1, 2, 3, 37, 255, 400))
@pytest.mark.parametrize("block", (_BLOCK, _BLOCK // 2, 1))
def test_quarter_groups_match_brute_force(n, block):
    # The quarter i <= j, i + j <= n, in row-major order.
    i, j = np.indices((n + 1, n + 1))
    quarter = (i <= j) & (i + j <= n)
    groups = list(_quarter_groups(n, block))
    assert np.array_equal(np.concatenate([gi for gi, _ in groups]), i[quarter])
    assert np.array_equal(np.concatenate([gj for _, gj in groups]), j[quarter])
    # Whole rows, each group as many as fit in block (one row where a row
    # alone is longer).
    rows = [n + 1 - 2 * r for r in range(n // 2 + 1)]
    assert [len(gi) for gi, _ in groups] == [sum(rows[g]) for g in _row_groups(rows, block)]
    assert all(gi.dtype == gj.dtype == np.intp for gi, gj in groups)


@pytest.mark.parametrize("t", (-0.9, 0.2, 1.0))
@pytest.mark.parametrize("n", (1, 2, 37, 400))
def test_envelope_lattices_match_one_side_at_a_time(n, t):
    # The stacked build of both sides gives each side's lattice bit for bit.
    both = _envelope_lattices(t, n, ("upper", "lower"))
    for side, lf in zip(("upper", "lower"), both):
        alone = _envelope_lattices(t, n, (side,))[0].values
        assert np.array_equal(bits(lf.values), bits(alone)), (side, n, t)


@pytest.mark.parametrize(
    "t, n", [(5, 4), (math.nan, 4), (-1.5, 4), (0.1, 0), (0.1, -3), (0.1, True), (0.1, 2.5)]
)
def test_envelope_audit_rejects_out_of_domain_input(t, n):
    with pytest.raises(DomainError):
        envelope_audit(t, n)


def test_envelope_audit_is_a_frozen_report():
    audit = envelope_audit(-0.5, 40)
    assert isinstance(audit, EnvelopeAudit) and all(audit.checks.values())
    assert isinstance(audit.upper_report, PropertyReport)
    with pytest.raises(dataclasses.FrozenInstanceError):
        audit.reflection_max_err = 0.0


@pytest.mark.parametrize("bump, passed", [(5e-13, True), (2e-12, False)])
@pytest.mark.parametrize("side, node, check", [
    # Lower (15, 25) leaves its reflection form (25, 15); there it lies
    # between W and the upper envelope, so the sandwich holds.
    ("lower", (15, 25), "reflection_identity"),
    # Upper (40, 7) is on the edge u = 1, where it equals M.
    ("upper", (40, 7), "sandwich"),
])
def test_envelope_audit_identities_at_their_tolerance(monkeypatch, side, node, check, bump, passed):
    # One node planted off by half and twice ENVELOPE_TOL (1e-12).
    def planted(t, n, sides):
        lattices = list(_envelope_lattices(t, n, sides))
        k = sides.index(side)
        values = lattices[k].values.copy()
        values[node] += bump
        lattices[k] = LatticeFunction(n, values)
        return tuple(lattices)

    monkeypatch.setattr("gini_bounds.lattice._envelope_lattices", planted)
    checks = envelope_audit(-0.5, 40).checks
    assert checks.pop(check) is passed and all(checks.values())


@pytest.mark.parametrize("t", (-0.5, 0.2))
@pytest.mark.parametrize("side", ("upper", "lower"))
def test_envelope_audit_fails_on_a_nan_node(monkeypatch, side, t):
    # Node (40, 7) of the order-100 lattice is read by the sandwich and by
    # its side's own audit; in the lower lattice, also by the reflection.
    def planted(t, n, sides):
        lattices = list(_envelope_lattices(t, n, sides))
        k = sides.index(side)
        values = lattices[k].values.copy()
        values[40, 7] = np.nan
        lattices[k] = LatticeFunction(n, values)
        return tuple(lattices)

    monkeypatch.setattr("gini_bounds.lattice._envelope_lattices", planted)
    audit = envelope_audit(t, 100)
    assert math.isnan(audit.sandwich_max_violation)
    assert math.isnan(audit.reflection_max_err) is (side == "lower")
    failed = {name for name, passed in audit.checks.items() if not passed}
    want = {"sandwich", f"{side}_quasicopula", f"{side}_copula_matches_classification"}
    assert failed == want | ({"reflection_identity"} if side == "lower" else set())
