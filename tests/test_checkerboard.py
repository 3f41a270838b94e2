import json

import numpy as np
import pytest

from gini_bounds import (
    Checkerboard,
    DomainError,
    LatticeFunction,
    check_properties,
    gamma_checkerboard_exact,
    gamma_coefficients,
    gamma_quadrature,
)


def _diag2():
    return Checkerboard(2, np.array([[0.5, 0.0], [0.0, 0.5]]))


def _sinkhorn_board(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.random((n, n)) + 0.05
    for _ in range(2000):
        m /= m.sum(axis=1, keepdims=True) * n
        m /= m.sum(axis=0, keepdims=True) * n
    return Checkerboard(n, m)


def test_cdf_examples():
    uniform = Checkerboard(1, np.array([[1.0]]))
    assert uniform.cdf(0.3, 0.4) == pytest.approx(0.12, abs=1e-15)
    assert _diag2().cdf(0.5, 0.5) == pytest.approx(0.5, abs=1e-15)
    assert _diag2().cdf(0.25, 0.75) == pytest.approx(0.25, abs=1e-15)


def test_cdf_rejects_points_outside_the_square():
    board = _diag2()
    for u, v in ((1.5, 0.5), (np.nan, 0.5), (0.5, -1e-20)):
        with pytest.raises(DomainError):
            board.cdf(u, v)
    with pytest.raises(DomainError):
        board.cdf(np.array([0.2, 1.5]), np.array([0.5, 0.5]))
    with pytest.raises(DomainError):
        board.cdf(np.array([0.2, 0.4]), np.array([np.nan, 0.5]))
    assert np.array_equal(board.cdf([0.25, 1.0], (0.75, 1.0)), [0.25, 1.0])


def test_cdf_against_dense_mass_accumulation():
    board = _sinkhorn_board(4, seed=2)
    # oracle: accumulate cell mass over a fine subgrid of each cell
    k = 200
    sub = (np.arange(k) + 0.5) / k / board.n
    for (u, v) in [(0.3, 0.8), (0.55, 0.25), (1.0, 1.0), (0.125, 0.99)]:
        total = 0.0
        for i in range(board.n):
            xs = i / board.n + sub
            for j in range(board.n):
                ys = j / board.n + sub
                inside = np.outer(xs <= u, ys <= v).mean()
                total += board.mass[i, j] * inside
        assert board.cdf(u, v) == pytest.approx(total, abs=2e-3)


def test_margin_validation():
    with pytest.raises(DomainError, match="margins"):
        Checkerboard(2, np.array([[0.6, 0.0], [0.0, 0.4]]))
    # At the edge of MARGIN_TOL (1e-12): rows that miss 1/2 by half of it
    # build, and by twice it fail.
    Checkerboard(2, np.array([[0.5 + 5e-13, 0.0], [0.0, 0.5 - 5e-13]]))
    with pytest.raises(DomainError, match="margins"):
        Checkerboard(2, np.array([[0.5 + 2e-12, 0.0], [0.0, 0.5 - 2e-12]]))
    with pytest.raises(DomainError, match="negative"):
        Checkerboard(2, np.array([[0.6, -0.1], [-0.1, 0.6]]))
    with pytest.raises(DomainError, match="NaN"):
        Checkerboard(2, np.array([[np.nan, 0.5], [0.5, np.nan]]))
    with pytest.raises(DomainError, match="shape"):
        Checkerboard(3, np.zeros((2, 2)))
    with pytest.raises(DomainError, match="integer"):
        Checkerboard(2.0, np.full((2, 2), 0.25))
    with pytest.raises(DomainError, match="integer"):
        gamma_coefficients(2.5)


def test_gamma_coefficient_examples():
    assert gamma_checkerboard_exact(Checkerboard(1, np.array([[1.0]]))) == 0.0
    assert gamma_checkerboard_exact(_diag2()) == pytest.approx(2.0 / 3.0, abs=1e-12)
    anti = Checkerboard(2, np.array([[0.0, 0.5], [0.5, 0.0]]))
    assert gamma_checkerboard_exact(anti) == pytest.approx(-2.0 / 3.0, abs=1e-12)


@pytest.mark.parametrize("n,seed", [(2, 0), (3, 1), (5, 2), (8, 3)])
def test_exact_gamma_matches_quadrature(n, seed):
    board = _sinkhorn_board(n, seed)
    exact = gamma_checkerboard_exact(board)
    quad = gamma_quadrature(board.cdf, 4000)
    assert exact == pytest.approx(quad, abs=1e-8)


def test_coefficients_shape_and_symmetry():
    g = gamma_coefficients(4)
    assert g.shape == (4, 4)
    # gamma is invariant under transposing the mass matrix
    assert np.max(np.abs(g - g.T)) <= 1e-15


def test_checkerboard_cdf_is_a_copula():
    board = _sinkhorn_board(6, seed=9)
    rep = check_properties(LatticeFunction.from_evaluator(board.cdf, 120))
    assert rep.is_copula


def test_json_round_trip(tmp_path):
    path = tmp_path / "board.json"
    board = _diag2()
    board.to_json(path)
    back = Checkerboard.from_json(path)
    assert back.n == 2
    assert np.array_equal(back.mass, board.mass)


def test_numpy_integer_order_round_trips_through_json(tmp_path):
    path = tmp_path / "board.json"
    board = Checkerboard(np.int64(2), _diag2().mass)
    assert type(board.n) is int
    board.to_json(path)
    back = Checkerboard.from_json(path)
    assert back.n == 2 and np.array_equal(back.mass, board.mass)


def test_json_validation(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "mass": [1.0, 0.0, 0.0]}))
    with pytest.raises(DomainError, match="entries"):
        Checkerboard.from_json(path)
    path.write_text(json.dumps({"n": 2, "mass": [0.6, 0.0, 0.0, 0.4]}))
    with pytest.raises(DomainError, match="margins"):
        Checkerboard.from_json(path)
    for text, message in (
        ('{"n": 2, "mass": [NaN, 0.0, 0.0, 0.5]}', "NaN"),
        ('{"n": 2, "mass": [0.5, 0.0,', "malformed"),
        ('{"n": 2, "mass": 5}', "fields n, mass"),
        # Not an object, or one without both fields.
        ("[1]", "checkerboard JSON must have fields n, mass: "),
        ('"x"', "checkerboard JSON must have fields n, mass: "),
        ('{"mass": [1.0]}', "checkerboard JSON must have fields n, mass: "),
        ('{"n": 1}', "checkerboard JSON must have fields n, mass: "),
        ('{"n": -1, "mass": [1.0]}', "order"),
        ('{"n": 2.5, "mass": [0.5, 0.0, 0.0, 0.5]}', "integer"),
        ('{"n": true, "mass": [1.0]}', "integer"),
        ('{"n": 1, "mass": "1"}', "array"),
        # JSON numbers only: float() would read true and "1.0" as 1.0, and
        # raise OverflowError on an integer beyond the float range.
        ('{"n": 1, "mass": [true]}', "entry True is not a number"),
        ('{"n": 1, "mass": ["1.0"]}', "entry '1.0' is not a number"),
        ('{"n": 1, "mass": [null]}', "entry None is not a number"),
        ('{"n": 1, "mass": [1' + "0" * 400 + "]}", "not real: dtype object"),
    ):
        path.write_text(text)
        with pytest.raises(DomainError, match=message):
            Checkerboard.from_json(path)
    # A byte that is not UTF-8, at its offset in the file.
    path.write_bytes(b'{"n": 1, "mass": [1.0]}\n' + b" " * 9000 + b"\xff\n")
    with pytest.raises(DomainError, match="malformed checkerboard JSON: 'utf-8' codec can't "
                                          "decode byte 0xff in position 9024: invalid start byte"):
        Checkerboard.from_json(path)
    # A syntax error at its character offset in the file, CRs counted.
    path.write_bytes(b'{\r\n  "n": 2,\r\n  "mass": [0.5, 0.0,, 0.0, 0.5]\r\n}\r\n')
    with pytest.raises(DomainError, match=r"line 3 column 21 \(char 34\)"):
        Checkerboard.from_json(path)


@pytest.mark.parametrize("mass", [[[True]], [["1.0"]], np.array([[True]]), [[None]]])
def test_mass_that_is_not_int_or_float_is_rejected(mass):
    # asarray(mass, dtype=float) would read True and "1.0" as 1.0.
    with pytest.raises(DomainError, match="mass is not real: dtype"):
        Checkerboard(1, mass)


def test_int_masses_are_read_as_floats():
    board = Checkerboard(1, [[1]])
    assert board.mass.dtype == np.float64 and board.mass[0, 0] == 1.0
