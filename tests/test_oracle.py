import itertools
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from _hungarian import max_weight_assignment
from _support import CERTIFY_POINTS
from gini_bounds import (
    Checkerboard,
    DomainError,
    LatticeFunction,
    check_properties,
    gamma_checkerboard_exact,
    gamma_feasible_range,
    lower_bound_values,
    lp_extreme,
    upper_bound,
    upper_bound_values,
)
from gini_bounds import InternalError, oracle
from gini_bounds.checkerboard import cell_ramps, gamma_coefficients
from gini_bounds.cli import main


def test_order2_forced_diagonal():
    # at t = 2/3 the only feasible 2x2 board is the diagonal checkerboard
    out = lp_extreme(2, 0.5, 0.5, 2.0 / 3.0, "max")
    assert out.status == "optimal"
    assert out.optimum == pytest.approx(0.5, abs=1e-9)
    assert np.allclose(out.argument.mass, [[0.5, 0.0], [0.0, 0.5]], atol=1e-9)


def test_order2_t0_against_brute_force_family():
    # the 2x2 feasible set is {[[a, .5-a], [.5-a, a]]}; gamma = (8a-2)/3
    out_max = lp_extreme(2, 0.5, 0.5, 0.0, "max")
    out_min = lp_extreme(2, 0.5, 0.5, 0.0, "min")
    grid = np.linspace(0.0, 0.5, 20001)
    feasible = grid[np.abs((8.0 * grid - 2.0) / 3.0) <= 1e-9]
    values = feasible  # C(0.5, 0.5) = mass[0][0] = a
    assert out_max.optimum == pytest.approx(float(values.max()), abs=1e-6)
    assert out_min.optimum == pytest.approx(float(values.min()), abs=1e-6)


def test_infeasible_target():
    out = lp_extreme(2, 0.5, 0.5, 0.9, "max")
    assert out.status == "infeasible"
    assert out.optimum is None and out.argument is None


def test_input_validation():
    with pytest.raises(DomainError):
        lp_extreme(1, 0.5, 0.5, 0.0, "max")
    with pytest.raises(DomainError):
        lp_extreme(4, 0.5, 0.5, 0.0, "between")
    with pytest.raises(DomainError):
        lp_extreme(4, 1.5, 0.5, 0.0, "max")
    with pytest.raises(DomainError):
        lp_extreme(4, 0.5, 0.5, 3.0, "max")
    with pytest.raises(DomainError, match="integer"):
        lp_extreme(2.5, 0.5, 0.5, 0.0, "max")
    with pytest.raises(DomainError, match="integer"):
        gamma_feasible_range(2.5)


def test_soundness_against_closed_form():
    pts = [(0.25, 0.25), (0.25, 0.75), (0.5, 0.5), (0.7, 0.3), (0.9, 0.6)]
    for t in (-0.5, 0.0, 0.25):
        for (u, v) in pts:
            up = float(upper_bound_values(u, v, t))
            lo = float(lower_bound_values(u, v, t))
            mx = lp_extreme(8, u, v, t, "max")
            mn = lp_extreme(8, u, v, t, "min")
            assert mx.status == mn.status == "optimal"
            assert mx.optimum <= up + 1e-9
            assert mn.optimum >= lo - 1e-9


def test_duality_of_reflections():
    for (u, v, t) in [(0.3, 0.7, -0.5), (0.4, 0.6, 0.25), (0.5, 0.5, 0.0)]:
        mn = lp_extreme(8, u, v, t, "min")
        mx = lp_extreme(8, 1.0 - u, v, -t, "max")
        assert mn.optimum == pytest.approx(v - mx.optimum, abs=1e-9)


def test_gamma_range_symmetric_and_growing():
    prev = 0.0
    for n in (2, 3, 4, 8):
        lo, hi = gamma_feasible_range(n)
        assert lo == pytest.approx(-hi, abs=1e-9)
        assert hi >= prev - 1e-12
        prev = hi
    assert gamma_feasible_range(2)[1] == pytest.approx(2.0 / 3.0, abs=1e-9)
    # A numpy-integer order gives the builtin floats of the int one.
    ends = gamma_feasible_range(np.int64(8))
    assert ends == gamma_feasible_range(8) and all(type(x) is float for x in ends)


def test_argument_is_a_valid_checkerboard_copula():
    out = lp_extreme(8, 0.4, 0.7, -0.25, "max")
    board = out.argument
    assert isinstance(board, Checkerboard)  # construction re-validates margins
    assert abs(gamma_checkerboard_exact(board) - (-0.25)) <= 1e-9
    rep = check_properties(
        LatticeFunction.from_evaluator(board.cdf, 80), tol=1e-9
    )
    assert rep.is_copula


def test_extreme_gamma_permutations_are_the_reversal_and_the_identity():
    # gamma_feasible_range's proof agrees with the float solver.
    for n in range(1, 41):
        g = gamma_coefficients(n)
        hi = np.arange(n)
        lo = hi[::-1]
        assert np.array_equal(lo, max_weight_assignment(-g)[0]), n
        assert np.array_equal(hi, max_weight_assignment(g)[0]), n


def _block_layouts(n):
    """The block sizes of every layout one axis can take at order n.

    Node-aligned z = k/n (0 and 1 among them) and z inside each cell give
    every layout; the lp-certify coordinates are added by name.
    """
    zs = [k / n for k in range(n + 1)] + [(k + 0.5) / n for k in range(n)]
    zs += [0.3, 0.35, 0.4, 0.5, 0.6, 0.7]
    return {oracle._ramp_blocks(n, z)[0] for z in zs}


def _end_gamma(classes, n, mirror):
    """S of each class's sorted end, or of its mirror end as _class_table states it."""
    return -oracle._class_gamma(classes[..., ::-1], n) if mirror else oracle._class_gamma(classes, n)


@pytest.mark.parametrize("n", range(2, 9))
def test_sorted_and_mirror_permutations_attain_every_class_extreme(n):
    # Brute force over all n! permutations: group them by block counts, and
    # compare each class's least and greatest gamma (from the dense
    # gamma_coefficients) with the closed form and with the two constructions.
    perms = np.array(list(itertools.permutations(range(n))))
    rows = np.arange(n)
    g = gamma_coefficients(n)
    gammas = g[rows, perms].mean(axis=1) - 2.0
    by_gamma = np.argsort(gammas, kind="stable")
    perms, gammas = perms[by_gamma], gammas[by_gamma]
    scale = 2.0 / (3.0 * n * n)
    # A class's key is sum_k N_k base^k over the flattened counts N, or
    # sum_i base^(3 I(i)) base^(J(perm(i))) with I, J the blocks of row i and
    # of its image: a float matrix product, exact below 2^53.
    base = float(n + 1)
    weights = base ** np.arange(9)

    def blocks(sizes, index):
        return np.searchsorted(np.cumsum(sizes), index, side="right")

    layouts = _block_layouts(n)
    for col_sizes in layouts:
        col_code = base ** blocks(col_sizes, perms)
        for row_sizes in layouts:
            row_code = base ** (3 * blocks(row_sizes, rows))
            keys = col_code @ row_code
            seen, first = np.unique(keys, return_index=True)
            _, last = np.unique(keys[::-1], return_index=True)
            least, greatest = gammas[first], gammas[::-1][last]

            classes = oracle._block_classes(row_sizes, col_sizes)
            class_keys = classes.reshape(len(classes), 9) @ weights
            assert sorted(class_keys) == list(seen), (row_sizes, col_sizes)
            at = np.searchsorted(seen, class_keys)
            for mirror, want in ((True, least[at]), (False, greatest[at])):
                s_closed = _end_gamma(classes, n, mirror)
                assert np.abs(s_closed * scale - want).max() <= 1e-12
                made = np.array([
                    oracle._end_permutation(counts, n, mirror)
                    for counts in classes
                ])
                assert (np.sort(made, axis=1) == rows).all()
                assert np.array_equal((base ** blocks(col_sizes, made)) @ row_code, class_keys)
                assert np.abs(g[rows, made].mean(axis=1) - 2.0 - want).max() <= 1e-12


def _permutation_s(perms):
    """S = sum_i F(i, pi(i)) over the last axis, _class_gamma's kernel with no n x n matrix."""
    n = perms.shape[-1]
    i, j = np.arange(n), perms
    kernel = 3 * np.abs(i + j - (n - 1)) - 3 * np.abs(i - j) + (i + j == n - 1) - (i == j)
    return kernel.sum(axis=-1)


@pytest.mark.parametrize("n", [64, 257, 1024])
def test_sorted_and_mirror_runs_at_high_orders(n):
    # Beyond brute force: at the lp-certify points and two node-aligned ones,
    # both constructions of every class are permutations with the class's
    # block counts, and their S = sum_i F(i, pi(i)), from the kernel written
    # out by _permutation_s, is _class_gamma's closed form.
    i = np.arange(n)
    nodes = [((n // 3) / n, (2 * n // 3) / n), ((n // 8) / n, (n // 2) / n)]
    for point, (u, v) in enumerate(nodes + [(u, v) for u, v, _ in CERTIFY_POINTS]):
        rows, cols = oracle._ramp_blocks(n, u)[0], oracle._ramp_blocks(n, v)[0]
        if point < len(nodes):
            assert rows[1] == cols[1] == 0, (u, v)
        classes = oracle._block_classes(rows, cols)
        row_block = np.searchsorted(np.cumsum(rows), i, side="right")
        for mirror in (True, False):
            made = np.array([
                oracle._end_permutation(counts, n, mirror) for counts in classes
            ])
            assert (np.sort(made, axis=1) == i).all(), (u, v, mirror)
            cell = 3 * row_block + np.searchsorted(np.cumsum(cols), made, side="right")
            cell += 9 * np.arange(len(classes))[:, None]
            counts = np.bincount(cell.ravel(), minlength=9 * len(classes))
            assert np.array_equal(counts, classes.ravel()), (u, v, mirror)
            closed = _end_gamma(classes, n, mirror)
            assert np.array_equal(_permutation_s(made), closed), (u, v, mirror)


def test_optimum_is_the_exact_value_of_the_returned_board():
    # The optimum must be the returned board's C(u, v), rounded once.  Each
    # end's C is derived here in Fraction from its permutation and the ramps
    # alone, with no block classes: sum_i ramp_i(u) * ramp_pi(i)(v) / n.
    # The (u, v) include node-aligned values, where there is no middle block.
    zs = (0.0, 0.25, 0.5, 0.3, 0.7, 1.0)
    for n in (2, 3, 4, 5, 7, 8, 16, 33):
        lo, hi = gamma_feasible_range(n)
        for u, v in itertools.product(zs, zs):
            ramp_u, ramp_v = ([Fraction(x) for x in cell_ramps(n, z)] for z in (u, v))
            for t in (lo, -0.4, 0.0, 0.3, hi):
                for direction in ("max", "min"):
                    out = lp_extreme(n, u, v, t, direction)
                    if out.status == "infeasible":
                        continue
                    c_a, c_b = (
                        sum(ramp_u[i] * ramp_v[j] for i, j in enumerate(perm.tolist())) / n
                        for perm in out.permutations
                    )
                    want = float(out.alpha * c_a + (1 - out.alpha) * c_b)
                    assert out.optimum == want, (n, u, v, t, direction)


def test_integer_tail_at_edge_targets():
    # lp_extreme's integer tail against its statement in Fraction, from the
    # returned permutations: the target S = 3n^2/2 * t clamped to the
    # identity's S, alpha the weight that meets it, and the mix of the two
    # ends' n * C(u, v) over n, rounded once.  The t are subnormal, tiny and
    # dyadic, and the range ends (n = 4's upper end rounds above the exact one).
    zs = (0.0, 0.3, 0.5, 1.0)
    tiny = (5e-324, 1e-300, 2.0**-60)
    for n in (2, 3, 4, 8, 16):
        edge = oracle._identity_s(n)
        ramps = {z: [Fraction(x) for x in cell_ramps(n, z)] for z in zs}
        for t in tiny + tuple(-x for x in tiny) + gamma_feasible_range(n):
            p, q = t.as_integer_ratio()
            target = min(max(Fraction(3 * n * n * p, 2 * q), -edge), edge)
            for u, v, direction in itertools.product(zs, zs, ("max", "min")):
                out = lp_extreme(n, u, v, t, direction)
                assert out.status == "optimal", (n, t)
                s_a, s_b = _permutation_s(np.stack(out.permutations)).tolist()
                alpha = Fraction(1) if s_a == s_b else (s_b - target) / (s_b - s_a)
                x_a, x_b = (
                    sum(ramps[u][i] * ramps[v][j] for i, j in enumerate(perm.tolist()))
                    for perm in out.permutations
                )
                want = float((x_b + alpha * (x_a - x_b)) / n)
                assert type(out.alpha) is Fraction and out.alpha == alpha, (n, u, v, t, direction)
                assert out.optimum == want, (n, u, v, t, direction)


def test_convergence_at_the_centre_at_high_orders():
    # Beyond criterion 09's n = 32: the gap keeps shrinking, like 1/n.
    target = upper_bound(0.5, 0.5, 0.0).bound
    gaps = []
    for n in (64, 256, 1024):
        out = lp_extreme(n, 0.5, 0.5, 0.0, "max")
        assert out.status == "optimal"
        gaps.append(target - out.optimum)
        assert 0.0 <= n * gaps[-1] <= 0.03, (n, gaps[-1])
    assert gaps[0] >= gaps[1] >= gaps[2]


def test_class_table_is_read_only():
    # The memoised solve hands one outcome to every call at its key, so its
    # permutations, and the board built from them, are read-only.
    oracle._lp_extremes.cache_clear()
    for direction in ("max", "min"):
        out = lp_extreme(8, 0.3, 0.7, -0.4, direction)
        kept = [perm.copy() for perm in out.permutations]
        for array in out.permutations + (out.argument.mass,):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        again = lp_extreme(8, 0.3, 0.7, -0.4, direction)
        assert again is out
        assert all(np.array_equal(a, b) for a, b in zip(again.permutations, kept))


def test_class_table_serves_one_oracle_command(capsys, monkeypatch):
    # Each lp-certify command solves max and min at one (n, u, v, t): one
    # miss, then one hit, and nothing carried over from the command before.
    solve = oracle._lp_extremes
    solve.cache_clear()
    for u, v, t in CERTIFY_POINTS:
        for n in (8, 16):
            before = solve.cache_info()
            argv = ["oracle", "--t", repr(t), "--n", str(n), "--u", repr(u), "--v", repr(v)]
            assert main(argv) == 0
            after = solve.cache_info()
            assert (after.misses - before.misses, after.hits - before.hits) == (1, 1), argv
    capsys.readouterr()
    # A different (n, u, v, t) evicts the entry.
    solve.cache_clear()
    for n, t in ((8, 0.1), (16, 0.1), (8, 0.1), (8, 0.2)):
        lp_extreme(n, 0.3, 0.7, t, "max")
    assert solve.cache_info()[:2] == (0, 4)
    # An infeasible target returns before a class table is built.
    builds = []
    table = oracle._class_table
    monkeypatch.setattr(oracle, "_class_table", lambda *args: builds.append(args) or table(*args))
    solve.cache_clear()
    for direction in ("max", "min"):
        assert lp_extreme(2, 0.5, 0.5, 0.9, direction).status == "infeasible"
    assert builds == []
    assert lp_extreme(2, 0.5, 0.5, 0.5, "max").status == "optimal"
    assert builds == [(2, 0.5, 0.5)]


def test_large_order_keeps_the_permutation_pair():
    # Nothing n x n is built: at n = 4096 a dense float board alone is 128 MB.
    for direction in ("max", "min"):
        oracle._lp_extremes.cache_clear()
        start = time.perf_counter()
        out = lp_extreme(4096, 0.3, 0.7, -0.4, direction)
        elapsed = time.perf_counter() - start
        oracle._lp_extremes.cache_clear()
        tracemalloc.start()
        try:
            lp_extreme(4096, 0.3, 0.7, -0.4, direction)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.status == "optimal"
        assert elapsed < 0.1 and peak < 6e6, (direction, elapsed, peak)
        assert lower_bound_values(0.3, 0.7, -0.4) <= out.optimum <= upper_bound_values(0.3, 0.7, -0.4)


def _unchunked_s(classes, n):
    """The table's S as two whole _class_gamma calls: mirror ends, then sorted ends."""
    return np.concatenate([_end_gamma(classes, n, True), _end_gamma(classes, n, False)])


@pytest.mark.parametrize("n", [4092, 4094, 4096])
def test_class_gamma_chunk_seam(n):
    # At u = v = 1/2 an even order has n/2 + 1 classes, so the 2k stacked
    # ends fall just below, at and just above one chunk.
    classes, s, _ = oracle._class_table(n, 0.5, 0.5)
    assert 2 * len(classes) - oracle._GAMMA_CHUNK == n - 4094
    want = _unchunked_s(classes, n)
    assert s.dtype == want.dtype and np.array_equal(s, want)


@pytest.mark.parametrize("chunk", [1, 2, 3, 7, 21, 22, 23, 43, 44, 45])
def test_class_gamma_chunk_seam_at_every_offset(monkeypatch, chunk):
    # Small chunks put the seams inside either half and on the boundary
    # between them: n = 16 at (0.3, 0.7) has 22 classes, 44 ends.
    monkeypatch.setattr(oracle, "_GAMMA_CHUNK", chunk)
    classes, s, _ = oracle._class_table(16, 0.3, 0.7)
    assert len(classes) == 22
    want = _unchunked_s(classes, 16)
    assert s.dtype == want.dtype and np.array_equal(s, want)


def test_large_order_peak_stays_below_one_unchunked_pass():
    # One unchunked _class_gamma pass over the 2k ends would hold its
    # temporaries for every class at once (65 MB here); the chunks bound
    # them.  The first call solves both directions, so it holds the peak.
    oracle._lp_extremes.cache_clear()
    tracemalloc.start()
    try:
        outs = [lp_extreme(65536, 0.3, 0.7, -0.4, direction) for direction in ("max", "min")]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    oracle._lp_extremes.cache_clear()
    assert [out.status for out in outs] == ["optimal", "optimal"]
    assert peak < 40e6, peak


def _outcome_bits(out):
    """Everything an LpOutcome reports, with the optimum's bits."""
    optimum = None if out.optimum is None else out.optimum.hex()
    perms = None if out.permutations is None else [p.tobytes() for p in out.permutations]
    return out.direction, out.status, optimum, out.alpha, perms


def _fresh(*args):
    oracle._lp_extremes.cache_clear()
    return _outcome_bits(lp_extreme(*args))


@pytest.mark.parametrize("first, second", [
    ((16, 0.0, 0.7, 0.0), (16, -0.0, 0.7, -0.0)),
    ((16, -0.0, 0.7, -0.0), (16, 0.0, 0.7, 0.0)),
    ((16, 0.3, 0.0, 0.0), (16, 0.3, -0.0, -0.0)),
    ((8, 0.5, 0.5, 0.0), (8, 0.5, 0.5, -0.0)),
    ((16, 0.5, 0.25, 0.5), (np.int64(16), np.float32(0.5), np.float32(0.25), np.float32(0.5))),
    ((np.int64(16), np.float32(0.5), np.float32(0.25), np.float32(0.5)), (16, 0.5, 0.25, 0.5)),
    ((16, float(np.float32(0.3)), 0.7, -0.4),
     (16, np.float32(0.3), np.float64(0.7), np.float64(-0.4))),
    ((9, 0.3, 0.7, -0.4), (np.int32(9), 0.3, 0.7, -0.4)),
])
def test_equal_cache_keys_give_the_fresh_solve(first, second):
    # lru_cache reads +-0.0, and a numpy scalar and its builtin value, as one
    # key; the call served from the entry must equal its own fresh solve.
    for direction in ("max", "min"):
        want = _fresh(*second, direction)
        _fresh(*first, direction)
        before = oracle._lp_extremes.cache_info().hits
        assert _outcome_bits(lp_extreme(*second, direction)) == want, (first, second, direction)
        assert oracle._lp_extremes.cache_info().hits == before + 1


def test_gamma_check_does_not_rest_on_the_class_algebra(monkeypatch):
    # Off by one in every class's S, the hull picks a mix whose gamma,
    # re-derived on its support, misses the target.
    closed = oracle._class_gamma
    monkeypatch.setattr(oracle, "_class_gamma", lambda *args: closed(*args) + 1)
    oracle._lp_extremes.cache_clear()
    try:
        with pytest.raises(InternalError, match="misses the gamma target"):
            lp_extreme(16, 0.3, 0.7, -0.4, "max")
    finally:
        oracle._lp_extremes.cache_clear()
