"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
complete.  Every tolerance is pinned here; nothing is deferred.
"""

import time

import numpy as np

from _support import CRITERION_09_GRID, lattice
from gini_bounds import (
    PointBoundSpec,
    RankSample,
    frechet_lower,
    frechet_upper,
    gamma_quadrature,
    gamma_rank_statistic,
    hyperbolic_corner_points,
    hyperbolic_set_contains,
    i1_closed,
    i2_closed,
    lens_density_floor,
    lower_bound_values,
    lower_point_bound_gamma,
    lp_extreme,
    mixed_partial_density,
    point_bound_lower,
    region_masks,
    region_nonempty,
    theta_candidate,
    upper_bound,
    upper_bound_values,
    witness_copula,
)
from gini_bounds.lattice import LatticeFunction, check_properties
from gini_bounds.pointgamma import branch_condition, branch_value


def _verdict(num, description, ok, detail=""):
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {description}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def test_criterion_01_endpoint_identities():
    uu, vv = lattice(200)
    w, m = frechet_lower(uu, vv), frechet_upper(uu, vv)
    # From t = 1/2 on, the upper envelope is M exactly.
    exact = max(
        float(np.max(np.abs(upper_bound_values(uu, vv, t) - m)))
        for t in (0.5, 0.75, 1.0)
    )
    errs = [float(np.max(np.abs(upper_bound_values(uu, vv, -1.0) - w)))]
    errs += [float(np.max(np.abs(lower_bound_values(uu, vv, 1.0) - m)))]
    errs += [
        float(np.max(np.abs(lower_bound_values(uu, vv, t) - w)))
        for t in (-1.0, -0.75, -0.5)
    ]
    worst = max(errs)
    _verdict(1, "endpoint identities on 201x201 lattice", exact == 0.0 and worst <= 1e-12,
             f"M err {exact:.2e}, max err {worst:.2e}")


def test_criterion_02_reflection_identity():
    uu, vv = lattice(200)
    worst_first = worst_second = 0.0
    for t in (-0.9, -0.5, -0.1, 0.0, 0.2, 0.6):
        low = lower_bound_values(uu, vv, t)
        first = vv - upper_bound_values(1.0 - uu, vv, -t)
        second = uu - upper_bound_values(uu, 1.0 - vv, -t)
        worst_first = max(worst_first, float(np.max(np.abs(low - first))))
        worst_second = max(worst_second, float(np.max(np.abs(low - second))))
    ok = worst_first == 0.0 and worst_second <= 1e-12
    _verdict(2, "reflection identity, both coordinate forms", ok,
             f"first {worst_first:.2e}, second {worst_second:.2e}")


def test_criterion_03_classification_volumes():
    n = 400
    uu, vv = lattice(n)
    ok = True
    details = []
    for t in (0.0, 0.25, 0.49):
        rep = check_properties(LatticeFunction(n, upper_bound_values(uu, vv, t)),
                               tol=1e-10)
        good = rep.is_copula and rep.min_volume >= -1e-10 and \
            rep.lipschitz_max_excess <= 1e-10
        ok &= good
        details.append(f"t={t}: copula={rep.is_copula} minvol={rep.min_volume:.1e}")
    scan_nodes = [float(k) / 200 for k in range(201)]
    for t in (-0.9, -0.5, -0.1):
        floor, argmins = lens_density_floor(t)
        # The floor is exact: attained at its minimisers, undercut nowhere.
        at_min = max(abs(mixed_partial_density(m, m, t) - floor) for m in argmins)
        scan = min(
            mixed_partial_density(a, b, t)
            for a in scan_nodes for b in scan_nodes
            if hyperbolic_set_contains(a, b, t)
        )
        # A cell's volume is the density's integral over it, so no cell
        # falls below floor / N^2, and the most negative cell approaches
        # that bound at the minimiser as the lattice refines.
        rep = check_properties(LatticeFunction(n, upper_bound_values(uu, vv, t)),
                               tol=1e-10)
        i, j = rep.min_volume_rect[0], rep.min_volume_rect[1]
        dist = min(max(abs(i + 0.5 - m * n), abs(j + 0.5 - m * n)) for m in argmins)
        bound = floor / n**2
        good = (
            at_min <= 1e-12
            and scan >= floor - 1e-12
            and rep.is_quasicopula
            and not rep.is_copula
            and rep.lipschitz_max_excess <= 1e-10
            and bound - 1e-12 <= rep.min_volume <= 0.9 * bound
            and dist <= 2.0
        )
        ok &= good
        details.append(
            f"t={t}: floor={floor:.5f} (err {at_min:.1e}, scan {scan:.5f}) "
            f"minvol*N^2/floor={rep.min_volume / bound:.3f} "
            f"cell={rep.min_volume_rect[:2]} minimiser-dist={dist:.1f}"
        )
    _verdict(3, "classification volumes at N=400", ok, "; ".join(details))


def test_criterion_04_mixed_partial_anchor():
    # FD of the binding fifth-candidate surface: the envelope coincides
    # with it on the closed lens, whose boundary corner is p1, so the
    # surface derivative is the defined object there (a two-sided FD of
    # the min-clipped envelope straddles the lens crease and diverges).
    delta = 1e-4
    ok = True
    details = []
    for t in (-0.9, -0.5, -0.1):
        p1, _ = hyperbolic_corner_points(t)
        u = p1.u

        def surface(a, b):
            return theta_candidate(5, a, b, t)

        fd = (
            surface(u + delta, u + delta)
            - surface(u + delta, u - delta)
            - surface(u - delta, u + delta)
            + surface(u - delta, u - delta)
        ) / (4.0 * delta * delta)
        rel = abs(fd - t / 3.0) / abs(t / 3.0)
        ok &= rel <= 0.05
        details.append(f"t={t}: fd={fd:.6f} vs {t/3.0:.6f} (rel {rel:.1e})")
    _verdict(4, "mixed-partial anchor t/3 at the corner point", ok,
             "; ".join(details))


def test_criterion_05_closed_form_gamma_consistency():
    started = time.monotonic()
    rng = np.random.default_rng(2024)
    worst_quad = worst_ident = 0.0
    for _ in range(10**4):
        a, b = rng.random(2)
        lo, hi = max(0.0, a + b - 1.0), min(a, b)
        spec = PointBoundSpec(a, b, lo + (hi - lo) * rng.random())
        res = lower_point_bound_gamma(spec)
        quad = gamma_quadrature(point_bound_lower(spec), 4000)
        worst_quad = max(worst_quad, abs(res.value - quad))
        ident = 4.0 * (i1_closed(spec) + i2_closed(spec)) - 2.0
        worst_ident = max(worst_ident, abs(ident - res.value))
    worst_cont = 0.0
    for _ in range(3000):
        a, b = rng.random(2)
        x, m = max(a, b), min(a, b)
        for theta in (x - 0.5, x - m, 2.0 * x - 1.0):
            if not (max(0.0, a + b - 1.0) <= theta <= min(a, b)):
                continue
            vals = [
                branch_value(k, x, m, theta)
                for k in range(1, 6)
                if branch_condition(k, x, m, theta)
            ]
            if len(vals) >= 2:
                worst_cont = max(worst_cont, max(vals) - min(vals))
    elapsed = time.monotonic() - started
    ok = worst_quad <= 1e-6 and worst_ident <= 1e-12 and worst_cont <= 1e-12 \
        and elapsed <= 300.0
    _verdict(5, "closed-form gamma vs quadrature over 10^4 specs", ok,
             f"quad {worst_quad:.2e}, ident {worst_ident:.2e}, "
             f"continuity {worst_cont:.2e}, {elapsed:.0f}s")


def test_criterion_06_theta_root_property():
    rng = np.random.default_rng(7)
    worst = 0.0
    found = 0
    while found < 1000:
        u, v = rng.random(2)
        t = rng.uniform(-1.0, 1.0)
        rep = upper_bound(u, v, t)
        if not any(rep.active):
            continue
        found += 1
        x, m = max(u, v), min(u, v)
        for i in range(5):
            if rep.active[i]:
                worst = max(worst, abs(branch_value(i + 1, x, m, rep.theta[i]) - t))
    _verdict(6, "active candidates are roots of their branch", worst <= 1e-9,
             f"max |branch(theta)-t| {worst:.2e} over {found} points")


def _region_on_grid(i, t, side=200):
    """Whether a side x side grid on the closed unit square holds a point of
    region i; it reads region_masks only, not the thresholds table."""
    nodes = np.linspace(0.0, 1.0, side)
    uu, vv = np.meshgrid(nodes, nodes, indexing="ij")
    return bool(np.any(region_masks(uu, vv, t)[i - 1]))


def test_criterion_07_region_thresholds():
    thresholds = {1: -0.75, 2: -4.0 / 9.0, 3: -4.0 / 13.0, 4: -4.0 / 13.0, 5: 0.5}
    ok = True
    details = []
    for i, thr in thresholds.items():
        # Non-empty below and empty above, by the grid search and the table.
        below = _region_on_grid(i, thr - 0.02) and region_nonempty(i, thr - 0.02)
        above = _region_on_grid(i, thr + 0.02) or region_nonempty(i, thr + 0.02)
        ok &= below and not above
        details.append(f"R{i}@{thr:+.3f}: {below}/{above}")
    _verdict(7, "region existence thresholds +-0.02", ok, "; ".join(details))


def test_criterion_08_witness_attainability():
    rng = np.random.default_rng(99)
    worst_gamma = worst_value = 0.0
    for _ in range(100):
        u, v = rng.random(2)
        t = rng.uniform(-1.0, 1.0)
        w = witness_copula(u, v, t)
        worst_gamma = max(worst_gamma, abs(gamma_quadrature(w, 4000) - t))
        worst_value = max(worst_value, abs(float(w(u, v)) - upper_bound(u, v, t).bound))
    ok = worst_gamma <= 1e-6 and worst_value <= 1e-9
    _verdict(8, "witness copulas attain the envelope", ok,
             f"gamma {worst_gamma:.2e}, value {worst_value:.2e}")


def test_criterion_09_oracle_soundness_and_convergence():
    started = time.monotonic()
    sound = True
    for u, v, t in CRITERION_09_GRID:
        mx = lp_extreme(8, u, v, t, "max")
        mn = lp_extreme(8, u, v, t, "min")
        up = float(upper_bound_values(u, v, t))
        lo = float(lower_bound_values(u, v, t))
        sound &= mx.optimum <= up + 1e-9 and mn.optimum >= lo - 1e-9
    target = float(np.sqrt(6.0) / 6.0)
    gaps = []
    for n in (4, 8, 16, 32):
        out = lp_extreme(n, 0.5, 0.5, 0.0, "max")
        sound &= out.optimum <= target + 1e-9
        gaps.append(target - out.optimum)
    nonincreasing = all(gaps[k + 1] <= gaps[k] + 1e-9 for k in range(len(gaps) - 1))
    elapsed = time.monotonic() - started
    ok = sound and nonincreasing and gaps[-1] <= 0.1 and elapsed <= 300.0
    _verdict(9, "LP oracle soundness and convergence", ok,
             f"gaps {['%.4f' % g for g in gaps]}, {elapsed:.0f}s")


def test_criterion_10_rank_statistic_extremes():
    ok = True
    for n in range(2, 11):
        up = RankSample(tuple((i, i) for i in range(1, n + 1)))
        down = RankSample(tuple((i, n + 1 - i) for i in range(1, n + 1)))
        ok &= gamma_rank_statistic(up) == 1.0 and gamma_rank_statistic(down) == -1.0
    _verdict(10, "rank statistic extremes for n=2..10", ok)


def test_criterion_11_monotonicity_in_t():
    uu, vv = lattice(100)
    worst = 0.0
    prev_up = prev_lo = None
    for t in np.linspace(-1.0, 1.0, 21):
        up = upper_bound_values(uu, vv, t)
        lo = lower_bound_values(uu, vv, t)
        if prev_up is not None:
            worst = min(worst, float(np.min(up - prev_up)), float(np.min(lo - prev_lo)))
        prev_up, prev_lo = up, lo
    _verdict(11, "envelopes nondecreasing in t (21-point sweep)", worst >= -1e-12,
             f"worst step {worst:.2e}")
