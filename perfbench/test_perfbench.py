"""Tests of the benchmark itself: its references, its checks, its tracer.

The negative controls plant one small fault in an op's outputs and require
the workload's check to report it, so that a check which passes everything
cannot go unnoticed.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import gini_bounds as gb

import reference as ref
import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


def test_reference_envelope_matches_program():
    rng = np.random.default_rng(5)
    u, v = rng.uniform(0.0, 1.0, (2, 300))
    # Distinguished targets too, but not t = -1: there gamma is flat in theta
    # at W, so no bisection on gamma can place theta to 1e-12.
    t = np.concatenate([rng.uniform(-0.98, 0.98, 290),
                        [-0.99, -0.75, -0.5, -4 / 9, -4 / 13, -0.1, 0.0, 0.25, 0.5, 1.0]])
    want_up = np.array([gb.upper_bound_values(a, b, c) for a, b, c in zip(u, v, t)])
    want_lo = np.array([gb.lower_bound_values(a, b, c) for a, b, c in zip(u, v, t)])
    assert np.abs(ref.upper_envelope(u, v, t) - want_up).max() <= 1e-12
    assert np.abs(ref.lower_envelope(u, v, t) - want_lo).max() <= 1e-12


def test_reference_gamma_matches_closed_form():
    rng = np.random.default_rng(6)
    a, b, share = rng.uniform(0.0, 1.0, (3, 100))
    lo, hi = np.maximum(0.0, a + b - 1.0), np.minimum(a, b)
    theta = lo + share * (hi - lo)
    want = [gb.lower_point_bound_gamma(gb.PointBoundSpec(*p)).value for p in zip(a, b, theta)]
    assert np.abs(ref.pinned_gamma(a, b, theta) - want).max() <= 1e-13


def test_reference_rank_statistic_and_classes():
    rng = np.random.default_rng(7)
    pairs = list(zip(rng.permutation(301) + 1, rng.permutation(301) + 1))
    assert ref.rank_statistic(pairs) == gb.gamma_rank_statistic(gb.RankSample(tuple(pairs)))
    for t in (-1.0, -0.75, -0.5, -0.1, 0.0, 0.3, 0.5, 0.9, 1.0):
        assert ref.classify(t) == (gb.classify_upper(t).value, gb.classify_lower(t).value)
    # The two forms of the lens floor meet at t = -2/3.
    assert ref.lens_density_floor(-2 / 3) == pytest.approx(-2 / 9, abs=1e-15)
    assert ref.lens_density_floor(-2 / 3 - 1e-9) == pytest.approx(-2 / 9, abs=1e-8)


@pytest.fixture(scope="module")
def point_queries():
    wl = workloads.PointQueries(7, "")
    wl.prepare_checks()
    return wl, wl.op()


def test_point_queries_batch_covers_every_region(point_queries):
    wl, _ = point_queries
    seen = set()
    for u, v, t in wl.points:
        hit = [k for k in range(1, 6) if gb.region_contains(k, u, v, t)]
        seen.update(hit or [0])
    assert seen == {0, 1, 2, 3, 4, 5}
    assert len(wl.points) == 200
    same = workloads.PointQueries(7, "")
    assert np.array_equal(same.points, wl.points) and same.pairs == wl.pairs


def test_point_queries_negative_controls(point_queries):
    wl, out = point_queries
    assert wl.check(out) == []

    shifted = dict(out, upper=[out["upper"][0] + 1e-6] + out["upper"][1:])
    assert any("upper envelope" in p for p in wl.check(shifted))
    shifted = dict(out, lower=out["lower"][:-1] + [out["lower"][-1] - 1e-6])
    assert any("lower envelope" in p for p in wl.check(shifted))

    pairs = list(wl.pairs)
    j = next(j for j in range(1, len(pairs))
             if ref.rank_statistic([(pairs[j][0], pairs[0][1]), (pairs[0][0], pairs[j][1])])
             != ref.rank_statistic([pairs[0], pairs[j]]))
    (r0, s0), (rj, sj) = pairs[0], pairs[j]
    pairs[0], pairs[j] = (rj, s0), (r0, sj)
    swapped = gb.gamma_rank_statistic(gb.RankSample(tuple(pairs)))
    assert any("rank statistic" in p for p in wl.check(dict(out, statistic=swapped)))


def test_lp_certify_negative_controls():
    wl = workloads.LpCertify(0, "")
    wl.prepare_checks()
    out = wl.op()
    assert wl.check(out) == []

    def with_result(k, **changes):
        code, text = out[k]
        report = json.loads(text)
        report["results"].update(changes)
        return out[:k] + [(code, json.dumps(report))] + out[k + 1:]

    above = wl.ref_upper[0] + 1e-5
    assert any("escapes the reference" in p for p in wl.check(with_result(1, lp_max=above)))
    coarse_max = json.loads(out[0][1])["results"]["lp_max"]
    assert any("narrower" in p for p in wl.check(with_result(1, lp_max=coarse_max - 1e-6)))


def test_grid_export_negative_control(tmp_path):
    wl = workloads.GridExport(3, str(tmp_path))
    wl.prepare_checks()
    out = wl.op()
    assert wl.check(out) == []
    lines = Path(wl.grid_path).read_text().splitlines(keepends=True)
    row = 1 + int(wl.spots[0])
    u, v, value = lines[row].rstrip("\n").split(",")
    lines[row] = f"{u},{v},{float(value) + 1e-6:.11e}\n"
    Path(wl.grid_path).write_text("".join(lines))
    assert any("bisection reference" in p for p in wl.check(out))
    wl.close()
    assert not any(tmp_path.iterdir())


def test_envelope_audit_negative_control():
    wl = workloads.EnvelopeAudit(0, "")
    wl.TS, wl.argvs = wl.TS[2:3], wl.argvs[2:3]  # t = -0.1 alone
    out = wl.op()
    assert wl.check(out) == []
    report = json.loads(out[0][1])
    report["results"]["upper_report"]["min_volume"] *= 0.5
    assert any("min_volume" in p for p in wl.check([(0, json.dumps(report))]))


def test_tracer_self_times_add_up_and_restore():
    original = gb.upper_bound
    tracer = tracing.Tracer()
    assert tracer.missing == []
    wl = workloads.PointQueries(2, "")
    for _ in range(2):
        tracer.run(wl.op)
    assert gb.upper_bound is original
    m = tracer.metrics(untraced_ms=1.0, csv_bytes=0)
    assert m["trace.layers_self_ms"] + m["trace.unattributed_ms"] == pytest.approx(
        m["trace.op_traced_ms"], rel=1e-9)
    assert m["ranks.RankSample.self_ms"] > 0 and m["bounds.witness_copula.self_ms"] > 0
    assert tracer.calls["bounds.upper_bound"] == 2 * 400 + 2 * 4  # lower_bound and witnesses call it
    assert set(m) == {name for name, _, _ in tracing.METRICS}


def test_benchmark_json_matches_the_metrics_reported():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.METRICS)


def test_tail_has_ten_samples_beyond_it():
    pct, value = run._tail([float(x) for x in range(40)])
    assert (pct, value) == (75.0, 29.0)
