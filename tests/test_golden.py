"""Bit-level regression pins of both envelopes, of their CSV bytes and of
the `check` and `oracle` reports.

Each test hashes outputs that every correctly rounded IEEE-754 build computes
alike: the envelopes use only +, -, *, / and sqrt, the CSV writer prints
each double correctly rounded to 12 significant digits, and the `check`
report adds only differences, extrema and the lens floor's closed form,
printed as shortest round-trip reprs.  The `oracle` report's LP optima
are exact rationals, rounded once.  A change that moves any bit fails here;
such a change updates the hash and records the move, with its size, in
CHANGES.md.
"""

import hashlib
import random

import numpy as np
import pytest

from _support import SEAM_T, lattice
from gini_bounds import (
    LatticeFunction,
    lower_bound,
    lower_bound_values,
    region_masks,
    upper_bound,
    upper_bound_values,
)
from gini_bounds.cli import main

# sha256 pins; see the module docstring before changing one.
UPPER_LATTICES = "f5557ade89b4761539bff83c18f25a78623371d5815087eef45b9e45d703dc7a"
LOWER_LATTICES = "34516eb58e20630ad1089b5caf549edb1765f803ca9bf598f75be7b5e3348b57"
REGION_MASKS = "73e047278e654399ef22181b0a80f6060fe287ed0bd6c62d9d29471f8778d513"
UPPER_RECORDS = "615d87d4f8937273444f24ee4010035270e7c49e15680811dd8dd6a56d158b93"
LOWER_VALUES = "201a7a8f3977ff18beb28e503232c7cfac17767330ad6b538d202c3990576cff"
# CSV bytes of the order-60 lattice at every seam t.
GRID_CSV = {
    "upper": "a86102292084d428e716addc6b2d3a0ea064691f317fb350d29f893e22d3e33e",
    "lower": "35e9fc179c4faddd84a7aed1931e4fcbf1e4fc2f136524235bf2e9003456c96b",
}
REGIONS_CSV = "716747fe218deb421106d7f38be0e947c95a47ff05069440d9f6dcb47cf81227"
TO_CSV = "f1da4c0097cf7fcf458d834495a4b7598327cca616f1e75e6b78a506bfe5d913"
# The `check --t T --grid 400` JSON report without its elapsed_ms line, at
# each t of the envelope-audit benchmark and at -1, 0 and 1.
CHECK_REPORTS = {
    "-1": "af744e4d16f7cbdbb2c708baa8d78f8327925b3cb065e197878243a48199f004",
    "-0.9": "286a239868eed265fa5dad0a0b36724e02c323cb39f64a8a36a32337a157fcd6",
    "-0.5": "c994c23667d385f1c5803204f7a28ebdbb1ae791c5602c53c34081480adb2103",
    "-0.1": "19fc17dfafffbda647d29277b901237ef820d4b2e28651eb18f6f5f2701afbb6",
    "0": "d839427866eabc30ab6212b155202d1048036e5d62134a3e15d6fde3c47c4a79",
    "0.2": "c0bb10337176f917cadce8b8acfd455370157115824fc1e93a2292f57d889852",
    "0.45": "374deb06196bf01d5910d5840f25322ddc6cad6686b0024f0d18c6c980d51041",
    "0.7": "cdf24b52c1ad67d63b7fa1a13968133e7de3e67673c9a2bcfd78e9b0da910c04",
    "1": "db86d82e55124fc974320b685f5ae780c8525938be999e6ab8af823fc365c5e9",
}
# The `oracle` JSON report without its elapsed_ms line, keyed "u v t n": the
# four lp-certify points at orders 8 and 16, and the centre at 4 and 32.
ORACLE_REPORTS = {
    "0.5 0.5 0.0 8": "75123b509e63b566c8d3360291c258488530b0f712d291e359eede7a18b8f190",
    "0.5 0.5 0.0 16": "ce56fe1fd8bb6a8e402657e2d5fb94ed375e87a4fb08b0744320bbf660dbda65",
    "0.3 0.7 -0.4 8": "858555dacf2826227f220de9496616e54fe82eec855bc883687f6f5b5143407b",
    "0.3 0.7 -0.4 16": "66309cb7c2907c54489cd45f3b8d512017869a5319ff2a8c08816dda3bf86c64",
    "0.6 0.35 0.3 8": "8fa05fbc086c113f4c26588419b946695ac8d4d9cca8ac530f1a97940775d589",
    "0.6 0.35 0.3 16": "4a120cd3bd83e6250dfad31595a289dbf6be9566d7466f1ff3f90e08122cf850",
    "0.7 0.4 -0.7 8": "a0056a6b0bbd4407be4a4621eb51b01d1e93cc3987715e60bff25c910b50bd21",
    "0.7 0.4 -0.7 16": "043a737a0229944dad9f25e1c21b9c153703cc810ef73f251590cfbf02102f2f",
    "0.5 0.5 0.0 4": "3959a8c9a64992e977f2867fa362f1e2b0599b0cef019ade56726b77071efdff",
    "0.5 0.5 0.0 32": "cf7f10a9d56f739fec49b96dc0eae5ea620e717045764e343652276c202f4e76",
}

# A 401^2 lattice; k / 400 is one correctly rounded division per node.
_UU, _VV = lattice(400)


def _points(count=20000, seed=14):
    """Seeded (u, v, t); half the t uniform on [-1, 1], half from SEAM_T.

    random.Random.random is reproducible across Python versions for one seed.
    """
    rng = random.Random(seed)
    points = []
    for k in range(count):
        t = rng.uniform(-1.0, 1.0) if k % 2 else SEAM_T[rng.randrange(len(SEAM_T))]
        points.append((rng.random(), rng.random(), t))
    return points


def _lattice_digest(evaluate):
    """sha256 of evaluate on the lattice at every seam t, as little-endian float64."""
    h = hashlib.sha256()
    for t in SEAM_T:
        h.update(np.asarray(evaluate(_UU, _VV, t), dtype="<f8").tobytes())
    return h.hexdigest()


def _text_digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_upper_lattices_at_the_seams():
    assert _lattice_digest(upper_bound_values) == UPPER_LATTICES


def test_lower_lattices_at_the_seams():
    assert _lattice_digest(lower_bound_values) == LOWER_LATTICES


def test_region_masks_at_the_seams():
    assert _lattice_digest(lambda u, v, t: np.stack(region_masks(u, v, t))) == REGION_MASKS


def test_scalar_upper_records():
    # repr covers every ThetaReport field: values, types and None candidates.
    assert _text_digest([repr(upper_bound(*p)) for p in _points()]) == UPPER_RECORDS


def test_scalar_lower_values():
    assert _text_digest([repr(lower_bound(*p)) for p in _points()]) == LOWER_VALUES



def _csv_digest(write):
    """sha256 of the CSV bytes write(t) returns at every seam t, in order."""
    h = hashlib.sha256()
    for t in SEAM_T:
        h.update(write(t))
    return h.hexdigest()


def _cli_stdout(capsys, *argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out.encode()


def _cli_file(path, *argv):
    assert main([*argv, "--out", str(path)]) == 0
    return path.read_bytes()


@pytest.mark.parametrize("side", ["upper", "lower"])
def test_grid_csv_through_stdout(capsys, side):
    def write(t):
        return _cli_stdout(capsys, "grid", f"--t={t!r}", "--side", side, "--n", "60")

    assert _csv_digest(write) == GRID_CSV[side]


@pytest.mark.parametrize("side", ["upper", "lower"])
def test_grid_csv_through_out(tmp_path, side):
    def write(t):
        return _cli_file(tmp_path / "g.csv", "grid", f"--t={t!r}", "--side", side, "--n", "60")

    assert _csv_digest(write) == GRID_CSV[side]


def test_regions_csv(capsys):
    def write(t):
        return _cli_stdout(capsys, "regions", f"--t={t!r}", "--n", "60")

    assert _csv_digest(write) == REGIONS_CSV


def test_lattice_to_csv(tmp_path):
    path = tmp_path / "l.csv"

    def write(t):
        out = b""
        for evaluate in (upper_bound_values, lower_bound_values):
            LatticeFunction.from_evaluator(lambda u, v: evaluate(u, v, t), 60).to_csv(path)
            out += path.read_bytes()
        return out

    assert _csv_digest(write) == TO_CSV


@pytest.mark.parametrize("t", list(CHECK_REPORTS))
def test_check_report(capsys, t):
    lines = _cli_stdout(capsys, "check", "--t", t, "--grid", "400").decode().splitlines(True)
    report = "".join(line for line in lines if not line.startswith('  "elapsed_ms": '))
    assert _text_digest([report]) == CHECK_REPORTS[t]


@pytest.mark.parametrize("key", list(ORACLE_REPORTS))
def test_oracle_report(capsys, key):
    u, v, t, n = key.split()
    lines = _cli_stdout(capsys, "oracle", "--t", t, "--n", n, "--u", u, "--v", v).decode()
    report = "".join(
        line for line in lines.splitlines(True) if not line.startswith('  "elapsed_ms": ')
    )
    assert _text_digest([report]) == ORACLE_REPORTS[key]
