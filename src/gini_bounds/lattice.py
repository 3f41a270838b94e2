"""Uniform-lattice samples of bivariate functions, the envelope lattices,
and axiom checking.

A LatticeFunction stores node values f(i/N, j/N) on the (N+1) x (N+1)
uniform lattice.  Node values (not cell masses) are stored because the
bounds in this package are defined pointwise; conversions are explicit.

check_properties audits the boundary conditions, coordinatewise
monotonicity, the 1-Lipschitz condition in each coordinate, and
2-increasingness.  Single-cell volumes suffice for the latter: every
rectangle volume of the bilinear interpolant is a sum of cell volumes.

_triangle_lattice evaluates a function exactly symmetric in (u, v) on the
lattice's i <= j triangle only, and _envelope_lattice builds either
envelope from it, the lower one at the exact reflected nodes.
envelope_audit builds both envelopes at one t and audits them against the
axioms, their classification, the reflection identity and the
Frechet-Hoeffding sandwich: the `check` command's results.

Every lattice pass goes in groups of whole rows of at most bounds._BLOCK
points (_row_groups, the one statement of that rule), so that no temporary
but the lattices themselves is the size of a lattice.  The one exception
is the fixed-width CSV reader (_fixed_width_rows), which reads _READ_ROWS
file rows, one node each, at a time.
"""

from __future__ import annotations

import math
import os
import warnings
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .bounds import (
    _BLOCK, BoundClassification, classify_lower, classify_upper, lens_density_floor,
    upper_bound_values,
)
from .core import (
    Evaluator, _check_order, _check_real, _open_utf8, _real_array, check_t, frechet_lower,
    frechet_upper,
)
from .errors import DomainError

# 12 significant digits: below verdict tolerances, above float noise.
_CSV_FORMAT = "%.11e"
# A lattice CSV row as to_csv writes it when the value is >= 0 and has a
# two-digit exponent: three 17-byte _CSV_FORMAT fields, each followed by its
# separator, 54 bytes; the template is the row of three zeros.  Each byte lies
# at most _CSV_SPAN above the template's: a digit above '0', the exponent sign
# '+' to '-' (the ',' between them is ruled out apart), and the '.', the 'e'
# and the separators exactly.
_CSV_ROW = np.frombuffer((",".join([_CSV_FORMAT % 0.0] * 3) + "\n").encode(), np.uint8).reshape(3, 18)
_CSV_SPAN = np.select([_CSV_ROW == ord("0"), _CSV_ROW == ord("+")], [9, 2], 0).astype(np.uint8)
# A field's 12 significand digits, and their place values.
_SIGNIFICAND = [0, *range(2, 13)]
_PLACES = np.array([float(10**k) for k in range(11, -1, -1)])
# 10**k for k = 0..22, the powers of ten that are exact doubles.
_POW10 = np.array([float(10**k) for k in range(23)])
# Rows per group of the fixed-width reader (221 KB of text; the fastest of
# 512 to 16384 at order 200), and nodes per group of the flag writer (its
# tracemalloc peak about 165 KB at orders 200 and 400).
_READ_ROWS = 4096
_WRITE_NODES = 1024
# The axiom tolerance of envelope_audit.
_CHECK_TOL = 1e-10


def lattice_nodes(n: int) -> np.ndarray:
    """Nodes i/n, i = 0..n, of the order-n uniform lattice (n >= 1)."""
    n = _check_order(n, "lattice order")
    return np.arange(n + 1, dtype=float) / n


def _row_groups(lengths, block: int = _BLOCK) -> list:
    """Slices of consecutive rows that partition rows of the given (non-negative)
    lengths, in order, each at most `block` points (one row where a row alone
    is longer).  Each group takes as many rows as fit."""
    ends = [0, *accumulate(lengths)]  # ends[r]: the points in the rows before r
    groups, start = [], 0
    while start < len(ends) - 1:
        stop = max(start + 1, bisect_right(ends, ends[start] + block) - 1)
        groups.append(slice(start, stop))
        start = stop
    return groups


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of auditing a lattice function against the (quasi-)copula axioms.

    boundary_max_err      worst absolute deviation from C(t,0)=C(0,t)=0,
                          C(t,1)=C(1,t)=t over edge nodes
    monotonicity_min_step most negative forward difference along either axis
    lipschitz_max_excess  max of |df| - du - dv over single-step lattice moves
                          (positive means a violation)
    min_volume            smallest single-cell volume
    min_volume_rect       (i1, j1, i2, j2) node indices of the minimizing cell
    """

    boundary_max_err: float
    monotonicity_min_step: float
    lipschitz_max_excess: float
    min_volume: float
    min_volume_rect: tuple[int, int, int, int]
    is_quasicopula: bool
    is_copula: bool


@dataclass(frozen=True)
class LatticeFunction:
    """Values of a bivariate function on the uniform (N+1) x (N+1) lattice.

    The values must have an int or float dtype (core._real_array): a bool,
    string or object lattice is a DomainError naming its dtype.  NaN nodes
    are kept, for check_properties to report.
    """

    N: int
    values: np.ndarray  # shape (N+1, N+1); values[i][j] = f(i/N, j/N)

    def __post_init__(self):
        # A builtin int, so that a numpy-integer order leaves only builtin
        # ints and bools in check_properties' and envelope_audit's reports.
        object.__setattr__(self, "N", _check_order(self.N, "lattice order"))
        vals = _real_array(self.values, "lattice values")
        if vals.shape != (self.N + 1, self.N + 1):
            raise DomainError(
                f"values shape {vals.shape} does not match order N={self.N}"
            )
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_evaluator(cls, f: Evaluator, N: int) -> "LatticeFunction":
        nodes = lattice_nodes(N)
        uu, vv = np.meshgrid(nodes, nodes, indexing="ij")
        return cls(N, f(uu, vv))

    @property
    def nodes(self) -> np.ndarray:
        return lattice_nodes(self.N)

    def to_csv(self, path) -> None:
        """Write `u,v,value` rows in row-major node order, 12 significant digits."""
        with open(path, "w", newline="\n") as fh:
            write_node_csv(fh, self.N, {"value": self.values})

    @classmethod
    def from_csv(cls, path) -> "LatticeFunction":
        """Read a lattice CSV written by to_csv; malformed input is a DomainError.

        A file in to_csv's fixed-width layout is read as bytes
        (_fixed_width_rows); any other file, malformed ones included, is
        parsed by np.loadtxt (_loadtxt_rows).  Both give the nodes and the
        values, each field's float(), and the checks below run once on them.
        A wrong header, a short or long row, a value that is not a finite
        number, a byte that is not UTF-8, a row count that is not a square,
        or a node more than 1e-9 from its row-major position is a
        DomainError.
        """
        nodes, values = _fixed_width_rows(path) or _loadtxt_rows(path)
        side = round(len(values) ** 0.5)
        if side * side != len(values) or side < 2:
            raise DomainError(
                f"lattice CSV has {len(values)} rows, not a square node count"
            )
        n = side - 1
        grid = lattice_nodes(n)
        u, v = (nodes[:, k].reshape(side, side) for k in range(2))
        values = values.reshape(side, side)
        # Negated so that a NaN node fails too.
        off = ~(
            (np.abs(u - grid[:, None]) <= 1e-9) & (np.abs(v - grid[None, :]) <= 1e-9)
        )
        if off.any():
            k = int(np.argmax(off))
            i, j = divmod(k, side)
            raise DomainError(
                f"row {k}: node ({float(u[i, j])}, {float(v[i, j])}) does not "
                f"match row-major position ({i / n}, {j / n})"
            )
        if not np.all(np.isfinite(values)):
            k = int(np.argmin(np.isfinite(values)))
            raise DomainError(f"row {k}: value {float(values.flat[k])} is not finite")
        return cls(n, values)


def _fixed_width_rows(path) -> tuple[np.ndarray, np.ndarray] | None:
    """The (rows, 2) nodes and the (rows,) values of a lattice CSV in
    to_csv's fixed-width layout, or None if any byte of the file is out of
    that layout (_CSV_ROW).

    The body is read _READ_ROWS rows at a time.  A field is a 12-digit
    significand M < 2**53, exact in a double, and an exponent E; where
    0 <= 11 - E <= 22, 10**(11 - E) is exact too, and the one IEEE division
    M / 10**(11 - E) is the correctly rounded value of the field, the double
    float() reads (Clinger, "How to Read Floating Point Numbers Accurately",
    1990).  The fields with any other exponent are cast from their bytes,
    which parses each as float() does.  The values, which become the
    lattice, are allocated before every temporary, so that the lattice does
    not sit above the heap holes they leave (allocated after them, it raised
    a `grid-export` op's peak RSS by 2.6 MB).
    """
    with open(path, "rb") as fh:
        if fh.readline() != b"u,v,value\n":
            return None
        count, rest = divmod(os.fstat(fh.fileno()).st_size - fh.tell(), _CSV_ROW.size)
        if rest or count <= 0:
            return None
        values, nodes = np.empty(count), np.empty((count, 2))
        data = np.empty((min(count, _READ_ROWS), 3, 18), np.uint8)
        parsed = np.empty((len(data), 3))
        for start in range(0, count, _READ_ROWS):
            d, group = data[:count - start], parsed[:count - start]
            if fh.readinto(d) != d.nbytes:
                return None
            # Each byte less the template's: a digit's value, 0 or 2 at the
            # exponent sign ('+' or '-'), and 0 at every other byte.  Unsigned,
            # a byte below the template's wraps round above its span.
            np.subtract(d, _CSV_ROW, out=d)
            if not (np.all(d <= _CSV_SPAN) and np.all(d[:, :, 14] != 1)):
                return None
            sign, e1, e0 = np.moveaxis(d[:, :, 14:17].astype(np.intp), -1, 0)
            k = 11 + (sign - 1) * (10 * e1 + e0)  # 11 - E
            exact = (0 <= k) & (k <= 22)
            np.divide(np.einsum("rfk,k->rf", d[:, :, _SIGNIFICAND], _PLACES),
                      _POW10[np.where(exact, k, 0)], out=group)
            if not exact.all():
                r, f = np.nonzero(~exact)
                text = d[r, f, :17] + _CSV_ROW[f, :17]
                group[r, f] = text.view("S17").astype(float).ravel()
            nodes[start:start + len(group)] = group[:, :2]
            values[start:start + len(group)] = group[:, 2]
    return nodes, values


def _loadtxt_rows(path) -> tuple[np.ndarray, np.ndarray]:
    """The nodes and values of any lattice CSV, by np.loadtxt; a byte that
    is not UTF-8 (core._open_utf8), a wrong header, or a row that is not
    three numbers is a DomainError."""
    fh = _open_utf8(path, "malformed lattice CSV: ")
    line = fh.readline()
    header = line.rstrip("\r\n").split(",") if line else None
    if header != ["u", "v", "value"]:
        raise DomainError(f"unexpected lattice CSV header: {header}")
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            rows = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        raise DomainError(f"malformed lattice CSV: {exc}") from None
    if len(rows) and rows.shape[1] != 3:
        raise DomainError(f"lattice CSV rows have {rows.shape[1]} columns, not 3")
    rows = rows.reshape(-1, 3)
    return rows[:, :2], np.ascontiguousarray(rows[:, 2])


def write_node_csv(fh, n: int, columns: dict) -> None:
    """Write node-indexed CSV for the order-n lattice to the text stream fh.

    The header is `u,v` followed by the column names; then one row per
    node (i/n, j/n) in row-major order.  Each column is an (n+1) x (n+1)
    array, and the columns are one of the two layouts the package writes
    (to_csv, and the `grid` and `regions` commands, all write through it):
    a single float column, written with _CSV_FORMAT, or one or more boolean
    columns, written 0/1.  This is the one definition of the lattice and
    atlas CSV format.

    A float column's lattice row is one printf template, `u,v,<field>` for
    every v, filled by one `%` call, so the numbers are formatted in C.  A
    row of k flag columns has a fixed width, as every node text is 17 bytes
    (46 bytes a row for the five region flags of the atlas), so a group of
    about _WRITE_NODES nodes (_row_groups) is one byte array: copies of a
    lattice row's template, with each row's u text put in and each flag
    added to its '0'.
    Nothing the size of the lattice is built, and a mis-shaped column or any
    other layout is rejected before any byte is written.
    """
    nodes = lattice_nodes(n)
    arrays = [np.asarray(col) for col in columns.values()]
    side = (n + 1, n + 1)
    for name, col in zip(columns, arrays):
        if col.shape != side:
            raise DomainError(f"column {name!r} has shape {col.shape}, not {side}")
    flags = [col.dtype == bool for col in arrays]
    if flags != [False] and not (flags and all(flags)):
        raise DomainError(f"columns {list(columns)} are not one float column or only flag columns")
    node_text = [_CSV_FORMAT % x for x in nodes.tolist()]
    fh.write(",".join(["u", "v", *columns]) + "\n")
    if not flags[0]:
        cells = [f",{v},{_CSV_FORMAT}\n" for v in node_text]
        for i, u in enumerate(node_text):
            fh.write((u + u.join(cells)) % tuple(arrays[0][i].tolist()))
        return
    text = np.frombuffer("".join(node_text).encode("ascii"), np.uint8).reshape(n + 1, -1)
    w = text.shape[1]
    groups = _row_groups([n + 1] * (n + 1), _WRITE_NODES)
    # The first group's rows of `u,v,f1,...,fk\n` for every v: the commas,
    # v texts and line ends stay; each group puts in its u texts and flags.
    block = np.full((groups[0].stop, n + 1, 2 * w + 2 * len(arrays) + 2), ord(","), np.uint8)
    block[:, :, w + 1:2 * w + 1] = text
    block[:, :, -1] = ord("\n")
    for rows in groups:
        out = block[:rows.stop - rows.start]
        out[:, :, :w] = text[rows, None, :]
        for k, col in enumerate(arrays):
            np.add(col[rows], ord("0"), out=out[:, :, 2 * w + 2 + 2 * k], dtype=np.uint8)
        fh.write(out.tobytes().decode("ascii"))


def check_properties(g: LatticeFunction, tol: float = 1e-9) -> PropertyReport:
    """Audit a lattice function against the quasi-copula and copula axioms.

    Verdicts use the single tolerance ``tol``, a finite real >= 0: the
    function is a quasi-copula if boundary error, monotonicity and
    Lipschitz excess pass at tol, and a copula if additionally
    min_volume >= -tol.  tol goes through core._check_real, and the
    verdicts compare the Python number it returns: a 0-d array and a huge
    int are tolerances too, a Fraction is compared exactly, and the
    verdicts are bools.

    The forward differences and cell volumes are taken one group of cell
    rows at a time (_row_groups); every field equals the whole-array
    reduction's, a NaN propagates as it would there, and min_volume_rect is
    the first minimal cell in row-major order, as numpy's argmin picks it.
    """
    if not 0.0 <= (tol := _check_real(tol, "tolerance")) < math.inf:
        raise DomainError(f"tolerance must be a finite real number >= 0, got {tol!r}")
    v = g.values
    n = g.N
    nodes = g.nodes

    boundary = max(
        float(np.max(np.abs(v[:, 0]))),
        float(np.max(np.abs(v[0, :]))),
        float(np.max(np.abs(v[:, n] - nodes))),
        float(np.max(np.abs(v[n, :] - nodes))),
    )

    extremes, minima = [], []
    for cells in _row_groups([n + 1] * n):
        # The group's cell rows and the lattice row below them; the last
        # group's dv takes in the final lattice row too.
        rows = v[cells.start:cells.stop + 1]
        du = rows[1:] - rows[:-1]
        dv_rows = rows if cells.stop == n else rows[:-1]
        dv = dv_rows[:, 1:] - dv_rows[:, :-1]
        # The maxima negated, so that one min reduces all four.
        extremes.append((du.min(), dv.min(), -du.max(), -dv.max()))
        vols = rows[1:, 1:] - rows[1:, :-1] - rows[:-1, 1:] + rows[:-1, :-1]
        k = int(np.argmin(vols))
        minima.append((vols.item(k), cells.start * n + k))
    du_min, dv_min, du_neg, dv_neg = np.min(extremes, axis=0).tolist()
    mono = min(du_min, dv_min)

    step = 1.0 / n
    # max|d| = max(d.max(), -d.min()) exactly, without an abs temporary.
    lip = max(-du_neg, -du_min, -dv_neg, -dv_min) - step

    # argmin's rule across the groups as within one: the first least, or the first NaN.
    min_vol, flat = minima[int(np.argmin([vol for vol, _ in minima]))]
    i, j = divmod(flat, n)

    is_quasi = boundary <= tol and mono >= -tol and lip <= tol
    is_cop = is_quasi and min_vol >= -tol

    return PropertyReport(
        boundary_max_err=boundary,
        monotonicity_min_step=mono,
        lipschitz_max_excess=lip,
        min_volume=min_vol,
        min_volume_rect=(i, j, i + 1, j + 1),
        is_quasicopula=is_quasi,
        is_copula=is_cop,
    )


def _triangle_lattice(f, n: int, t: float) -> np.ndarray:
    """f(u, v, t) on the order-n lattice, for an f exactly symmetric in (u, v).

    f is evaluated once on the nodes with i <= j, one group of whole rows
    of that triangle per call (_row_groups).  Row r of a group is written to
    out[..., r, r:]; the group's rows r0..r1-1 are then mirrored by one
    transposed copy of the rectangle right of its diagonal block, and the
    block's own upper half.  f may return a leading stack axis, as
    region_masks does with its five masks; the lattice axes come last.
    """
    nodes = lattice_nodes(n)
    side = n + 1
    out = None
    for group in _row_groups(range(side, 0, -1)):
        r0, r1 = group.start, group.stop
        rows = range(r0, r1)
        u = np.repeat(nodes[r0:r1], [side - r for r in rows])
        v = np.concatenate([nodes[r:] for r in rows])
        tri = np.asarray(f(u, v, t))
        if out is None:
            out = np.empty(tri.shape[:-1] + (side, side), dtype=tri.dtype)
        start = 0
        for r in rows:
            out[..., r, r:] = tri[..., start:start + side - r]
            start += side - r
        out[..., r1:, r0:r1] = out[..., r0:r1, r1:].swapaxes(-1, -2)
        block = out[..., r0:r1, r0:r1]
        np.copyto(block, block.swapaxes(-1, -2), where=np.tri(r1 - r0, k=-1, dtype=bool))
    return out


def _envelope_lattice(side: str, t: float, n: int) -> LatticeFunction:
    """One side's envelope on the order-n lattice, from one upper lattice.

    The upper envelope K depends on (u, v) only through max and min, so its
    lattice is exactly symmetric and _triangle_lattice builds it.  The lower
    envelope is the reflection v - K(1 - u, v, -t): entry (i, j) is
    v_j - K((n - i)/n, v_j, -t), read off the upper lattice at -t, row n - i,
    at the exact node (n - i)/n rather than the rounded 1 - i/n that
    lower_bound_values reflects to, so the two agree within 1e-15, and bit
    for bit when n is a power of two; the subtraction overwrites that
    lattice in place.  Entry (j, i) is then the other reflection form
    u_i - K(u_i, (n - j)/n, -t), a different entry of the same -t lattice
    off the diagonal, which envelope_audit compares with (i, j).
    """
    nodes = lattice_nodes(n)
    t = check_t(t)  # before the lower side negates it, so that an error names the t given
    if side == "upper":
        return LatticeFunction(n, _triangle_lattice(upper_bound_values, n, t))
    reflected = _triangle_lattice(upper_bound_values, n, -t)[::-1]
    return LatticeFunction(n, np.subtract(nodes, reflected, out=reflected))


@dataclass(frozen=True)
class EnvelopeAudit:
    """Both envelopes at one t, audited on the order-n lattice.

    The fields are the `check` report's results; dataclasses.asdict gives
    them as the report prints them.

    upper_classification, lower_classification
        classify_upper(t) and classify_lower(t), as their string values
    upper_report, lower_report
        check_properties of each envelope lattice, at tolerance 1e-10
    upper_min_volume_cell_distance_to_density_minimiser
        distance, in cells, from the upper report's min_volume_rect to the
        nearest minimiser of lens_density_floor(t); None without a lens
    upper_lens_floor_cell_volume, lower_lens_floor_cell_volume
        D*(t) / n^2 and D*(-t) / n^2, the least volume an order-n cell can
        have in each envelope's lens; None where it has no lens
    reflection_max_err
        largest difference between the two reflection forms of the lower
        envelope, lower[i, j] - lower[j, i]
    sandwich_max_violation
        largest excess in W <= lower <= upper <= M over the nodes
    checks
        the verdicts; the audit passes when all of them hold
    """

    upper_classification: str
    lower_classification: str
    upper_report: PropertyReport
    lower_report: PropertyReport
    upper_min_volume_cell_distance_to_density_minimiser: float | None
    upper_lens_floor_cell_volume: float | None
    lower_lens_floor_cell_volume: float | None
    reflection_max_err: float
    sandwich_max_violation: float
    checks: dict


def envelope_audit(t: float, n: int) -> EnvelopeAudit:
    """Audit the upper and lower envelopes at t on the order-n lattice.

    A t outside [-1, 1] or NaN, or an order that is not an integer >= 1, is
    a DomainError.  Beyond the two lattices, nothing the size of a lattice
    is built: the reflection and sandwich maxima are taken in one pass of
    row groups (_row_groups), with W and M taken per group from the nodes.
    """
    cls_up, cls_lo = classify_upper(t), classify_lower(t)
    # The lens, where an envelope's density is negative, exists exactly where
    # the envelope is a proper quasi-copula.  The lower envelope reflects the
    # upper one at -t, density and all.
    quasi = BoundClassification.PROPER_QUASI_COPULA
    lens_up = lens_density_floor(t) if cls_up is quasi else None
    lens_lo = lens_density_floor(-t) if cls_lo is quasi else None

    upper, lower = (_envelope_lattice(side, t, n) for side in ("upper", "lower"))
    rep_up, rep_lo = (check_properties(lf, tol=_CHECK_TOL) for lf in (upper, lower))
    # The order as the lattice stores it, a builtin int (_check_order).
    up, lo, nodes, n = upper.values, lower.values, upper.nodes, upper.N
    # Per group, the largest of: the two reflection forms' difference,
    # v_j - K((n - i)/n, v_j, -t) at lo[i, j] less u_i - K(u_i, (n - j)/n, -t)
    # at lo[j, i] (float subtraction is antisymmetric, so this is the largest
    # abs); and each of W - lower, lower - upper and upper - M.
    maxima = np.max([
        [np.max(lo[rows] - lo[:, rows].T),
         np.max(frechet_lower(nodes[rows, None], nodes) - lo[rows]),
         np.max(lo[rows] - up[rows]),
         np.max(up[rows] - frechet_upper(nodes[rows, None], nodes))]
        for rows in _row_groups([n + 1] * (n + 1))
    ], axis=0).tolist()
    reflection_err, sandwich_err = maxima[0], max(maxima[1:])

    distance = None
    if lens_up is not None:
        i, j = rep_up.min_volume_rect[:2]
        distance = min(max(abs(i + 0.5 - p * n), abs(j + 0.5 - p * n)) for p in lens_up[1])
    return EnvelopeAudit(
        upper_classification=cls_up.value,
        lower_classification=cls_lo.value,
        upper_report=rep_up,
        lower_report=rep_lo,
        upper_min_volume_cell_distance_to_density_minimiser=distance,
        upper_lens_floor_cell_volume=None if lens_up is None else lens_up[0] / (n * n),
        lower_lens_floor_cell_volume=None if lens_lo is None else lens_lo[0] / (n * n),
        reflection_max_err=reflection_err,
        sandwich_max_violation=sandwich_err,
        checks={
            "upper_quasicopula": rep_up.is_quasicopula,
            "lower_quasicopula": rep_lo.is_quasicopula,
            "upper_copula_matches_classification": rep_up.is_copula == (lens_up is None),
            "lower_copula_matches_classification": rep_lo.is_copula == (lens_lo is None),
            "reflection_identity": reflection_err <= 1e-12,
            "sandwich": sandwich_err <= 1e-12,
        },
    )
