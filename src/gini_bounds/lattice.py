"""Uniform-lattice samples of bivariate functions and axiom checking.

A LatticeFunction stores node values f(i/N, j/N) on the (N+1) x (N+1)
uniform lattice.  Node values (not cell masses) are stored because the
bounds in this package are defined pointwise; conversions are explicit.

check_properties audits the boundary conditions, coordinatewise
monotonicity, the 1-Lipschitz condition in each coordinate, and
2-increasingness.  Single-cell volumes suffice for the latter: every
rectangle volume of the bilinear interpolant is a sum of cell volumes.
It reads the lattice in row strips of at most bounds._BLOCK points
(_row_strips), so that no temporary is the size of the lattice.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from itertools import chain, groupby, product

import numpy as np

from .bounds import _BLOCK
from .core import Evaluator, _check_order
from .errors import DomainError

# 12 significant digits: below verdict tolerances, above float noise.
_CSV_FORMAT = "%.11e"


def lattice_nodes(n: int) -> np.ndarray:
    """Nodes i/n, i = 0..n, of the order-n uniform lattice (n >= 1)."""
    _check_order(n, "lattice order")
    return np.arange(n + 1, dtype=float) / n


def _row_strips(rows: int, width: int) -> list:
    """Slices of consecutive rows of a rows x width array, in order, each at
    most _BLOCK points (one row where a row alone is wider)."""
    step = max(1, _BLOCK // width)
    return [slice(start, min(start + step, rows)) for start in range(0, rows, step)]


def _cell_volumes(v: np.ndarray) -> np.ndarray:
    """Volumes of the cells between consecutive rows and columns of v."""
    return v[1:, 1:] - v[1:, :-1] - v[:-1, 1:] + v[:-1, :-1]


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
    """Values of a bivariate function on the uniform (N+1) x (N+1) lattice."""

    N: int
    values: np.ndarray  # shape (N+1, N+1); values[i][j] = f(i/N, j/N)

    def __post_init__(self):
        lattice_nodes(self.N)  # rejects orders below 1
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.N + 1, self.N + 1):
            raise DomainError(
                f"values shape {vals.shape} does not match order N={self.N}"
            )
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_evaluator(cls, f: Evaluator, N: int) -> "LatticeFunction":
        nodes = lattice_nodes(N)
        uu, vv = np.meshgrid(nodes, nodes, indexing="ij")
        return cls(N, np.asarray(f(uu, vv), dtype=float))

    @property
    def nodes(self) -> np.ndarray:
        return lattice_nodes(self.N)

    def cell_volumes(self) -> np.ndarray:
        """Volumes of all N x N single cells of the bilinear interpolant."""
        return _cell_volumes(self.values)

    def to_csv(self, path) -> None:
        """Write `u,v,value` rows in row-major node order, 12 significant digits."""
        with open(path, "w", newline="\n") as fh:
            write_node_csv(fh, self.N, {"value": self.values})

    @classmethod
    def from_csv(cls, path) -> "LatticeFunction":
        """Read a lattice CSV written by to_csv; malformed input is a DomainError."""
        with open(path, newline="") as fh:
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
        side = round(len(rows) ** 0.5)
        if side * side != len(rows) or side < 2:
            raise DomainError(
                f"lattice CSV has {len(rows)} rows, not a square node count"
            )
        n = side - 1
        nodes = lattice_nodes(n)
        u, v, values = (rows[:, k].reshape(side, side) for k in range(3))
        # Negated so that a NaN node fails too.
        off = ~(
            (np.abs(u - nodes[:, None]) <= 1e-9) & (np.abs(v - nodes[None, :]) <= 1e-9)
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
        return cls(n, np.ascontiguousarray(values))


def write_node_csv(fh, n: int, columns: dict) -> None:
    """Write node-indexed CSV for the order-n lattice to the text stream fh.

    The header is `u,v` followed by the column names; then one row per
    node (i/n, j/n) in row-major order.  Each column is an (n+1) x (n+1)
    array: float columns use _CSV_FORMAT, boolean columns are written 0/1.
    This is the one definition of the lattice and atlas CSV format.

    Each lattice row is one printf template, `u,v,<fields>` for every v,
    filled by one `%` call.  A run of k adjacent boolean columns fills one
    `%s` field per node from a table of its 2**k texts, indexed by the
    node's k flags read as a binary number.  Nothing the size of the
    lattice is built, and a mis-shaped column is rejected before any byte
    is written.
    """
    nodes = lattice_nodes(n)
    arrays = [np.asarray(col) for col in columns.values()]
    side = (n + 1, n + 1)
    for name, col in zip(columns, arrays):
        if col.shape != side:
            raise DomainError(f"column {name!r} has shape {col.shape}, not {side}")
    groups = _column_groups(arrays)
    fields = "".join("," + (_CSV_FORMAT if table is None else "%s") for _, table in groups)
    node_text = [_CSV_FORMAT % x for x in nodes.tolist()]
    cells = [f",{v}{fields}\n" for v in node_text]
    fh.write(",".join(["u", "v", *columns]) + "\n")
    for i, u in enumerate(node_text):
        rows = [_group_row(cols, table, i) for cols, table in groups]
        args = rows[0] if len(rows) == 1 else chain.from_iterable(zip(*rows))
        fh.write((u + u.join(cells)) % tuple(args))


def _column_groups(arrays: list) -> list:
    """(columns, table) per CSV field: a float column alone, with table None,
    or a run of adjacent boolean columns, with its texts in bit order (the
    first column is the most significant bit)."""
    groups = []
    for is_flag, run in groupby(arrays, key=lambda col: col.dtype == bool):
        if is_flag:
            run = list(run)
            table = [",".join(bits) for bits in product("01", repeat=len(run))]
            groups.append((run, table))
        else:
            groups.extend(([col], None) for col in run)
    return groups


def _group_row(cols: list, table, i: int) -> list:
    """Row i of a group: floats for a float column, texts for a flag run."""
    if table is None:
        return cols[0][i].tolist()
    code = cols[0][i].astype(np.intp)
    for col in cols[1:]:
        code <<= 1
        code |= col[i]
    return list(map(table.__getitem__, code.tolist()))


def check_properties(g: LatticeFunction, tol: float = 1e-9) -> PropertyReport:
    """Audit a lattice function against the quasi-copula and copula axioms.

    Verdicts use the single tolerance ``tol``, a finite real >= 0: the
    function is a quasi-copula if boundary error, monotonicity and
    Lipschitz excess pass at tol, and a copula if additionally
    min_volume >= -tol.

    The forward differences and cell volumes are taken one strip of cell
    rows at a time (_row_strips); every field equals the whole-array
    reduction's, a NaN propagates as it would there, and min_volume_rect is
    the first minimal cell in row-major order, as numpy's argmin picks it.
    """
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0.0 <= tol < math.inf:
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

    du_mins, du_maxs, dv_mins, dv_maxs = [], [], [], []
    min_vol, flat = None, 0
    for cells in _row_strips(n, n + 1):
        # The strip's cell rows and the lattice row below them; the last
        # strip's dv takes in the final lattice row too.
        rows = v[cells.start:cells.stop + 1]
        du = rows[1:] - rows[:-1]
        dv_rows = rows if cells.stop == n else rows[:-1]
        dv = dv_rows[:, 1:] - dv_rows[:, :-1]
        du_mins.append(du.min())
        du_maxs.append(du.max())
        dv_mins.append(dv.min())
        dv_maxs.append(dv.max())
        vols = _cell_volumes(rows)
        k = int(np.argmin(vols))
        vol = vols.flat[k]
        # Strictly smaller, so an earlier strip wins ties; the first NaN wins.
        if min_vol is None or (not np.isnan(min_vol) and (np.isnan(vol) or vol < min_vol)):
            min_vol, flat = vol, cells.start * n + k
    du_min, dv_min = float(np.min(du_mins)), float(np.min(dv_mins))
    mono = min(du_min, dv_min)

    step = 1.0 / n
    # max|d| = max(d.max(), -d.min()) exactly, without an abs temporary.
    lip = max(float(np.max(du_maxs)), -du_min, float(np.max(dv_maxs)), -dv_min) - step

    i, j = divmod(flat, n)
    min_vol = float(min_vol)

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
