"""Uniform-lattice samples of bivariate functions, the envelope lattices,
and axiom checking.

A LatticeFunction stores node values f(i/N, j/N) on the (N+1) x (N+1)
uniform lattice.  Node values (not cell masses) are stored because the
bounds in this package are defined pointwise; conversions are explicit.

check_properties audits the boundary conditions, coordinatewise
monotonicity, the 1-Lipschitz condition in each coordinate, and
2-increasingness.  Single-cell volumes suffice for the latter: every
rectangle volume of the bilinear interpolant is a sum of cell volumes.

_triangle_lattice evaluates a function of max(u, v) and min(u, v) on one
quarter of the lattice, the nodes with i <= j and i + j <= n, and fills the
rest from mirror nodes: (j, i) by that symmetry, and (n - i, n - j) by a
survival rule that its caller passes.  It reads the quarter's nodes as
index arrays, one row group at a time (_quarter_groups), and from them the
nodes' max and min, M and W at their images, and where each value goes.
It fills several lattices in one pass, one per row of f's values: the two
envelopes of one audit share the quarter's indices and images, and only
the kernel runs once for each.  The envelope lattices and the region
atlas call bounds' two block entries on the quarter directly, the kernel
bounds._envelope_block and the masks bounds._region_block, both of which
read the candidates live at t from bounds' one candidate loop; not
upper_bound_values or region_masks, whose point checks and max and min
the quarter's construction makes redundant.  Gini's gamma integrates
|u + v - 1| - |u - v|, which the map (u, v) -> (1 - u, 1 - v) keeps, so the
copulas with gamma t are closed under the survival map
C -> u + v - 1 + C(1 - u, 1 - v) (Nelsen, An Introduction to Copulas, 2nd
ed., 2006), and both envelopes satisfy K(u, v) = u + v - 1 +
K(1 - u, 1 - v): _envelope_survival states that rule in floats.  In the
region atlas, regions 3 and 4 trade places (_region_atlas).
_envelope_lattices builds either envelope or both, the lower one at the
exact reflected nodes.
envelope_audit builds both envelopes at one t and audits them against the
axioms, their classification, the reflection identity and the
Frechet-Hoeffding sandwich: the `check` command's results.  The lower
lattice's two reflection forms are a kernel value and its survival fill,
so the reflection check reads the fill's rounding, not the kernel: a
kernel that stays in [W, M] but breaks the survival identity passes it.

Every lattice pass goes in groups of whole rows (_row_groups, the one
statement of that rule), so that no temporary but the lattices themselves
is the size of a lattice: at most bounds._BLOCK points a group,
_WRITE_NODES nodes in the CSV writer, and _READ_ROWS nodes (file rows) in
the fixed-width CSV reader.  check_properties and envelope_audit's
maxima write their groups' differences, volumes, W and M into buffers
allocated once per call at the shape of the first group, which is the
largest: each group writes the leading rows through out=, so these passes
allocate no temporary per group, and no buffer outlives its call.

CSV IO works on the bytes of the fixed-width rows that _CSV_ROW states.
write_node_csv fills byte blocks of them in both of its layouts, and each
layout names its columns: a float lattice is the `value` column under
_CSV_HEADER, and a stack of k flag lattices (the region atlas) the columns
r1..rk.  Each float field comes from _fast_fields, an exact fast path for
_CSV_FORMAT, or from `%` for a value that the fast path leaves.  The
fixed-width reader (_fixed_width_values) checks each row group against the
writer's own rows for it (_node_blocks, from the one node-text rule
_node_text), so the node fields must be the writer's bytes, and parses the
value field alone, each with one exact division.
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
    _BLOCK, ENVELOPE_TOL, BoundClassification, _envelope_block, _region_block, classify_lower,
    classify_upper, lens_density_floor,
)
from .core import (
    Evaluator, _check_order, _check_real, _open_utf8, _real_array, check_t, frechet_lower,
)
from .errors import DomainError

# The header of a lattice CSV; the region atlas puts its flag columns where
# `value` is.
_CSV_HEADER = "u,v,value"
# 12 significant digits: below verdict tolerances, above float noise.
_CSV_FORMAT = "%.11e"
# A lattice CSV row in the fixed-width layout: three 17-byte _CSV_FORMAT
# fields of values >= 0 with two-digit exponents, each followed by its
# separator, 54 bytes; the template is the row of three zeros.  The writer
# fills copies of it with the node texts (_node_text) and the values, and the
# reader checks rows against the same copies with a zero value field.  Each
# byte of a row lies at most _CSV_SPAN above that copy's: the node fields and
# their separators exactly; in the value field, a digit above '0', the
# exponent sign '+' to '-' (the ',' between them is ruled out apart), and the
# '.', the 'e' and the line end exactly.
_CSV_ROW = np.frombuffer((",".join([_CSV_FORMAT % 0.0] * 3) + "\n").encode(), np.uint8).reshape(3, 18)
_CSV_SPAN = np.zeros(_CSV_ROW.size, np.uint8)
_CSV_SPAN[36:] = np.select([_CSV_ROW[2] == ord("0"), _CSV_ROW[2] == ord("+")], [9, 2], 0)
# 10**k for k = 0..22, the powers of ten that are exact doubles.
_POW10 = np.array([float(10**k) for k in range(23)])
# A field's 12 significand digits, and their place values 10**11..10**0.
_SIGNIFICAND = [0, *range(2, 13)]
_PLACES = _POW10[11::-1]
# The float writer's texts, one uint32 each so that a gather moves 4 bytes:
# the "%03d." texts of 0..999, and the "e%+03d" texts of the exponents
# 11 - k, k = 0..22.  A value's five gathered texts, viewed as 20 bytes, give
# its field by _FIELD_BYTES: the first group's digit, the '.' that pads it,
# its other two digits, the other groups' digits, and the exponent.
_GROUP_TEXT = np.array([b"%03d." % g for g in range(1000)]).view(np.uint32)
_EXPONENT_TEXT = np.array([b"e%+03d" % (11 - k) for k in range(len(_POW10))]).view(np.uint32)
_FIELD_BYTES = [0, 3, 1, 2, 4, 5, 6, 8, 9, 10, 12, 13, 14, 16, 17, 18, 19]
# File rows per group of the fixed-width reader, in whole lattice rows: about
# 217 KB of text and as much of expected rows, the fastest of 512 to 16384 at
# orders 200 and 400 (2.5 and 10.0 ms a read, against 3.0 and 11.2 at 2048
# and 3.3 and 11.7 at 8192); and nodes per group of the writer, in either
# layout (its tracemalloc peak about 210 KB for a float column and 170 KB
# for the five region flags, at orders 200 and 400).
_READ_ROWS = 4096
_WRITE_NODES = 1024
# The axiom tolerance of check_properties, and so of envelope_audit.
_CHECK_TOL = 1e-10
# from_csv's node check: to_csv's 12 significant digits put every node of
# orders 1 to 400 within 5.0e-13 of i/n; the rest is for nodes written by hand.
_NODE_TOL = 1e-9


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
        """Write the lattice CSV (write_node_csv's float layout), 12 significant digits."""
        with open(path, "w", newline="\n") as fh:
            write_node_csv(fh, self.N, self.values)

    @classmethod
    def from_csv(cls, path) -> "LatticeFunction":
        """Read a lattice CSV written by to_csv; malformed input is a DomainError.

        A file in to_csv's fixed-width layout whose node fields are the
        writer's own texts is read as bytes (_fixed_width_values), which
        gives its values alone: its nodes are exact and its values finite.
        Any other file, malformed ones included, is parsed by np.loadtxt
        (_loadtxt_rows), and the checks below run once on its nodes and
        values.  Either way each value is its field's float().
        A wrong header, a short or long row, a value that is not a finite
        number, a byte that is not UTF-8, a row count that is not a square
        of at least 4, or a node more than _NODE_TOL from its row-major position
        is a DomainError.
        """
        values = _fixed_width_values(path)
        if values is not None:
            return cls(len(values) - 1, values)
        nodes, values = _loadtxt_rows(path)
        side = math.isqrt(len(values))
        if side * side != len(values) or side < 2:
            raise DomainError(
                f"lattice CSV has {len(values)} rows; an order-N lattice has (N + 1)**2 >= 4 rows"
            )
        n = side - 1
        grid = lattice_nodes(n)
        u, v = (nodes[:, k].reshape(side, side) for k in range(2))
        values = values.reshape(side, side)
        # Negated so that a NaN node fails too.
        off = ~(
            (np.abs(u - grid[:, None]) <= _NODE_TOL) & (np.abs(v - grid[None, :]) <= _NODE_TOL)
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


def _fixed_width_values(path) -> np.ndarray | None:
    """The (side, side) values of a lattice CSV in to_csv's fixed-width
    layout whose node fields are, byte for byte, the writer's texts of the
    nodes in row-major order (_node_text), side >= 2; None for any other file.

    The body is read in groups of whole lattice rows, about _READ_ROWS file
    rows each (_row_groups), and each group less the writer's own rows with
    a zero value (_node_blocks) is checked against _CSV_SPAN, so that only
    the value field is parsed.  A field is a 12-digit significand M < 2**53,
    exact in a double, and an exponent E; where 0 <= 11 - E <= 22,
    10**(11 - E) is exact too, and the one IEEE division M / 10**(11 - E)
    is the correctly rounded value of the field, the double float() reads
    (Clinger, "How to Read Floating Point Numbers Accurately", 1990).  The
    fields with any other exponent are cast from their bytes, which parses
    each as float() does.  The values, which become the lattice, are
    allocated before every temporary, so that the lattice does not sit
    above the heap holes they leave (allocated after them, it raised a
    `grid-export` op's peak RSS by 2.6 MB).
    """
    with open(path, "rb") as fh:
        if fh.readline() != f"{_CSV_HEADER}\n".encode():
            return None
        count, rest = divmod(os.fstat(fh.fileno()).st_size - fh.tell(), _CSV_ROW.size)
        side = math.isqrt(count)
        if rest or side * side != count or side < 2:
            return None
        values = np.empty((side, side))
        groups = _row_groups([side] * side, _READ_ROWS)
        data = np.empty((groups[0].stop, side, _CSV_ROW.size), np.uint8)
        for rows, expected in _node_blocks(_node_text(side - 1), groups, _CSV_ROW[2]):
            d = data[:len(expected)]
            if fh.readinto(d) != d.nbytes:
                return None
            # Each byte less the expected one: 0 at every node byte, and in
            # the value field a digit's value, 0 or 2 at the exponent sign
            # ('+' or '-'), and 0 at every other byte.  Unsigned, a byte below
            # the expected one wraps round above its span.
            np.subtract(d, expected, out=d)
            field = d[:, :, 36:]
            if not (np.all(d <= _CSV_SPAN) and np.all(field[:, :, 14] != 1)):
                return None
            sign, e1, e0 = np.moveaxis(field[:, :, 14:17].astype(np.intp), -1, 0)
            k = 11 + (sign - 1) * (10 * e1 + e0)  # 11 - E
            exact = (0 <= k) & (k < len(_POW10))
            out = values[rows]
            np.divide(np.einsum("rck,k->rc", field[:, :, _SIGNIFICAND], _PLACES),
                      _POW10[np.where(exact, k, 0)], out=out)
            if not exact.all():
                r, c = np.nonzero(~exact)
                text = field[r, c, :17] + _CSV_ROW[2, :17]
                out[r, c] = text.view("S17").astype(float).ravel()
    return values


def _loadtxt_rows(path) -> tuple[np.ndarray, np.ndarray]:
    """The nodes and values of any lattice CSV, by np.loadtxt; a byte that
    is not UTF-8 (core._open_utf8), a wrong header, or a row that is not
    three numbers is a DomainError."""
    fh = _open_utf8(path, "malformed lattice CSV: ")
    line = fh.readline()
    header = line.rstrip("\r\n").split(",") if line else None
    if header != _CSV_HEADER.split(","):
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


def _node_text(n: int) -> list[str]:
    """The _CSV_FORMAT texts of the order-n lattice's nodes i/n, 17 bytes
    each: the u and v fields of every file write_node_csv writes, and so
    the node bytes that _fixed_width_values takes."""
    return [_CSV_FORMAT % x for x in lattice_nodes(n).tolist()]


def _node_blocks(node_text, groups, tail):
    """Per row group of `groups` (_row_groups over the lattice of these node
    texts), the group's row slice and a uint8 block of its fixed-width rows:
    each row's u text, its v text and then `tail` (the value field or the
    flags, with its line end), each node text followed by _CSV_ROW's
    separator.  One block, sized for the first group, is filled for all of
    them: the v texts and the tail once, each group's u texts in turn."""
    text = np.frombuffer("".join(node_text).encode("ascii"), np.uint8).reshape(-1, 17)
    block = np.empty((groups[0].stop, len(text), 36 + tail.size), np.uint8)
    block[...] = np.concatenate([_CSV_ROW[:2].ravel(), tail])
    block[:, :, 18:35] = text
    for rows in groups:
        out = block[:rows.stop - rows.start]
        out[:, :, :17] = text[rows, None, :]
        yield rows, out


def write_node_csv(fh, n: int, values) -> None:
    """Write node-indexed CSV for the order-n lattice to the text stream fh.

    values is one of the two layouts the package writes (to_csv, and the
    `grid` and `regions` commands, all write through it), and it names the
    columns after `u,v`:
    - an (n+1) x (n+1) float lattice (any int or float dtype): the column
      `value` (the header _CSV_HEADER), written with _CSV_FORMAT;
    - a (k, n+1, n+1) stack of bool lattices, k >= 1, such as the five
      region masks of the atlas: the columns r1..rk, written 0/1.
    Then one row per node (i/n, j/n) in row-major order.  This is the one
    definition of the lattice and atlas CSV format.

    Both layouts are written as byte blocks.  Every node text is 17 bytes,
    so a row has a fixed width: _CSV_ROW's two node fields, then the value
    field of _CSV_ROW or a '0' per flag, each field followed by its
    separator.  A group of about _WRITE_NODES nodes (_row_groups) is one
    uint8 array of copies of that row (_node_blocks, which the reader
    checks files against), with each row's u text put in and,
    per node, each flag added to its '0' or the value's 17 bytes filled in
    by _fast_fields.  A value that _fast_fields leaves is formatted by `%`
    on its own; if any such text is not 17 bytes (a negative value, a
    three-digit exponent, inf or nan), the group is written instead with a
    printf template per lattice row, `u,v,<field>` for every v, filled by
    one `%` call.
    Nothing the size of the lattice is built, and values of any other
    dtype or shape are rejected before any byte is written.
    """
    node_text = _node_text(n)  # which checks n first
    values = np.asarray(values)
    flags = values.dtype == bool
    # The shape of a float lattice, or of a stack of flag lattices.
    layout = values.shape[:1] * flags + (n + 1, n + 1)
    if values.shape != layout or not (values.dtype.kind in "iuf" or flags and layout[0]):
        raise DomainError(f"values of dtype {values.dtype} and shape {values.shape} are not an "
                          f"order-{n} float lattice or a stack of order-{n} flag lattices")
    names = ",".join(f"r{k + 1}" for k in range(len(values))) if flags else "value"
    fh.write(_CSV_HEADER.replace("value", names) + "\n")
    tail = _CSV_ROW[2] if not flags else np.frombuffer(
        (",".join("0" * len(values)) + "\n").encode("ascii"), np.uint8)
    # Each group's rows of `u,v,<fields>`, into which it puts its fields.
    for rows, out in _node_blocks(node_text, _row_groups([n + 1] * (n + 1), _WRITE_NODES), tail):
        if flags:
            for k, flag in enumerate(values):
                np.add(flag[rows], ord("0"), out=out[:, :, 36 + 2 * k], dtype=np.uint8)
        else:
            x = np.asarray(values[rows], dtype=float)
            fields, slow = _fast_fields(x)
            texts = [_CSV_FORMAT % v for v in x[slow].tolist()]
            if any(len(t) != 17 for t in texts):
                cells = [f",{v},{_CSV_FORMAT}\n" for v in node_text]
                for i in range(rows.start, rows.stop):
                    fh.write((node_text[i] + node_text[i].join(cells)) % tuple(x[i - rows.start].tolist()))
                continue
            fields[slow] = np.frombuffer("".join(texts).encode("ascii"), np.uint8).reshape(-1, 17)
            out[:, :, 36:53] = fields
        fh.write(str(out.data, "ascii"))


def _fast_fields(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 17-byte `_CSV_FORMAT % v` texts of the values v of the float64
    array x, as a uint8 array of shape x.shape + (17,), and the mask of the
    values the exact fast path leaves, whose bytes the caller replaces with
    their `%` texts.

    The fast path finds printf's 12-digit significand M and exponent E
    without formatting; it is the detect-and-fall-back design of Grisu3
    (F. Loitsch, "Printing Floating-Point Numbers Quickly and Accurately
    with Integers", PLDI 2010).  E is guessed as floor(log10 v), and
    k = 11 - E is kept where 0 <= k <= 22, so that 10**k is exact and
    y = v * 10**k is the exact product rounded once, within 2**-14 of it
    below 2**40.  Where M = rint(y) < 10**12 and y is at least 2**-13 from
    a half-integer, M is the exact product rounded to nearest, with no tie.
    Where also y >= 10**11 - 1/32, the guess is either right (the exact
    product is at least 10**11), or one too high with the exact product
    above 10**11 - 1/20: then printf's 12 digits at E - 1 round up to
    10**12, which it prints as M = 10**11 at E.  So M and E are printf's
    whatever log10's error.  +0.0 is M = 0 at E = 0.  The fast path leaves
    every other value: near-halves and ties, a mis-guessed E, -0.0,
    negatives, inf and nan, and exponents outside -11..11.  M's four
    3-digit groups are split in floats, exactly, as M < 2**53, and each is
    gathered as one uint32 "%03d." text (_GROUP_TEXT), the first one's pad
    byte giving the '.'; the exponent is one gathered "e%+03d" text.
    """
    zero = (x == 0) & ~np.signbit(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        k = 11 - np.floor(np.log10(x))
    k[zero] = 11
    exact = (0 <= k) & (k < len(_POW10))
    k = np.where(exact, k, 11).astype(np.intp)
    y = np.where(exact, x, 0.0)
    y *= _POW10[k]
    m = np.rint(y)
    fast = exact & (np.abs(y - m) <= 0.5 - 2.0**-13) & (m < 1e12) & ((y >= 1e11 - 1 / 32) | zero)
    m *= fast
    # lead[g]: M's first g + 1 groups, so that group g is lead[g] - 1000 * lead[g - 1].
    lead = [np.floor(m / 1e9), np.floor(m / 1e6), np.floor(m / 1e3), m]
    words = np.empty(x.shape + (5,), np.uint32)
    words[..., 0] = _GROUP_TEXT[lead[0].astype(np.intp)]
    for g in (1, 2, 3):
        words[..., g] = _GROUP_TEXT[(lead[g] - 1000 * lead[g - 1]).astype(np.intp)]
    words[..., 4] = _EXPONENT_TEXT[k]
    return words.view(np.uint8)[..., _FIELD_BYTES], ~fast


def check_properties(g: LatticeFunction, tol: float = _CHECK_TOL) -> PropertyReport:
    """Audit a lattice function against the quasi-copula and copula axioms.

    Verdicts use the single tolerance ``tol``, a finite real >= 0 that
    defaults to the audit tolerance _CHECK_TOL, which envelope_audit uses: the
    function is a quasi-copula if boundary error, monotonicity and
    Lipschitz excess pass at tol, and a copula if additionally
    min_volume >= -tol.  tol goes through core._check_real, and the
    verdicts compare the Python number it returns: a 0-d array and a huge
    int are tolerances too, a Fraction is compared exactly, and the
    verdicts are bools.

    The forward differences and cell volumes are taken one group of cell
    rows at a time (_row_groups).  Each group reads its cell rows and the
    lattice row below them, and the next group reads that row again, which
    moves no extreme.  The groups write both differences and the volumes
    into three buffers allocated once per call, at the first group's shape,
    and a volume takes the whole-array expression's two roundings in its
    order.  Every field equals the whole-array reduction's (but
    for the sign of a zero monotonicity_min_step, which numpy's min picks by
    its reduction order), a NaN propagates as it would there, and
    min_volume_rect is the first minimal cell in row-major order, as numpy's
    argmin picks it.
    The boundary error is one reduction over the four edges, so a NaN node
    on any edge makes boundary_max_err NaN as well.
    """
    if not 0.0 <= (tol := _check_real(tol, "tolerance")) < math.inf:
        raise DomainError(f"tolerance must be a finite real number >= 0, got {tol!r}")
    v = g.values
    n = g.N
    nodes = g.nodes

    boundary = float(np.max(np.abs([v[:, 0], v[0], v[:, n] - nodes, v[n] - nodes])))

    extremes, minima = [], []
    groups = _row_groups([n + 1] * n)
    # The first group is the largest; each group writes into leading rows of these.
    most = groups[0].stop
    du_buf, dv_buf, vol_buf = np.empty((most, n + 1)), np.empty((most + 1, n)), np.empty((most, n))
    for cells in groups:
        size = cells.stop - cells.start
        rows = v[cells.start:cells.stop + 1]
        du = np.subtract(rows[1:], rows[:-1], out=du_buf[:size])
        dv = np.subtract(rows[:, 1:], rows[:, :-1], out=dv_buf[:size + 1])
        # du first, as it holds every node of the group, so that a NaN
        # reaches both; the maximum negated, so that one min reduces both.
        extremes.append((min(du.min(), dv.min()), -max(du.max(), dv.max())))
        # dv[1:] is rows[1:, 1:] - rows[1:, :-1], the first step of each
        # volume; the second and third, in that order, follow in place.
        vols = np.subtract(dv[1:], rows[:-1, 1:], out=vol_buf[:size])
        vols += rows[:-1, :-1]
        k = int(np.argmin(vols))
        minima.append((vols.item(k), cells.start * n + k))
    mono, neg = np.min(extremes, axis=0).tolist()
    # max|d| = max(d.max(), -d.min()) exactly, without an abs temporary.
    lip = max(-neg, -mono) - 1.0 / n

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


def _quarter_groups(n: int, block: int):
    """The quarter of the order-n lattice, the nodes (i, j) with i <= j and
    i + j <= n, row by row (row r is the nodes (r, r..n - r)): per row group
    of at most `block` of them (_row_groups), their index arrays i and j."""
    lengths = [n + 1 - 2 * r for r in range(n // 2 + 1)]
    for rows in _row_groups(lengths, block):
        r, size = np.arange(rows.start, rows.stop), lengths[rows]
        i = np.repeat(r, size)
        # Along row r, j counts up from r: a node's place in the group, less
        # the place where its row starts, plus r.
        starts = np.cumsum(size) - size
        yield i, np.arange(len(i)) + np.repeat(r - starts, size)


def _triangle_lattice(f, n: int, survival, out, block: int = _BLOCK) -> None:
    """Fill the order-n lattices out with f, for an f of the nodes' max and
    min alone (so exactly symmetric in (u, v)), whose values at the survival
    images (1 - u, 1 - v) survival gives.

    f(x, m) is evaluated once on each node (i, j) of the quarter i <= j,
    i + j <= n (_quarter_groups), one row group of at most `block` nodes
    per call, at x = v_j and m = u_i; it returns one row of values per
    lattice of out, as bounds._region_block does with its five masks.
    survival(values, m, sv, w) takes f's values at quarter nodes with min m
    and gives f at their images ((n - i)/n, (n - j)/n), where M is
    sv = (n - j)/n and W is w, both read at the exact nodes.  The values go
    to each node and its mirror (j, i), at the flat indices i * (n + 1) + j
    and j * (n + 1) + i, and the image values to the same indices of the
    reversed flat lattice: the image (n - i, n - j) and its mirror.  The
    image of a row's last node (r, n - r) is that node's mirror, so the
    images are written first and the quarter over them: f gives the nodes
    with i + j <= n and survival the rest.
    """
    nodes = lattice_nodes(n)
    layers = [lattice.reshape(-1) for lattice in out]  # views, one flat lattice each
    for i, j in _quarter_groups(n, block):
        m = nodes[i]
        quarter = np.asarray(f(nodes[j], m)).reshape(len(layers), -1)
        # The images' coordinates only now, so that f's working set does not
        # hold them.
        sv = nodes[n - j]
        image = survival(quarter, m, sv, frechet_lower(nodes[n - i], sv))
        at, mirror = i * (n + 1) + j, j * (n + 1) + i
        # One flat lattice at a time: fancy indices under a stack axis take
        # numpy's slower subspace path.
        for flat, q, im in zip(layers, quarter, image):
            flat[::-1][at] = flat[::-1][mirror] = im
            flat[at] = flat[mirror] = q
        # Not held through the next group's f call.
        del i, j, m, quarter, sv, image, at, mirror, q, im


def _envelope_survival(k, m, sv, w):
    """An envelope at the survival images (su, sv) = (1 - u, 1 - v) of
    quarter nodes (u, v), u <= v, where it is k: K(su, sv) = su + sv - 1 +
    K(u, v).

    su + sv - 1 = M(su, sv) - M(u, v), and on the quarter M(u, v) = m and
    M(su, sv) = sv exactly, so this is sv - (m - k), raised to W(su, sv) = w
    by one maximum.  k lies in [W, M], so m - k is >= 0 and the result never
    exceeds M; where k is m, it is M bit for bit, and so on the edges u = 1
    and v = 1, whose mirrors are 0.  The form (i + j - n)/n + k missed M by
    an ulp on 11% of the order-400 nodes at t >= 1/2, and exceeded it on 6%.
    """
    return np.maximum(w, sv - (m - k))


def _envelope_lattice(side: str, t: float, n: int) -> LatticeFunction:
    """One side's envelope on the order-n lattice (_envelope_lattices)."""
    return _envelope_lattices(t, n, (side,))[0]


def _envelope_lattices(t: float, n: int, sides) -> tuple:
    """The envelopes at t of the given sides ("upper" or "lower") on the
    order-n lattice, from one _triangle_lattice build: the sides share its
    quarter's nodes, indices and survival images, and only the kernel runs
    once per side.

    The upper envelope K depends on (u, v) only through max and min, so its
    lattice is exactly symmetric, and _triangle_lattice builds it from the
    kernel bounds._envelope_block with the survival rule _envelope_survival,
    within 2**-50 of upper_bound_values: one upper lattice per side, at t
    for the upper side and at -t for the lower one.
    The lower envelope is the reflection v - K(1 - u, v, -t): entry (i, j) is
    v_j - K((n - i)/n, v_j, -t), read off the upper lattice at -t, row n - i,
    at the exact node (n - i)/n rather than the rounded 1 - i/n that
    lower_bound_values reflects to, so the two agree within 1e-15; the
    subtraction overwrites that lattice in place.  Entry (j, i) is then the
    other reflection form u_i - K(u_i, (n - j)/n, -t), read at the node
    (i, n - j), the survival image of (n - i, j).  So of the two forms that
    envelope_audit compares, one is a kernel value and the other that
    value's survival fill (_envelope_survival), and they differ by the
    fill's rounding alone.
    """
    nodes = lattice_nodes(n)
    t = check_t(t)  # before the lower side negates it, so that an error names the t given
    kernel_ts = [t if side == "upper" else -t for side in sides]
    # One lattice per side, not one stack: a side's LatticeFunction holds no
    # other side's values.  The group size is split between the sides, so
    # that a group's values are at most bounds._BLOCK points, as one
    # side's are.
    lattices = [np.empty((n + 1, n + 1)) for _ in sides]
    _triangle_lattice(
        lambda x, m: [_envelope_block(x, m, u) for u in kernel_ts],
        n, _envelope_survival, lattices, _BLOCK // len(sides),
    )
    return tuple(
        LatticeFunction(n, upper if side == "upper" else np.subtract(nodes, upper[::-1], out=upper[::-1]))
        for side, upper in zip(sides, lattices)
    )


def _region_atlas(t: float, n: int) -> np.ndarray:
    """The region atlas: region_masks at t on the order-n lattice, shape
    (5, n + 1, n + 1), from one quarter (_triangle_lattice), whose nodes'
    max and min go straight to the mask entry bounds._region_block.  The
    masks are symmetric in (u, v), and at a node's survival image regions 3
    and 4 trade places."""
    n = _check_order(n, "lattice order")
    t = check_t(t)
    masks = np.empty((5, n + 1, n + 1), dtype=bool)
    _triangle_lattice(lambda x, m: _region_block(x, m, t), n,
                      lambda values, *image: values[[0, 1, 3, 2, 4]], masks)
    return masks


@dataclass(frozen=True)
class EnvelopeAudit:
    """Both envelopes at one t, audited on the order-n lattice.

    The fields are the `check` report's results; dataclasses.asdict gives
    them as the report prints them.

    upper_classification, lower_classification
        classify_upper(t) and classify_lower(t), as their string values
    upper_report, lower_report
        check_properties of each envelope lattice, at its default tolerance
        _CHECK_TOL
    upper_min_volume_cell_distance_to_density_minimiser
        distance, in cells, from the upper report's min_volume_rect to the
        nearest minimiser of lens_density_floor(t); None without a lens.
        Both envelope lattices are point-symmetric up to rounding (the
        survival rule derives the nodes with i + j > n from their mirrors),
        so the cells (i, j) and (n - 1 - i, n - 1 - j) have volumes an ulp
        apart, and an ulp change in the envelope can move a report's
        min_volume_rect from one to the other: `check --t=-0.75 --grid 37`
        went from (32, 32) to (4, 4) in one root rewrite.  This distance
        does not jump so, as the lens minimisers are symmetric about 1/2.
        Where every cell volume is within a few ulps of 0, as near t = -1
        and t = 1, an ulp change can move min_volume_rect to any cell, and
        this distance with it: at t = -1 and order 400, a change of the
        lattice by rounding alone moved the upper one from (200, 367) to
        (201, 213).  So the distance means something only where the upper
        report's min_volume is clearly below 0.
    upper_lens_floor_cell_volume, lower_lens_floor_cell_volume
        D*(t) / n^2 and D*(-t) / n^2, the least volume an order-n cell can
        have in each envelope's lens; None where it has no lens
    reflection_max_err
        largest difference between the two reflection forms of the lower
        envelope, lower[i, j] - lower[j, i].  One form is a kernel value
        and the other its survival fill (_envelope_survival, which
        _envelope_lattices passes to the builder), so this
        measures the fill's rounding (at most 2.2e-16 measured, at orders
        1 to 400).  A kernel that keeps W <= K <= M but breaks
        K(u, v) = u + v - 1 + K(1 - u, 1 - v) does not show here; one
        that lifts K above M fails the sandwich check
    sandwich_max_violation
        largest excess in W <= lower <= upper <= M over the nodes
    checks
        the verdicts; the audit passes when all of them hold.  A
        *_copula_matches_classification check needs that side's lattice to
        be a quasi-copula as well, so a lattice that is not one fails it
        even where its classification predicts no copula.

    A NaN node makes the maxima that read it NaN: reflection_max_err for a
    node of the lower lattice, sandwich_max_violation for a node of either,
    and the verdicts on them fail.
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
    row groups (_row_groups), with W and M taken per group from the nodes,
    into three buffers allocated once per call.
    """
    cls_up, cls_lo = classify_upper(t), classify_lower(t)
    # The lens, where an envelope's density is negative, exists exactly where
    # the envelope is a proper quasi-copula.  The lower envelope reflects the
    # upper one at -t, density and all.
    quasi = BoundClassification.PROPER_QUASI_COPULA
    lens_up = lens_density_floor(t) if cls_up is quasi else None
    lens_lo = lens_density_floor(-t) if cls_lo is quasi else None

    upper, lower = _envelope_lattices(t, n, ("upper", "lower"))
    rep_up, rep_lo = (check_properties(lf) for lf in (upper, lower))
    # The order as the lattice stores it, a builtin int (_check_order).
    up, lo, nodes, n = upper.values, lower.values, upper.nodes, upper.N
    groups = _row_groups([n + 1] * (n + 1))
    # The first group is the largest; each group writes into leading rows of these.
    diff_buf, m_buf, w_buf = (np.empty((groups[0].stop, n + 1)) for _ in range(3))
    maxima = []
    for rows in groups:
        u, size = nodes[rows, None], rows.stop - rows.start
        diff, m, w = diff_buf[:size], m_buf[:size], w_buf[:size]
        # The two reflection forms' difference, v_j - K((n - i)/n, v_j, -t) at
        # lo[i, j] less u_i - K(u_i, (n - j)/n, -t) at lo[j, i] (float
        # subtraction is antisymmetric, so its maximum is the largest abs).
        reflection = np.subtract(lo[rows], lo[:, rows].T, out=diff).max()
        # M, and W by frechet_lower's steps in its order: u + v - 1, raised
        # to 0, then lowered to M.
        np.minimum(u, nodes, out=m)
        np.subtract(np.add(u, nodes, out=w), 1.0, out=w)
        np.minimum(np.maximum(0.0, w, out=w), m, out=w)
        # Then each of W - lower, lower - upper and upper - M.
        maxima.append((reflection,
                       np.subtract(w, lo[rows], out=w).max(),
                       np.subtract(lo[rows], up[rows], out=diff).max(),
                       np.subtract(up[rows], m, out=m).max()))
    maxima = np.max(maxima, axis=0)
    reflection_err, sandwich_err = float(maxima[0]), float(np.max(maxima[1:]))

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
            "upper_copula_matches_classification":
                rep_up.is_quasicopula and rep_up.is_copula == (lens_up is None),
            "lower_copula_matches_classification":
                rep_lo.is_quasicopula and rep_lo.is_copula == (lens_lo is None),
            "reflection_identity": reflection_err <= ENVELOPE_TOL,
            "sandwich": sandwich_err <= ENVELOPE_TOL,
        },
    )
