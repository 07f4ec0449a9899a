"""Joint (outcome, mediator) distributions under each treatment arm.

The central object is :class:`DistTable`, the conditional pmf of ``(Y, M)``
given each arm over a finite mediator support and a discrete outcome grid.
Outcome values are compared exactly, so continuous outcomes must be binned
before anything downstream touches them: records by the ``bins`` argument
that every function reading them passes on to :func:`encode`, a table
without records by :func:`discretize_outcome`.  :func:`encode` is the one
map from records to cells and the only place records are binned; every
table, moment system and cell count is a ``bincount`` over its codes.  Cells that receive no data carry mass zero
rather than being dropped, which keeps indices stable for the moment-system
builder.
"""

import codecs
import csv
from dataclasses import dataclass
from itertools import islice
from numbers import Integral

import numpy as np

from .errors import EstimationError, StructuralError

MASS_TOL = 1e-9


@dataclass(frozen=True)
class MediatorSupport:
    """Ordered registry of the K mediator support points (each p-dimensional).

    ``totally_ordered`` marks a scalar support sorted strictly increasing;
    multi-dimensional supports use the elementwise partial order.
    """

    points: tuple
    totally_ordered: bool = False

    def __post_init__(self):
        pts = tuple(tuple(float(v) for v in np.atleast_1d(p)) for p in self.points)
        if not pts:
            raise StructuralError("mediator support is empty")
        dim = len(pts[0])
        if any(len(p) != dim for p in pts):
            raise StructuralError("mediator points have mixed dimensions")
        if len(set(pts)) != len(pts):
            raise StructuralError("mediator support points must be distinct")
        if self.totally_ordered:
            if dim != 1:
                raise StructuralError("total order requires scalar mediators")
            vals = [p[0] for p in pts]
            if any(b <= a for a, b in zip(vals, vals[1:])):
                raise StructuralError("totally ordered support must be strictly increasing")
        object.__setattr__(self, "points", pts)

    @property
    def k(self):
        return len(self.points)

    def index(self, point):
        key = tuple(float(v) for v in np.atleast_1d(point))
        try:
            return self.points.index(key)
        except ValueError:
            raise StructuralError(f"mediator value {key} is not registered in the support")

    def elementwise_leq(self, l, k):
        a, b = self.points[l], self.points[k]
        return all(x <= y for x, y in zip(a, b))

    def distance(self, l, k):
        a, b = np.asarray(self.points[l]), np.asarray(self.points[k])
        return float(np.linalg.norm(a - b))


@dataclass(frozen=True)
class DistTable:
    """``mass[d, k, q] = P(Y = y_q, M = m_k | arm d)`` plus sample sizes.

    ``n_units``/``n_clusters`` record how many independent observations per
    arm produced the estimate (None for population-level tables).
    """

    support: MediatorSupport
    outcome_levels: tuple
    mass: np.ndarray
    n_units: tuple = None
    n_clusters: tuple = None

    def __post_init__(self):
        levels = tuple(float(y) for y in self.outcome_levels)
        if len(set(levels)) != len(levels):
            raise StructuralError("outcome levels must be distinct")
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise StructuralError("outcome levels must be sorted increasing")
        mass = np.asarray(self.mass, dtype=float)
        if mass.shape != (2, self.support.k, len(levels)):
            raise StructuralError(
                f"mass has shape {mass.shape}, expected {(2, self.support.k, len(levels))}"
            )
        if mass.min() < -1e-12:
            raise StructuralError("negative probability mass")
        mass = np.clip(mass, 0.0, None)
        for d in (0, 1):
            total = mass[d].sum()
            if abs(total - 1.0) > MASS_TOL:
                raise StructuralError(f"arm {d} mass sums to {total}, not 1")
        mass.flags.writeable = False
        object.__setattr__(self, "outcome_levels", levels)
        object.__setattr__(self, "mass", mass)

    @property
    def n_mediators(self):
        return self.support.k

    @property
    def n_outcomes(self):
        return len(self.outcome_levels)

    def marginal_m(self, d):
        """P(M = m_k | arm d) for all k."""
        return self.mass[d].sum(axis=1)

    def cond_outcome(self, d, k):
        """pmf of Y | M = m_k, arm d (zeros if the cell is empty)."""
        cell = self.mass[d, k]
        total = cell.sum()
        if total <= 0.0:
            return np.zeros_like(cell)
        return cell / total


@dataclass(frozen=True)
class RecordSet:
    """Unit records ``(y, m, d)`` with optional cluster / instrument / pscore."""

    y: np.ndarray
    m: np.ndarray
    d: np.ndarray
    cluster: np.ndarray = None
    z: np.ndarray = None
    pscore: np.ndarray = None

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        m = np.asarray(self.m, dtype=float)
        if m.ndim == 1:
            m = m[:, None]
        d = np.asarray(self.d)
        n = y.shape[0]
        if y.ndim != 1 or m.shape[0] != n or d.shape != (n,):
            raise StructuralError("record arrays have inconsistent lengths")
        if not np.isin(d, (0, 1)).all():
            raise StructuralError("treatment column must be binary 0/1")
        d = d.astype(int)
        cluster = self.cluster
        if cluster is not None:
            cluster = np.asarray(cluster)
            if cluster.shape != (n,):
                raise StructuralError("cluster column length mismatch")
        z = self.z
        if z is not None:
            z = np.asarray(z)
            if z.shape != (n,) or not np.isin(z, (0, 1)).all():
                raise StructuralError("instrument column must be binary 0/1")
            z = z.astype(int)
        pscore = self.pscore
        if pscore is not None:
            pscore = np.asarray(pscore, dtype=float)
            if pscore.shape != (n,):
                raise StructuralError("pscore column length mismatch")
        for name, arr in (("y", y), ("m", m), ("pscore", pscore)):
            if arr is not None and not np.isfinite(arr).all():
                raise StructuralError(f"non-finite values in column {name}")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "cluster", cluster)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "pscore", pscore)

    @property
    def n(self):
        return self.y.shape[0]

    @property
    def mediator_dim(self):
        return self.m.shape[1]


BLOCK_ROWS = 16384  # rows parsed at once: spreads per-column work, caps the row lists


def read_csv(path) -> RecordSet:
    """Load records from a CSV file, ``BLOCK_ROWS`` rows at a time.

    Header row required.  Columns: ``y``, ``d`` (mandatory), mediators
    ``m1..mp``, optional ``cluster``, ``z``, ``pscore``; rows are split by the
    ``csv`` module's default dialect, numbers parsed by ``float()``.  Any malformed
    row, CSV-level error or non-UTF-8 byte is a hard error naming its line.

    A plain file is split at C level instead: one that is ASCII after a
    leading UTF-8 byte-order mark, holds no ``"`` or NUL and no ``\\r`` outside
    ``\\r\\n``, has the header's field count on every line and no field of
    ``csv.field_size_limit()`` characters or more.  The dialect splits such a
    file the same way.  Each distinct line of a plain block is split once, and
    ``float()`` runs once per distinct field of a column.  Any other file, or
    a plain one with a field that ``float()`` rejects, is read whole by the
    ``csv`` module, which alone reports parse errors; both give the same
    records.
    """
    parts = _read_plain(path)
    if parts is None:
        parts = _read_dialect(path)
    try:
        return RecordSet(**{c: np.concatenate(p) if p else np.array([]) for c, p in parts.items()})
    except StructuralError as exc:
        raise StructuralError(f"{path}: {exc}")


def _layout(header, path):
    """Positions of the numeric columns and of ``cluster`` (None if absent) in
    a header row, and empty per-column block lists; raises on a bad header."""
    header = [h.strip() for h in header]
    for col in ("y", "d"):
        if col not in header:
            raise StructuralError(f"{path}: missing required column '{col}'")
    m_cols = sorted((h for h in header if h.startswith("m") and h[1:].isdigit()),
                    key=lambda h: int(h[1:]))
    if not m_cols:
        raise StructuralError(f"{path}: no mediator columns m1..mp found")
    if m_cols != [f"m{i + 1}" for i in range(len(m_cols))]:
        raise StructuralError(f"{path}: mediator columns must be contiguous m1..mp, got {m_cols}")
    fields = {c: header.index(c) for c in ("y", "d", *m_cols, "z", "pscore") if c in header}
    cluster = header.index("cluster") if "cluster" in header else None
    parts = {c: [] for c in ("y", "d", "m", "cluster", "z", "pscore") if c in [*header, "m"]}
    parts["m"].append(np.empty((0, len(m_cols))))  # a header-only file keeps p columns
    return fields, cluster, parts


def _map_distinct(convert, tokens):
    """``convert`` of every token, as an array: called once per distinct token."""
    distinct = list(set(tokens))
    code = dict(zip(distinct, range(len(distinct))))
    return np.array(list(map(convert, distinct)))[
        np.fromiter(map(code.__getitem__, tokens), np.intp, len(tokens))]


def _add_block(parts, column, fields, cluster, rows=None):
    """Append one block's arrays to ``parts``; ``column(j)`` gives the field
    strings at position j of the block's lines, or, with ``rows``, of its
    distinct lines, ``rows[i]`` being the one that row i repeats."""
    block = {c: _map_distinct(float, column(j)) for c, j in fields.items()}
    block["m"] = np.column_stack([block.pop(c) for c in fields if c[0] == "m"])
    if cluster is not None:
        block["cluster"] = _map_distinct(str.strip, column(cluster))
    for c, values in block.items():
        parts[c].append(values if rows is None else values[rows])


def _plain_fields(chunk, width, limit):
    """The fields of ``chunk`` (whole lines) as strings, or None unless it is
    plain: ASCII, no quote or NUL, ``\\r`` only in ``\\r\\n``, ``width`` fields on
    every line and each field shorter than ``limit``."""
    if not chunk.endswith(b"\n"):
        chunk += b"\n"  # the last line of a file may lack its line end
    # the csv module of Python 3.10 rejects a NUL, later ones read it as text
    if not chunk.isascii() or b'"' in chunk or b"\0" in chunk:
        return None
    if b"\r" in chunk:
        if chunk.count(b"\r") != chunk.count(b"\r\n"):
            return None
        chunk = chunk.replace(b"\r\n", b"\n")
    code = np.frombuffer(chunk, np.uint8)
    ends = np.flatnonzero((code == ord(",")) | (code == ord("\n")))
    line_ends = np.flatnonzero(code[ends] == ord("\n"))
    if ends.size % width or not np.array_equal(line_ends, np.arange(width - 1, ends.size, width)):
        return None
    if np.diff(ends, prepend=-1).max() > limit:  # a field's length is its gap less one
        return None
    return chunk[:-1].replace(b"\n", b",").decode("ascii").split(",")


def _read_plain(path):
    """Per-column block lists of a plain file (see :func:`read_csv`), or None
    when any part of it is not plain or holds a field ``float()`` rejects.

    Each distinct line of a block is split and checked once, and every row
    takes the values of its line: equal bytes parse to equal values, and every
    plain check is a check of one line.  Only the file's last line may lack
    its line end; it differs from every earlier line, so it is also the last
    distinct one.  A block of distinct lines is parsed as it stands.  A
    leading byte-order mark is dropped, as ``utf-8-sig`` drops it.  Records
    of a discrete table repeat, so this reads the benchmark's 12 000-row
    files 2-3 times faster (README, "Command line").
    """
    limit = csv.field_size_limit()
    with open(path, "rb") as fh:
        line = fh.readline().removeprefix(codecs.BOM_UTF8)
        header = _plain_fields(line, line.count(b",") + 1, limit) if line else None
        if header is None:
            return None
        width = len(header)
        try:
            fields, cluster, parts = _layout(header, path)
            while lines := list(islice(fh, BLOCK_ROWS)):
                distinct, rows = dict.fromkeys(lines), None
                if len(distinct) < len(lines):
                    code = dict(zip(distinct, range(len(distinct))))
                    rows = np.fromiter(map(code.__getitem__, lines), np.intp, len(lines))
                tokens = _plain_fields(b"".join(distinct), width, limit)
                if tokens is None:
                    return None
                _add_block(parts, lambda j: tokens[j::width], fields, cluster, rows)
        except (StructuralError, ValueError):
            return None
    return parts


def _read_dialect(path):
    """Per-column block lists of any file, split by the ``csv`` module."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise StructuralError(f"{path}: empty file")
            fields, cluster, parts = _layout(header, path)
            while True:
                ln = reader.line_num + 1  # the physical line the block starts on
                rows = []
                try:
                    rows.extend(islice(reader, BLOCK_ROWS))
                    if not rows:
                        break
                    if set(map(len, rows)) != {len(header)}:
                        raise ValueError("field count")
                    _add_block(parts, list(zip(*rows)).__getitem__, fields, cluster)
                except (csv.Error, ValueError):
                    # the first bad row read, as a row-by-row parse meets it, named
                    # by its first line; a quoted field can hold line breaks
                    for row in rows:
                        try:
                            if len(row) != len(header):
                                raise ValueError(f"expected {len(header)} fields, got {len(row)}")
                            [float(row[j]) for j in fields.values()]
                        except ValueError as exc:
                            raise StructuralError(f"{path}: line {ln}: {exc}")
                        ln += 1 + sum(f.count("\n") + f.count("\r") - f.count("\r\n") for f in row)
                    raise
    except csv.Error as exc:
        raise StructuralError(f"{path}: line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        with open(path, "rb") as fh:
            ln = next(ln for ln, line in enumerate(fh, start=1)
                      if line.decode("utf-8", "ignore").encode() != line)
        raise StructuralError(f"{path}: line {ln}: not UTF-8 ({exc.reason})") from None
    return parts


def _mediator_codes(m):
    """Support registry of the mediator rows and each row's index into it."""
    m = np.asarray(m, dtype=float)
    if m.ndim == 1:
        m = m[:, None]
    # + 0.0 folds -0.0 into 0.0, so equal points share one code
    if m.shape[1] == 1:
        points, k_of = np.unique(m[:, 0] + 0.0, return_inverse=True)
        points = points[:, None]
    else:
        points, k_of = np.unique(m + 0.0, axis=0, return_inverse=True)
    support = MediatorSupport(points=tuple(map(tuple, points.tolist())),
                              totally_ordered=m.shape[1] == 1)
    return support, k_of.reshape(-1)


def support_from_values(m) -> MediatorSupport:
    """Common support registry for observed mediator rows.

    Scalar supports are sorted increasing and flagged totally ordered
    (mediator values seen in only one arm are registered in the same common
    sorted support); vector supports keep lexicographic order and rely on
    the elementwise partial order.
    """
    return _mediator_codes(m)[0]


@dataclass(frozen=True)
class Encoding:
    """Records mapped to the cells of a :class:`DistTable`.

    ``cell_of[i] = (d * K + k) * Q + q`` places row i in arm d, at support
    point k and outcome level q; ``cluster_of[i]`` numbers its independent
    unit: its cluster, in order of first appearance, or the row itself when
    there is no cluster column.
    """

    support: MediatorSupport
    outcome_levels: tuple
    cell_of: np.ndarray
    cluster_of: np.ndarray

    @property
    def shape(self):
        return (2, self.support.k, len(self.outcome_levels))

    @property
    def unit_level(self):
        """Whether every independent unit holds exactly one record."""
        return self.cluster_of.max(initial=-1) + 1 == self.cluster_of.size

    def cell_sums(self, group=None, weights=None):
        """Rows (or their summed ``weights``) per cell: ``out[d, k, q]``, or
        ``out[g, d, k, q]`` split by the nonnegative integer ``group`` of
        every row."""
        n_cells = int(np.prod(self.shape))
        if group is None:
            return np.bincount(self.cell_of, weights, n_cells).reshape(self.shape)
        flat = np.bincount(group * n_cells + self.cell_of, weights, (group.max() + 1) * n_cells)
        return flat.reshape(-1, *self.shape)

    def units_per_cell(self):
        """Distinct independent units in each occupied (arm, M, Y) cell."""
        if self.unit_level:
            counts = self.cell_sums().reshape(-1)
            return counts[counts > 0]
        n_cells = int(np.prod(self.shape))
        pairs = np.unique(self.cluster_of * n_cells + self.cell_of)
        per_cell = np.bincount(pairs % n_cells)
        return per_cell[per_cell > 0]


def encode(records: RecordSet, bins=None) -> Encoding:
    """Cell and independent-unit codes of every record.

    This decides the cell layout for every table, moment system and cell
    count: support points in lexicographic order, outcome levels increasing,
    and, with ``bins`` (a bin count, any integer but a bool, for pooled
    quantile cutpoints, or a sequence of the cutpoints themselves),
    right-closed outcome intervals each labelled by the smallest value
    observed in it.
    """
    support, k_of = _mediator_codes(records.m)
    levels, q_of = np.unique(records.y + 0.0, return_inverse=True)
    if bins is not None:
        cuts = bins
        if np.ndim(bins) == 0:
            if isinstance(bins, bool) or not isinstance(bins, Integral):
                raise StructuralError(f"bins must be an integer count or a sequence of "
                                      f"cutpoints, got {bins!r}")
            if bins < 2:
                raise StructuralError(f"bins must be at least 2, got {bins}")
            cuts = quantile_cutpoints(records.y, int(bins))
        levels, bin_of_level = _bin_levels(levels, _check_cutpoints(cuts))
        q_of = bin_of_level[q_of]
    if records.cluster is None:
        cluster_of = np.arange(records.n)
    else:
        _, first, inverse = np.unique(records.cluster, return_index=True, return_inverse=True)
        rank = np.empty(first.size, dtype=np.intp)
        rank[np.argsort(first)] = np.arange(first.size)
        cluster_of = rank[inverse.reshape(-1)]
    cell_of = (records.d * support.k + k_of) * levels.size + q_of.reshape(-1)
    return Encoding(support, tuple(levels.tolist()), cell_of, cluster_of)


def from_records(records: RecordSet, bins=None) -> DistTable:
    """Empirical DistTable: cell frequencies within each arm, over the
    outcome ``bins`` of :func:`encode`.

    Raises ``EstimationError`` if either arm has no rows.
    """
    n1 = int((records.d == 1).sum())
    n0 = records.n - n1
    if n0 == 0 or n1 == 0:
        raise EstimationError(f"need rows in both arms (n0={n0}, n1={n1})")
    enc = encode(records, bins)
    n_clusters = None
    if records.cluster is not None:
        n_clusters = tuple(int(np.unique(enc.cluster_of[records.d == d]).size) for d in (0, 1))
    return DistTable(
        support=enc.support,
        outcome_levels=enc.outcome_levels,
        mass=enc.cell_sums() / np.array([n0, n1])[:, None, None],
        n_units=(n0, n1),
        n_clusters=n_clusters,
    )


def delta_sup(table: DistTable, k: int) -> float:
    """Largest treatment-arm gap in P(Y in A, M = m_k) over outcome sets A.

    Equals the positive-part sum over outcome cells, which attains the sup
    at A = {y : cell gap > 0}.
    """
    if not 0 <= k < table.n_mediators:
        raise StructuralError(f"mediator index {k} out of range")
    diff = table.mass[1, k] - table.mass[0, k]
    return float(np.clip(diff, 0.0, None).sum())


def quantile_cutpoints(values, n_bins: int):
    """Cutpoints at pooled empirical quantiles i/n_bins (duplicates merged)."""
    if n_bins < 1:
        raise StructuralError("need at least one bin")
    vals = np.sort(np.asarray(values, dtype=float))
    if vals.size == 0:
        raise StructuralError("no values to compute quantiles from")
    # Left-continuous inverse cdf: smallest value with F(y) >= i / n_bins.
    idx = np.ceil(np.arange(1, n_bins) / n_bins * vals.size).astype(int) - 1
    return tuple(sorted(set(vals[np.maximum(idx, 0)].tolist())))


def _check_cutpoints(cutpoints):
    cuts = tuple(float(c) for c in cutpoints)
    if len(cuts) == 0:
        raise StructuralError("empty interval set")
    if not np.isfinite(cuts).all():
        raise StructuralError(f"cutpoints must be finite, got {cuts}")
    if any(b <= a for a, b in zip(cuts, cuts[1:])):
        raise StructuralError("cutpoints must be strictly increasing")
    return cuts


def _bin_levels(levels, cutpoints):
    """Labels of the occupied bins of the increasing ``levels`` (the smallest
    level in each) and the label index of every level; bins are right-closed,
    so a level goes to bin #{c in cutpoints : level > c}."""
    bins = np.searchsorted(cutpoints, levels, side="left")
    _, first, bin_of_level = np.unique(bins, return_index=True, return_inverse=True)
    return levels[first], bin_of_level.reshape(-1)


def discretize_outcome(table: DistTable, cutpoints) -> DistTable:
    """Collapse outcome levels into the intervals cut at ``cutpoints``.

    Intervals are right-closed (ties land in the lower bin) and each
    nonempty interval is labeled by the smallest original level it
    contains, so re-discretizing with the same cutpoints is a no-op.
    """
    levels, bin_of_level = _bin_levels(np.asarray(table.outcome_levels),
                                       _check_cutpoints(cutpoints))
    mass = np.stack([table.mass[:, :, bin_of_level == b].sum(axis=2)
                     for b in range(levels.size)], axis=2)
    return DistTable(
        support=table.support,
        outcome_levels=tuple(levels.tolist()),
        mass=mass,
        n_units=table.n_units,
        n_clusters=table.n_clusters,
    )

