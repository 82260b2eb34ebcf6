"""The fixed column layout and the sparse design matrix laid over it.

Everything downstream (encoder, model, trainers) shares these types. A
``DesignMatrix`` holds its rows as read-only CSR arrays (``indptr``,
``indices``, ``data``) plus one label per row; its ``csr`` view wraps those
arrays without copying them, and all bulk math goes through it. The view's
products are numpy ``bincount`` sums over each row's entries in entry order,
the order (and so the bits) of scipy's CSR products, so no command needs
``scipy.sparse``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, TextIO

import numpy as np


class LayoutError(ValueError):
    """Block name or column index outside the declared layout."""


class RowFormatError(ValueError):
    """Malformed sparse row or design-matrix text."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class FeatureSpace:
    """Named feature blocks laid out left to right over columns [0, N).

    Column order is the declaration order of ``blocks``; a block's offset is
    the total width of everything declared before it.
    """

    blocks: tuple[tuple[str, int], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "blocks", tuple((str(n), int(w)) for n, w in self.blocks)
        )
        names = [n for n, _ in self.blocks]
        if not names:
            raise LayoutError("a feature space needs at least one block")
        if len(names) != len(set(names)):
            raise LayoutError(f"duplicate block names: {names}")
        for name, w in self.blocks:
            if w <= 0:
                raise LayoutError(f"block {name!r} must have positive width, got {w}")

    @cached_property
    def _offsets(self) -> dict[str, int]:
        out, at = {}, 0
        for name, width in self.blocks:
            out[name] = at
            at += width
        return out

    @property
    def width(self) -> int:
        """Total number of columns N."""
        return sum(w for _, w in self.blocks)

    @property
    def block_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.blocks)

    def offset(self, block: str) -> int:
        try:
            return self._offsets[block]
        except KeyError:
            raise LayoutError(f"unknown block {block!r}; have {self.block_names}") from None


def _format_value(v: float) -> str:
    # integers round-trip as bare ints; anything else uses shortest repr,
    # which is bit-exact for doubles
    return str(int(v)) if v.is_integer() else repr(v)


# rows a loader parses, or the text writer formats, at once: enough to
# vectorize, few enough to bound memory
CHUNK_ROWS = 4_096


def _index_dtype(*bounds: int) -> type:
    # int32 where it fits: half the memory of int64 for the largest arrays
    return np.int32 if max(bounds, default=0) <= np.iinfo(np.int32).max else np.int64


class CSRView:
    """Read-only CSR rows with the one operation the package needs: ``rows @ x``.

    Row r of ``rows @ x`` sums ``data[j] * x[indices[j]]`` over the row's
    entries in order, starting from zero, with one ``np.bincount`` (per
    column of a matrix ``x``). That is the order of scipy's ``csr_matvec``
    and ``csr_matvecs``, so the sums are the same to the bit.
    """

    __slots__ = ("indptr", "indices", "data", "shape", "_row_of_entry")

    def __init__(self, indptr, indices, data, shape: tuple[int, int], row_of_entry=None):
        self.indptr, self.indices, self.data, self.shape = indptr, indices, data, shape
        if row_of_entry is None:
            row_of_entry = np.repeat(np.arange(shape[0]), np.diff(indptr))
        self._row_of_entry = row_of_entry

    def with_data(self, data: np.ndarray) -> "CSRView":
        """The same sparsity pattern holding ``data``."""
        return CSRView(self.indptr, self.indices, data, self.shape, self._row_of_entry)

    def _sum(self, x: np.ndarray) -> np.ndarray:
        out = np.bincount(self._row_of_entry, self.data * x[self.indices], self.shape[0])
        return np.asarray(out, dtype=np.float64)  # bincount of no entries counts in ints

    def __matmul__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim not in (1, 2) or x.shape[0] != self.shape[1]:
            raise ValueError(f"dimension mismatch: {self.shape} @ {x.shape}")
        if x.ndim == 1:
            return self._sum(x)
        out = np.empty((self.shape[0], x.shape[1]))
        for f, column in enumerate(np.ascontiguousarray(x.T)):
            out[:, f] = self._sum(column)
        return out


@dataclass(frozen=True, eq=False)
class DesignMatrix:
    """Chronologically ordered sparse rows with binary outcome labels.

    Row ``r`` holds the entries ``indices[indptr[r]:indptr[r + 1]]`` with
    values ``data[...]`` of the same slice. Column indices in a row are
    strictly increasing and below the space's width; values are finite and
    nonzero.
    """

    space: FeatureSpace
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        labels = np.array(self.labels, dtype=np.int8, copy=True)
        data = np.array(self.data, dtype=np.float64, copy=True)
        indptr = np.asarray(self.indptr, dtype=np.int64)
        indices = np.asarray(self.indices, dtype=np.int64)
        width = self.space.width
        if labels.ndim != 1 or indptr.shape != (labels.size + 1,):
            raise RowFormatError(f"{indptr.size - 1} rows but {labels.size} labels")
        if not ((labels == 0) | (labels == 1)).all():
            raise RowFormatError("labels must be 0 or 1")
        if indices.ndim != 1 or indices.shape != data.shape:
            raise RowFormatError("indices and data must be 1-d and same length")
        if indptr[0] != 0 or indptr[-1] != data.size or (np.diff(indptr) < 0).any():
            raise RowFormatError("indptr must rise from 0 to the number of entries")

        # a step between neighbours that stays inside one row must go up
        starts = indptr[1:-1]
        same_row = np.ones(max(data.size - 1, 0), dtype=bool)
        same_row[starts[(starts > 0) & (starts < data.size)] - 1] = False
        rules = (
            (indices < 0, RowFormatError, "negative column index"),
            (indices >= width, LayoutError, f"column index >= width {width}"),
            (np.r_[False, same_row & (np.diff(indices) <= 0)], RowFormatError,
             "indices must be strictly increasing"),
            (~np.isfinite(data), RowFormatError, "values must be finite"),
            (data == 0.0, RowFormatError, "zero-valued entries must not be stored"),
        )
        for broken, error, message in rules:
            if broken.any():
                entry = int(np.argmax(broken))
                row = int(np.searchsorted(indptr, entry, side="right")) - 1
                raise error(f"row {row}: {message} (column {indices[entry]})")
        dtype = _index_dtype(data.size, width)
        for name, array in (
            ("indptr", indptr.astype(dtype)),
            ("indices", indices.astype(dtype)),
            ("data", data),
            ("labels", labels),
        ):
            object.__setattr__(self, name, _readonly(array))

    def __len__(self) -> int:
        return int(self.labels.size)

    @cached_property
    def csr(self) -> CSRView:
        """CSR view of the stored arrays (no copy), for all batch math."""
        return CSRView(self.indptr, self.indices, self.data, (len(self), self.space.width))

    @cached_property
    def csr_squared(self) -> CSRView:
        """Same sparsity pattern as :attr:`csr` with squared values."""
        return self.csr.with_data(self.data**2)

    def subset(self, row_indices: Sequence[int]) -> "DesignMatrix":
        idx = np.asarray(row_indices, dtype=np.int64)
        starts = self.indptr[:-1][idx]
        sizes = self.indptr[1:][idx] - starts
        indptr = np.r_[0, np.cumsum(sizes)]
        # the picked rows' entries, row after row
        entries = np.repeat(starts - indptr[:-1], sizes) + np.arange(indptr[-1])
        return DesignMatrix(self.space, indptr, self.indices[entries], self.data[entries], self.labels[idx])

    def dump(self, stream: TextIO) -> None:
        """Write the rows as libFM-style sparse text.

        The text is a ``#N <width>`` header line, then one line per row:
        ``<label> <col>:<value> ...`` with the row's entries in stored order.
        Integer values are written bare and any other value as its shortest
        ``repr``, so every finite double reads back to the same bits.

        Rows are written ``CHUNK_ROWS`` at a time. Within a chunk, each distinct
        value is formatted once, each entry is its column's ``" <col>:"`` head
        followed by its value's text, each row opens with ``"\\n<label>"``, and
        the chunk goes out as one string. The extra memory is one chunk's
        pieces plus one head string per column.
        """
        stream.write(f"#N {self.space.width}")
        heads = np.array([f" {col}:" for col in range(self.space.width)], dtype=object)
        openers = np.array(["\n0", "\n1"], dtype=object)
        indptr = self.indptr
        for lo in range(0, len(self), CHUNK_ROWS):
            hi = min(lo + CHUNK_ROWS, len(self))
            first, last = int(indptr[lo]), int(indptr[hi])
            values, inverse = np.unique(self.data[first:last], return_inverse=True)
            tails = np.array([_format_value(v) for v in values.tolist()], dtype=object)
            entries = np.empty((last - first, 2), dtype=object)  # each entry's head, then its value
            entries[:, 0] = heads[self.indices[first:last]]
            entries[:, 1] = tails[inverse]
            # each row's opener goes before the pieces of its first entry (after
            # the openers of earlier empty rows: np.insert keeps equal positions in order)
            pieces = np.insert(entries.ravel(), 2 * (indptr[lo:hi] - first), openers[self.labels[lo:hi]])
            stream.write("".join(pieces.tolist()))
        stream.write("\n")

    def save(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            self.dump(fh)


def load_design_matrix(path, space: FeatureSpace | None = None) -> DesignMatrix:
    """Read the text format written by :meth:`DesignMatrix.save`.

    When no ``space`` is given the columns are wrapped in a single anonymous
    block, since the text format only carries the total width.
    """
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("#N "):
            raise RowFormatError(f"missing '#N <width>' header, got {header!r}")
        try:
            width = int(header[3:])
        except ValueError:
            raise RowFormatError(f"bad width in header {header!r}") from None
        if space is None:
            space = FeatureSpace((("features", width),))
        elif space.width != width:
            raise LayoutError(f"header width {width} != space width {space.width}")
        indptr, indices, data, labels = [0], [], [], []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            fields = line.split()
            if fields[0] not in ("0", "1"):
                raise RowFormatError(f"line {lineno}: label must be 0 or 1")
            labels.append(int(fields[0]))
            for field in fields[1:]:
                try:
                    i, v = field.split(":")
                    indices.append(int(i))
                    data.append(float(v))
                except ValueError:
                    raise RowFormatError(
                        f"line {lineno}: bad entry {field!r}"
                    ) from None
            indptr.append(len(indices))
    return DesignMatrix(space, indptr, indices, data, labels)
