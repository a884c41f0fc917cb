"""Compressed-sparse-row matrices sized for sensor graphs.

Kept deliberately small: construction from triples, dense round trips,
row normalization, transpose, and multiplication against dense arrays.
Column indices are sorted within each row and explicit zeros are dropped.

A product takes one of three paths, chosen from the matrix alone:

- Band blocks. A matrix of at most DENSE_MAX_CELLS cells (32 MB of float64,
  a square support of n = 2048, which covers partition-sized supports) keeps
  a cached dense copy. When it has more than BAND_BLOCK_ROWS rows and its row
  blocks of that height, each cut to the column span of its nonzeros, skip at
  least half the cells, the product is one BLAS call per block on a view of
  that copy. Sensors numbered along corridors give banded supports: the
  300-node corridor support has |row - col| <= 30, so a block reads about a
  fifth of the columns.
- One dense product. The same matrix when the blocks would not skip half the
  cells (an unbanded order) or it has at most BAND_BLOCK_ROWS rows: a single
  BLAS product with the dense copy. Up to DENSE_MAX_CELLS this beat the
  gather kernel at sensor-graph densities: with one BLAS thread and 32
  columns, 0.18 vs 3.7 ms at n = 300 and density 0.1, and 8.4 vs 19 ms at
  n = 2000 and density 0.015.
- Gather. Larger matrices use the gather/segment-sum kernel and never build
  a dense copy.

A batched [b, n, c] operand is multiplied in place on band blocks, each
block one BLAS call broadcast over the batch, and in a single dense product
whose copy has at most BROADCAST_MAX_CELLS cells (n <= 256), the copy
broadcast over the batch; both write a C-contiguous [b, rows, c] result.
Larger single dense products and the gather kernel fold the operand into one
wide [n, b*c] operand through a transpose copy and return a strided view,
which the op that consumes it reads slowly. The cap comes from the product
plus the DCGRU cell's Horner add that consumes it, on unbanded supports of
density 0.1 at batches of 1, 21 and 64 and 16 or 32 channels: broadcasting
took 0.22-1.05x the folded time up to 223 rows, 0.95-1.16x at 256 and
0.98-1.23x at 300 (2-vCPU VM, one BLAS thread; BENCH_step_memory.json).
At those widths the two results are bit-identical; at a width that is not a
multiple of 8, such as 17 channels, they can differ in the last bits. Before
training kept its saved arrays in a reused workspace, broadcasting cost page
faults as glibc trimmed and re-grew the heap.

A matrix is safe to share between threads, as `training.forecast` shares a
checkpoint's supports across its blocks of windows. Its two caches (the
transpose, and the dense copy with its band blocks) are each built into
locals on first use and published in one attribute assignment, so a thread
sees either no cache or a whole one; two threads that both miss build equal
copies.

On a 2-vCPU VM with one BLAS thread, the banded 300-node support took
0.16 ms per product as one dense product and 0.06 ms in band blocks at 32
columns (medians of six runs). For a batch of 21 windows, the product plus
the Horner add that consumes it took 5.0 ms folded and 0.9 ms in place at
32 channels, and 2.1 and 0.6 ms at 16 channels.
"""

from __future__ import annotations

import numpy as np

DENSE_MAX_CELLS = 1 << 22
# Largest dense copy that a batched operand is broadcast against in one dense
# product (a square support of n = 256); larger ones fold the operand.
BROADCAST_MAX_CELLS = 1 << 16
# Row-block height of the band product: of 32, 48, 64 and 100 rows, 32 was the
# fastest on the 300-node corridor support at 672 columns (0.90 against 1.09 ms
# at 64 rows), and all four were within 15% of each other at 32 columns.
BAND_BLOCK_ROWS = 32


def _band_blocks(a: np.ndarray):
    """Row blocks of `a` as (lo, hi, col_lo, col_hi, view), each view cut to
    the column span of the block's nonzeros; None when `a` has at most
    BAND_BLOCK_ROWS rows or the blocks would skip less than half its cells."""
    if a.shape[0] <= BAND_BLOCK_ROWS:
        return None
    blocks, cells = [], 0
    for lo in range(0, a.shape[0], BAND_BLOCK_ROWS):
        hi = min(lo + BAND_BLOCK_ROWS, a.shape[0])
        nonzero = np.flatnonzero(a[lo:hi].any(axis=0))
        # an all-zero block gets an empty span, and its product writes zero rows
        col_lo, col_hi = (int(nonzero[0]), int(nonzero[-1]) + 1) if nonzero.size else (0, 0)
        blocks.append((lo, hi, col_lo, col_hi, a[lo:hi, col_lo:col_hi]))
        cells += (hi - lo) * (col_hi - col_lo)
    return blocks if 2 * cells <= a.size else None


class CsrMatrix:
    __slots__ = ("rows", "cols", "indptr", "indices", "data", "_transpose", "_dense")

    def __init__(self, rows: int, cols: int, indptr, indices, data):
        self.rows = int(rows)
        self.cols = int(cols)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.data = np.asarray(data, dtype=np.float64)
        self._transpose = None
        self._dense = None  # (dense copy, band blocks of S, of S^T); None blocks fall back
        if self.indptr.shape != (self.rows + 1,):
            raise ValueError("indptr length must be rows+1")
        if self.indices.ndim != 1 or self.indices.shape != self.data.shape:
            raise ValueError("indices and data must be 1-d of equal length")
        if self.indptr[0] != 0 or self.indptr[-1] != self.data.size:
            raise ValueError("indptr must run from 0 to nnz")
        if (np.diff(self.indptr) < 0).any():
            raise ValueError("indptr must not decrease")
        if self.indices.size and (self.indices.min() < 0 or self.indices.max() >= self.cols):
            raise ValueError("column index out of range")

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_triples(cls, rows: int, cols: int, row_idx, col_idx, values) -> "CsrMatrix":
        """Build from coordinate triples; duplicates are summed, zeros dropped."""
        row_idx = np.asarray(row_idx, dtype=np.int64)
        col_idx = np.asarray(col_idx, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if not (row_idx.shape == col_idx.shape == values.shape):
            raise ValueError("triple arrays must have equal length")
        if row_idx.size:
            if row_idx.min() < 0 or row_idx.max() >= rows:
                raise ValueError("row index out of range")
            if col_idx.min() < 0 or col_idx.max() >= cols:
                raise ValueError("column index out of range")
        order = np.lexsort((col_idx, row_idx))
        row_idx, col_idx, values = row_idx[order], col_idx[order], values[order]
        if row_idx.size:
            # merge duplicate (row, col) entries
            first = np.ones(row_idx.size, dtype=bool)
            first[1:] = (row_idx[1:] != row_idx[:-1]) | (col_idx[1:] != col_idx[:-1])
            group = np.cumsum(first) - 1
            merged = np.zeros(int(group[-1]) + 1, dtype=np.float64)
            np.add.at(merged, group, values)
            row_idx, col_idx = row_idx[first], col_idx[first]
            keep = merged != 0.0
            row_idx, col_idx, merged = row_idx[keep], col_idx[keep], merged[keep]
        else:
            merged = values
        indptr = np.zeros(rows + 1, dtype=np.int64)
        np.add.at(indptr, row_idx + 1, 1)
        indptr = np.cumsum(indptr)
        return cls(rows, cols, indptr, col_idx, merged)

    # ------------------------------------------------------------------
    # views and simple transforms
    # ------------------------------------------------------------------

    @property
    def nnz(self) -> int:
        return int(self.data.size)

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.rows, self.cols))
        rows = np.repeat(np.arange(self.rows), np.diff(self.indptr))
        out[rows, self.indices] = self.data
        return out

    def triples(self):
        """(row, col, value) arrays in row-major order."""
        rows = np.repeat(np.arange(self.rows, dtype=np.int64), np.diff(self.indptr))
        return rows, self.indices.copy(), self.data.copy()

    def transpose(self) -> "CsrMatrix":
        if self._transpose is None:
            r, c, v = self.triples()
            self._transpose = CsrMatrix.from_triples(self.cols, self.rows, c, r, v)
        return self._transpose

    def row_sums(self) -> np.ndarray:
        out = np.zeros(self.rows)
        np.add.at(out, np.repeat(np.arange(self.rows), np.diff(self.indptr)), self.data)
        return out

    def row_normalized(self) -> "CsrMatrix":
        """Divide each row by its sum; rows summing to zero stay all-zero."""
        sums = self.row_sums()
        scale = np.ones(self.rows)
        nonzero = sums != 0.0
        scale[nonzero] = 1.0 / sums[nonzero]
        expanded = np.repeat(scale, np.diff(self.indptr))
        return CsrMatrix(self.rows, self.cols, self.indptr, self.indices, self.data * expanded)

    def restrict(self, keep) -> "CsrMatrix":
        """Submatrix on the given node subset, rows and columns alike.

        `keep` is a sequence of old indices; position in it becomes the new index.
        """
        keep = np.asarray(keep, dtype=np.int64)
        remap = -np.ones(max(self.rows, self.cols), dtype=np.int64)
        remap[keep] = np.arange(keep.size)
        r, c, v = self.triples()
        mask = (remap[r] >= 0) & (remap[c] >= 0)
        return CsrMatrix.from_triples(keep.size, keep.size, remap[r[mask]], remap[c[mask]], v[mask])

    # ------------------------------------------------------------------
    # products
    # ------------------------------------------------------------------

    def matmul(self, x: np.ndarray, transpose: bool = False) -> np.ndarray:
        """Sparse @ dense, or its transpose @ dense. Accepts [n, c] or batched [b, n, c].

        A matrix of at most DENSE_MAX_CELLS cells multiplies through its
        cached dense copy (the transpose reads the same copy as a view):
        block by block of BAND_BLOCK_ROWS rows, each against only its
        nonzero column span, when that skips at least half the cells, and
        otherwise in one BLAS product. Blocks skip only cells that are exactly
        zero, so both agree with the dense product up to summation order.
        Larger matrices use the gather/segment-sum kernel and never allocate
        a dense copy. A batched operand takes one of three paths: on band
        blocks each block is broadcast over the batch, and a single dense
        product of at most BROADCAST_MAX_CELLS cells broadcasts the dense
        copy, each into a C-contiguous [b, rows, c] result whose every window
        equals its own 2-d product bit for bit; a larger single dense product
        and the gather kernel fold it to [n, b*c] first.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim not in (2, 3):
            raise ValueError("expected a 2-d or 3-d dense operand")
        rows, cols = (self.cols, self.rows) if transpose else (self.rows, self.cols)
        if x.shape[-2] != cols:
            raise ValueError(f"shape mismatch: {rows}x{cols} @ {x.shape}")
        blocks = self._band(transpose)
        if blocks is not None:
            out = np.empty(x.shape[:-2] + (rows, x.shape[-1]))
            for lo, hi, col_lo, col_hi, view in blocks:
                np.matmul(view, x[..., col_lo:col_hi, :], out=out[..., lo:hi, :])
            return out
        if x.ndim == 2 or self.rows * self.cols <= BROADCAST_MAX_CELLS:
            return self._matmul2(x, transpose)
        b, n, c = x.shape
        flat = x.transpose(1, 0, 2).reshape(n, b * c)
        return self._matmul2(flat, transpose).reshape(rows, b, c).transpose(1, 0, 2)

    def _use_dense_kernel(self) -> bool:
        return self.rows * self.cols <= DENSE_MAX_CELLS

    def _band(self, transpose: bool):
        """The band blocks of S (or S^T), or None. On first use by a matrix on
        the dense kernel, caches the dense copy and the block lists of both,
        published together in one assignment (see the module docstring)."""
        if not self._use_dense_kernel():
            return None
        if self._dense is None:
            dense = self.to_dense()
            self._dense = (dense, _band_blocks(dense), _band_blocks(dense.T))
        return self._dense[1 + transpose]

    def _matmul2(self, x: np.ndarray, transpose: bool) -> np.ndarray:
        """One dense product (the copy is cached by _band; a batched x up to
        BROADCAST_MAX_CELLS broadcasts it) or the gather kernel on a 2-d x."""
        if self._use_dense_kernel():
            dense = self._dense[0]
            return (dense.T if transpose else dense) @ x
        return (self.transpose() if transpose else self)._gather_matmul(x)

    def _gather_matmul(self, x: np.ndarray) -> np.ndarray:
        """The gather/segment-sum kernel on a 2-d operand [cols, c]."""
        out = np.zeros((self.rows, x.shape[1]))
        if self.nnz == 0:
            return out
        contrib = self.data[:, None] * x[self.indices]
        counts = np.diff(self.indptr)
        nz_rows = np.flatnonzero(counts > 0)
        # reduceat over strictly increasing starts; empty rows handled by the mask
        sums = np.add.reduceat(contrib, self.indptr[nz_rows], axis=0)
        out[nz_rows] = sums
        return out
