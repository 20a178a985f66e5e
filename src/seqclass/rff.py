"""Random Fourier feature projection for the Gaussian (RBF) kernel.

The map z(x)_j = sqrt(2/D) * cos(w_j . x + b_j), with rows w_j drawn
from N(0, 2*gamma*I) and phases b_j from Uniform[0, 2*pi), satisfies
E[z(a) . z(b)] = exp(-gamma * ||a - b||^2), so dot products in the
D-dimensional projected space approximate the exact kernel without ever
forming a Gram matrix (Rahimi & Recht, NeurIPS 2007).

The weights are drawn column by column from a counter-based Philox
generator (Salmon et al., SC 2011): the D weights of input column j are
the standard normals from counter (0, 0, 0, j + 1) under the seed's key,
scaled by sqrt(2 gamma), and the phases come from counter 0. So column
j is a function of (seed, j, D, gamma) alone, and a projector can draw
only the columns its input uses: it holds them as one C-ordered
(columns, D) array, which is the B operand of X @ W^T as it stands.
Every projected value is the one the full (D, d) draw gives.

A CSR input is first mapped onto the drawn columns, then takes one of
two routes to its linear part. At density nnz / (n * columns) of at
least GEMM_MIN_DENSITY, row blocks of GEMM_BLOCK_BYTES are densified and
each is multiplied by the drawn weights with one BLAS GEMM. Below it,
scipy's sparse @ dense product does less work, and reads the C-ordered
weights in place. Either route holds the weights, one block and the
output. On a 2-core host (D = 1000, the 1000 rows of a benchmark corpus
on their used columns, nonzeros thinned to each density) the two routes
cross at about 5 %: scipy took 0.101 s and the GEMM 0.107 s at 4.5 %,
against 0.124 s and 0.105 s at 5.5 % (4432 columns, k = 3), and 0.200 s
and 0.224 s against 0.253 s and 0.219 s (8126 columns, k = 4). On their
used columns that corpus's k-mer counts are 26 % dense at k = 3 and 16 %
at k = 4, and one-hot rows are denser than 1/21. The routes sum in
different orders, so their linear parts agree to rounding (about 1e-15
relative), not bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatch, InvalidDimension, InvalidGamma

GEMM_MIN_DENSITY = 1 / 20
# The benchmark's kmer3-rff-lr run peaked at 141 MB RSS with 8 MiB blocks and
# 163 MB with 32 MiB ones, in about the same time
GEMM_BLOCK_BYTES = 8 << 20


@dataclass(frozen=True)
class RffProjector:
    input_dim: int
    output_dim: int
    gamma: float
    seed: int
    columns: np.ndarray = field(repr=False, compare=False)  # sorted ids of the drawn columns
    drawn: np.ndarray = field(repr=False, compare=False)  # (len(columns), D), C-ordered
    phases: np.ndarray = field(repr=False, compare=False)  # (D,)
    # (d,) int32: 1 + the row of drawn that holds a column, 0 for a column not drawn
    lookup: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def weights(self) -> np.ndarray:
        """The (D, d) weights of every input column, drawn on first use unless all are held."""
        if len(self.columns) == self.input_dim:
            return self.drawn.T
        return _normal_columns(self.seed, np.arange(self.input_dim), self.output_dim,
                               self.gamma).T


def new_projector(input_dim: int, output_dim: int, gamma: float, seed: int, *,
                  columns=None) -> RffProjector:
    """Sample a frozen projector; identical seeds give identical arrays.

    ``columns``, sorted distinct ids below ``input_dim`` (default: all of
    them), are the input columns whose weights are drawn; a CSR input to
    ``project`` may hold nonzeros in those alone. The lookup from column id
    to drawn row is ``input_dim`` int32 entries, zeroed lazily by the OS, so
    only its pages that hold a drawn column become resident.
    """
    if input_dim < 1 or output_dim < 1:
        raise InvalidDimension(
            f"dimensions must be >= 1, got d={input_dim}, D={output_dim}"
        )
    if not gamma > 0:
        raise InvalidGamma(f"gamma must be positive, got {gamma}")
    columns = np.arange(input_dim) if columns is None else np.array(columns, dtype=np.int64)
    if columns.ndim != 1 or (len(columns) and (columns[0] < 0 or columns[-1] >= input_dim
                                               or np.any(np.diff(columns) <= 0))):
        raise InvalidDimension(f"columns must be sorted distinct ids in [0, {input_dim})")
    # the phases take the stream at counter 0, which no column's stream reaches
    phases = np.random.Generator(np.random.Philox(seed)).uniform(0.0, 2.0 * np.pi, size=output_dim)
    drawn = _normal_columns(seed, columns, output_dim, gamma)
    lookup = np.zeros(input_dim, dtype=np.int32)
    lookup[columns] = np.arange(1, len(columns) + 1, dtype=np.int32)
    for array in (columns, drawn, phases, lookup):
        array.setflags(write=False)
    return RffProjector(
        input_dim=input_dim,
        output_dim=output_dim,
        gamma=float(gamma),
        seed=int(seed),
        columns=columns,
        drawn=drawn,
        phases=phases,
        lookup=lookup,
    )


def _normal_columns(seed: int, columns: np.ndarray, output_dim: int, gamma: float) -> np.ndarray:
    """(len(columns), D) weights: row i holds the N(0, 2 gamma) draws of column columns[i]."""
    bits = np.random.Philox(seed)
    normal = np.random.Generator(bits).standard_normal
    state = bits.state  # a fresh stream: counter 0 and an empty buffer
    counter = state["state"]["counter"]
    drawn = np.empty((len(columns), output_dim))
    for row, column in zip(drawn, columns):
        counter[3] = column + 1
        bits.state = state
        normal(out=row)
    drawn *= np.sqrt(2.0 * gamma)
    return drawn


def default_gamma(input_dim: int) -> float:
    """Scale-free default bandwidth, 1/d."""
    return 1.0 / input_dim


def project(projector: RffProjector, x) -> np.ndarray:
    """Apply the projector to a vector or matrix (dense or CSR) of width d.

    Returns a dense array with trailing dimension D; every coordinate
    lies in [-sqrt(2/D), sqrt(2/D)]. A CSR matrix is mapped onto the drawn
    columns (DimensionMismatch if it holds a nonzero in another) and, at
    least GEMM_MIN_DENSITY dense there, multiplied in densified blocks of
    GEMM_BLOCK_BYTES, else by scipy (see the module docstring). Dense
    input is multiplied by ``weights``.
    """
    single = False
    if sp.issparse(x):
        mat = x.tocsr()
    else:
        mat = np.asarray(x, dtype=np.float64)
        if mat.ndim == 1:
            mat = mat[None, :]
            single = True
    if mat.shape[1] != projector.input_dim:
        raise DimensionMismatch(
            f"input has dim {mat.shape[1]}, projector expects {projector.input_dim}"
        )
    if sp.issparse(mat):
        linear = _sparse_linear(_on_drawn_columns(projector, mat), projector.drawn)
    else:
        linear = mat @ projector.weights.T
    linear += projector.phases
    np.cos(linear, out=linear)
    linear *= np.sqrt(2.0 / projector.output_dim)
    return linear[0] if single else linear


def _on_drawn_columns(projector: RffProjector, mat: sp.csr_matrix) -> sp.csr_matrix:
    """mat as float64 CSR whose column i is the projector's i-th drawn column."""
    positions = projector.lookup[mat.indices]
    if not positions.all():
        column = int(mat.indices[np.argmin(positions)])
        raise DimensionMismatch(f"input column {column} holds a nonzero, but the projector "
                                f"drew only {len(projector.columns)} of {projector.input_dim}")
    positions -= 1
    return sp.csr_matrix((mat.data.astype(np.float64, copy=False), positions, mat.indptr),
                         shape=(mat.shape[0], len(projector.columns)))


def _sparse_linear(mat, drawn: np.ndarray) -> np.ndarray:
    """mat @ drawn for a float64 CSR mat, by the route its density favours."""
    n, d = mat.shape
    if mat.nnz < GEMM_MIN_DENSITY * n * d:
        return mat @ drawn  # scipy reads C-ordered weights without a copy
    linear = np.empty((n, drawn.shape[1]))
    for start, block in dense_row_blocks(mat, max(1, GEMM_BLOCK_BYTES // (8 * d))):
        np.matmul(block, drawn, out=linear[start:start + len(block)])
    return linear


def dense_row_blocks(M, rows: int, width: int | None = None):
    """Yield (start, block) for each run of ``rows`` rows of M, as dense rows of M's dtype.

    Every block is a view of one buffer, ``width`` columns wide (default:
    M's width), so it is overwritten by the next. CSR rows are densified
    straight from views of M's arrays, as scipy's constructor and row
    slicing both copy them; columns beyond M's are 0 for CSR M and left as
    they were for dense M.
    """
    n, d = M.shape
    buffer = np.zeros((min(rows, n), width or d), dtype=M.dtype)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        block = buffer[:stop - start]
        if sp.issparse(M):
            part, lo, hi = sp.csr_matrix(block.shape), M.indptr[start], M.indptr[stop]
            part.indptr = M.indptr[start:stop + 1] - lo
            part.indices, part.data = M.indices[lo:hi], M.data[lo:hi]
            part.toarray(out=block)
        else:
            block[:, :d] = M[start:stop]
        yield start, block


def exact_kernel(a, b, gamma: float) -> float:
    """exp(-gamma * ||a - b||^2); test oracle and small exact-Gram baseline."""
    if not gamma > 0:
        raise InvalidGamma(f"gamma must be positive, got {gamma}")
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise DimensionMismatch(f"vector dims differ: {a.shape} vs {b.shape}")
    return float(np.exp(-gamma * np.dot(a - b, a - b)))

