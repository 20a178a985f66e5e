"""Random Fourier feature projection for the Gaussian (RBF) kernel.

The map z(x)_j = sqrt(2/D) * cos(w_j . x + b_j), with rows w_j drawn
from N(0, 2*gamma*I) and phases b_j from Uniform[0, 2*pi), satisfies
E[z(a) . z(b)] = exp(-gamma * ||a - b||^2), so dot products in the
D-dimensional projected space approximate the exact kernel without ever
forming a Gram matrix (Rahimi & Recht, NeurIPS 2007).

The phases and then the weights come from one Philox stream under the
seed (Salmon et al., SC 2011): one standard-normal fill of a C-ordered
(d, D) array, scaled by sqrt(2 gamma), whose row j holds input column
j's weights. That array is the B operand of X @ W^T as it stands, and
``weights`` is its (D, d) transpose. Row j is the same in every draw
wider than j columns, so a projector over a prefix of the columns holds
a prefix of the wider one's rows. The projector is built for the
columns it is given and reads no nominal column id. The pipeline builds
it over a corpus's used columns (`features.used_columns`), so the
normals a column gets depend on how many used columns precede it, which
is a property of the whole corpus, not of (seed, column id) alone.

A CSR input takes one of two routes to its linear part. At density
nnz / (n * d) of at least GEMM_MIN_DENSITY, row blocks of
GEMM_BLOCK_BYTES are densified and each is multiplied by the weights
with one BLAS GEMM. Below it, scipy's sparse @ dense product does less
work, and reads the C-ordered draw in place. Either route holds the
weights, one block and the output. On a 2-core host (D = 1000, the 1000
rows of a benchmark corpus on their used columns, nonzeros thinned to
each density) the two routes cross at about 5 %: scipy took 0.101 s and
the GEMM 0.107 s at 4.5 %, against 0.124 s and 0.105 s at 5.5 % (4432
columns, k = 3), and 0.200 s and 0.224 s against 0.253 s and 0.219 s
(8126 columns, k = 4). On their used columns that corpus's k-mer counts
are 26 % dense at k = 3 and 16 % at k = 4, and one-hot rows are denser
than 1/21. The routes sum in different orders, so their linear parts
agree to rounding (about 1e-15 relative), not bit for bit.

The pipeline projects rows of its corpus matrix with `project_rows`,
which gives project(projector, M[rows]) bit for bit. On the GEMM route
it makes no CSR copy of the rows: each block of them is densified row
by row, straight from M's arrays, into one reused float64 buffer
(`gather_rows`) and handed to `project` as dense input, which runs the
same GEMM on it. scipy's route takes the rows as CSR.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    weights: np.ndarray = field(repr=False, compare=False)  # (D, d): the C-ordered draw's .T
    phases: np.ndarray = field(repr=False, compare=False)  # (D,)


def new_projector(input_dim: int, output_dim: int, gamma: float, seed: int) -> RffProjector:
    """Sample a frozen projector; identical seeds give identical arrays."""
    if input_dim < 1 or output_dim < 1:
        raise InvalidDimension(
            f"dimensions must be >= 1, got d={input_dim}, D={output_dim}"
        )
    if not gamma > 0:
        raise InvalidGamma(f"gamma must be positive, got {gamma}")
    generator = np.random.Generator(np.random.Philox(seed))
    phases = generator.uniform(0.0, 2.0 * np.pi, size=output_dim)
    drawn = generator.standard_normal((input_dim, output_dim))  # row j: column j's weights
    drawn *= np.sqrt(2.0 * gamma)
    for array in (drawn, phases):
        array.setflags(write=False)
    return RffProjector(
        input_dim=input_dim,
        output_dim=output_dim,
        gamma=float(gamma),
        seed=int(seed),
        weights=drawn.T,
        phases=phases,
    )


def default_gamma(input_dim: int) -> float:
    """Scale-free default bandwidth, 1/d."""
    return 1.0 / input_dim


def project(projector: RffProjector, x) -> np.ndarray:
    """Apply the projector to a vector or matrix (dense or CSR) of width d.

    Returns a dense array with trailing dimension D; every coordinate
    lies in [-sqrt(2/D), sqrt(2/D)]. A CSR matrix at least
    GEMM_MIN_DENSITY dense is multiplied in densified blocks of
    GEMM_BLOCK_BYTES, else by scipy (see the module docstring); integer
    data is first copied to float64. Dense input is multiplied by
    ``weights``.
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
        # float64 data over mat's own index arrays, which astype would copy too
        mat = sp.csr_matrix((mat.data.astype(np.float64, copy=False), mat.indices, mat.indptr),
                            shape=mat.shape)
        linear = _sparse_linear(mat, projector.weights.T)
    else:
        linear = mat @ projector.weights.T
    linear += projector.phases
    np.cos(linear, out=linear)
    linear *= np.sqrt(2.0 / projector.output_dim)
    return linear[0] if single else linear


def _sparse_linear(mat, drawn: np.ndarray) -> np.ndarray:
    """mat @ drawn for a float64 CSR mat and a C-ordered (d, D) drawn, by the faster route."""
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


def gather_rows(M, rows: np.ndarray, buffer: np.ndarray) -> np.ndarray:
    """M[rows] written densely into the first len(rows) rows of a float64 buffer; returns them.

    CSR rows are densified one by one from views of M's arrays, so no
    slice of M, copy of its data or gather array of its nonzeros is made.
    """
    block = buffer[:len(rows)]
    if not sp.issparse(M):
        block[...] = M[rows]
        return block
    block[...] = 0.0
    starts, stops = M.indptr[rows].tolist(), M.indptr[rows + 1].tolist()
    for row, lo, hi in zip(block, starts, stops):
        row[M.indices[lo:hi]] = M.data[lo:hi]
    return block


def project_rows(projector: RffProjector, M: sp.csr_matrix, rows: np.ndarray) -> np.ndarray:
    """project(projector, M[rows]), bit for bit, for a CSR M; on the GEMM route without M[rows].

    The route is the one project would take for M[rows]. On the GEMM route
    each block of those rows is gathered (`gather_rows`) into one reused
    float64 buffer and projected by `project` as dense input, which runs
    the GEMM that project's own blocks would. scipy's route takes the rows.
    """
    n, d = len(rows), M.shape[1]
    nnz = int((M.indptr[rows + 1] - M.indptr[rows]).sum())
    if nnz < GEMM_MIN_DENSITY * n * d:
        return project(projector, M[rows])
    step = max(1, GEMM_BLOCK_BYTES // (8 * d))
    buffer = np.zeros((min(step, n), d))
    if n <= step:  # one GEMM, whose output is the result
        return project(projector, gather_rows(M, rows, buffer))
    out = np.empty((n, projector.output_dim))
    for start in range(0, n, step):
        out[start:start + step] = project(projector, gather_rows(M, rows[start:start + step],
                                                                 buffer))
    return out


def exact_kernel(a, b, gamma: float) -> float:
    """exp(-gamma * ||a - b||^2); test oracle and small exact-Gram baseline."""
    if not gamma > 0:
        raise InvalidGamma(f"gamma must be positive, got {gamma}")
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise DimensionMismatch(f"vector dims differ: {a.shape} vs {b.shape}")
    return float(np.exp(-gamma * np.dot(a - b, a - b)))

