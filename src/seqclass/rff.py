"""Random Fourier feature projection for the Gaussian (RBF) kernel.

The map z(x)_j = sqrt(2/D) * cos(w_j . x + b_j), with rows w_j drawn
from N(0, 2*gamma*I) and phases b_j from Uniform[0, 2*pi), satisfies
E[z(a) . z(b)] = exp(-gamma * ||a - b||^2), so dot products in the
D-dimensional projected space approximate the exact kernel without ever
forming a Gram matrix. Weights are generated from a counter-based
Philox stream, so a (seed, d, D, gamma) tuple fully determines the
projector.

A CSR input takes one of two routes to its linear part X @ W^T. At
density nnz / (n * d) of at least GEMM_MIN_DENSITY, row blocks of
GEMM_BLOCK_BYTES are densified and each is multiplied by W^T with one
BLAS GEMM, which reads the C-ordered (D, d) weights as their transpose
without copying them. Below it, scipy's sparse @ dense product does less
work. It copies the transposed weights it is given into C order, so it
is given blocks of GEMM_BLOCK_BYTES of rows of W. Either route holds the
D x d weights, one block and the output. On a 2-core host (1000 rows,
d = 9261, D = 1000, random CSR) the two routes cross at 2.5-3 % density:
sparse took 0.22 s and the GEMM 0.24 s at 2 %, against 0.36 s and 0.25 s
at 5 %. Spike-length k-mer counts are 87 % dense at k = 2, 12.7 % at
k = 3 and 0.65 % at k = 4, and one-hot rows 1/21. The routes sum in
different orders, so their linear parts agree to rounding (about 1e-15
relative), not bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatch, InvalidDimension, InvalidGamma

GEMM_MIN_DENSITY = 1 / 32
# The benchmark's kmer3-rff-lr run peaked at 178 MB RSS with 8 MiB blocks and
# 213 MB with 32 MiB ones, in about the same time
GEMM_BLOCK_BYTES = 8 << 20


@dataclass(frozen=True)
class RffProjector:
    input_dim: int
    output_dim: int
    gamma: float
    seed: int
    weights: np.ndarray = field(repr=False, compare=False)  # (D, d)
    phases: np.ndarray = field(repr=False, compare=False)  # (D,)


def new_projector(input_dim: int, output_dim: int, gamma: float, seed: int) -> RffProjector:
    """Sample a frozen projector; identical seeds give identical arrays."""
    if input_dim < 1 or output_dim < 1:
        raise InvalidDimension(
            f"dimensions must be >= 1, got d={input_dim}, D={output_dim}"
        )
    if not gamma > 0:
        raise InvalidGamma(f"gamma must be positive, got {gamma}")
    rng = np.random.Generator(np.random.Philox(seed))
    weights = rng.normal(0.0, np.sqrt(2.0 * gamma), size=(output_dim, input_dim))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=output_dim)
    weights.setflags(write=False)
    phases.setflags(write=False)
    return RffProjector(
        input_dim=input_dim,
        output_dim=output_dim,
        gamma=float(gamma),
        seed=int(seed),
        weights=weights,
        phases=phases,
    )


def default_gamma(input_dim: int) -> float:
    """Scale-free default bandwidth, 1/d."""
    return 1.0 / input_dim


def project(projector: RffProjector, x) -> np.ndarray:
    """Apply the projector to a vector or matrix (dense or CSR).

    Returns a dense array with trailing dimension D; every coordinate
    lies in [-sqrt(2/D), sqrt(2/D)]. A CSR matrix at least
    GEMM_MIN_DENSITY dense is multiplied in densified blocks of
    GEMM_BLOCK_BYTES, a sparser one by scipy (see the module docstring).
    """
    single = False
    if sp.issparse(x):
        mat = x
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
        linear = _sparse_linear(mat.tocsr().astype(np.float64, copy=False), projector.weights)
    else:
        linear = mat @ projector.weights.T
    linear += projector.phases
    np.cos(linear, out=linear)
    linear *= np.sqrt(2.0 / projector.output_dim)
    return linear[0] if single else linear


def _sparse_linear(mat, weights: np.ndarray) -> np.ndarray:
    """mat @ weights.T for a float64 CSR mat, by the route its density favours."""
    n, d = mat.shape
    linear = np.empty((n, weights.shape[0]))
    rows = max(1, GEMM_BLOCK_BYTES // (8 * d))
    if mat.nnz < GEMM_MIN_DENSITY * n * d:
        # scipy copies the transposed weights it is given, so it gets one
        # block of rows at a time; each output column sums the same terms
        # in the same order as in a product with all of them
        for start in range(0, weights.shape[0], rows):
            linear[:, start:start + rows] = mat @ weights[start:start + rows].T
        return linear
    for start, block in dense_row_blocks(mat, rows):
        np.matmul(block, weights.T, out=linear[start:start + len(block)])
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

