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
nnz / (n * d) of at least GEMM_MIN_DENSITY (`uses_gemm`), row blocks of
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

The GEMM route has one loop, `project_rows`, which `project` calls for
all the rows of a CSR input, and the pipeline for the rows of its corpus
matrix it projects. It makes no CSR copy of the rows: each block of them
is densified row by row, straight from M's arrays, into one reused
float64 buffer (`gather_rows`) and handed to `project` as dense input.
A call of at most `gemm_rows` rows is one GEMM, and returns that GEMM's
output itself; the pipeline sizes its RFF test blocks so. scipy's route
takes the rows as CSR.
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


def _check_gamma(gamma: float) -> None:
    """InvalidGamma unless gamma > 0 and the weights' scale sqrt(2 gamma) is finite."""
    if not 0.0 < 2.0 * float(gamma) < np.inf:
        raise InvalidGamma(f"gamma must be positive with sqrt(2 gamma) finite, got {gamma}")


def new_projector(input_dim: int, output_dim: int, gamma: float, seed: int) -> RffProjector:
    """Sample a frozen projector; identical seeds give identical arrays."""
    if input_dim < 1 or output_dim < 1:
        raise InvalidDimension(
            f"dimensions must be >= 1, got d={input_dim}, D={output_dim}"
        )
    _check_gamma(gamma)
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


def projector_bytes(input_dim: int, output_dim: int) -> int:
    """Bytes a projector holds while it projects: its weights and phases, and numpy's buffer
    for the ufunc that adds the phases to a projection."""
    return 8 * output_dim * (input_dim + 1) + 8 * np.getbufsize()


def default_gamma(input_dim: int) -> float:
    """Scale-free default bandwidth, 1/d."""
    return 1.0 / input_dim


def _as_2d(X, width: int | None = None):
    """Float64 CSR or 2-d ndarray; the input itself when it already is one.

    A float64 copy of a CSR's data shares the input's index arrays, which
    astype would copy too. DimensionMismatch unless it has ``width``
    columns, when ``width`` is given.
    """
    if sp.issparse(X):
        X = X.tocsr()
        if X.dtype != np.float64:
            X = sp.csr_matrix((X.data.astype(np.float64), X.indices, X.indptr), shape=X.shape)
    else:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[None, :]
    if width is not None and X.shape[1] != width:
        raise DimensionMismatch(f"input has dim {X.shape[1]}, expected {width}")
    return X


def uses_gemm(nnz: int, rows: int, width: int) -> bool:
    """Whether CSR rows with these nonzeros are projected by dense GEMMs, not by scipy."""
    return nnz >= GEMM_MIN_DENSITY * rows * width


def gemm_rows(width: int) -> int:
    """Rows of one dense float64 block of GEMM_BLOCK_BYTES at this width, at least 1."""
    return max(1, GEMM_BLOCK_BYTES // (8 * width))


def project(projector: RffProjector, x) -> np.ndarray:
    """Apply the projector to a vector or matrix (dense or CSR) of width d.

    Returns a dense array with trailing dimension D; every coordinate
    lies in [-sqrt(2/D), sqrt(2/D)]. A CSR matrix on the GEMM route
    (`uses_gemm`) is projected by `project_rows`, which writes its float64
    blocks itself. Other input is first copied to float64 (`_as_2d`) and
    multiplied by ``weights``: by scipy for CSR, by BLAS for dense input.
    """
    if sp.issparse(x):
        x = x.tocsr()
        if uses_gemm(x.nnz, *x.shape):
            return project_rows(projector, x, np.arange(x.shape[0]))
    mat = _as_2d(x, projector.input_dim)
    linear = mat @ projector.weights.T  # scipy reads the C-ordered draw without a copy
    linear += projector.phases
    np.cos(linear, out=linear)
    linear *= np.sqrt(2.0 / projector.output_dim)
    return linear[0] if not sp.issparse(x) and np.ndim(x) == 1 else linear


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
    each block of `gemm_rows` of those rows is gathered (`gather_rows`)
    into one reused float64 buffer and projected by `project` as dense
    input, one GEMM a block. Rows that fit one block are one GEMM, whose
    output is returned as it is; more are copied into one n x D array.
    scipy's route takes the rows.
    """
    n, d = len(rows), M.shape[1]
    nnz = int((M.indptr[rows + 1] - M.indptr[rows]).sum())
    if not uses_gemm(nnz, n, d):
        return project(projector, M[rows])
    step = gemm_rows(d)
    buffer = np.zeros((min(step, n), d))
    if n <= step:  # one GEMM, whose output is the result
        return project(projector, gather_rows(M, rows, buffer))
    out = np.empty((n, projector.output_dim))
    for start in range(0, n, step):
        out[start:start + step] = project(projector, gather_rows(M, rows[start:start + step],
                                                                 buffer))
    return out


def project_rows_bytes(rows: int, width: int, output_dim: int, longest_row: int,
                       value_bytes: int) -> float:
    """Most bytes project_rows holds beside its output for ``rows`` rows of a CSR matrix of
    ``width`` columns, none of more than ``longest_row`` nonzeros of ``value_bytes`` bytes.

    uses_gemm picks a call's route from its rows' own density, so the rows of a ragged
    matrix can take either route, unless even rows as long as the longest fall short of
    the GEMM route. The GEMM route holds its gather buffer of up to one GEMM's rows and,
    for rows beyond one GEMM, one GEMM's projection. scipy's route holds the rows taken
    and project's float64 copy of their values (value, int32 index and 8 bytes a nonzero);
    rows take it only below GEMM_MIN_DENSITY of their columns, so their nonzeros are fewer
    than that, and than the rows times the longest row.
    """
    copies = min(longest_row, GEMM_MIN_DENSITY * width) * (value_bytes + 4 + 8)  # a row's
    if not uses_gemm(longest_row, 1, width):  # no call takes the GEMM route
        return rows * copies
    step = gemm_rows(width)
    gemm = 8 * (width * min(rows, step) + (output_dim * step if rows > step else 0))
    return max(rows * copies, gemm)


def exact_kernel(a, b, gamma: float) -> float:
    """exp(-gamma * ||a - b||^2); test oracle and small exact-Gram baseline."""
    _check_gamma(gamma)
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise DimensionMismatch(f"vector dims differ: {a.shape} vs {b.shape}")
    return float(np.exp(-gamma * np.dot(a - b, a - b)))

