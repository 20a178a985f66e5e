import numpy as np
import pytest
import scipy.sparse as sp

import seqclass.rff as rff
from conftest import random_sequences
from seqclass.errors import DimensionMismatch, InvalidDimension, InvalidGamma
from seqclass.features import kmer_matrix, ohe_matrix, used_columns
from seqclass.rff import default_gamma, exact_kernel, new_projector, project


def test_projector_deterministic():
    a = new_projector(9261, 1000, 1.0 / 9261, seed=42)
    b = new_projector(9261, 1000, 1.0 / 9261, seed=42)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.phases, b.phases)


def test_projector_seed_changes_arrays():
    a = new_projector(16, 64, 0.1, seed=1)
    b = new_projector(16, 64, 0.1, seed=2)
    assert not np.array_equal(a.weights, b.weights)


def test_projector_validation():
    with pytest.raises(InvalidDimension):
        new_projector(10, 0, 0.1, seed=0)
    with pytest.raises(InvalidDimension):
        new_projector(0, 10, 0.1, seed=0)
    with pytest.raises(InvalidGamma):
        new_projector(10, 10, -1.0, seed=0)
    with pytest.raises(InvalidGamma):
        exact_kernel([1.0], [1.0], 0.0)
    # inf, and 1e308, whose weights' scale sqrt(2 gamma) overflows
    for gamma in (np.inf, 1e308, np.nan):
        with pytest.raises(InvalidGamma):
            new_projector(10, 10, gamma, seed=0)
        with pytest.raises(InvalidGamma):
            exact_kernel([1.0], [1.0], gamma)
    assert np.isfinite(new_projector(10, 10, 8e307, seed=0).weights).all()


def test_projector_distribution_parameters():
    proj = new_projector(200, 5000, 0.03, seed=7)
    # weights ~ N(0, 2*gamma), phases ~ U[0, 2*pi)
    assert abs(proj.weights.var() - 2 * 0.03) < 0.002
    assert 0.0 <= proj.phases.min() and proj.phases.max() < 2 * np.pi


def test_project_zero_vector_bound():
    proj = new_projector(8, 32, 0.5, seed=3)
    z = project(proj, np.zeros(8))
    bound = np.sqrt(2.0 / 32)
    assert np.all(np.abs(z) <= bound + 1e-15)
    assert np.allclose(z, bound * np.cos(proj.phases))


def test_project_coordinate_bound(rng):
    proj = new_projector(12, 64, 0.2, seed=5)
    X = rng.normal(size=(20, 12))
    Z = project(proj, X)
    assert Z.shape == (20, 64)
    assert np.all(np.abs(Z) <= np.sqrt(2.0 / 64) + 1e-15)
    # squared norm can never exceed 2
    assert np.all((Z**2).sum(axis=1) <= 2.0 + 1e-12)


def test_project_sparse_equals_dense(rng):
    proj = new_projector(30, 40, 0.1, seed=9)
    X = rng.poisson(0.5, size=(6, 30)).astype(np.float64)
    assert np.allclose(project(proj, sp.csr_matrix(X)), project(proj, X))


def test_project_dimension_mismatch():
    proj = new_projector(8, 16, 0.5, seed=0)
    with pytest.raises(DimensionMismatch):
        project(proj, np.zeros(9))


def test_exact_kernel_values():
    a = np.array([1.0, 0.0])
    assert exact_kernel(a, a, 1.7) == 1.0
    # gamma=0.5 with squared distance 2
    assert np.isclose(exact_kernel([1.0, 0.0], [0.0, 1.0], 0.5), np.exp(-1.0))
    # orthonormal pair at gamma=1
    assert np.isclose(exact_kernel([1.0, 0.0], [0.0, 1.0], 1.0), np.exp(-2.0))
    with pytest.raises(DimensionMismatch):
        exact_kernel([1.0], [1.0, 2.0], 1.0)


def test_self_kernel_concentration(rng):
    d, D = 24, 4096
    x = rng.normal(size=d)
    x /= np.linalg.norm(x)
    for seed in range(5):
        proj = new_projector(d, D, 1.0, seed=seed)
        z = project(proj, x)
        assert abs(z @ z - 1.0) <= 0.1


def test_pair_kernel_approximation(rng):
    # construct a pair with gamma * ||a-b||^2 = 1, oracle exp(-1)
    d, D = 24, 4096
    a = rng.normal(size=d)
    a /= np.linalg.norm(a)
    delta = rng.normal(size=d)
    delta /= np.linalg.norm(delta)
    gamma = 2.0
    b = a + delta / np.sqrt(gamma)  # ||a-b||^2 = 1/gamma
    proj = new_projector(d, D, gamma, seed=11)
    approx = project(proj, a) @ project(proj, b)
    assert abs(approx - np.exp(-1.0)) <= 0.08
    assert np.isclose(exact_kernel(a, b, gamma), np.exp(-1.0))


def test_rmse_shrinks_with_dimension(rng):
    # mean over projectors converges to the exact kernel; error ~ 1/sqrt(D)
    d = 16
    pairs = []
    for _ in range(20):
        a, b = rng.normal(size=(2, d))
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        pairs.append((a, b))
    gamma = 0.5

    def rmse(D, seeds):
        errs = []
        for seed in seeds:
            proj = new_projector(d, D, gamma, seed=seed)
            for a, b in pairs:
                errs.append(project(proj, a) @ project(proj, b) - exact_kernel(a, b, gamma))
        return float(np.sqrt(np.mean(np.square(errs))))

    seeds = range(10)
    assert rmse(1024, seeds) < rmse(64, seeds) / 2


def test_default_gamma():
    assert default_gamma(9261) == 1.0 / 9261


# --- one draw, row j for column j ---------------------------------------------------

@pytest.mark.parametrize("seed", [3, 77])
def test_column_weights_depend_on_seed_and_column_alone(seed):
    """Row j of the C-ordered draw is the same in every projector more than j columns wide."""
    d, D, gamma = 40, 24, 0.05
    full = new_projector(d, D, gamma, seed)
    assert full.weights.shape == (D, d) and full.weights.T.flags.c_contiguous
    for width in (1, 18, 39):
        prefix = new_projector(width, D, gamma, seed)
        assert np.array_equal(prefix.weights, full.weights[:, :width])
        assert np.array_equal(prefix.phases, full.phases)
    other = new_projector(d, D, gamma, seed + 1)
    assert not np.array_equal(other.weights[:, 17], full.weights[:, 17])


@pytest.mark.parametrize("k, n, length, gemm", [(3, 20, 1300, True), (4, 60, 200, False)])
def test_project_on_drawn_columns_matches_the_dense_product(k, n, length, gemm):
    """CSR on the used columns, by either route, against dense x @ W^T."""
    nominal = kmer_matrix(_ragged_sequences(k, n, length // 3, length), k=k)
    mat = used_columns(nominal)
    proj = new_projector(mat.shape[1], 16, default_gamma(nominal.shape[1]), seed=k)
    assert mat.shape[1] < nominal.shape[1]
    assert _gemm_rows(mat) == gemm
    linear = mat.toarray() @ proj.weights.T
    want = np.sqrt(2.0 / 16) * np.cos(linear + proj.phases)
    # the same terms summed in another order; cos is 1-Lipschitz
    assert np.abs(project(proj, mat) - want).max() <= LINEAR_RTOL * np.abs(linear).max() + 1e-15


# --- the two sparse routes ----------------------------------------------------------

LINEAR_RTOL = 1e-12  # GEMM against scipy's product, relative to the largest |entry|


def _ragged_sequences(seed: int, n: int, low: int, high: int) -> list[str]:
    rng = np.random.default_rng(seed)
    return [random_sequences(rng, 1, int(length))[0] for length in rng.integers(low, high, n)]


def _scipy_linear(mat, weights):
    """The single sparse @ dense product every CSR input took before the GEMM route."""
    return np.asarray(mat.astype(np.float64) @ weights.T)


def _gemm_rows(mat) -> bool:
    return rff.uses_gemm(mat.nnz, *mat.shape)


def _linear(fn, *args):
    """fn(*args) with each dense block's projection cut to its GEMM X W^T: on the GEMM
    route, project and project_rows give the linear part that they take the cos of."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rff, "project", lambda projector, x: x @ projector.weights.T)
        return fn(*args)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_sparse_routes_match_scipy_product_on_ragged_kmers(k):
    mat = kmer_matrix(_ragged_sequences(k, 250, 400, 1300), k=k)
    proj = new_projector(mat.shape[1], 16, default_gamma(mat.shape[1]), seed=k)
    want = _scipy_linear(mat, proj.weights)
    expected = np.sqrt(2.0 / 16) * np.cos(want + proj.phases)
    if k < 4:
        assert _gemm_rows(mat)  # 250 rows: two full blocks and a ragged one at k = 3
        bound = LINEAR_RTOL * np.abs(want).max()
        assert np.abs(_linear(project, proj, mat) - want).max() <= bound
        rows = np.arange(250)[::-1]
        assert np.abs(_linear(rff.project_rows, proj, mat, rows) - want[rows]).max() <= bound
        assert np.abs(project(proj, mat) - expected).max() <= bound + 1e-15  # cos is 1-Lipschitz
    else:
        assert not _gemm_rows(mat)  # 0.4 % dense: the scipy product, bit for bit
        assert np.array_equal(project(proj, mat), expected)
        assert np.array_equal(rff.project_rows(proj, mat, np.arange(250)), expected)


def test_gemm_route_on_one_hot_rows():
    seqs = _ragged_sequences(5, 20, 60, 61)
    mat = ohe_matrix(seqs, expected_len=60)  # int8 data, exactly 1/21 dense
    used = used_columns(mat).astype(np.float64)  # denser on the columns the rows use
    assert mat.dtype != np.float64 and not _gemm_rows(mat) and _gemm_rows(used)
    proj = new_projector(used.shape[1], 32, 0.01, seed=5)
    want = _scipy_linear(used, proj.weights)
    got = _linear(project, proj, used)
    assert np.abs(got - want).max() <= LINEAR_RTOL * np.abs(want).max()
    assert np.array_equal(project(proj, used_columns(mat)), project(proj, used))
    rows = np.arange(20)
    assert np.array_equal(rff.project_rows(proj, used_columns(mat), rows), project(proj, used))


def test_gemm_route_matches_products_of_sliced_blocks(rng, monkeypatch):
    """Blocks densified from the CSR arrays give the GEMMs of sliced copies, bit for bit."""
    d, D = 50, 24
    proj = new_projector(d, D, 0.05, seed=8)
    monkeypatch.setattr(rff, "GEMM_BLOCK_BYTES", 3 * 8 * d)  # 3-row blocks: 3 + 3 + 3 + 1
    mat = sp.csr_matrix(rng.poisson(0.4, size=(10, d)).astype(np.float64))
    want = np.vstack([mat[s:s + 3].toarray() @ proj.weights.T for s in range(0, 10, 3)])
    assert np.array_equal(_linear(project, proj, mat), want)
    assert np.array_equal(project(proj, mat), np.sqrt(2.0 / D) * np.cos(want + proj.phases))
    rows = rng.permutation(10)
    want = np.vstack([mat[rows[s:s + 3]].toarray() @ proj.weights.T for s in range(0, 10, 3)])
    assert np.array_equal(_linear(rff.project_rows, proj, mat, rows), want)


def test_gemm_route_edge_shapes(rng, monkeypatch):
    d, D = 50, 24
    proj = new_projector(d, D, 0.05, seed=8)
    monkeypatch.setattr(rff, "GEMM_BLOCK_BYTES", 3 * 8 * d)  # 3-row blocks
    dense = rng.poisson(0.4, size=(10, d)).astype(np.float64)  # 10 = 3 + 3 + 3 + 1 rows
    mat = sp.csr_matrix(dense)
    assert _gemm_rows(mat)
    want = _scipy_linear(mat, proj.weights)
    bound = LINEAR_RTOL * np.abs(want).max()
    for rows in (slice(0, 10), slice(4, 5)):  # ragged last block; one row
        got = _linear(project, proj, mat[rows])
        assert got.shape == want[rows].shape
        assert np.abs(got - want[rows]).max() <= bound
    for rows in (np.arange(10), np.array([4])):
        got = _linear(rff.project_rows, proj, mat, rows)
        assert got.shape == want[rows].shape
        assert np.abs(got - want[rows]).max() <= bound
    # a block wider than one row's budget still takes one row at a time
    monkeypatch.setattr(rff, "GEMM_BLOCK_BYTES", 1)
    assert rff.gemm_rows(d) == 1
    assert np.abs(_linear(project, proj, mat) - want).max() <= bound
    assert np.abs(_linear(rff.project_rows, proj, mat, np.arange(10)) - want).max() <= bound
    # int32 CSR projects exactly as its float64 copy; a 1-D vector as its row
    as_int = sp.csr_matrix(dense.astype(np.int32))
    assert as_int.dtype == np.int32
    assert np.array_equal(project(proj, as_int), project(proj, mat))
    assert np.array_equal(rff.project_rows(proj, as_int, np.arange(10)), project(proj, mat))
    assert np.array_equal(project(proj, dense[4]), project(proj, dense[4:5])[0])
    assert np.abs(project(proj, dense[4]) - project(proj, mat[4])[0]).max() <= 1e-14


def test_gemm_route_holds_no_copy_of_the_weights():
    """Traced peak of building and applying a projector: weights, one block and the output."""
    import tracemalloc

    n, d, D = 600, 4000, 1000  # weights 32 MB, four times a block
    mat = sp.random(n, d, density=0.1, format="csr", random_state=4)
    assert _gemm_rows(mat)
    tracemalloc.start()
    project(new_projector(d, D, 1.0 / d, seed=0), mat)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    block = (rff.GEMM_BLOCK_BYTES // (8 * d)) * d * 8
    assert peak <= 1.10 * (D * d * 8 + block + n * D * 8)


def test_sparse_route_holds_no_copy_of_the_weights():
    """Below GEMM_MIN_DENSITY scipy reads the C-ordered drawn weights without copying them."""
    import tracemalloc

    n, d, D = 600, 4000, 1000  # weights 32 MB, four times a block
    mat = sp.random(n, d, density=0.01, format="csr", random_state=4)
    assert not _gemm_rows(mat)
    tracemalloc.start()
    got = project(new_projector(d, D, 1.0 / d, seed=0), mat)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak <= 1.10 * (D * d * 8 + n * D * 8)  # the weights and the output
    proj = new_projector(d, D, 1.0 / d, seed=0)
    want = np.sqrt(2.0 / D) * np.cos(_scipy_linear(mat, proj.weights) + proj.phases)
    assert np.array_equal(got, want)


# --- rows projected straight from a CSR corpus -------------------------------------

@pytest.mark.parametrize("sparse", [True, False])
def test_gather_rows_writes_the_rows_into_one_buffer(rng, sparse):
    dense = rng.poisson(0.4, size=(10, 6)).astype(np.int32)
    M = sp.csr_matrix(dense) if sparse else dense
    buffer = np.full((4, 6), 7.0)
    for rows in (np.array([9, 0, 9, 3]), np.array([5, 2]), np.array([], dtype=np.int64)):
        block = rff.gather_rows(M, rows, buffer)
        assert block.dtype == np.float64 and block.shape == (len(rows), 6)
        assert np.shares_memory(block, buffer) or not len(rows)
        assert np.array_equal(block, dense[rows])  # no value of an earlier block is left


@pytest.mark.parametrize("block_rows", [None, 7])
@pytest.mark.parametrize("k, length", [(3, 1300), (4, 200)])
def test_project_rows_equals_project_of_the_rows_taken(monkeypatch, k, length, block_rows):
    """Bit for bit project(projector, M[rows]), on both routes, in one GEMM or in several."""
    nominal = kmer_matrix(_ragged_sequences(k, 60, length // 3, length), k=k)
    M = used_columns(nominal)  # int32 counts, as the pipeline holds them
    rows = np.random.default_rng(k).permutation(60)[:45]
    if block_rows is not None:
        monkeypatch.setattr(rff, "GEMM_BLOCK_BYTES", block_rows * 8 * M.shape[1])
    proj = new_projector(M.shape[1], 24, default_gamma(nominal.shape[1]), seed=k)
    assert _gemm_rows(M[rows]) == (k == 3)
    assert np.array_equal(rff.project_rows(proj, M, rows), project(proj, M[rows]))


def test_project_rows_returns_one_gemms_output_as_it_is(rng, monkeypatch):
    """Rows that fit one block of gemm_rows are one project call, whose output project_rows
    returns as it is (the pipeline scores it so); more rows take one call a block."""
    M = sp.csr_matrix(rng.poisson(0.4, size=(30, 50)).astype(np.int32))
    proj = new_projector(50, 24, 0.05, seed=8)
    monkeypatch.setattr(rff, "GEMM_BLOCK_BYTES", 8 * 8 * 50)  # 8 rows a block
    calls = []

    def recording(projector, x):
        calls.append((len(x), project(projector, x)))
        return calls[-1][1]

    monkeypatch.setattr(rff, "project", recording)
    rows = rng.permutation(30)
    assert _gemm_rows(M[rows[:8]])
    got = rff.project_rows(proj, M, rows[:8])
    assert len(calls) == 1 and got is calls[0][1]
    calls.clear()
    got = rff.project_rows(proj, M, rows)
    assert [n for n, _ in calls] == [8, 8, 8, 6]
    assert np.array_equal(got, np.vstack([out for _, out in calls]))


def test_project_rows_makes_no_csr_copy_of_the_rows():
    """The GEMM route holds the output, the gather buffer and one GEMM's projection."""
    import tracemalloc

    n, d, D = 4000, 500, 64
    M = sp.random(n, d, density=0.3, format="csr", random_state=4, dtype=np.float64)
    M.data = np.ceil(10 * M.data).astype(np.int32)  # counts, as the corpus holds them
    rows = np.random.default_rng(4).permutation(n)[:3000]
    proj = new_projector(d, D, 1.0 / d, seed=0)
    step = rff.GEMM_BLOCK_BYTES // (8 * d)
    assert len(rows) > step and _gemm_rows(M[rows])
    tracemalloc.start()
    got = rff.project_rows(proj, M, rows)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    held = 8 * (len(rows) * D + step * d + step * D)
    csr_copy = 8 * int(M[rows].nnz)  # its int32 indices and counts, no float64 copy
    assert held < peak < held + csr_copy / 4
    assert np.array_equal(got, project(proj, M[rows]))


def test_project_of_an_integer_csr_on_the_gemm_route_makes_no_float64_copy():
    """project hands an integer CSR to project_rows as it is: it holds what project_rows
    holds, not a float64 copy of the counts beside it."""
    import tracemalloc

    n, d, D = 3000, 500, 64
    M = sp.random(n, d, density=0.3, format="csr", random_state=5, dtype=np.float64)
    M.data = np.ceil(10 * M.data).astype(np.int32)
    proj = new_projector(d, D, 1.0 / d, seed=0)
    step = rff.GEMM_BLOCK_BYTES // (8 * d)
    assert n > step and _gemm_rows(M)
    tracemalloc.start()
    got = project(proj, M)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    held = 8 * (n * D + step * d + step * D)
    float_copy = 8 * M.nnz
    assert held < peak < held + float_copy / 4
    assert np.array_equal(got, project(proj, M.astype(np.float64)))
    with pytest.raises(DimensionMismatch, match=f"input has dim {d}, expected {d + 1}"):
        project(new_projector(d + 1, D, 1.0 / d, seed=0), M)


def test_project_rows_bytes_matches_traced_peak():
    """projector_bytes, the projection and project_rows_bytes against tracemalloc's peak of
    building a D = 40 projector and projecting 60 CSR rows of 20000 columns with it."""
    import tracemalloc

    n, d, D = 60, 20000, 40
    X = sp.random(n, d, density=0.005, format="csr", random_state=3)
    longest_row = int(np.diff(X.indptr).max())
    estimate = (rff.projector_bytes(d, D) + 8 * D * n
                + rff.project_rows_bytes(n, d, D, longest_row, X.data.itemsize))
    tracemalloc.start()
    project(new_projector(d, D, 1.0 / d, 0), X)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert 0.75 * estimate <= peak <= 1.05 * estimate
