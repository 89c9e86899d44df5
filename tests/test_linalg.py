import numpy as np
import pytest

from five import core, linalg
from five.linalg import (
    EigenConvergenceError,
    NotHermitianError,
    NotPositiveDefiniteError,
    apply_inverse_hermitian_transpose,
    cholesky,
    eig_hermitian,
    inverse_upper_triangular,
    smallest_eigenpair,
)


def _random_hermitian(rng, m):
    a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return 0.5 * (a + a.conj().T)


def _random_spd(rng, m, eps=1e-3):
    b = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return b.conj().T @ b + eps * np.eye(m)


def _char_poly_roots(a):
    """Eigenvalues of a 2x2/3x3 Hermitian matrix from the characteristic
    polynomial in closed form (no LAPACK involved)."""
    m = a.shape[0]
    if m == 2:
        half_tr = 0.5 * np.real(a[0, 0] + a[1, 1])
        disc = np.sqrt(0.25 * np.real(a[0, 0] - a[1, 1]) ** 2 + abs(a[0, 1]) ** 2)
        return np.array([half_tr + disc, half_tr - disc])
    assert m == 3
    q = np.real(np.trace(a)) / 3.0
    b = a - q * np.eye(3)
    p = np.sqrt(max(np.real(np.trace(b @ b)) / 6.0, 0.0))
    if p == 0:
        return np.full(3, q)
    det_b = np.real(
        b[0, 0] * (b[1, 1] * b[2, 2] - b[1, 2] * b[2, 1])
        - b[0, 1] * (b[1, 0] * b[2, 2] - b[1, 2] * b[2, 0])
        + b[0, 2] * (b[1, 0] * b[2, 1] - b[1, 1] * b[2, 0])
    )
    phi = np.arccos(np.clip(det_b / (2.0 * p**3), -1.0, 1.0)) / 3.0
    roots = q + 2.0 * p * np.cos(phi + 2.0 * np.pi * np.arange(3) / 3.0)
    return np.sort(roots)[::-1]


# ---------------------------------------------------------------- cholesky


def test_cholesky_identity():
    assert np.array_equal(cholesky(np.eye(3, dtype=complex)), np.eye(3))


def test_cholesky_diagonal():
    q = cholesky(np.diag([4.0, 9.0]).astype(complex))
    assert np.allclose(q, np.diag([2.0, 3.0]), atol=0)


def test_cholesky_reconstruction_oracle():
    rng = np.random.default_rng(10)
    for _ in range(50):
        a = _random_spd(rng, 5)
        q = cholesky(a)
        assert np.all(np.real(np.diag(q)) > 0)
        assert np.allclose(np.tril(q, -1), 0.0, atol=0)
        err = np.linalg.norm(q.conj().T @ q - a) / np.linalg.norm(a)
        assert err <= 1e-10


def test_cholesky_batched_matches_single():
    rng = np.random.default_rng(11)
    stack = np.stack([_random_spd(rng, 4) for _ in range(8)])
    qs = cholesky(stack)
    for k in range(8):
        assert np.allclose(qs[k], cholesky(stack[k]), atol=0)


def test_cholesky_rejects_indefinite_with_pivot_index():
    a = np.diag([1.0, -1.0, 2.0]).astype(complex)
    with pytest.raises(NotPositiveDefiniteError) as info:
        cholesky(a)
    assert info.value.pivot_index == 1


def test_cholesky_pivot_index_in_a_stack():
    # LAPACK rejects the stack; the index comes from the failing matrix's
    # leading principal minors, here [[4, 2, 1], [2, 1, 3], [1, 3, 5]]
    rng = np.random.default_rng(23)
    bad = np.array([[4.0, 2.0, 1.0], [2.0, 1.0, 3.0], [1.0, 3.0, 5.0]], dtype=complex)
    stack = np.stack([_random_spd(rng, 3), bad, _random_spd(rng, 3)])
    with pytest.raises(NotPositiveDefiniteError) as info:
        cholesky(stack)
    assert (info.value.pivot_index, info.value.matrix_index) == (1, 1)


def test_cholesky_relative_pivot_tolerance():
    # LAPACK factors both matrices, but the tolerance is 1e-12 of the largest
    # diagonal entry: a pivot at 1e-14 of it is rejected, one at 1e-11 kept
    a = np.diag([1.0, 0.5, 1e-14]).astype(complex)
    with pytest.raises(NotPositiveDefiniteError) as info:
        cholesky(a)
    assert info.value.pivot_index == 2
    b = np.diag([1.0, 0.5, 1e-11]).astype(complex)
    assert np.allclose(cholesky(b), np.sqrt(np.real(b)), atol=0)


def test_cholesky_rejects_non_hermitian():
    a = np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(NotHermitianError):
        cholesky(a)


# ---------------------------------------------------------------- eigendecomposition


def test_eig_identity():
    values, vectors = eig_hermitian(np.eye(3, dtype=complex))
    assert np.allclose(values, 1.0, atol=0)
    assert np.allclose(vectors.conj().T @ vectors, np.eye(3), atol=1e-14)


def test_eig_diagonal_sorted_descending_with_phase():
    values, vectors = eig_hermitian(np.diag([3.0, 1.0]).astype(complex))
    assert np.allclose(values, [3.0, 1.0], atol=0)
    # phase convention makes the dominant entries real positive
    assert np.allclose(vectors[:, 0], [1.0, 0.0], atol=1e-14)
    assert np.allclose(vectors[:, 1], [0.0, 1.0], atol=1e-14)


@pytest.mark.parametrize("m", [2, 3])
def test_eig_matches_characteristic_polynomial(m):
    rng = np.random.default_rng(12)
    for _ in range(200):
        a = _random_hermitian(rng, m)
        values, _ = eig_hermitian(a)
        assert np.max(np.abs(values - _char_poly_roots(a))) <= 1e-10


def test_eig_residual_and_orthonormality():
    rng = np.random.default_rng(13)
    for m in (2, 4, 8):
        a = _random_hermitian(rng, m)
        values, vectors = eig_hermitian(a)
        norm = np.linalg.norm(a)
        for k in range(m):
            res = np.linalg.norm(a @ vectors[:, k] - values[k] * vectors[:, k])
            assert res <= 1e-10 * norm
        assert np.linalg.norm(vectors.conj().T @ vectors - np.eye(m)) <= 1e-10
        assert np.all(np.diff(values) <= 0)


def test_eig_phase_convention_deterministic():
    rng = np.random.default_rng(14)
    a = _random_hermitian(rng, 4)
    _, v1 = eig_hermitian(a)
    # multiply input by random phases on both sides leaves matrix Hermitian
    _, v2 = eig_hermitian(a.copy())
    assert np.array_equal(v1, v2)
    lead = np.take_along_axis(v1, np.argmax(np.abs(v1), axis=0)[None, :], axis=0)[0]
    assert np.all(np.abs(lead.imag) <= 1e-14)
    assert np.all(lead.real > 0)


def test_trace_equals_eigenvalue_sum():
    rng = np.random.default_rng(15)
    for m in (2, 3, 5, 8):
        a = _random_hermitian(rng, m)
        values, _ = eig_hermitian(a)
        trace = np.real(np.trace(a))
        assert abs(values.sum() - trace) <= 1e-10 * max(abs(trace), 1.0)


def test_eig_stable_under_tiny_hermitian_perturbation():
    rng = np.random.default_rng(16)
    a = _random_hermitian(rng, 5)
    scale = np.linalg.norm(a)
    e = _random_hermitian(rng, 5)
    e *= 1e-15 * scale / np.linalg.norm(e)
    v0, _ = eig_hermitian(a)
    v1, _ = eig_hermitian(a + e)
    assert np.max(np.abs(v1 - v0)) <= 1e-13 * scale


def test_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


@pytest.mark.parametrize("shape", [(3,), (2, 3), (4, 2, 3)])
def test_check_hermitian_rejects_non_square_input(shape):
    with pytest.raises(ValueError, match="square"):
        linalg.check_hermitian(np.zeros(shape, dtype=complex))


def test_eig_failure_to_converge_is_typed(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(EigenConvergenceError, match="did not converge"):
        eig_hermitian(np.eye(2, dtype=complex))


# ---------------------------------------------------------------- smallest eigenpair


def _counting_eig(monkeypatch):
    calls = []
    eig = linalg.eig_hermitian
    monkeypatch.setattr(linalg, "eig_hermitian", lambda a: calls.append(len(a)) or eig(a))
    return calls


def _eigenpair_residual(a, values, u):
    return np.linalg.norm(a @ u - values[-1] * u) / values[0]


@pytest.mark.parametrize("m", range(1, 9))
def test_smallest_eigenpair_matches_eig_hermitian(m, monkeypatch):
    rng = np.random.default_rng(30 + m)
    stack = np.stack([_random_spd(rng, m) for _ in range(20)])
    start = rng.standard_normal((20, m)) + 1j * rng.standard_normal((20, m))
    calls = _counting_eig(monkeypatch)
    values, u = smallest_eigenpair(stack, start)
    want_values, want_vectors = linalg.eig_hermitian(stack)
    assert calls == [20]  # the oracle call only: no matrix fell back
    assert np.max(np.abs(values - want_values)) <= 1e-10 * np.max(want_values)
    assert np.max(np.abs(u - want_vectors[:, :, -1])) <= 1e-10


def test_smallest_eigenpair_single_matrix():
    rng = np.random.default_rng(40)
    a = _random_spd(rng, 4)
    values, u = smallest_eigenpair(a, np.ones(4))
    want_values, want_vectors = eig_hermitian(a)
    assert values.shape == (4,) and u.shape == (4,)
    assert np.max(np.abs(values - want_values)) <= 1e-10 * want_values[0]
    assert np.max(np.abs(u - want_vectors[:, -1])) <= 1e-10


def test_smallest_eigenpair_leaves_its_stack_as_it_found_it():
    # the shift below lambda_min goes onto the stack's own diagonal and comes
    # off again before the guard: a writable stack is unchanged to the bit,
    # a read-only one is copied, and both give a copy's results
    rng = np.random.default_rng(41)
    stack = np.stack([_random_spd(rng, 6) for _ in range(9)])
    start = rng.standard_normal((9, 6)) + 1j * rng.standard_normal((9, 6))
    before = stack.copy()
    values, u = smallest_eigenpair(stack, start)
    assert stack.tobytes() == before.tobytes()
    frozen = before.copy()
    frozen.flags.writeable = False
    got_values, got_u = smallest_eigenpair(frozen, start)
    assert np.array_equal(got_values, values) and np.array_equal(got_u, u)
    assert frozen.tobytes() == before.tobytes()


def test_smallest_eigenpair_bad_starts_fall_back(monkeypatch):
    # matrix 1 starts at zero; matrix 2 is diagonal and starts at e_0,
    # exactly orthogonal to its smallest eigenvector e_4, and its shifted
    # inverse is diagonal too. Inverse iteration gives NaN or e_0 there.
    rng = np.random.default_rng(41)
    stack = np.stack([_random_spd(rng, 5), _random_spd(rng, 5), np.diag([3.0, 2.0, 1.0, 0.5, 0.25])])
    want_values, want_vectors = eig_hermitian(stack)
    start = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    start[1] = 0.0
    start[2] = np.eye(5)[0]
    calls = _counting_eig(monkeypatch)
    values, u = smallest_eigenpair(stack, start)
    assert calls == [2]
    assert np.all(np.isfinite(u))
    assert np.max(np.abs(values - want_values)) <= 1e-10 * np.max(want_values)
    assert np.max(np.abs(u - want_vectors[:, :, -1])) <= 1e-10


def test_smallest_eigenpair_repeated_smallest_eigenvalue():
    # any unit vector of the eigenspace is a valid answer
    rng = np.random.default_rng(42)
    basis, _ = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    a = basis @ np.diag([7.0, 4.0, 2.0, 0.5, 0.5]) @ basis.conj().T
    a = 0.5 * (a + a.conj().T)
    values, u = smallest_eigenpair(a, rng.standard_normal(5) + 0j)
    assert abs(values[-1] - 0.5) <= 1e-12
    assert abs(np.linalg.norm(u) - 1.0) <= 1e-14
    assert abs(np.vdot(u, a @ u).real - 0.5) <= 1e-12
    assert _eigenpair_residual(a, values, u) <= 1e-12


def test_smallest_eigenpair_singular_matrix():
    rng = np.random.default_rng(43)
    b = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    a = b @ b.conj().T  # rank 3: lambda_min = 0 up to rounding
    values, u = smallest_eigenpair(a, np.ones(4, dtype=complex))
    assert abs(values[-1]) <= 1e-14 * values[0]
    assert np.linalg.norm(b.conj().T @ u) <= 1e-12 * np.linalg.norm(b)
    assert _eigenpair_residual(a, values, u) <= 1e-12


def test_smallest_eigenpair_zero_matrix_falls_back(monkeypatch):
    # a - sigma I is exactly singular, so inv raises for the whole stack
    calls = _counting_eig(monkeypatch)
    values, u = smallest_eigenpair(np.zeros((2, 3, 3), dtype=complex), np.ones((2, 3)))
    assert calls == [2]
    assert np.all(values == 0)
    assert np.allclose(np.linalg.norm(u, axis=1), 1.0, atol=1e-14)


def test_smallest_eigenpair_rejects_non_finite():
    with pytest.raises(EigenConvergenceError):
        smallest_eigenpair(np.full((2, 3, 3), np.nan, dtype=complex), np.ones((2, 3)))


@pytest.mark.parametrize("weighted", [False, True])
def test_covariance_stack_is_exactly_hermitian(weighted):
    # the update hands this stack to smallest_eigenpair unchecked, and
    # eigvalsh reads one triangle: the build must be Hermitian to the bit.
    # 300 bins span several of the build's blocks.
    rng = np.random.default_rng(44)
    data = rng.standard_normal((300, 200, 6)) + 1j * rng.standard_normal((300, 200, 6))
    weights = rng.uniform(0.1, 3.0, 200) if weighted else None
    cov = core._covariance_block(data, None if weights is None else core._frame_rows(weights, 6))
    assert np.array_equal(cov, np.conj(np.swapaxes(cov, 1, 2)))


# ---------------------------------------------------------------- triangular solves


def test_apply_inverse_hermitian_transpose_identity():
    x = np.array([1.0, 1j])
    assert np.allclose(apply_inverse_hermitian_transpose(np.eye(2, dtype=complex), x), x, atol=0)


def test_apply_inverse_hermitian_transpose_diagonal():
    y = apply_inverse_hermitian_transpose(
        np.diag([2.0, 2.0]).astype(complex), np.array([4.0, 4.0])
    )
    assert np.allclose(y, [2.0, 2.0], atol=0)


def test_apply_inverse_hermitian_transpose_residual_oracle():
    rng = np.random.default_rng(19)
    q = cholesky(_random_spd(rng, 5))
    x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    y = apply_inverse_hermitian_transpose(q, x)
    assert np.linalg.norm(q.conj().T @ y - x) <= 1e-10 * np.linalg.norm(x)


@pytest.mark.parametrize("m", [1, 2, 5, 8])
def test_inverse_upper_triangular_matches_inverse(m):
    rng = np.random.default_rng(23 + m)
    q = cholesky(np.stack([_random_spd(rng, m) for _ in range(7)]))
    w = inverse_upper_triangular(q)
    want = np.linalg.inv(q)
    assert np.array_equal(w, np.triu(w))
    assert np.max(np.abs(w - want)) <= 1e-12 * np.max(np.abs(want))
    assert np.array_equal(inverse_upper_triangular(q[3]), w[3])  # one matrix, no stack


@pytest.mark.parametrize("m", [2, 6])
def test_inverse_upper_triangular_into_out_matches_a_new_array(m):
    # prewhiten writes each block's inverse into its whiteners, laid out
    # column-major per matrix as cholesky's factors are: the same bits, and
    # whatever out held before is overwritten, the zeros below the diagonal too
    rng = np.random.default_rng(40 + m)
    q = cholesky(np.stack([_random_spd(rng, m) for _ in range(9)]))
    out = np.full((9, m, m), np.nan, dtype=complex).swapaxes(1, 2)
    assert inverse_upper_triangular(q, out=out) is out
    assert np.array_equal(out, inverse_upper_triangular(q))


def test_inverse_upper_triangular_diagonal_by_hand():
    w = inverse_upper_triangular(np.array([[2.0, 1.0], [0.0, 4.0]]))
    assert np.array_equal(w, [[0.5, -0.125], [0.0, 0.25]])


@pytest.mark.parametrize("q_shape, x_shape", [((6, 4, 4), (6, 9, 4))])
def test_apply_inverse_hermitian_transpose_matches_per_vector_solve(q_shape, x_shape):
    # (F, M, M) against (F, N, M) is how the tests' oracle whitens data
    rng = np.random.default_rng(22)
    q = cholesky(np.stack([_random_spd(rng, 4) for _ in range(q_shape[0])]))
    x = rng.standard_normal(x_shape) + 1j * rng.standard_normal(x_shape)
    y = apply_inverse_hermitian_transpose(q, x)
    assert y.shape == x_shape
    for f, n in np.ndindex(x_shape[:-1]):
        want = np.linalg.solve(q[f].conj().T, x[f, n])
        assert np.linalg.norm(y[f, n] - want) <= 1e-12 * np.linalg.norm(want)


# ---------------------------------------------------------------- whitening identity


def test_whitening_identity_property():
    rng = np.random.default_rng(21)
    m, n = 4, 600
    data = (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) / np.sqrt(2)
    cov = data.T @ data.conj() / n
    cov = 0.5 * (cov + cov.conj().T)
    q = cholesky(cov)
    white = apply_inverse_hermitian_transpose(q, data)
    white_cov = white.T @ white.conj() / n
    assert np.linalg.norm(white_cov - np.eye(m)) <= 1e-8
