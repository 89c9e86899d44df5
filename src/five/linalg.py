"""Dense complex Hermitian linear algebra for small per-bin matrices.

numpy's LAPACK and complex matmul plus the checks the pipeline relies on,
with tolerances as module constants; numpy has no triangular inverse, so
that one is back-substitution written out here. All routines accept
a single (M, M) matrix or a stack (..., M, M) and broadcast over the
leading axes, since the pipeline factorises one matrix per frequency bin.
Eigendecompositions are ordered by descending eigenvalue and eigenvector
phases are fixed so the largest-magnitude entry of each vector is real
positive, making outputs deterministic.

smallest_eigenpair serves the demixing update, which needs one eigenpair
per matrix: eigenvalues only from LAPACK, then two steps of inverse
iteration shifted just below the smallest one, with a residual guard that
hands any matrix it cannot certify to eig_hermitian.
"""

import threading

import numpy as np

__all__ = [
    "NotHermitianError",
    "NotPositiveDefiniteError",
    "EigenConvergenceError",
    "check_hermitian",
    "cholesky",
    "eig_hermitian",
    "smallest_eigenpair",
    "inverse_upper_triangular",
    "apply_inverse_hermitian_transpose",
]

_HERMITIAN_RTOL = 1e-12
_PIVOT_RTOL = 1e-12
# Inverse-iteration shift below lambda_min, relative to max(|lambda_min|,
# _SHIFT_RTOL * lambda_max), and the residual accepted relative to lambda_max.
_SHIFT_RTOL = 1e-8
_EIGENPAIR_RTOL = 1e-12
# Two threads calling numpy's eigvalsh at once, with the OpenBLAS LAPACK
# numpy ships, take as long as one thread making both calls. The calls are
# taken one at a time: a share that waits sleeps and leaves the core to the
# other share's products (a two-worker update at 8 channels, frame 4096,
# runs about 3 ms faster than with the calls side by side).
_EIGVALSH = threading.Lock()


class NotHermitianError(ValueError):
    """Input violates Hermitian symmetry beyond tolerance."""


class NotPositiveDefiniteError(ValueError):
    """Cholesky hit a non-positive pivot; carries its index and that of the first matrix failing there."""

    def __init__(self, pivot_index, matrix_index):
        self.pivot_index = pivot_index
        self.matrix_index = matrix_index
        super().__init__(f"matrix {matrix_index} is not positive definite (pivot {pivot_index})")


class EigenConvergenceError(RuntimeError):
    """Eigensolver failed to converge (numerically pathological input)."""


def check_hermitian(a):
    """Raise NotHermitianError unless a == a^H within _HERMITIAN_RTOL of its largest entry."""
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError("expected square matrices")
    scale = np.max(np.abs(a))
    if scale == 0:
        return
    # a^H copied into a's own layout first: a - a^H across the two layouts
    # would take a third stack-sized array
    asym = np.conj(np.swapaxes(a, -2, -1), out=np.empty_like(a, order="C"))
    asym = np.max(np.abs(np.subtract(a, asym, out=asym)))
    if asym > _HERMITIAN_RTOL * scale:
        raise NotHermitianError(
            f"asymmetry {asym:.3e} exceeds {_HERMITIAN_RTOL:.0e} relative to scale {scale:.3e}"
        )


def cholesky(a):
    """Upper-triangular factor q with q^H q = a and positive real diagonal.

    Pivots q_jj^2 at or below _PIVOT_RTOL times the largest diagonal entry of
    their matrix raise NotPositiveDefiniteError. Its pivot_index is the
    lowest failing pivot over the stack: for covariances, the first channel
    that adds no rank to the channels before it in some matrix, and its
    matrix_index the first matrix of the flattened stack that fails there.
    """
    a = np.asarray(a, dtype=np.complex128)
    check_hermitian(a)
    tol = _PIVOT_RTOL * np.max(np.real(np.diagonal(a, axis1=-2, axis2=-1)), axis=-1)
    try:
        lower = np.linalg.cholesky(a)
        pivots = np.real(np.diagonal(lower, axis1=-2, axis2=-1)) ** 2
    except np.linalg.LinAlgError:
        # numpy hides LAPACK's info, so rebuild the pivots from the leading
        # principal minors, det a[:j+1, :j+1] / det a[:j, :j]; they are exact
        # up to the first failing pivot of each matrix, all that is read
        lower = None
        minors = np.real([np.linalg.det(a[..., :k, :k]) for k in range(a.shape[-1] + 1)])
        with np.errstate(divide="ignore", invalid="ignore"):
            pivots = np.moveaxis(minors[1:] / minors[:-1], 0, -1)
    failing = ~(pivots > tol[..., None])  # NaN fails too
    if lower is None or np.any(failing):
        failing = failing.reshape(-1, a.shape[-1])
        pivot = int(np.argmax(failing.any(axis=0)))
        raise NotPositiveDefiniteError(pivot, int(np.argmax(failing[:, pivot])))
    return np.swapaxes(np.conj(lower, out=lower), -2, -1)  # in place: no second stack


def inverse_upper_triangular(q, out=None):
    """Inverse w = q^{-1} of upper-triangular matrices q (..., M, M), by back-substitution.

    numpy has no triangular inverse. From q w = I, row i of w is
    (e_i - sum_{k>i} q_ik w_k) / q_ii: the rows come out from the last one
    up, each from one batched product with the rows already found, and w is
    upper triangular too. The diagonal of q must be nonzero. w is written
    into out, a complex128 array of q's shape that does not overlap q, if
    given; the products round as they do in a new array laid out as out is.
    """
    q = np.asarray(q, dtype=np.complex128)
    m = q.shape[-1]
    if out is None:
        w = np.zeros_like(q)
    else:
        w = out
        w.fill(0)
    inverse_diagonal = 1.0 / np.diagonal(q, axis1=-2, axis2=-1)
    for i in range(m - 1, -1, -1):
        w[..., i, i] = inverse_diagonal[..., i]
        tail = (q[..., i : i + 1, i + 1 :] @ w[..., i + 1 :, i + 1 :])[..., 0, :]
        w[..., i, i + 1 :] = -tail * inverse_diagonal[..., i, None]
    return w


def _fix_phase(vectors):
    # Rotate each column so its largest-magnitude entry is real positive.
    idx = np.argmax(np.abs(vectors), axis=-2)
    lead = np.take_along_axis(vectors, idx[..., None, :], axis=-2)[..., 0, :]
    mag = np.abs(lead)
    phase = np.where(mag > 0, lead / np.where(mag > 0, mag, 1.0), 1.0)
    return vectors * np.conj(phase)[..., None, :]


def eig_hermitian(a):
    """Eigenvalues (..., M), descending, and eigenvectors (..., M, M), column k for value k."""
    a = np.asarray(a, dtype=np.complex128)
    check_hermitian(a)
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(str(exc)) from exc
    values = values[..., ::-1]
    vectors = _fix_phase(vectors[..., ::-1])
    return np.ascontiguousarray(values), np.ascontiguousarray(vectors)


def smallest_eigenpair(a, start):
    """Eigenvalues (descending) and the unit eigenvector of the smallest one.

    a is a Hermitian stack (..., M, M), which is not checked, and start
    (..., M) a guess at the eigenvector, such as the previous one. The
    eigenvalues come from LAPACK without vectors. The vector comes from two
    steps of inverse iteration on a - sigma I, with sigma a relative 1e-8
    below lambda_min: each step scales the component along eigenvector k by
    (lambda_min - sigma) / (lambda_k - sigma) relative to the wanted one. It
    is normalized and phase fixed as in eig_hermitian. A matrix whose
    ||a u - lambda_min u|| exceeds 1e-12 lambda_max, or is NaN, gets its
    vector from eig_hermitian: a zero start, one orthogonal to the
    eigenvector, or a shifted matrix that LAPACK finds singular.

    A C-ordered, writable complex128 a is shifted in place and its
    diagonal restored from a copy before the guard reads it: the stack and
    its inverse are held, not three stacks. Any other a is copied first.
    """
    a = np.require(a, np.complex128, ["C", "W"])
    m = a.shape[-1]
    batch = a.shape[:-2]
    a = a.reshape(-1, m, m)
    try:
        with _EIGVALSH:
            values = np.linalg.eigvalsh(a)[:, ::-1]
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(str(exc)) from exc
    smallest, largest = values[:, -1:], values[:, :1]
    diagonal = a.reshape(-1, m * m)[:, :: m + 1]
    saved = diagonal.copy()
    diagonal -= smallest - _SHIFT_RTOL * np.maximum(abs(smallest), _SHIFT_RTOL * largest)
    rows = np.arange(len(a))
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        try:
            inverse = np.linalg.inv(a)
            u = inverse @ (inverse @ np.reshape(start, (-1, m, 1)))
        except np.linalg.LinAlgError:
            u = np.full((len(a), m, 1), np.nan, dtype=np.complex128)
        finally:
            diagonal[...] = saved
        inverse = None
        # normalize, and rotate the largest-magnitude entry to real positive:
        # _fix_phase's convention in one scaling, since on small stacks
        # per-call overhead decides whether this beats eig_hermitian
        mag = abs(u[:, :, 0])
        lead = mag.argmax(axis=1)
        scale = np.conj(u[rows, lead, 0]) / (mag[rows, lead] * np.sqrt(np.vecdot(mag, mag)))
        u *= scale[:, None, None]
        residual = (a @ u - smallest[:, :, None] * u)[:, :, 0]
        failed = ~(np.vecdot(residual, residual).real <= (_EIGENPAIR_RTOL * largest[:, 0]) ** 2)
    u = u[:, :, 0]
    if failed.any():
        u[failed] = eig_hermitian(a[failed])[1][:, :, -1]
    return values.reshape(batch + (m,)), u.reshape(batch + (m,))


def apply_inverse_hermitian_transpose(q, x):
    """Solve q^H y = x row by row, that is y = x conj(q^{-1}).

    q (..., M, M) and x (..., N, M) broadcast over the leading axes, so the
    N rows sharing a matrix go through one complex matrix product. The tests
    whiten data explicitly with it; the extraction whitens covariances.
    """
    return x @ np.conj(np.linalg.inv(q))
