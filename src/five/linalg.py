"""Dense complex Hermitian linear algebra for small per-bin matrices.

numpy's LAPACK plus the checks the pipeline relies on. All routines accept
a single (M, M) matrix or a stack (..., M, M) and broadcast over the
leading axes, since the pipeline factorises one matrix per frequency bin.
Eigendecompositions are ordered by descending eigenvalue and eigenvector
phases are fixed so the largest-magnitude entry of each vector is real
positive, making outputs deterministic.
"""

from typing import NamedTuple

import numpy as np

__all__ = [
    "NotHermitianError",
    "NotPositiveDefiniteError",
    "EigenConvergenceError",
    "SingularTriangularError",
    "EigenDecomposition",
    "check_hermitian",
    "cholesky",
    "eig_hermitian",
    "apply_inverse_hermitian_transpose",
    "invert_upper_triangular",
]

_HERMITIAN_RTOL = 1e-12
_PIVOT_RTOL = 1e-12
_DIAG_RTOL = 1e-13


class NotHermitianError(ValueError):
    """Input violates Hermitian symmetry beyond tolerance."""


class NotPositiveDefiniteError(ValueError):
    """Cholesky hit a non-positive pivot; carries the pivot index."""

    def __init__(self, pivot_index, message=None):
        self.pivot_index = pivot_index
        super().__init__(message or f"matrix is not positive definite (pivot {pivot_index})")


class EigenConvergenceError(RuntimeError):
    """Eigensolver failed to converge (numerically pathological input)."""


class SingularTriangularError(ValueError):
    """Triangular solve hit a near-zero diagonal entry."""


class EigenDecomposition(NamedTuple):
    eigenvalues: np.ndarray  # (..., M) real, descending
    eigenvectors: np.ndarray  # (..., M, M), column k pairs with eigenvalues[..., k]


def _conj_t(a):
    return np.conj(np.swapaxes(a, -2, -1))


def check_hermitian(a, rtol=_HERMITIAN_RTOL):
    """Raise NotHermitianError unless a == a^H within relative tolerance."""
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError("expected square matrices")
    scale = np.max(np.abs(a))
    if scale == 0:
        return
    asym = np.max(np.abs(a - _conj_t(a)))
    if asym > rtol * scale:
        raise NotHermitianError(
            f"asymmetry {asym:.3e} exceeds {rtol:.0e} relative to scale {scale:.3e}"
        )


def cholesky(a, pivot_rtol=_PIVOT_RTOL):
    """Upper-triangular factor q with q^H q = a and positive real diagonal.

    Pivots q_jj^2 at or below pivot_rtol times the largest diagonal entry
    of their matrix raise NotPositiveDefiniteError with the first failing
    pivot index over the stack.
    """
    a = np.asarray(a, dtype=np.complex128)
    check_hermitian(a)
    tol = pivot_rtol * np.max(np.real(np.diagonal(a, axis1=-2, axis2=-1)), axis=-1)
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
        raise NotPositiveDefiniteError(int(np.argmax(failing.reshape(-1, a.shape[-1]).any(axis=0))))
    return _conj_t(lower)


def _fix_phase(vectors):
    # Rotate each column so its largest-magnitude entry is real positive.
    idx = np.argmax(np.abs(vectors), axis=-2)
    lead = np.take_along_axis(vectors, idx[..., None, :], axis=-2)[..., 0, :]
    mag = np.abs(lead)
    phase = np.where(mag > 0, lead / np.where(mag > 0, mag, 1.0), 1.0)
    return vectors * np.conj(phase)[..., None, :]


def eig_hermitian(a):
    """Full Hermitian eigendecomposition, eigenvalues sorted descending."""
    a = np.asarray(a, dtype=np.complex128)
    check_hermitian(a)
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(str(exc)) from exc
    values = values[..., ::-1]
    vectors = _fix_phase(vectors[..., ::-1])
    return EigenDecomposition(np.ascontiguousarray(values), np.ascontiguousarray(vectors))


def _check_diagonal(q):
    diag = np.abs(np.diagonal(q, axis1=-2, axis2=-1))
    if np.any(diag <= _DIAG_RTOL * np.max(diag)):
        raise SingularTriangularError("near-zero diagonal entry in triangular factor")


def apply_inverse_hermitian_transpose(q, x):
    """Solve q^H y = x, that is y = x conj(q^{-1}) in row-vector form.

    q (..., M, M) and x (..., M) broadcast over the leading axes. If q's last
    batch axis has length 1 (q[:, None] against x (F, N, M), as prewhiten
    whitens), the vectors sharing a matrix go through one matrix product.
    """
    q = np.asarray(q, dtype=np.complex128)
    x = np.asarray(x, dtype=np.complex128)
    _check_diagonal(q)
    inverse = np.conj(np.linalg.inv(q))
    if q.ndim > 2 and q.shape[-3] == 1 and x.ndim > 1:
        return x @ inverse[..., 0, :, :]
    return (x[..., None, :] @ inverse)[..., 0, :]


def invert_upper_triangular(q):
    """Explicit inverse of an upper-triangular factor (stays upper-triangular)."""
    q = np.asarray(q, dtype=np.complex128)
    _check_diagonal(q)
    return np.linalg.inv(q)
