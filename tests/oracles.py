"""Reference computations the tests check the package against.

They are written for clarity, not speed, and none of them is on the
extraction's path.
"""

import numpy as np

from five import core, linalg


def sample_covariance(data):
    """Per-bin sample covariance (1/N) sum_n x_fn x_fn^H of (F, N, M) data."""
    return np.einsum("fni,fnj->fij", data, np.conj(data)) / data.shape[1]


def whiten(data, whiteners):
    """The whitened data W^H x of every bin and frame, formed explicitly."""
    return data @ np.conj(whiteners)


def whiten_by_cholesky(data):
    """The data whitened by Q^{-H} with C = Q^H Q, and Q: the explicit whitening path."""
    q = linalg.cholesky(core._covariance_stack(data))
    return linalg.apply_inverse_hermitian_transpose(q, data), q


def head_solutions(weighted_cov):
    """All M candidate stationary demixing pairs for one bin.

    For a whitened bin (identity sample covariance) every eigenpair
    (lambda_k, r_k) of the weighted covariance yields an exact solution
    w = r_k / sqrt(lambda_k), J = remaining eigenvectors. Returned in
    descending eigenvalue order; the update picks the last (smallest)
    candidate, which globally minimizes the majorizer.
    """
    values, vectors = linalg.eig_hermitian(weighted_cov)
    if np.any(values <= 0):
        raise ValueError("weighted covariance must be positive definite")
    out = []
    for k in range(values.shape[-1]):
        w = vectors[:, k] / np.sqrt(values[k])
        basis = np.delete(vectors, k, axis=1)
        out.append((float(values[k]), w, basis))
    return out
