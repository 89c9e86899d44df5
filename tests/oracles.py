"""Reference computations the tests check the package against.

They are written for clarity, not speed, and none of them is on the
extraction's path.
"""

import numpy as np

from five import core, linalg, scenes


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


def activity(extracted):
    """Per-frame magnitude sqrt(sum_f |s_fn|^2) of an (F, N) estimate, in one pass over every bin."""
    return np.sqrt(np.sum(np.abs(extracted) ** 2, axis=0))


def project_back(extracted, original, ref_channel=0):
    """Least-squares rescaling of an (F, N) estimate onto channel ref_channel of the raw data.

    Per bin the complex scale a = sum_n x_ref conj(s) / sum_n |s|^2
    minimizes ||x_ref - a s||^2; it is read from the data.
    """
    reference = original[:, :, ref_channel]
    scale = np.vecdot(extracted, reference) / np.vecdot(extracted, extracted).real
    return scale[:, None] * extracted


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


def weighted_covariance(data, activity, contrast):
    """Per-bin (1/N) sum_n phi_n x_fn x_fn^H with the majorizer's frame weights.

    phi_n = phi(r~_n) + delta mean_k phi(r~_k) of the offset activities
    r~_n^2 = r_n^2 + delta mean_k r_k^2, delta = core.ACTIVITY_OFFSET.
    """
    delta = core.ACTIVITY_OFFSET
    power = np.square(activity)
    phi = contrast.weight(np.sqrt(power + delta * np.mean(power)))
    weights = phi + delta * np.mean(phi)
    return np.einsum("fni,fnj,n->fij", data, np.conj(data), weights) / data.shape[1]


def stationarity_residual(state, data, contrast):
    """The certificate by its definition: max over bins of || [w, J]^H [V w, C J] - I ||_F.

    The data are whitened explicitly; V is their weighted covariance under
    the state's activity, C their sample covariance, and J the orthonormal
    complement of w, from a complete QR.
    """
    whitened = whiten(data, state.whiteners)
    worst = 0.0
    for w, v, c in zip(state.w, weighted_covariance(whitened, state.activity, contrast),
                       sample_covariance(whitened)):
        basis = np.linalg.qr(w[:, None], mode="complete")[0][:, 1:]
        gram = np.column_stack([w, basis]).conj().T @ np.column_stack([v @ w, c @ basis])
        worst = max(worst, float(np.linalg.norm(gram - np.eye(len(w)))))
    return worst


def beamformer_sinr(w, target_cov, background_cov):
    """Per-bin ratio w^H S w / w^H B w of the true covariance quadratic forms."""
    num = np.real(np.einsum("fm,fmk,fk->f", np.conj(w), target_cov, w))
    den = np.real(np.einsum("fm,fmk,fk->f", np.conj(w), background_cov, w))
    return num / den


def oracle_max_sinr(scene):
    """Reference beamformer from the true covariances (unachievable blindly).

    Per bin, returns the top generalized eigenvector of (S + B, B) computed
    by whitening with the true background covariance B. Requires a scene
    generated in instantaneous mode (true covariances attached).
    """
    if scene.true_background_covariance is None:
        raise ValueError("scene carries no true covariances")
    background = scene.true_background_covariance
    mixture_cov = scene.true_target_covariance + background
    factor = linalg.cholesky(background)
    factor_inv = linalg.inverse_upper_triangular(factor)
    whitened = np.conj(np.swapaxes(factor_inv, 1, 2)) @ mixture_cov @ factor_inv
    whitened = 0.5 * (whitened + np.conj(np.swapaxes(whitened, 1, 2)))
    _, vectors = linalg.eig_hermitian(whitened)
    top = vectors[:, :, 0]
    return (factor_inv @ top[:, :, None])[:, :, 0]


def convolve_sum(sources, firs, num_samples):
    """sum_q sources[q] convolved with firs[q, m] by direct np.convolve, first num_samples, as (num_samples, M)."""
    out = np.zeros((num_samples, firs.shape[1]))
    for source, filters in zip(sources, firs):
        for m, fir in enumerate(filters):
            out[:, m] += np.convolve(source, fir)[:num_samples]
    return out


def convolutive_scene(spec):
    """Mixture samples and channel-0 target and background images of a convolutive scene.

    Drawn in the generator's order (target envelope and source, target
    filters, each interferer's source and then its filters, the noise),
    convolved directly one source at a time, and scaled as the generator
    scales them.
    """
    rng = np.random.default_rng(spec.seed)
    n_chan, length = spec.num_channels, spec.fir_length
    n_samples = spec.sample_rate if spec.num_samples is None else spec.num_samples
    frac = spec.noise_fraction_effective

    blocks = -(-n_samples // scenes._ENVELOPE_BLOCK)
    envelope = np.repeat(scenes._envelope(rng, spec.target_model, blocks), scenes._ENVELOPE_BLOCK)
    source = envelope[:n_samples] * rng.standard_normal(n_samples)
    target = convolve_sum(source[None], scenes._decaying_fir(rng, (1, n_chan), length), n_samples)
    interference = np.zeros((n_samples, n_chan))
    for _ in range(spec.num_interferers):
        source = rng.standard_normal(n_samples)
        interference += convolve_sum(source[None], scenes._decaying_fir(rng, (1, n_chan), length), n_samples)
    noise = rng.standard_normal((n_samples, n_chan))

    if spec.num_interferers > 0:
        interference *= np.sqrt((1.0 - frac) * n_samples / np.sum(interference[:, 0] ** 2))
    noise *= np.sqrt(frac * n_samples / np.sum(noise[:, 0] ** 2))
    background = interference + noise
    target *= np.sqrt(10.0 ** (spec.input_sinr_db / 10.0) * np.sum(background[:, 0] ** 2) / np.sum(target[:, 0] ** 2))
    gain = 0.9 / np.max(np.abs(target + background))
    return gain * (target + background), gain * target[:, 0], gain * background[:, 0]
