"""Output checks applied to every extraction the benchmark times.

Each check raises CheckFailure with a one-line reason. They test properties
the method must have (finite output of the right size, a non-increasing
monitored NLL, monitoring that leaves the estimate unchanged, convergence
with a small stationarity certificate) and quality against independent
references (a floor on audio, the true-covariance max-SINR beamformer on
instantaneous scenes). None of them compares against a stored copy of an
earlier output, and none requires the filter to be an exact eigenvector, so
an inexact but sound majorization-minimization step still passes.
"""

import numpy as np
import scipy.linalg

NLL_RISE_RTOL = 1e-9  # MM guarantee: the monitored NLL never increases
RESIDUAL_MAX = 1e-6  # stationarity certificate after convergence
AGREE_RTOL = 1e-9  # monitoring must not change the estimate
ORACLE_MARGIN_DB = 0.5  # |FIVE - oracle beamformer| in delta SI-SDR
VARIANT_MARGIN_DB = 0.1  # degenerate array vs. the same array without that channel


class CheckFailure(Exception):
    """An extraction output violated a property the method guarantees."""


def check_output(estimate, expected_shape):
    """Finite values of the expected shape (input length, or (F, N) for tensors)."""
    estimate = np.asarray(estimate)
    if estimate.shape != tuple(expected_shape):
        raise CheckFailure(f"output shape {estimate.shape} != expected {tuple(expected_shape)}")
    if not np.all(np.isfinite(estimate)):
        raise CheckFailure("output has non-finite values")


def check_monotone_nll(nll_values):
    """No step of the monitored NLL trace rises by more than NLL_RISE_RTOL relative."""
    if not nll_values:
        raise CheckFailure("monitored extraction recorded no NLL values")
    for k, (before, after) in enumerate(zip(nll_values, nll_values[1:]), start=1):
        if after - before > NLL_RISE_RTOL * abs(before):
            raise CheckFailure(f"NLL rose at record {k}: {before!r} -> {after!r}")


def check_converged(report):
    """The run stopped on its tolerance; a monitored run also certifies stationarity."""
    if not report.converged:
        raise CheckFailure(f"not converged after {report.iterations_run} iterations")
    residual = report.records[-1].head_residual
    if residual is not None and not residual <= RESIDUAL_MAX:
        raise CheckFailure(f"final head_residual {residual:.3e} > {RESIDUAL_MAX:.0e}")


def check_agree(unmonitored, monitored):
    """Monitored and unmonitored runs of one input give the same estimate."""
    a, b = np.asarray(unmonitored), np.asarray(monitored)
    if a.shape != b.shape:
        raise CheckFailure(f"monitored shape {b.shape} != unmonitored {a.shape}")
    scale = np.max(np.abs(a))
    diff = np.max(np.abs(a - b))
    if not diff <= AGREE_RTOL * scale:
        raise CheckFailure(f"monitoring changed the estimate (max diff {diff:.3e}, scale {scale:.3e})")


def check_floor(delta_db, floor_db):
    if not delta_db >= floor_db:
        raise CheckFailure(f"delta SI-SDR {delta_db:.3f} dB below floor {floor_db:.2f} dB")


def check_near(delta_db, reference_db, margin_db, what):
    if not abs(delta_db - reference_db) <= margin_db:
        raise CheckFailure(
            f"delta SI-SDR {delta_db:.3f} dB not within {margin_db} dB of {what} {reference_db:.3f} dB"
        )


def max_sinr_estimate(mixture, target_cov, background_cov, ref_channel=0):
    """True-covariance max-SINR beamformer output, projected onto the reference channel.

    Per bin the filter is the top generalized eigenvector of (S + B, B),
    computed with scipy so the reference shares no code with the extractor.
    """
    n_bins, _, n_chan = mixture.shape
    filters = np.empty((n_bins, n_chan), dtype=np.complex128)
    for f in range(n_bins):
        _, vectors = scipy.linalg.eigh(target_cov[f] + background_cov[f], background_cov[f])
        filters[f] = vectors[:, -1]
    output = np.einsum("fm,fnm->fn", np.conj(filters), mixture)
    reference = mixture[:, :, ref_channel]
    scale = np.sum(reference * np.conj(output), axis=1) / np.sum(np.abs(output) ** 2, axis=1)
    return scale[:, None] * output
