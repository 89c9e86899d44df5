"""Single-source blind extraction by iterative whitened max-SINR beamforming.

The input spectrogram is whitened once so the per-bin sample covariance is
the identity. Each iteration then reweights the covariance with a strictly
decreasing function of the current per-frame source magnitude, takes the
smallest eigenpair per bin, and uses the normalized eigenvector as the new
demixing filter. This is a majorization-minimization scheme: the monitored
negative log-likelihood never increases, and fixed points solve a quadratic
stationarity system exactly (see head_residual). The scale ambiguity is
resolved at the end by least-squares projection onto a reference channel.

The monitor takes the background demixing block as the orthonormal
complement of w, optimal for the identity covariance prewhiten leaves. The
NLL is then a closed form in values the update already has (evaluate_nll),
and five_iteration certifies the state it starts from with the covariance
it builds anyway (head_residual): about one covariance build per run.

Like the STFT's Hamming window, the numerical guards are fixed constants,
not settings: REGULARIZATION is the diagonal loading, relative to trace/M,
of a covariance at the noise floor, and ACTIVITY_FLOOR bounds the frame
activities before the contrast weight, which diverges at zero.
"""

import csv
import io
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import linalg
from .stft import SpectralTensor, analyze, synthesize

__all__ = [
    "ContrastModel",
    "FiveConfig",
    "DemixingState",
    "IterationRecord",
    "ExtractionReport",
    "write_config_header",
    "DegenerateCovarianceError",
    "RankDeficientCovarianceError",
    "SilentReferenceChannelError",
    "prewhiten",
    "weighted_covariance",
    "update_activity",
    "five_iteration",
    "evaluate_nll",
    "head_residual",
    "head_solutions",
    "project_back",
    "apply_demixing",
    "extract_spectral",
    "extract",
]

REGULARIZATION = 1e-10
ACTIVITY_FLOOR = 1e-12
# Data bytes per block of bins in a covariance build: the block's contiguous
# and weighted copies together stay inside a 2 MiB per-core L2 cache.
_BLOCK_BYTES = 1 << 19


class RankDeficientCovarianceError(ValueError):
    """Per-bin input covariance stayed non-positive-definite after loading."""


class DegenerateCovarianceError(RuntimeError):
    """Weighted covariance collapsed (smallest eigenvalue at the noise floor)."""


class SilentReferenceChannelError(ValueError):
    """The reference channel is all zero: no initial estimate, no scale to project onto."""


@dataclass(frozen=True)
class ContrastModel:
    """Source-model pair: gain G(r) and the induced frame weight phi(r) = G'(r)/(2r).

    kind "laplace" is the time-invariant Laplace model, G(r) = r and
    phi(r) = 1/(2r); kind "gauss" is the time-varying Gaussian model,
    G(r) = 2 F log r and phi(r) = F / r^2, which needs the bin count F.
    Both weights are strictly decreasing on r > 0.
    """

    kind: str
    num_bins: int | None = None

    def __post_init__(self):
        if self.kind not in ("laplace", "gauss"):
            raise ValueError(f"unknown contrast kind {self.kind!r}")
        if self.kind == "gauss" and (self.num_bins is None or self.num_bins < 1):
            raise ValueError("gauss contrast requires num_bins >= 1")

    def weight(self, r):
        r = np.asarray(r, dtype=np.float64)
        if self.kind == "laplace":
            return 0.5 / r
        return self.num_bins / (r * r)

    def gain(self, r):
        r = np.asarray(r, dtype=np.float64)
        if self.kind == "laplace":
            return r.copy()
        return 2.0 * self.num_bins * np.log(r)


@dataclass(frozen=True)
class FiveConfig:
    contrast: ContrastModel
    max_iterations: int = 3
    nll_monitoring: bool = True
    ref_channel: int = 0
    early_stop_tol: float | None = None

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.ref_channel < 0:
            raise ValueError("ref_channel must be >= 0")


@dataclass
class DemixingState:
    """Per-frequency extraction state in whitened coordinates.

    whiteners holds the per-bin upper-triangular whitening factors Q, w the
    demixing vectors, activity the per-frame source magnitude of the current
    estimate. five_iteration also sets power, the per-bin energy
    sum_n |w_f^H x_fn|^2 of the estimate, and previous_residual, the
    head_residual of the state it started from. The background demixing
    block is not stored: the monitor takes the orthonormal complement of w.
    """

    whiteners: np.ndarray  # (F, M, M)
    w: np.ndarray  # (F, M)
    activity: np.ndarray  # (N,)
    iteration: int = 0
    power: np.ndarray | None = None  # (F,)
    previous_residual: float | None = None


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    nll: float | None
    head_residual: float | None
    wall_time_ms: float


@dataclass
class ExtractionReport:
    """Per-iteration diagnostics of one extraction run."""

    records: list[IterationRecord] = field(default_factory=list)
    iterations_run: int = 0
    converged: bool = False

    @property
    def nll_values(self):
        return [r.nll for r in self.records if r.nll is not None]

    def to_csv(self, destination, header=None):
        """Write one row per iteration; header, if given, is echoed as comments."""
        if isinstance(destination, (str, bytes)) or hasattr(destination, "__fspath__"):
            with open(destination, "w", newline="") as fh:
                self.to_csv(fh, header=header)
            return
        write_config_header(destination, header)
        writer = csv.writer(destination)
        writer.writerow(["iteration", "nll", "head_residual", "wall_time_ms"])
        for rec in self.records:
            writer.writerow(
                [
                    rec.iteration,
                    "" if rec.nll is None else repr(rec.nll),
                    "" if rec.head_residual is None else repr(rec.head_residual),
                    f"{rec.wall_time_ms:.3f}",
                ]
            )

    def to_csv_string(self, header=None):
        buf = io.StringIO()
        self.to_csv(buf, header=header)
        return buf.getvalue()


def write_config_header(destination, values):
    """Echo a configuration as sorted '# key=value' comment lines (none for None)."""
    for key in sorted(values or {}):
        destination.write(f"# {key}={values[key]}\n")


def _data_of(spec):
    return spec.data if isinstance(spec, SpectralTensor) else np.asarray(spec)


def _covariance_stack(data, weights=None):
    # (1/N) sum_n weight_n x_fn x_fn^H per bin, hermitized against rounding.
    # A real product g = X^T (w X) on the interleaved (re, im) view X needs
    # no conjugate copy: with x = a + ib, Re = g_aa + g_bb, Im = g_ba - g_ab.
    # Blocks of bins keep the contiguous and weighted copies cache-sized.
    n_bins, n_frames, n_chan = data.shape
    w = None if weights is None else np.repeat(weights, 2 * n_chan).reshape(n_frames, 2 * n_chan)
    g = np.empty((n_bins, 2 * n_chan, 2 * n_chan))
    step = max(1, _BLOCK_BYTES // (16 * n_frames * n_chan))
    for start in range(0, n_bins, step):
        block = np.ascontiguousarray(data[start : start + step], dtype=np.complex128).view(np.float64)
        lhs = block if w is None else block * w
        np.matmul(np.swapaxes(lhs, 1, 2), block, out=g[start : start + step])
    g /= n_frames
    cov = g[:, 0::2, 0::2] + g[:, 1::2, 1::2] + 1j * (g[:, 1::2, 0::2] - g[:, 0::2, 1::2])
    return 0.5 * (cov + np.conj(np.swapaxes(cov, 1, 2)))


def prewhiten(spec):
    """Whiten the spectrogram so every bin has identity sample covariance.

    Factors the per-bin sample covariance as Q^H Q and applies Q^{-H} to the
    data in one batched matrix product. If the factorization fails, the
    covariance is diagonally loaded once with REGULARIZATION * trace/M
    before giving up.

    Returns the whitened tensor and the stack of upper-triangular factors Q.
    """
    data = _data_of(spec)
    n_bins, n_frames, n_chan = data.shape
    if n_frames < n_chan:
        raise ValueError(
            f"need at least as many frames as channels for a full-rank "
            f"covariance ({n_frames} frames, {n_chan} channels)"
        )
    cov = _covariance_stack(data)
    try:
        whiteners = linalg.cholesky(cov)
    except linalg.NotPositiveDefiniteError:
        trace = np.real(np.trace(cov, axis1=1, axis2=2))
        cov = cov + (REGULARIZATION * trace / n_chan)[:, None, None] * np.eye(n_chan)
        try:
            whiteners = linalg.cholesky(cov)
        except linalg.NotPositiveDefiniteError as exc:
            raise RankDeficientCovarianceError(
                f"covariance is rank deficient even after diagonal loading "
                f"(pivot {exc.pivot_index})"
            ) from exc
    whitened = linalg.apply_inverse_hermitian_transpose(whiteners[:, None], data)
    if isinstance(spec, SpectralTensor):
        whitened = replace(spec, data=whitened)
    return whitened, whiteners


def update_activity(extracted):
    """Per-frame magnitude of the extracted signal across all bins."""
    return np.sqrt(np.sum(np.abs(np.asarray(extracted)) ** 2, axis=0))


def _activity_and_power(extracted):
    squared = np.abs(extracted) ** 2
    return np.sqrt(np.sum(squared, axis=0)), np.sum(squared, axis=1)


def weighted_covariance(whitened, activity, contrast, f):
    """Frame-weighted sample covariance of bin f.

    Activities are floored at ACTIVITY_FLOOR before the weight is applied
    because both contrast weights diverge at zero.
    """
    data = _data_of(whitened)[f : f + 1]
    return _weighted_covariance_stack(data, activity, contrast)[0]


def _weighted_covariance_stack(data, activity, contrast):
    weights = contrast.weight(np.maximum(activity, ACTIVITY_FLOOR))
    return _covariance_stack(data, weights)


def apply_demixing(w, spec):
    """Extracted signal w^H x per bin and frame; w is (F, M), result (F, N)."""
    data = _data_of(spec)
    return (data @ np.conj(w)[:, :, None])[:, :, 0]


def five_iteration(state, whitened, contrast):
    """One demixing update.

    Per bin: build the weighted covariance from the current activity, take
    its smallest eigenpair (lambda, r) and set w = r / sqrt(lambda), which
    makes w^H V w = 1 exactly. The extracted signal, the activity and the
    per-bin power are then recomputed from the new filters. A bin whose
    smallest eigenvalue is at or below t = REGULARIZATION * trace/M is
    loaded to V + tI in closed form (same eigenvectors, lambda + t); the
    update aborts where lambda + t is still at the loaded matrix's
    threshold, that is lambda <= REGULARIZATION * t. V is also the matrix
    that certifies the incoming state (see DemixingState).
    """
    data = _data_of(whitened)
    cov = _weighted_covariance_stack(data, state.activity, contrast)
    values, vectors = linalg.eig_hermitian(cov)
    smallest = values[:, -1]
    load = REGULARIZATION * np.sum(values, axis=-1) / data.shape[2]
    bad = smallest <= load
    if np.any(bad):
        still_bad = smallest <= REGULARIZATION * load
        if np.any(still_bad):
            raise DegenerateCovarianceError(
                f"weighted covariance degenerate at bin {int(np.flatnonzero(still_bad)[0])}"
            )
        smallest = np.where(bad, smallest + load, smallest)

    w = vectors[:, :, -1] / np.sqrt(smallest)[:, None]
    activity, power = _activity_and_power(apply_demixing(w, data))
    return DemixingState(
        whiteners=state.whiteners,
        w=w,
        activity=activity,
        iteration=state.iteration + 1,
        power=power,
        previous_residual=_certificate(state.w, cov),
    )


def _nll(state, power, energy, contrast):
    n_frames = state.activity.shape[0]
    norms2 = np.sum(np.abs(state.w) ** 2, axis=1)
    floored = np.maximum(state.activity, ACTIVITY_FLOOR)
    whiten_logdet = np.sum(np.log(np.real(np.diagonal(state.whiteners, axis1=1, axis2=2))))
    return float(
        -n_frames * np.sum(np.log(norms2))
        + np.sum(contrast.gain(floored))
        + (energy - np.sum(power / norms2))
        + 2.0 * n_frames * whiten_logdet
    )


def evaluate_nll(state, whitened, contrast):
    """Monitored negative log-likelihood of the observed signal.

    Evaluated in whitened coordinates with an identity background covariance
    (prewhiten makes it so). The background demixing block J_f is the
    orthonormal complement of w_f, which minimizes the likelihood for that
    w_f. Then |det [w_f, J_f]| = ||w_f|| and ||J_f^H x||^2 = ||x||^2 - |u^H x|^2
    with u = w_f/||w_f||, so

        L = -2N sum_f log|det [w_f, J_f]^H| + sum_n G(r_n)
            + sum_{f,n} ||J_f^H x_fn||^2 + 2N sum_f log det Q_f
          = -N sum_f log ||w_f||^2 + sum_n G(r_n)
            + (E - sum_f p_f / ||w_f||^2) + 2N sum_f log det Q_f

    with E = sum_{f,n} ||x_fn||^2 and p_f = sum_n |w_f^H x_fn|^2. The last
    term is the constant whitening log-determinant, included so values are
    comparable on the original data scale. The sequence of values across
    iterations is non-increasing. For the initial filter e_ref, J is the
    complement of e_ref, not an eigenbasis of V, which lowers record 0.
    """
    data = _data_of(whitened)
    _, power = _activity_and_power(apply_demixing(state.w, data))
    return _nll(state, power, np.vdot(data, data).real, contrast)


def _certificate(w, v_cov):
    # (I - u u^H) V w is formed as a vector: ||Vw||^2 - |u^H V w|^2 cancels
    # to about 1e-8 relative. A zero w (a state built by hand) scores 1.
    vw = (v_cov @ w[:, :, None])[:, :, 0]
    scale = np.sum(np.conj(w) * vw, axis=1)
    norms2 = np.sum(np.abs(w) ** 2, axis=1)
    perp = vw - (scale / np.where(norms2 > 0, norms2, 1.0))[:, None] * w
    return float(np.sqrt(np.abs(scale - 1.0) ** 2 + np.sum(np.abs(perp) ** 2, axis=1)).max())


def head_residual(state, whitened, contrast):
    """Stationarity certificate: max over bins of || [w,J]^H [Vw, CJ] - I ||_F.

    V is the weighted covariance under the current activity, C the plain
    sample covariance of the whitened data (the identity, by prewhiten) and
    J the orthonormal complement of w, as in evaluate_nll. Per bin this is
    sqrt(|w^H V w - 1|^2 + ||(I - u u^H) V w||^2) with u = w/||w||. At a
    fixed point of five_iteration the residual vanishes.
    """
    v_cov = _weighted_covariance_stack(_data_of(whitened), state.activity, contrast)
    return _certificate(state.w, v_cov)


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


def project_back(extracted, original_spec, ref_channel=0):
    """Least-squares rescaling of the extracted signal onto a reference channel.

    Per bin the complex scale a = sum_n x_ref conj(s) / sum_n |s|^2 minimizes
    ||x_ref - a s||^2; bins with extracted energy below ACTIVITY_FLOOR pass
    through.
    """
    extracted = np.asarray(extracted)
    reference = _data_of(original_spec)[:, :, ref_channel]
    power = np.sum(np.abs(extracted) ** 2, axis=1)
    corr = np.sum(reference * np.conj(extracted), axis=1)
    safe = power >= ACTIVITY_FLOOR
    scale = np.where(safe, corr / np.where(safe, power, 1.0), 1.0)
    return scale[:, None] * extracted


def extract_spectral(spec, config, callback=None):
    """Run the full extraction on a spectrogram tensor.

    Pipeline: prewhiten, initialize the estimate as the whitened reference
    channel, iterate demixing updates (optionally stopping early once the
    filters move less than early_stop_tol), then project the result back
    onto the original reference channel. An all-zero reference channel
    raises SilentReferenceChannelError before whitening.

    callback(iteration, state, extracted) is invoked for the initial state
    (iteration 0) and after every iteration with the raw (un-projected)
    extracted signal.

    Returns the projected (F, N) extracted signal and an ExtractionReport
    with one record per iteration (record 0 covers whitening and the
    initial estimate). A record's certificate comes out of the update that
    follows it; the last one costs one extra covariance build. Wall times
    exclude the NLL and that last certificate.
    """
    t0 = time.perf_counter()
    original = _data_of(spec)
    n_bins, _, n_chan = original.shape
    if config.ref_channel >= n_chan:
        raise ValueError(f"ref_channel {config.ref_channel} out of range for {n_chan} channels")
    if not np.any(original[:, :, config.ref_channel]):
        raise SilentReferenceChannelError(f"reference channel {config.ref_channel} is silent (all zero)")
    data, whiteners = prewhiten(original)

    w0 = np.zeros((n_bins, n_chan), dtype=np.complex128)
    w0[:, config.ref_channel] = 1.0
    activity, power = _activity_and_power(data[:, :, config.ref_channel])
    state = DemixingState(whiteners=whiteners, w=w0, activity=activity, power=power)
    setup_ms = (time.perf_counter() - t0) * 1e3

    contrast = config.contrast
    monitoring = config.nll_monitoring
    energy = np.vdot(data, data).real if monitoring else None
    report = ExtractionReport()

    def _record(wall_ms):
        nll = _nll(state, state.power, energy, contrast) if monitoring else None
        report.records.append(IterationRecord(state.iteration, nll, None, wall_ms))
        if callback is not None:
            callback(state.iteration, state, apply_demixing(state.w, data))

    def _certify(residual):
        report.records[-1] = replace(report.records[-1], head_residual=residual)

    _record(setup_ms)
    for _ in range(config.max_iterations):
        t_iter = time.perf_counter()
        previous_w = state.w
        state = five_iteration(state, data, contrast)
        wall_ms = (time.perf_counter() - t_iter) * 1e3
        if monitoring:
            _certify(state.previous_residual)
        _record(wall_ms)
        if config.early_stop_tol is not None:
            step = np.max(np.linalg.norm(state.w - previous_w, axis=1))
            if step < config.early_stop_tol:
                report.converged = True
                break

    if monitoring:
        _certify(head_residual(state, data, contrast))
    report.iterations_run = state.iteration
    extracted = apply_demixing(state.w, data)
    projected = project_back(extracted, original, config.ref_channel)
    return projected, report


def extract(wave, stft_config, five_config):
    """End-to-end extraction from a multichannel wave to a mono wave.

    Returns the extracted single-channel MultichannelWave (same length as
    the input) and the ExtractionReport.
    """
    spec = analyze(wave, stft_config)
    extracted, report = extract_spectral(spec, five_config)
    return synthesize(replace(spec, data=extracted[:, :, None])), report
