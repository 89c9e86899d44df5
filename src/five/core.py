"""Single-source blind extraction by iterative whitened max-SINR beamforming.

The per-bin sample covariance is factored once by Cholesky, C = Q^H Q,
with the reference channel first and each channel that adds no rank to
the channels before it in some bin dropped (PCA before ICA); W = Q^{-1}
then whitens, W^H C W = I. The whitened data W^H x is never formed: every whitened quantity the update
needs is an M x M congruence of a raw one. Each iteration reweights the
raw covariance with a strictly decreasing function of the current
per-frame source magnitude, whitens it as V = W^H V_raw W, takes the
smallest eigenpair per bin, and uses the normalized eigenvector w as the
new demixing filter in whitened coordinates; the estimate is (W w)^H x,
one pass over the data per update. This is a majorization-minimization
scheme: the monitored negative log-likelihood never increases, and fixed
points solve a quadratic stationarity system exactly (see head_residual).
The scale ambiguity is resolved at the end by least-squares projection
onto the reference channel, in closed form (project_back).

The monitor takes the background demixing block as the orthonormal
complement J of w, optimal for the identity whitened covariance. Since
W^H C W = I, the background energy sum_n ||J^H W^H x_n||^2 is N (K - 1) in
every bin, so the NLL is a closed form in the filters, the activities and
the whiteners that reads no data (evaluate_nll), and five_iteration
certifies the state it starts from with the covariance it builds anyway
(head_residual), the stop test: a converged run makes no other build.

The contrast is bounded below, so the update needs no floor, load or retry:
the model adds ACTIVITY_OFFSET times the mean squared frame activity to each
one (_offset_activity), which keeps the majorizer exact, the gauss model
scale invariant and V above a multiple of I (_frame_weights).
Like the STFT's Hamming window, the offset is a fixed constant, not a setting.

The steps take the raw (F, N, M) array; only extract_spectral, the entry
point, also takes a SpectralTensor. The module writes no files.
"""

import numbers
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import linalg
from .stft import SpectralTensor, _blocks, _check_finite, _split, analyze, synthesize
from .wavio import _is_integer

__all__ = [
    "ContrastModel",
    "FiveConfig",
    "DemixingState",
    "IterationRecord",
    "ExtractionReport",
    "DegenerateCovarianceError",
    "SilentReferenceChannelError",
    "prewhiten",
    "five_iteration",
    "evaluate_nll",
    "head_residual",
    "project_back",
    "apply_demixing",
    "extract_spectral",
    "extract",
]

ACTIVITY_OFFSET = 1e-4


class DegenerateCovarianceError(RuntimeError):
    """Weighted covariance not positive definite: the whiteners do not whiten the data."""


class SilentReferenceChannelError(ValueError):
    """The reference channel is silent in the bin it names: whitening, which it leads, would drop it."""


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
    """Extraction settings; early_stop_tol, if set, bounds the head_residual of the returned state."""

    contrast: ContrastModel
    max_iterations: int = 3
    nll_monitoring: bool = True
    ref_channel: int = 0
    early_stop_tol: float | None = None

    def __post_init__(self):
        if not _is_integer(self.max_iterations) or self.max_iterations < 1:
            raise ValueError("max_iterations must be an integer >= 1")
        tol = self.early_stop_tol
        if tol is not None and (isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not tol > 0):
            raise ValueError("early_stop_tol must be None or a number > 0")  # not > 0 also rejects NaN
        if not _is_integer(self.ref_channel) or self.ref_channel < 0:
            raise ValueError("ref_channel must be an integer >= 0")


@dataclass
class DemixingState:
    """Per-frequency extraction state in whitened coordinates.

    whiteners holds the per-bin upper-triangular whitening factors W = Q^{-1}
    (prewhiten), w the demixing vectors in whitened coordinates, so that W w
    demixes the raw data, and activity the per-frame source magnitude of the
    current estimate. The states of a run also carry that estimate, the
    (F, N) signal (W_f w_f)^H x_fn; five_iteration sets previous_residual,
    the head_residual (up to rounding) of the state it started from. A run
    passes one estimate buffer from state to state, valid for the latest;
    a callback gets copies (extract_spectral). The background demixing
    block is not stored: the monitor takes the orthonormal complement of w.
    Coordinate 0 is the reference channel, the first one whitened.
    """

    whiteners: np.ndarray  # (F, M, M)
    w: np.ndarray  # (F, M)
    activity: np.ndarray  # (N,)
    iteration: int = 0
    estimate: np.ndarray | None = None  # (F, N)
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


def _covariance_stack(data):
    """The sample covariance (1/N) sum_n x_fn x_fn^H of every bin; bins split over the cores, in blocks."""
    cov = np.empty((len(data), data.shape[2], data.shape[2]), dtype=np.complex128)

    def build(start, stop):
        for block in _blocks(start, stop, 16 * data.shape[2] ** 2):
            cov[block] = _covariance_block(data[block])

    _split(build, len(data), data.nbytes)
    return cov


def _covariance_block(data, weights=None, whiteners=None):
    # (1/N) sum_n weight_n x_fn x_fn^H per bin, on the calling thread; with
    # whiteners W that of the whitened y = W^H x, W^H (...) W; hermitized
    # against rounding into a C-ordered V. A real product g = X^T (w X) on the
    # interleaved (re, im) view X needs no conjugate copy: with x = a + ib,
    # Re = g_aa + g_bb, Im = g_ba - g_ab. Data that needs a copy is copied in
    # blocks (stft._blocks) that stay inside the L2 cache, each weighted block
    # into one reused buffer (a fresh temporary per block costs page faults).
    # Data that needs no copy is one block: many small products run slower
    # side by side on two cores than one at a time. Re and Im go into one
    # complex array, and g is released before the whitening.
    n_bins, n_frames, n_chan = data.shape
    w = None if weights is None else np.repeat(weights, 2 * n_chan).reshape(n_frames, 2 * n_chan)
    g = np.empty((n_bins, 2 * n_chan, 2 * n_chan))
    copied = w is not None or data.dtype != np.complex128 or not data.flags.c_contiguous
    blocks = _blocks(0, n_bins, 16 * n_frames * n_chan) if copied else [slice(0, n_bins)]
    weighted = None if w is None else np.empty((blocks[0].stop, n_frames, 2 * n_chan))
    for span in blocks:
        block = np.ascontiguousarray(data[span], dtype=np.complex128).view(np.float64)
        lhs = block if w is None else np.multiply(block, w, out=weighted[: len(block)])
        np.matmul(np.swapaxes(lhs, 1, 2), block, out=g[span])
    lhs = weighted = None  # a buffer that outlives the loop would raise the peak
    g /= n_frames
    cov = np.empty((n_bins, n_chan, n_chan), dtype=np.complex128)
    np.add(g[:, 0::2, 0::2], g[:, 1::2, 1::2], out=cov.real)
    np.subtract(g[:, 1::2, 0::2], g[:, 0::2, 1::2], out=cov.imag)
    g = None
    if whiteners is not None:
        cov = np.conj(np.swapaxes(whiteners, 1, 2)) @ (cov @ whiteners)
    hermitian = np.add(cov, np.conj(np.swapaxes(cov, 1, 2)), out=np.empty_like(cov, order="C"))
    return np.multiply(hermitian, 0.5, out=hermitian)


def prewhiten(covariance):
    """Whitening factors of a stack of per-bin sample covariances.

    Factors each covariance as C = Q^H Q by Cholesky and returns the stack
    of W = Q^{-1}, upper triangular with a real positive diagonal, so that
    W^H C W = I: the whitened data W^H x, which is never formed, has the
    identity as its sample covariance. A covariance that is not positive
    definite raises linalg.NotPositiveDefiniteError, whose pivot_index is
    the first channel that adds no rank in some bin; extract_spectral drops
    that channel.
    """
    return linalg.inverse_upper_triangular(linalg.cholesky(covariance))


def _activity(extracted):
    """Per-frame magnitude sqrt(sum_f |s_fn|^2) across all bins of the (F, N) estimate; no (F, N) temporary."""
    return np.sqrt(np.vecdot(extracted, extracted, axis=0).real)


def _offset_activity(activity):
    """r~_n = sqrt(r_n^2 + ACTIVITY_OFFSET * mean_k r_k^2): bounded gain, and scale invariant."""
    power = np.square(activity)
    return np.sqrt(power + ACTIVITY_OFFSET * np.mean(power))


def _frame_weights(activity, contrast):
    """Frame weights of the weighted covariances V_f = (1/N) sum_n weight_n x_fn x_fn^H.

    The gain sum_n G(r~_n) of the offset activities is concave in the r_n^2,
    so its tangent plane, the exact majorizer, weights frame n by
    phi(r~_n) + ACTIVITY_OFFSET * mean_k phi(r~_k): finite for a silent
    frame, and for whitened data V >= ACTIVITY_OFFSET * mean_k phi(r~_k) I.
    The triple loop in tests/test_core.py is the reference of V.
    """
    weights = contrast.weight(_offset_activity(activity))
    return weights + ACTIVITY_OFFSET * np.mean(weights)


def _demixing_filters(whiteners, w):
    """Filters W w that demix the raw data, for filters w in whitened coordinates."""
    return (whiteners @ w[:, :, None])[:, :, 0]


def _demix(w, data, out):
    """apply_demixing into the (F, N) complex128 out; a strided channel axis is copied first (faster)."""
    if data.strides[2] != data.itemsize:
        data = np.ascontiguousarray(data)
    np.matmul(data, np.conj(w)[:, :, None], out=out[:, :, None])


def apply_demixing(w, data, out=None):
    """Extracted signal w^H x per bin and frame; w is (F, M), data (F, N, M), result (F, N) complex128.

    The result goes into out, which is not read, or a new array; in shares of bins over the cores (stft._split).
    """
    data = np.asarray(data)
    out = np.empty(data.shape[:2], dtype=np.complex128) if out is None else out

    def demix(start, stop):
        _demix(w[start:stop], data[start:stop], out[start:stop])

    _split(demix, len(w), data.nbytes)
    return out


def five_iteration(state, data, contrast, out=None):
    """One demixing update of the raw (F, N, M) data.

    Per bin: build the weighted covariance from the current activity and
    whiten it, V = W^H V_raw W; take its smallest eigenpair (lambda, r) and
    set w = r / sqrt(lambda), which makes w^H V w = 1 exactly. The pair is
    exact, the global minimizer of the majorizer: linalg.smallest_eigenpair
    takes the eigenvalues from LAPACK and r by shifted inverse iteration
    started from the current w, under a residual guard. V is Hermitian by
    construction, so it is not checked. The estimate (W w)^H x, one pass
    over the data, and its activity come from the new filters. Whitened V
    is bounded below (_frame_weights), so lambda > 0; a bin
    where it is not, which only whiteners that do not whiten the data can
    produce, raises DegenerateCovarianceError. V is also the matrix that certifies
    the incoming state (see DemixingState).

    The update is one pass in shares of bins over the cores (stft._split),
    each walked a block of bins at a time (stft._blocks, 512 at M = 8):
    build V, take its eigenpair, certify the incoming filter, drop V and
    demix the block with its new filters, to the same bits however the bins
    are cut. The frame weights, the activity and the certificate's max over
    bins are taken on the calling thread. The new estimate goes into out,
    an (F, N) complex128 buffer that may be the state's own estimate (the
    update never reads it); without out it is allocated before the pass.
    """
    weights = _frame_weights(state.activity, contrast)
    whiteners, previous = state.whiteners, state.w
    w = np.empty(previous.shape, dtype=np.complex128)
    residuals = np.empty(len(w))
    estimate = np.empty(data.shape[:2], dtype=np.complex128) if out is None else out

    def update(start, stop):
        for block in _blocks(start, stop, 16 * data.shape[2] ** 2):
            cov = _covariance_block(data[block], weights, whiteners[block])
            values, vector = linalg.smallest_eigenpair(cov, previous[block])
            smallest = values[:, -1]
            bad = ~(smallest > 0)
            if np.any(bad):
                raise DegenerateCovarianceError(
                    f"weighted covariance degenerate at bin {block.start + np.flatnonzero(bad)[0]}"
                )
            w[block] = vector / np.sqrt(smallest)[:, None]
            residuals[block] = _certificate(previous[block], (cov @ previous[block][:, :, None])[:, :, 0])
            cov = None  # not held through the demixing or the next build
            _demix(_demixing_filters(whiteners[block], w[block]), data[block], estimate[block])

    _split(update, len(w), data.nbytes)
    return DemixingState(
        whiteners=whiteners,
        w=w,
        activity=_activity(estimate),
        iteration=state.iteration + 1,
        estimate=estimate,
        previous_residual=float(residuals.max()),
    )


def evaluate_nll(state, contrast):
    """Monitored negative log-likelihood of the data the state was fitted to.

    Evaluated in whitened coordinates y = W^H x, with an identity background
    covariance (prewhiten makes it so). The background demixing block J_f is
    the orthonormal complement of w_f, which minimizes the likelihood for
    that w_f. Then |det [w_f, J_f]| = ||w_f||, and with u = w_f/||w_f||

        L = -2N sum_f log|det [w_f, J_f]^H| + sum_n G(r~_n)
            + sum_{f,n} ||J_f^H y_fn||^2 + 2N sum_f log det Q_f,
        ||J_f^H y||^2 = ||y||^2 - |u^H y|^2.

    prewhiten gives W_f^H C_f W_f = I for the sample covariance C_f, so
    sum_n ||y_fn||^2 = N K and sum_n |w_f^H y_fn|^2 = N ||w_f||^2, with
    K = state.w.shape[1]. The background term is N F (K - 1), and

        L = -N sum_f log ||w_f||^2 + sum_n G(r~_n) + N F (K - 1)
            + 2N sum_f log det Q_f

    with r~ the offset activities: no data is read. The last term is the
    constant whitening log-determinant, log det Q_f = -log det W_f, included
    so values are comparable on the original data scale. The values across
    iterations are non-increasing. For the initial filter e_0, J is the
    complement of e_0, not an eigenbasis of V, which lowers record 0.
    """
    n_frames = state.activity.shape[0]
    n_bins, n_chan = state.w.shape
    norms2 = np.sum(np.abs(state.w) ** 2, axis=1)
    whiten_logdet = -np.sum(np.log(np.real(np.diagonal(state.whiteners, axis1=1, axis2=2))))
    return float(
        -n_frames * np.sum(np.log(norms2))
        + np.sum(contrast.gain(_offset_activity(state.activity)))
        + n_frames * n_bins * (n_chan - 1)
        + 2.0 * n_frames * whiten_logdet
    )


def _certificate(w, vw):
    # Per bin, from w and the product V w. (I - u u^H) V w is formed as a
    # vector: ||Vw||^2 - |u^H V w|^2 cancels to about 1e-8 relative. A zero
    # w (a state built by hand) scores 1.
    scale = np.sum(np.conj(w) * vw, axis=1)
    norms2 = np.sum(np.abs(w) ** 2, axis=1)
    perp = vw - (scale / np.where(norms2 > 0, norms2, 1.0))[:, None] * w
    return np.sqrt(np.abs(scale - 1.0) ** 2 + np.sum(np.abs(perp) ** 2, axis=1))


def head_residual(state, data, contrast):
    """Stationarity certificate: max over bins of || [w,J]^H [Vw, CJ] - I ||_F.

    V is the whitened weighted covariance W^H V_raw W of the raw data under
    the current activity, C the whitened sample covariance (the identity, by
    prewhiten) and J the orthonormal complement of w, as in evaluate_nll.
    Per bin this is sqrt(|w^H V w - 1|^2 + ||(I - u u^H) V w||^2) with
    u = w/||w||. At a fixed point of five_iteration the residual vanishes.

    Only V w is needed, and it takes one pass over the data without forming
    V: W^H (1/N) sum_n weight_n x_n conj(s_n) for the state's estimate
    s = (W w)^H x (apply_demixing when it has none), in shares of bins over
    the cores. Each share weights conj(s) in one buffer, a block of bins at
    a time (stft._blocks), so the pass adds a block per share to the data
    and the state's estimate. It agrees with five_iteration's certificate
    of the same state up to rounding.
    """
    weights = _frame_weights(state.activity, contrast) / state.activity.shape[0]
    whiteners, w = state.whiteners, state.w
    estimate = state.estimate
    if estimate is None:
        estimate = apply_demixing(_demixing_filters(whiteners, w), data)
    vw = np.empty(w.shape, dtype=np.complex128)

    def product(start, stop):
        blocks = _blocks(start, stop, 16 * estimate.shape[1])
        buffer = np.empty((blocks[0].stop - start, estimate.shape[1]), dtype=np.complex128)
        for block in blocks:
            weighted = np.conj(estimate[block], out=buffer[: block.stop - block.start])
            weighted *= weights
            raw = (weighted[:, None, :] @ data[block])[:, 0, :]
            vw[block] = (np.conj(np.swapaxes(whiteners[block], 1, 2)) @ raw[:, :, None])[:, :, 0]

    _split(product, len(w), data.nbytes)
    return float(_certificate(w, vw).max())


def project_back(state, out=None):
    """The state's estimate rescaled onto the reference channel by least squares; reads no data.

    Per bin the complex scale a = sum_n x_ref conj(s) / sum_n |s|^2 minimizes
    ||x_ref - a s||^2 for the estimate s = (W w)^H x. The reference leads the
    whitening (extract_spectral), so with C = Q^H Q and W = Q^{-1} upper
    triangular, sum_n |s|^2 = N ||w||^2 and sum_n x_ref conj(s) = N (C W w)_0
    = N (Q^H w)_0 = N w_0 / W_00, which gives a = w_0 / (W_00 ||w||^2). Its
    accuracy is that of the whitening, about u kappa(C). The result goes
    into out, which may be state.estimate (scaled in place), or a new array.
    A state without an estimate raises ValueError.
    """
    if state.estimate is None:
        raise ValueError("project_back needs the state's estimate, and the state has none")
    norms2 = np.sum(np.abs(state.w) ** 2, axis=1)
    scale = state.w[:, 0] / (np.real(state.whiteners[:, 0, 0]) * norms2)
    return np.multiply(scale[:, None], state.estimate, out=out)


def _initial_state(whiteners, data):
    """The state of the filter e_0: the whitened reference x_ref / sqrt(C_ref,ref), demixed by W e_0.

    W is upper triangular, so W e_0 = W_00 e_0: channel 0 scaled by the real W_00, with no product,
    in shares of bins over the cores.
    """
    scale = np.real(whiteners[:, 0, 0])[:, None]
    estimate = np.empty(data.shape[:2], dtype=np.complex128)

    def scaled(start, stop):
        np.multiply(data[start:stop, :, 0], scale[start:stop], out=estimate[start:stop])

    _split(scaled, len(data), data.nbytes)
    w = np.zeros(whiteners.shape[:2], dtype=np.complex128)
    w[:, 0] = 1.0
    return DemixingState(whiteners, w, _activity(estimate), estimate=estimate)


def extract_spectral(spec, config, callback=None):
    """Run the full extraction on a spectrogram: a SpectralTensor or its raw (F, N, M) data.

    Pipeline: build the sample covariance once and whiten it (prewhiten)
    with the reference channel first, initialize the estimate as the
    whitened reference channel, iterate demixing updates until one
    certifies the state it starts from within early_stop_tol
    (head_residual), then project that state's estimate back onto the
    reference channel (project_back). Whenever whitening names a channel
    that adds no rank in some bin (silent, or a combination of the channels
    before it), that channel is dropped and the principal submatrix of the
    kept channels is factored again. Unless they are all the channels in
    order, the kept channels are copied once, and the state has one entry
    per kept channel. Only a reference silent in some bin can be dropped,
    and that raises SilentReferenceChannelError, which names the first such
    bin. Raw data that is not finite, or not (bins, frames, channels) with
    a bin, raises the ValueError a SpectralTensor raises. Data whose
    squares overflow float64 raises ValueError for the first bin whose
    sample covariance is not finite, and a reference that is nonzero in a
    bin but whose squares underflow there to a zero power raises
    ValueError, not SilentReferenceChannelError.

    The run holds one (F, N) estimate: each update demixes into it
    (five_iteration's out), a run that drops its certifying update demixes
    the returned state into it again (apply_demixing), and project_back
    scales it in place. callback(iteration, state) gets the initial state
    (iteration 0) and every kept update as a copy that owns a copy of the
    raw (un-projected) estimate; a callback changes no output bit.

    Returns the projected (F, N) extracted signal and an ExtractionReport
    with one record per kept state (record 0: whitening and the initial
    estimate), each certified by the update after it; a monitored run that
    exhausts max_iterations certifies its last with one more pass
    (head_residual), which may converge it too. A converged run drops its
    certifying update and adds that update's time to the last record. Wall
    times exclude the NLL, the callback and the passes after the last update.
    """
    t0 = time.perf_counter()
    original = spec.data if isinstance(spec, SpectralTensor) else np.asarray(spec)
    if not isinstance(spec, SpectralTensor):  # a SpectralTensor was checked when it was made
        if original.ndim != 3 or not len(original):
            raise ValueError("data must have shape (bins, frames, channels), with at least one bin")
        _check_finite(original)
    _, n_frames, n_chan = original.shape
    ref = config.ref_channel
    if ref >= n_chan:
        raise ValueError(f"ref_channel {ref} out of range for {n_chan} channels")
    if n_frames < n_chan:
        raise ValueError(
            f"need at least as many frames as channels for a full-rank "
            f"covariance ({n_frames} frames, {n_chan} channels)"
        )
    cov, kept = _covariance_stack(original), np.r_[ref, np.delete(np.arange(n_chan), ref)]
    if not np.all(np.isfinite(cov)):
        f = np.flatnonzero(~np.isfinite(cov).all(axis=(1, 2)))[0]
        raise ValueError(f"sample covariance is not finite in bin {f}: the squares of the samples overflow float64")
    if ref:
        cov = cov[:, kept[:, None], kept]
    while True:
        try:
            whiteners = prewhiten(cov)
            break
        except linalg.NotPositiveDefiniteError as exc:
            if exc.pivot_index == 0:
                f = exc.matrix_index
                if np.any(original[f, :, ref]):  # a zero sum of squares of samples that are not zero
                    raise ValueError(
                        f"reference channel {ref} is not silent in bin {f}, but the squares of its "
                        "samples underflow float64 to 0"
                    ) from exc
                every = "" if np.any(original[f]) else ", as is every channel"
                raise SilentReferenceChannelError(f"reference channel {ref} is silent in bin {f}{every}") from exc
            rest = np.delete(np.arange(len(kept)), exc.pivot_index)
            cov, kept = cov[:, rest[:, None], rest], kept[rest]
    del cov  # an (F, M, M) stack kept through the run would raise every later peak
    data = original if np.array_equal(kept, np.arange(n_chan)) else np.take(original, kept, axis=2)

    state = _initial_state(whiteners, data)
    setup_ms = (time.perf_counter() - t0) * 1e3

    contrast = config.contrast
    monitoring = config.nll_monitoring
    report = ExtractionReport()

    def _record(wall_ms):
        nll = evaluate_nll(state, contrast) if monitoring else None
        report.records.append(IterationRecord(state.iteration, nll, None, wall_ms))
        if callback is not None:  # a snapshot: the run's next update overwrites its estimate
            callback(state.iteration, replace(state, estimate=state.estimate.copy()))

    def _certify(residual):
        if monitoring:
            report.records[-1] = replace(report.records[-1], head_residual=residual)
        report.converged = config.early_stop_tol is not None and residual <= config.early_stop_tol
        return report.converged

    _record(setup_ms)
    for _ in range(config.max_iterations):
        t_iter = time.perf_counter()
        update = five_iteration(state, data, contrast, out=state.estimate)
        wall_ms = (time.perf_counter() - t_iter) * 1e3
        if _certify(update.previous_residual):  # drop the certifying update, keep its time, undo its demix
            last = report.records[-1]
            report.records[-1] = replace(last, wall_time_ms=last.wall_time_ms + wall_ms)
            apply_demixing(_demixing_filters(state.whiteners, state.w), data, out=state.estimate)
            break
        state = update
        _record(wall_ms)
    if monitoring and not report.converged:  # the loop ran out: certify the last state
        _certify(head_residual(state, data, contrast))
    report.iterations_run = state.iteration
    return project_back(state, out=state.estimate), report


def extract(wave, stft_config, five_config):
    """End-to-end extraction from a multichannel wave to a mono wave.

    Returns the extracted single-channel MultichannelWave (same length as
    the input) and the ExtractionReport. The working set is the (F, N, M)
    spectrogram plus one (F, N) estimate, which every update overwrites and
    the projection scales in place; the spectrogram is released before
    synthesize, which needs only the projected estimate.
    """
    spec = analyze(wave, stft_config)
    extracted, report = extract_spectral(spec, five_config)
    spec.data = extracted[:, :, None]  # extract owns spec: no second scan for finiteness
    return synthesize(spec), report
