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

from . import linalg, stft
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
_GROUP_BINS = 16  # bins per running sum of the activity (_activity_pass): fixed, not tied to a block size


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
        if not (_is_integer(self.num_bins) and self.num_bins >= 1 or self.num_bins is None and self.kind == "laplace"):
            raise ValueError("num_bins must be an integer >= 1, or None for the laplace contrast")

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
    demixes the raw data, and activity the per-frame source magnitude of its
    estimate, the (F, N) signal (W_f w_f)^H x_fn. That is all an update or
    a certificate reads, so a state between updates holds no estimate:
    extract_spectral forms it once, for the returned state and for each
    state its callback receives, and only project_back reads it. extract
    gives project_back the estimate of a block of frames at a time.
    five_iteration sets previous_residual, the head_residual (up to
    rounding) of the state it started from. The background demixing
    block is not stored: the monitor takes the orthonormal complement of w.
    The whiteners are the set-up covariance's storage (prewhiten); an
    update holds them, the state's and its new filters, the activity's
    group sums and about a block of bins per share.
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


class _Kept:
    """The kept channels of a spectrogram, reference first (_fit), as a view: no (F, N, K) copy of them exists.

    Indexing takes bins or frames, then kept channels. np.asarray gathers a
    C-ordered copy (np.take); only _covariance_block, _demix and
    head_residual gather, a block at a time where they copy or read one anyway.
    """

    def __init__(self, data, kept):
        self.data, self.kept, self.shape = data, kept, data.shape[:2] + (len(kept),)
        self.nbytes = data.nbytes // data.shape[2] * len(kept)

    def __getitem__(self, index):
        index = index if isinstance(index, tuple) else (index,)
        return _Kept(self.data[index[:2]], self.kept[index[2]] if len(index) > 2 else self.kept)

    def __array__(self, dtype=None, copy=None):
        gathered = np.take(self.data, self.kept, axis=2)
        return gathered if dtype is None else gathered.astype(dtype, copy=False)


def _covariance_stack(data):
    """The sample covariance (1/N) sum_n x_fn x_fn^H of every bin of the data or a _Kept view, a block at a time."""
    cov = np.empty((data.shape[0], data.shape[2], data.shape[2]), dtype=np.complex128)
    _per_block(lambda block: _covariance_block(data[block], out=cov[block]), data)
    return cov


def _per_block(kernel, data):
    """kernel(block) on the _matrix_blocks of shares of whole _GROUP_BINS groups of the data's bins (stft._split)."""
    n_bins = data.shape[0]

    def share(first, last):  # groups first..last
        for block in _matrix_blocks(first * _GROUP_BINS, min(last * _GROUP_BINS, n_bins), data.shape[2]):
            kernel(block)

    _split(share, -(-n_bins // _GROUP_BINS), data.nbytes)


def _matrix_blocks(start, stop, n_chan):
    """Blocks of whole groups of bins (stft._blocks) for the per-bin (M, M) stacks: 128 bins at M = 8, 512 at M = 4.

    64 M^2 bytes per bin, four complex (M, M) stacks: a share holds a block
    and at most two stacks of its size beside it (_covariance_block, and
    the inverse in linalg.smallest_eigenpair), with room for the weighted
    sub-blocks of the build. The one bin past the groups that a power-of-two
    frame's 2^k + 1 bins leave joins the block before it.
    """
    return _blocks(start, stop, 64 * n_chan**2, _GROUP_BINS)


def _frame_rows(weights, n_chan):
    """Each frame's weight repeated over its 2M interleaved (re, im) columns: _covariance_block's weights."""
    return np.repeat(weights, 2 * n_chan).reshape(len(weights), 2 * n_chan)


def _product_blocks(n_bins, n_frames, n_chan):
    """Sub-blocks of a block of n_bins bins for its weighted copies: a sixth of the block, or what the budget holds.

    The budget (_BLOCK_BYTES of the 16 N M byte copies, one bin at least)
    binds for frame-heavy data: 4 bins at (N, M) = (1874, 4), against 22 of
    the 128 bins of a block at (78, 8).
    """
    step = min(-(-n_bins // 6), max(1, stft._BLOCK_BYTES // (16 * n_frames * n_chan)))
    return [slice(first, min(first + step, n_bins)) for first in range(0, n_bins, step)]


def _add_quadrants(g, n_frames, out):
    """The complex out from real products g of the interleaved (re, im) columns, g divided by N in place.

    With x = a + ib, x x^H = (aa^T + bb^T) + i (ba^T - ab^T): Re = g_aa + g_bb,
    Im = g_ba - g_ab.
    """
    g /= n_frames
    np.add(g[:, 0::2, 0::2], g[:, 1::2, 1::2], out=out.real)
    np.subtract(g[:, 1::2, 0::2], g[:, 0::2, 1::2], out=out.imag)
    return out


def _covariance_block(data, weights=None, whiteners=None, out=None):
    # (1/N) sum_n weight_n x_fn x_fn^H per bin, on the calling thread, the
    # weights repeated by _frame_rows (once per update, not per block); with
    # whiteners W that of the whitened y = W^H x, W^H (...) W; hermitized
    # against rounding into a C-ordered V. A real product g = X^T (w X) on the
    # interleaved (re, im) view X needs no conjugate copy (_add_quadrants).
    # Data that needs a copy is copied in sub-blocks (_product_blocks), each
    # weighted one into one reused buffer (a fresh temporary per sub-block
    # costs page faults); data that needs no copy is one sub-block, as many
    # small products run slower side by side on two cores than one at a
    # time. g is formed for the whole block and reduced once, after the
    # copies are released, if it is no larger than a sub-block's weighted
    # copy; else it is reduced a sub-block at a time: the copies, not g, set
    # the build's size. The whitening writes into the block's storage, and
    # V^T is conjugated into C order before it is added, as in
    # linalg.check_hermitian, so that no transposed operand takes a ufunc
    # buffer: the block and at most two stacks of its size are held, V in out
    # (C-ordered) if given. Every product rounds as into a new array: the
    # bits are those of whole-stack products.
    n_bins, n_frames, n_chan = data.shape
    copied = weights is not None or isinstance(data, _Kept) or data.dtype != complex or not data.flags.c_contiguous
    spans = _product_blocks(n_bins, n_frames, n_chan) if copied else [slice(0, n_bins)]
    size = spans[0].stop
    whole = n_bins * n_chan <= size * n_frames // 2  # 32 M^2 bytes of g per bin against 16 N M of copy
    weighted = None if weights is None else np.empty((size, n_frames, 2 * n_chan))
    g = np.empty((n_bins if whole else size, 2 * n_chan, 2 * n_chan))
    if out is None and not whole:  # a whole g makes its V once the copies are released
        out = np.empty((n_bins, n_chan, n_chan), dtype=np.complex128)
    for span in spans:
        block = np.ascontiguousarray(data[span], dtype=np.complex128).view(np.float64)
        lhs = block if weights is None else np.multiply(block, weights, out=weighted[: len(block)])
        np.matmul(lhs.swapaxes(1, 2), block, out=g[span] if whole else g[: len(block)])
        if not whole:
            _add_quadrants(g[: len(block)], n_frames, out[span])
    block = lhs = weighted = None  # buffers that outlive the loop would raise the peak
    if whole:
        out = np.empty((n_bins, n_chan, n_chan), dtype=np.complex128) if out is None else out
        _add_quadrants(g, n_frames, out)
    g = None
    if whiteners is not None:
        np.matmul(np.conj(whiteners.swapaxes(1, 2)), out @ whiteners, out=out)
    np.add(out, np.conj(out.swapaxes(1, 2), order="C"), out=out)
    out *= 0.5
    return out


def prewhiten(covariance, out=None):
    """Whitening factors of a stack of per-bin sample covariances.

    Factors each covariance as C = Q^H Q by Cholesky and returns the stack
    of W = Q^{-1}, upper triangular with a real positive diagonal, so that
    W^H C W = I: the whitened data W^H x, which is never formed, has the
    identity as its sample covariance. A covariance that is not positive
    definite raises linalg.NotPositiveDefiniteError, whose pivot_index is
    the first channel that adds no rank in some bin; extract_spectral drops
    that channel.

    The bins are factored once, a block at a time (_matrix_blocks), and each
    block's inverse is written as soon as it is factored. A failing block
    does not stop the pass: the error names the lowest failing pivot over
    all bins and the first bin failing there, as one factorization of the
    whole stack would. linalg.cholesky checks each block's symmetry against
    that block's largest entry; the set-up covariances are Hermitian to the
    bit (_covariance_block), so no check depends on how the bins are cut.

    The inverses go into out if given, else into a new stack, each matrix
    column-major as a whole-stack inverse is: the later products' rounding
    depends on it. out may be np.swapaxes(covariance, 1, 2), which is laid
    out so: the whiteners then take over the covariance's storage, and a
    covariance that fails is left partly overwritten. Without out,
    covariance is not changed.
    """
    n_bins, n_chan = covariance.shape[:2]
    if out is None:
        out = np.empty((n_bins, n_chan, n_chan), dtype=np.complex128).swapaxes(1, 2)
    failures = []
    for block in _matrix_blocks(0, n_bins, n_chan):
        try:
            linalg.inverse_upper_triangular(linalg.cholesky(covariance[block]), out=out[block])
        except linalg.NotPositiveDefiniteError as exc:
            failures.append((exc.pivot_index, block.start + exc.matrix_index))
    if failures:
        raise linalg.NotPositiveDefiniteError(*min(failures))
    return out


def _activity_pass(data, filters_of):
    """Per-frame magnitude sqrt(sum_f |s_fn|^2) of an estimate s that is demixed block by block, never whole.

    filters_of(block) gives the demixing filters of a block of bins
    (_per_block); their own temporaries are released when it returns. The
    block is demixed into a buffer of about a block (_demixed_blocks),
    squared in place, and each group's rows of Re(s_fn)^2 and Im(s_fn)^2 are
    summed into its entry of sums. Every block starts on a group and holds
    whole groups (the data's last may be short): no group spans two blocks.
    numpy sums the rows of a C-ordered block one at a time, in order, and
    the calling thread adds the group sums in group order, then Re and Im,
    so every frame is summed in one order however the bins are cut.
    """
    n_bins, n_frames = data.shape[:2]
    sums = np.empty((-(-n_bins // _GROUP_BINS), 2 * n_frames))  # of Re(s)^2 and Im(s)^2, interleaved

    def add(block):
        for sub, s in _demixed_blocks(filters_of(block), data, block):
            rows = np.square(s.view(np.float64), out=s.view(np.float64))
            whole, first = len(rows) // _GROUP_BINS, sub.start // _GROUP_BINS
            groups = rows[: whole * _GROUP_BINS].reshape(whole, _GROUP_BINS, 2 * n_frames)
            groups.sum(axis=1, out=sums[first : first + whole])
            if whole * _GROUP_BINS < len(rows):  # the data's last group, short
                rows[whole * _GROUP_BINS :].sum(axis=0, out=sums[-1])

    _per_block(add, data)
    power = sums.sum(axis=0)
    return np.sqrt(power[0::2] + power[1::2])


def _activity(filters, data):
    """The activity of the estimate filters^H x of the raw (F, N, M) data, which is not formed (_activity_pass)."""
    return _activity_pass(data, lambda block: filters[block])


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
    """apply_demixing into the (F, N) complex128 out; a strided channel axis (faster) or a _Kept view is copied."""
    if isinstance(data, _Kept) or data.strides[2] != data.itemsize:
        data = np.ascontiguousarray(data)
    np.matmul(data, np.conj(w)[:, :, None], out=out[:, :, None])


def _demixed_blocks(filters, data, bins):
    """(block, filters^H x of the block) for blocks of whole groups of bins (stft._blocks), in one reused buffer."""
    per_bin = 16 * data.shape[1] * (1 + data.shape[2] * isinstance(data, _Kept))  # s, and a _Kept view's gather
    blocks = _blocks(bins.start, bins.stop, per_bin, _GROUP_BINS)
    buffer = np.empty((max(block.stop - block.start for block in blocks), data.shape[1]), dtype=np.complex128)
    for block in blocks:
        s = buffer[: block.stop - block.start]
        _demix(filters[block.start - bins.start : block.stop - bins.start], data[block], s)
        yield block, s


def apply_demixing(w, data, out=None):
    """Extracted signal w^H x per bin and frame; w is (F, M), data (F, N, M), result (F, N) complex128.

    In shares of bins over the cores (stft._split), a block of data at a
    time (stft._blocks, a copy or _Kept gather at most), into out if given.
    """
    data = data if isinstance(data, _Kept) else np.asarray(data)
    if out is None:
        out = np.empty(data.shape[:2], dtype=np.complex128)

    def demix(start, stop):
        for block in _blocks(start, stop, 16 * max(1, data.shape[1] * data.shape[2])):
            _demix(w[block], data[block], out[block])

    _split(demix, len(w), data.nbytes)
    return out


def five_iteration(state, data, contrast):
    """One demixing update of the raw (F, N, M) data.

    Per bin: build the weighted covariance from the current activity and
    whiten it, V = W^H V_raw W; take its smallest eigenpair (lambda, r) and
    set w = r / sqrt(lambda), which makes w^H V w = 1 exactly. The pair is
    exact, the global minimizer of the majorizer: linalg.smallest_eigenpair
    takes the eigenvalues from LAPACK and r by shifted inverse iteration
    started from the current w, under a residual guard. V is Hermitian by
    construction, so it is not checked. Whitened V is bounded below
    (_frame_weights), so lambda > 0; a bin where it is not, which only
    whiteners that do not whiten the data can produce, raises
    DegenerateCovarianceError. V is also the matrix that certifies the
    incoming state (see DemixingState).

    The update is one pass over the blocks of bins (_per_block, 128 bins at
    M = 8, through _activity_pass): per block, build V, take its eigenpair,
    certify the incoming filter and return the block's new demixing filters,
    which releases V and the eigenpair; the pass demixes the block with them
    and sums its |s|^2 into the activity's group sums, to the same bits
    however the bins are cut. The frame weights, the activity's square root
    and the certificate's max over bins are taken on the calling thread. The
    returned state holds no estimate: the update never holds one whole.
    """
    weights = _frame_rows(_frame_weights(state.activity, contrast), data.shape[2])
    whiteners, previous = state.whiteners, state.w
    w = np.empty(previous.shape, dtype=np.complex128)
    residuals = np.empty(len(w))

    def update(block):  # the block's demixing filters; V and its eigenpair are released on return
        cov, incoming = _covariance_block(data[block], weights, whiteners[block]), previous[block]
        values, vector = linalg.smallest_eigenpair(cov, incoming)
        smallest = values[:, -1]
        bad = ~(smallest > 0)
        if bad.any():
            raise DegenerateCovarianceError(
                f"weighted covariance degenerate at bin {block.start + np.flatnonzero(bad)[0]}"
            )
        np.divide(vector, np.sqrt(smallest)[:, None], out=w[block])
        residuals[block] = _certificate(incoming, (cov @ incoming[:, :, None])[:, :, 0])
        return _demixing_filters(whiteners[block], w[block])

    activity = _activity_pass(data, update)
    return DemixingState(
        whiteners=whiteners,
        w=w,
        activity=activity,
        iteration=state.iteration + 1,
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
    scale = np.vecdot(w, vw)
    norms2 = np.vecdot(w, w).real
    perp = vw - (scale / np.where(norms2 > 0, norms2, 1.0))[:, None] * w
    return np.sqrt(np.abs(scale - 1.0) ** 2 + np.vecdot(perp, perp).real)


def head_residual(state, data, contrast):
    """Stationarity certificate: max over bins of || [w,J]^H [Vw, CJ] - I ||_F.

    V is the whitened weighted covariance W^H V_raw W of the raw data under
    the current activity, C the whitened sample covariance (the identity, by
    prewhiten) and J the orthonormal complement of w, as in evaluate_nll.
    Per bin this is sqrt(|w^H V w - 1|^2 + ||(I - u u^H) V w||^2) with
    u = w/||w||. At a fixed point of five_iteration the residual vanishes.

    Only V w is needed, and it takes one pass over the data without forming
    V: W^H (1/N) sum_n weight_n x_n conj(s_n) for s = (W w)^H x, over the
    update's blocks of bins (_per_block). Each block is demixed into one
    buffer (_demixed_blocks, as the update does), conj(s) is weighted there
    and the block's bins are certified: the pass never reads state.estimate
    and holds about a block per share, not an (F, M) stack. It agrees with
    five_iteration's certificate of the same state up to rounding.
    """
    weights = _frame_weights(state.activity, contrast) / state.activity.shape[0]
    whiteners, w = state.whiteners, state.w
    residuals = np.empty(len(w))

    def product(bins):
        vw = np.empty((bins.stop - bins.start, w.shape[1]), dtype=np.complex128)
        for block, s in _demixed_blocks(_demixing_filters(whiteners[bins], w[bins]), data, bins):
            weighted = np.multiply(np.conj(s, out=s), weights, out=s)
            raw = (weighted[:, None, :] @ data[block])[:, 0, :]
            rows = slice(block.start - bins.start, block.stop - bins.start)
            np.vecdot(whiteners[block], raw[:, :, None], axis=1, out=vw[rows])  # W^H raw: no conjugate copy of W
        s = weighted = None  # the demix buffer is not held through the certificate
        residuals[bins] = _certificate(w[bins], vw)

    _per_block(product, data)
    return float(residuals.max())


def project_back(state, out=None):
    """The state's estimate rescaled onto the reference channel by least squares; reads no data.

    Per bin the complex scale a = sum_n x_ref conj(s) / sum_n |s|^2 minimizes
    ||x_ref - a s||^2 for the estimate s = (W w)^H x. The reference leads the
    whitening (extract_spectral), so with C = Q^H Q and W = Q^{-1} upper
    triangular, sum_n |s|^2 = N ||w||^2 and sum_n x_ref conj(s) = N (C W w)_0
    = N (Q^H w)_0 = N w_0 / W_00, which gives a = w_0 / (W_00 ||w||^2). Its
    accuracy is that of the whitening, about u kappa(C). The estimate may
    be any (F, n) run of frames: extract scales a block of frames at a time
    in synthesize's buffer. The result goes into out, which may be
    state.estimate (scaled in place), or a new array. A state without an
    estimate raises ValueError.
    """
    if state.estimate is None:
        raise ValueError("project_back needs the state's estimate, and the state has none")
    norms2 = np.sum(np.abs(state.w) ** 2, axis=1)
    scale = state.w[:, 0] / (np.real(state.whiteners[:, 0, 0]) * norms2)
    return np.multiply(scale[:, None], state.estimate, out=out)


def _initial_state(whiteners, data):
    """The state of the filter e_0, whose estimate is the whitened reference x_ref / sqrt(C_ref,ref)."""
    w = np.zeros(whiteners.shape[:2], dtype=np.complex128)
    w[:, 0] = 1.0
    return DemixingState(whiteners, w, _activity(whiteners[:, :1, 0], data[:, :, :1]))


def extract_spectral(spec, config, callback=None):
    """Run the full extraction on a spectrogram: a SpectralTensor or its raw (F, N, M) data.

    Pipeline: build the sample covariance and whiten it (prewhiten)
    with the reference channel first, start from the filter whose estimate
    is the whitened reference channel, iterate demixing updates until one
    certifies the state it starts from within early_stop_tol
    (head_residual), then project that state's estimate back onto the
    reference channel (project_back). Whenever whitening names a channel
    that adds no rank in some bin (silent, or a combination of the channels
    before it), that channel is dropped, and the next attempt builds and
    whitens the covariance of the channels kept so far. Unless all channels
    are kept in order, every pass reads a view of the kept ones, reference
    first (_Kept), to the bits of a spectrogram of them alone; the state
    has one entry per kept one. Only a reference silent in some bin can be
    dropped, and that raises SilentReferenceChannelError, which names the
    first such bin. Raw data that is not finite, or not (bins, frames,
    channels) with a bin, raises the ValueError a SpectralTensor raises.
    Data whose squares overflow float64 raises ValueError for the first bin
    whose sample covariance is not finite, and a reference that is nonzero
    in a bin but whose squares underflow there to a zero power raises
    ValueError, not SilentReferenceChannelError.

    Between updates the run holds filters and activities, no estimate
    (five_iteration). A monitored run that uses every update certifies its
    last state (head_residual) before any (F, N) array exists. Every run
    then ends with one demix of the returned state (apply_demixing), into
    the output that project_back scales in place; extract, which
    synthesizes that state, forms it a block of frames at a time instead.
    callback(iteration, state) gets the initial state (iteration 0) and
    every kept update as a copy with a freshly demixed raw (un-projected)
    estimate that it owns; a callback changes no output bit.

    Returns the projected (F, N) extracted signal and an ExtractionReport
    with one record per kept state (record 0: whitening and the initial
    estimate), each certified by the update after it; a monitored run that
    exhausts max_iterations certifies its last with one more pass
    (head_residual), which may converge it too. A converged run drops its
    certifying update and adds that update's time to the last record. Wall
    times exclude the NLL, the callback and the passes after the last update.
    """
    state, data, report = _fit(spec, config, callback)
    estimate = apply_demixing(_demixing_filters(state.whiteners, state.w), data)
    return project_back(replace(state, estimate=estimate), out=estimate), report


def _fit(spec, config, callback=None):
    """extract_spectral up to its returned state: (that state, the spectrogram or its _Kept view, the report)."""
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
    kept = np.r_[ref, np.delete(np.arange(n_chan), ref)]
    while True:
        data = original if np.array_equal(kept, np.arange(n_chan)) else _Kept(original, kept)
        cov = _covariance_stack(data)
        if not np.all(np.isfinite(cov)):
            f = np.flatnonzero(~np.isfinite(cov).all(axis=(1, 2)))[0]
            raise ValueError(f"sample covariance is not finite in bin {f}: the squares of the samples overflow float64")
        try:
            whiteners = prewhiten(cov, out=np.swapaxes(cov, 1, 2))  # in the covariance's storage
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
            kept, cov = np.delete(kept, exc.pivot_index), None

    state = _initial_state(whiteners, data)
    setup_ms = (time.perf_counter() - t0) * 1e3

    contrast = config.contrast
    monitoring = config.nll_monitoring
    report = ExtractionReport()

    def _estimate(state):
        return replace(state, estimate=apply_demixing(_demixing_filters(state.whiteners, state.w), data))

    def _record(wall_ms):
        nll = evaluate_nll(state, contrast) if monitoring else None
        report.records.append(IterationRecord(state.iteration, nll, None, wall_ms))
        if callback is not None:
            callback(state.iteration, _estimate(state))

    def _certify(residual):
        if monitoring:
            report.records[-1] = replace(report.records[-1], head_residual=residual)
        report.converged = config.early_stop_tol is not None and residual <= config.early_stop_tol
        return report.converged

    _record(setup_ms)
    for _ in range(config.max_iterations):
        t_iter = time.perf_counter()
        update = five_iteration(state, data, contrast)
        wall_ms = (time.perf_counter() - t_iter) * 1e3
        if _certify(update.previous_residual):  # drop the certifying update, keep its time
            last = report.records[-1]
            report.records[-1] = replace(last, wall_time_ms=last.wall_time_ms + wall_ms)
            break
        state = update
        _record(wall_ms)
    if monitoring and not report.converged:  # the loop ran out: certify the last state
        _certify(head_residual(state, data, contrast))
    report.iterations_run = state.iteration
    return state, data, report


class _ProjectedEstimate:
    """A state's projected estimate, as synthesize reads a one-channel SpectralTensor, formed a block at a time.

    _spectra demixes a block of frames straight into synthesize's buffer
    (apply_demixing) and scales it there per bin (project_back): neither
    the (F, N) estimate nor a whole transposed copy exists. The scale is
    applied after the demix, as extract_spectral applies it, so the output
    bits are the same. It keeps the demixing filters W w, the filters w and
    the whiteners' leading entries W_00, all that project_back reads, and
    not the whiteners.
    """

    num_channels = 1

    def __init__(self, state, data, spec):
        self.filters = _demixing_filters(state.whiteners, state.w)
        self.state = DemixingState(state.whiteners[:, :1, :1].copy(), state.w, state.activity, state.iteration)
        self.data = data
        self.config, self.sample_rate, self.num_samples = spec.config, spec.sample_rate, spec.num_samples
        self.num_frames = data.shape[1]

    def _spectra(self, frames, out):
        estimate = apply_demixing(self.filters, self.data[:, frames], out=out[:, :, 0])
        project_back(replace(self.state, estimate=estimate), out=estimate)


def extract(wave, stft_config, five_config):
    """End-to-end extraction from a multichannel wave to a mono wave.

    Returns the extracted single-channel MultichannelWave (same length as
    the input) and the ExtractionReport, the output extract_spectral's
    projected estimate synthesizes to, to the bit. The run is
    extract_spectral's, but the returned state's estimate is never formed
    whole: synthesize demixes, projects and overlap-adds it a block of
    frames at a time (_ProjectedEstimate), and the state and its whiteners
    are released before it starts. The working set is the (F, N, M)
    spectrogram and the whiteners, the filters and about a block per share
    through the set-up and the updates, and the spectrogram, the filters
    and the output wave after them.
    """
    spec = analyze(wave, stft_config)
    state, data, report = _fit(spec, five_config)
    source = _ProjectedEstimate(state, data, spec)
    state = None  # the whiteners are not held through the synthesis
    return synthesize(source), report
