import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from five import core, linalg, stft
from five.core import (
    ContrastModel,
    DegenerateCovarianceError,
    DemixingState,
    FiveConfig,
    apply_demixing,
    evaluate_nll,
    extract,
    extract_spectral,
    five_iteration,
    head_residual,
    prewhiten,
    project_back,
)
from five.stft import SpectralTensor, StftConfig, analyze, synthesize
from five.wavio import MultichannelWave
import oracles
from oracles import (
    head_solutions,
    sample_covariance,
    stationarity_residual,
    weighted_covariance,
    whiten,
    whiten_by_cholesky,
)


def _cnormal(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def _identity_cov_data(rng, n_bins, n_frames, n_chan):
    # frames built from orthonormal columns give an exactly-identity
    # per-bin sample covariance
    data = np.empty((n_bins, n_frames, n_chan), dtype=np.complex128)
    for f in range(n_bins):
        q, _ = np.linalg.qr(_cnormal(rng, (n_frames, n_chan)))
        data[f] = np.sqrt(n_frames) * np.conj(q)
    return data


def _fix_phase_vec(v):
    lead = v[np.argmax(np.abs(v))]
    return v * np.conj(lead) / abs(lead)


def _two_source_mixture(rng, n_bins, n_frames, noise_floor=0.0):
    # unit-variance envelope-modulated source plus an independent Gaussian;
    # noise_floor adds uncorrelated sensor noise so extraction cannot become
    # exact
    g = rng.exponential(1.0, n_frames)
    g /= np.sqrt(np.mean(g * g))
    target = g[None, :] * _cnormal(rng, (n_bins, n_frames))
    noise = _cnormal(rng, (n_bins, n_frames))
    mixing = _cnormal(rng, (n_bins, 2, 2))
    data = np.einsum("fmk,kfn->fnm", mixing, np.stack([target, noise]))
    if noise_floor:
        data = data + np.sqrt(noise_floor) * _cnormal(rng, data.shape)
    return data


def _whiteners(data):
    return prewhiten(sample_covariance(data))


def _bin_covariance(data, activity, contrast, f):
    # the weighted covariance of bin f alone, by the update's all-bin build
    weights = core._frame_rows(core._frame_weights(activity, contrast), data.shape[2])
    return core._covariance_block(data[f : f + 1], weights)[0]


# ---------------------------------------------------------------- contrast models


def test_laplace_contrast_values():
    c = ContrastModel("laplace")
    assert c.weight(2.0) == pytest.approx(0.25, abs=0)  # 1/(2r)
    assert c.gain(3.0) == pytest.approx(3.0, abs=0)


def test_gauss_contrast_values():
    c = ContrastModel("gauss", num_bins=16)
    assert c.weight(2.0) == pytest.approx(4.0, abs=0)  # F / r^2
    assert c.gain(np.e) == pytest.approx(32.0, rel=1e-12)  # 2 F log r


def test_contrast_weights_strictly_decreasing():
    r = np.linspace(0.1, 10, 200)
    for c in (ContrastModel("laplace"), ContrastModel("gauss", num_bins=8)):
        assert np.all(np.diff(c.weight(r)) < 0)


def test_contrast_validation():
    with pytest.raises(ValueError):
        ContrastModel("cauchy")
    with pytest.raises(ValueError):
        ContrastModel("gauss")  # needs num_bins


@pytest.mark.parametrize("kind", ["gauss", "laplace"])
@pytest.mark.parametrize("num_bins", [64.5, 64.0, True, "64"])
def test_contrast_rejects_a_bin_count_that_is_not_a_positive_integer(kind, num_bins):
    # a fractional or bool count was accepted silently, and a string died
    # with a bare TypeError in the weight
    with pytest.raises(ValueError, match="num_bins"):
        ContrastModel(kind, num_bins=num_bins)


def test_config_validation():
    contrast = ContrastModel("laplace")
    with pytest.raises(ValueError):
        FiveConfig(contrast, max_iterations=0)
    # a fractional count would fail in range() only after whitening, and a
    # tolerance that is not positive (or NaN) could never stop a run early
    for bad in ({"max_iterations": 2.5}, {"early_stop_tol": 0.0}, {"early_stop_tol": -1e-8},
                {"early_stop_tol": float("nan")}):
        with pytest.raises(ValueError):
            FiveConfig(contrast, **bad)
    FiveConfig(contrast, max_iterations=np.int64(5), early_stop_tol=1e-8)
    for tol in (np.float64(1e-3), 1, np.inf):
        assert FiveConfig(contrast, early_stop_tol=tol).early_stop_tol == tol
    # a fractional or bool channel would fail inside the extraction with an
    # IndexError or a numpy error about boolean arrays; True would run one update
    for bad in ({"ref_channel": 1.5}, {"ref_channel": True}, {"ref_channel": -1},
                {"max_iterations": True}, {"max_iterations": np.True_}):
        with pytest.raises(ValueError, match="must be an integer"):
            FiveConfig(contrast, **bad)
    assert FiveConfig(contrast, ref_channel=np.int64(2)).ref_channel == 2


@pytest.mark.parametrize("tol", [True, np.True_, "1e-3", 1e-3j], ids=["true", "numpy_true", "string", "complex"])
def test_config_rejects_a_tolerance_that_is_not_a_number(tol):
    # True would be a tolerance of 1.0, and a string or a complex number a bare TypeError
    with pytest.raises(ValueError, match="early_stop_tol must be None or a number > 0"):
        FiveConfig(ContrastModel("laplace"), early_stop_tol=tol)


# ---------------------------------------------------------------- prewhiten


def test_prewhiten_identity_covariance_is_noop():
    rng = np.random.default_rng(30)
    data = _identity_cov_data(rng, 3, 64, 4)
    whiteners = _whiteners(data)
    assert np.max(np.abs(whiteners - np.eye(4))) <= 1e-10
    assert np.max(np.abs(whiten(data, whiteners) - data)) <= 1e-10


def test_prewhiten_single_channel_rms():
    # W = Q^{-1}, and Q of one channel is its rms
    rng = np.random.default_rng(31)
    data = _cnormal(rng, (5, 128, 1)) * 3.0
    whiteners = _whiteners(data)
    whitened = whiten(data, whiteners)
    for f in range(5):
        rms = np.sqrt(np.mean(np.abs(data[f, :, 0]) ** 2))
        assert 1.0 / whiteners[f, 0, 0] == pytest.approx(rms, rel=1e-12)
        power = np.mean(np.abs(whitened[f, :, 0]) ** 2)
        assert power == pytest.approx(1.0, abs=1e-10)


def test_prewhiten_covariance_oracle():
    rng = np.random.default_rng(32)
    data = _cnormal(rng, (6, 256, 3)) @ (np.eye(3) + 0.5j * np.eye(3, k=1))
    whitened = whiten(data, _whiteners(data))
    for f in range(6):
        cov = whitened[f].T @ np.conj(whitened[f]) / 256
        assert np.linalg.norm(cov - np.eye(3)) <= 1e-8


def test_extract_needs_enough_frames():
    spec = SpectralTensor(np.ones((2, 3, 4), dtype=complex), 16000, StftConfig(frame_size=2))
    with pytest.raises(ValueError, match="frames"):
        extract_spectral(spec, FiveConfig(contrast=ContrastModel("laplace")))


def test_prewhiten_rank_deficient_rejected():
    with pytest.raises(linalg.NotPositiveDefiniteError) as info:
        prewhiten(sample_covariance(np.zeros((2, 8, 2), dtype=complex)))
    assert info.value.pivot_index == 0


def test_prewhiten_tolerance_is_per_bin():
    # a bin 1e-14 times quieter than the others is still well conditioned
    rng = np.random.default_rng(39)
    data = _cnormal(rng, (2, 64, 3))
    data[0] *= 1e-14
    whitened = whiten(data, _whiteners(data))
    for f in range(2):
        cov = whitened[f].T @ np.conj(whitened[f]) / 64
        assert np.linalg.norm(cov - np.eye(3)) <= 1e-8


@pytest.mark.parametrize("ref", [0, 3], ids=["c_contiguous", "reference_first"])
def test_prewhiten_in_blocks_matches_the_whole_stack_to_the_bit(ref):
    # 600 bins at M = 8 are five blocks, four of 128 and one of 88. A ref != 0 run
    # whitens a fancy-indexed covariance, whose bin axis is the fastest; the
    # whiteners keep the whole-stack inverse's layout, each matrix
    # column-major, which the later products' rounding depends on
    cov = core._covariance_stack(_cnormal(np.random.default_rng(36), (600, 16, 8)))
    if ref:
        kept = np.r_[ref, np.delete(np.arange(8), ref)]
        cov = cov[:, kept[:, None], kept]
    assert len(core._matrix_blocks(0, len(cov), 8)) == 5
    whiteners = prewhiten(cov)
    want = linalg.inverse_upper_triangular(linalg.cholesky(cov))
    assert np.array_equal(whiteners, want)
    assert whiteners.strides == want.strides


def test_healthy_prewhiten_factors_each_block_once(monkeypatch):
    # 600 bins at M = 8 are five blocks: five numpy Cholesky calls, each
    # block's factor inverted as soon as it is checked
    cov = core._covariance_stack(_cnormal(np.random.default_rng(39), (600, 16, 8)))
    factor, calls = np.linalg.cholesky, []
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(len(a)) or factor(a))
    whiteners = prewhiten(cov)
    assert calls == [128, 128, 128, 128, 88]
    assert np.array_equal(whiteners, linalg.inverse_upper_triangular(linalg.cholesky(cov)))


@pytest.mark.parametrize("also", [None, 300], ids=["third_block", "second_block_too"])
def test_prewhiten_names_the_lowest_failing_pivot_over_every_block(also):
    # 768 bins at M = 8 are six blocks of 128. Bin 10, in the first, fails
    # only at pivot 5; bins 600 on, in the fifth and sixth, fail at pivot 2,
    # and so does bin 300, in the third, if also is set. A factorization of
    # the whole stack names pivot 2 and its first bin, and so does prewhiten
    data = _cnormal(np.random.default_rng(37), (768, 16, 8))
    data[10, :, 5] = data[10, :, 0]
    data[600:, :, 2] = data[600:, :, 1]
    if also is not None:
        data[also, :, 2] = data[also, :, 1]
    cov = core._covariance_stack(data)
    for factor in (linalg.cholesky, prewhiten):
        with pytest.raises(linalg.NotPositiveDefiniteError) as info:
            factor(cov)
        assert (info.value.pivot_index, info.value.matrix_index) == (2, 600 if also is None else also)


def test_prewhiten_into_out_leaves_the_covariance_and_matches_a_new_stack():
    # without out the covariance is not touched; out laid out as the
    # whiteners, the covariance's own storage among them, gets the same bits
    cov = core._covariance_stack(_cnormal(np.random.default_rng(40), (300, 16, 8)))
    before = cov.copy()
    want = prewhiten(cov)
    assert np.array_equal(cov, before) and len(core._matrix_blocks(0, 300, 8)) == 3
    into = np.empty_like(cov).swapaxes(1, 2)
    assert prewhiten(cov, out=into) is into and np.array_equal(into, want)
    assert np.array_equal(cov, before)
    got = prewhiten(cov, out=cov.swapaxes(1, 2))
    assert np.shares_memory(got, cov) and np.array_equal(got, want) and got.strides == want.strides


def test_channel_silent_in_the_last_block_only_is_dropped_as_with_a_new_stack(monkeypatch):
    # channel 3 is silent in the top 40 bins only, all in the last of three
    # whitening blocks: the first whitening of the 8 channels fails there,
    # after the blocks before it were written into the covariance's storage.
    # The drop loop and the estimate match a run whose whiteners never share
    # the covariance's storage, to the bit
    data = _cnormal(np.random.default_rng(41), (300, 40, 8))
    data[260:, :, 3] = 0.0
    assert core._matrix_blocks(0, 300, 8)[-1] == slice(256, 300)
    set_up, failed = core.prewhiten, []

    def checked(cov, out=None):
        try:
            return set_up(cov, out=out)
        except linalg.NotPositiveDefiniteError:
            failed.append(cov.shape[1])
            raise

    config = FiveConfig(contrast=ContrastModel("gauss", num_bins=300), max_iterations=3)
    monkeypatch.setattr(core, "prewhiten", lambda cov, out=None: set_up(cov))
    want, want_report = extract_spectral(data, config)
    monkeypatch.setattr(core, "prewhiten", checked)
    widths = []
    got, report = extract_spectral(data, config, callback=lambda it, state: widths.append(state.w.shape[1]))
    assert failed == [8] and set(widths) == {7}
    assert np.array_equal(got, want)
    assert [(r.nll, r.head_residual) for r in report.records] == [(r.nll, r.head_residual) for r in want_report.records]


# ---------------------------------------------------------------- weighted covariance


class _UnitWeight:
    @staticmethod
    def weight(r):
        return np.ones_like(np.asarray(r, dtype=float))


def test_weighted_covariance_unit_weights_reduce_to_sample_covariance():
    # unit phi gives every frame phi + offset * mean(phi) = 1 + offset
    rng = np.random.default_rng(33)
    data = _cnormal(rng, (4, 64, 3))
    activity = rng.uniform(0.5, 2.0, 64)
    for f in range(4):
        got = _bin_covariance(data, activity, _UnitWeight(), f)
        want = (1.0 + core.ACTIVITY_OFFSET) * data[f].T @ np.conj(data[f]) / 64
        assert np.linalg.norm(got - want) <= 1e-13


def test_weighted_covariance_single_frame_by_hand():
    # one frame at r=2, unit vector on channel 1: the offset activity is
    # sqrt(4 + 4 offset), its laplace weight phi = 1/(2 r~), and the frame
    # weight phi + offset * phi
    data = np.zeros((1, 1, 3), dtype=complex)
    data[0, 0, 0] = 1.0
    got = _bin_covariance(data, np.array([2.0]), ContrastModel("laplace"), 0)
    phi = 0.5 / np.sqrt(4.0 + core.ACTIVITY_OFFSET * 4.0)
    want = np.zeros((3, 3))
    want[0, 0] = phi + core.ACTIVITY_OFFSET * phi
    assert np.linalg.norm(got - want) == 0.0


def test_weighted_covariance_matches_triple_loop():
    rng = np.random.default_rng(34)
    n_bins, n_frames, n_chan = 3, 17, 4
    data = _cnormal(rng, (n_bins, n_frames, n_chan))
    activity = rng.uniform(0.1, 3.0, n_frames)
    contrast = ContrastModel("gauss", num_bins=n_bins)
    offset = core.ACTIVITY_OFFSET
    mean_power = sum(r * r for r in activity) / n_frames
    phis = [contrast.weight(np.sqrt(r * r + offset * mean_power)) for r in activity]
    mean_phi = sum(phis) / n_frames
    for f in range(n_bins):
        brute = np.zeros((n_chan, n_chan), dtype=complex)
        for n in range(n_frames):
            phi = phis[n] + offset * mean_phi
            for a in range(n_chan):
                for b in range(n_chan):
                    brute[a, b] += phi * data[f, n, a] * np.conj(data[f, n, b])
        brute /= n_frames
        got = _bin_covariance(data, activity, contrast, f)
        assert np.max(np.abs(got - brute)) <= 1e-12
        assert np.max(np.abs(weighted_covariance(data, activity, contrast)[f] - brute)) <= 1e-12


@pytest.mark.parametrize("weighted", [False, True])
def test_covariance_stack_matches_einsum_on_stft_layout(weighted):
    # STFT data as a strided (F, N, M) view of an (N, M, F) array: the build
    # must take any layout a caller passes, not only analyze's contiguous one
    rng = np.random.default_rng(35)
    wave = MultichannelWave(16000, rng.standard_normal((40 * 64, 3)))
    data = np.ascontiguousarray(analyze(wave, StftConfig(frame_size=128)).data.transpose(1, 2, 0))
    data = data.transpose(2, 0, 1)
    assert not data.flags.c_contiguous
    weights = rng.uniform(0.1, 3.0, data.shape[1]) if weighted else None
    got = core._covariance_block(data, core._frame_rows(weights, 3)) if weighted else core._covariance_stack(data)
    scale = np.ones(data.shape[1]) if weights is None else weights
    want = np.einsum("fni,fnj,n->fij", data, np.conj(data), scale) / data.shape[1]
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    assert np.array_equal(got, np.conj(np.swapaxes(got, 1, 2)))


def test_weighted_covariance_floors_activity():
    # a silent frame sees the offset activity sqrt(offset * m), m the mean
    # r^2, so it gets the finite weight phi(sqrt(offset m)) + offset mean(phi)
    data = np.ones((1, 2, 1), dtype=complex)
    activity = np.array([0.0, 1.0])  # plain phi(0) would blow up
    offset = core.ACTIVITY_OFFSET
    mean_power = 0.5
    phis = [0.5 / np.sqrt(offset * mean_power), 0.5 / np.sqrt(1.0 + offset * mean_power)]
    weights = [phi + offset * (phis[0] + phis[1]) / 2 for phi in phis]
    got = _bin_covariance(data, activity, ContrastModel("laplace"), 0)
    assert np.isfinite(got[0, 0])
    assert got[0, 0] == pytest.approx((weights[0] + weights[1]) / 2, rel=1e-12)


# ---------------------------------------------------------------- activity


def _activity_of(extracted):
    # the activity of an (F, N) estimate: the demix of extracted[:, :, None] by unit filters
    return core._activity(np.ones((len(extracted), 1)), extracted[:, :, None])


def test_activity_pythagorean():
    extracted = np.array([[3.0 + 4.0j]])
    assert _activity_of(extracted)[0] == pytest.approx(5.0, abs=0)


def test_activity_zero_frame():
    assert _activity_of(np.zeros((4, 3), dtype=complex))[1] == 0.0


def test_activity_matches_elementwise_oracle():
    rng = np.random.default_rng(35)
    extracted = _cnormal(rng, (16, 4))
    got = _activity_of(extracted)
    for n in range(4):
        want = np.sqrt(sum(abs(extracted[f, n]) ** 2 for f in range(16)))
        assert abs(got[n] - want) <= 1e-12


@pytest.mark.parametrize("n_frames", [1, 78, 400, 1874])
def test_activity_matches_one_pass_within_rounding(n_frames):
    # bin counts from 1 to about 1 MiB of estimate, and bins whose magnitudes
    # span many orders: each frame is a sum of F squares, good to (F + 2) eps
    step = stft._BLOCK_BYTES // (16 * n_frames)
    rng = np.random.default_rng(n_frames)
    for n_bins in (1, step - 1, step, step + 1, 2 * step + 3):
        extracted = _cnormal(rng, (n_bins, n_frames)) * np.exp(5 * rng.standard_normal((n_bins, 1)))
        want = oracles.activity(extracted)
        assert np.all(np.abs(_activity_of(extracted) - want) <= (n_bins + 2) * np.finfo(float).eps * want)


def test_activity_does_not_depend_on_shares_or_blocks(monkeypatch):
    # 100 bins are 7 groups, the last of 4 bins: 1 or 3 shares of whole
    # groups, and blocks of 1, 3 (cutting every group) or all bins give
    # one sum per frame to the bit
    rng = np.random.default_rng(34)
    data = _cnormal(rng, (100, 50, 3)) * np.exp(5 * rng.standard_normal((100, 1, 1)))
    filters = _cnormal(rng, (100, 3))
    monkeypatch.setattr(stft, "_SHARE_BYTES", 1 << 10)
    runs = []
    for workers in (1, 3):
        monkeypatch.setattr(stft, "_WORKERS", workers)
        for bins in (1, 3, None):
            block_bytes = 1 << 19 if bins is None else 16 * 50 * bins
            monkeypatch.setattr(stft, "_BLOCK_BYTES", block_bytes)
            runs.append(core._activity(filters, data))
    want = oracles.activity(apply_demixing(filters, data))
    assert np.all(np.abs(runs[0] - want) <= 102 * np.finfo(float).eps * want)
    assert all(np.array_equal(run, runs[0]) for run in runs[1:])


# ---------------------------------------------------------------- iteration


def test_iteration_single_channel_is_rescale():
    rng = np.random.default_rng(36)
    data = _cnormal(rng, (4, 64, 1))
    whiteners = _whiteners(data)
    whitened = whiten(data, whiteners)
    state = five_iteration(core._initial_state(whiteners, data), data, ContrastModel("laplace"))
    extracted = oracles.estimate(state, data)
    for f in range(4):
        ratio = extracted[f] / whitened[f, :, 0]
        assert np.max(np.abs(ratio - ratio[0])) <= 1e-12
        assert ratio[0].imag == pytest.approx(0.0, abs=1e-12)
        assert ratio[0].real > 0


def test_iteration_scaling_row_holds_exactly():
    # immediately after the update, w^H V w = 1 for the covariance that
    # produced the update
    rng = np.random.default_rng(37)
    data = _two_source_mixture(rng, 8, 400)
    whiteners = _whiteners(data)
    whitened = whiten(data, whiteners)
    contrast = ContrastModel("laplace")
    state = core._initial_state(whiteners, data)
    for _ in range(3):
        anchor_activity = state.activity
        state = five_iteration(state, data, contrast)
        for f in range(8):
            v = _bin_covariance(whitened, anchor_activity, contrast, f)
            scale = state.w[f].conj() @ v @ state.w[f]
            assert abs(scale - 1.0) <= 1e-10


def test_iteration_activity_consistent_with_estimate():
    rng = np.random.default_rng(38)
    data = _two_source_mixture(rng, 8, 200)
    whiteners = _whiteners(data)
    state = five_iteration(core._initial_state(whiteners, data), data, ContrastModel("laplace"))
    recomputed = oracles.activity(apply_demixing(state.w, whiten(data, whiteners)))
    assert np.max(np.abs(recomputed - state.activity)) <= 1e-10
    assert np.max(np.abs(recomputed - oracles.activity(oracles.estimate(state, data)))) <= 1e-10


@pytest.mark.parametrize("layout", ["strided", "transposed", "complex64"])
def test_apply_demixing_is_the_per_bin_product(layout):
    # numpy's complex product takes any layout and precision of the data and
    # returns complex128
    rng = np.random.default_rng(39)
    if layout == "transposed":  # an (F, N, M) view of (N, M, F) data
        data = _cnormal(rng, (40, 3, 9)).transpose(2, 0, 1)
    else:
        data = _cnormal(rng, (9, 80, 3))[:, ::2]
    if layout == "complex64":
        data = data.astype(np.complex64)
    assert layout == "complex64" or not data.flags.c_contiguous
    w = _cnormal(rng, (9, 3))
    got = apply_demixing(w, data)
    want = np.stack([np.conj(w[f]) @ data[f].T for f in range(9)])
    assert got.dtype == np.complex128 and got.shape == (9, 40)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_apply_demixing_copies_only_data_whose_channel_axis_is_strided():
    # a transposed view is demixed as its contiguous copy, to the bit; a
    # frame-strided view keeps a unit-stride channel axis and is read in place
    rng = np.random.default_rng(40)
    transposed = _cnormal(rng, (100, 4, 65)).transpose(2, 0, 1)
    w = _cnormal(rng, (65, 4))
    assert np.array_equal(apply_demixing(w, transposed), apply_demixing(w, np.ascontiguousarray(transposed)))
    strided = np.ascontiguousarray(transposed)[:, ::2]
    tracemalloc.start()
    try:
        got = apply_demixing(w, strided)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < got.nbytes + strided.nbytes // 2
    assert np.array_equal(got, apply_demixing(w, np.ascontiguousarray(strided)))


def test_initial_state_is_the_whitened_reference_channel():
    # the demix of W e_0: whitened coordinate 0, which for the upper
    # triangular W is channel 0 itself over its rms, x_0 / sqrt(C_00)
    rng = np.random.default_rng(41)
    data = _cnormal(rng, (8, 100, 4)) * np.array([1.0, 3.0, 0.2, 7.0])
    whiteners = _whiteners(data)
    state = core._initial_state(whiteners, data)
    estimate = oracles.estimate(state, data)
    want = whiten(data, whiteners)[:, :, 0]
    assert np.max(np.abs(estimate - want)) <= 1e-13 * np.max(np.abs(want))
    rms = np.sqrt(np.real(sample_covariance(data)[:, 0, 0]))
    assert np.max(np.abs(estimate - data[:, :, 0] / rms[:, None])) <= 1e-13 * np.max(np.abs(want))
    assert np.array_equal(state.w, np.tile(np.eye(4)[0], (8, 1)))
    assert state.estimate is None
    assert np.all(np.abs(state.activity - oracles.activity(want)) <= 10 * np.finfo(float).eps * state.activity)


def test_iteration_reaches_fixed_point_two_channels():
    # two-channel mixture converges to a stationary point; the row-one
    # residual against the current-activity covariance certifies it
    # (the contraction rate is about 1/2 per iteration, so 40 iterations
    # land far below the 1e-8 requirement)
    rng = np.random.default_rng(42)
    data = _two_source_mixture(rng, 32, 2000)
    whiteners = _whiteners(data)
    whitened = whiten(data, whiteners)
    contrast = ContrastModel("laplace")
    state = core._initial_state(whiteners, data)
    for _ in range(40):
        state = five_iteration(state, data, contrast)
    for f in range(32):
        v = _bin_covariance(whitened, state.activity, contrast, f)
        assert abs(state.w[f].conj() @ v @ state.w[f] - 1.0) <= 1e-8


def test_iteration_degenerate_covariance_rejected():
    state = DemixingState(
        whiteners=np.broadcast_to(np.eye(2, dtype=complex), (3, 2, 2)),
        w=np.ones((3, 2), dtype=complex),
        activity=np.ones(8),
    )
    with pytest.raises(DegenerateCovarianceError):
        five_iteration(state, np.zeros((3, 8, 2), dtype=complex), ContrastModel("laplace"))


@pytest.mark.parametrize("kind", ["laplace", "gauss"])
def test_weighted_covariance_bounded_below_on_prewhitened_stack(kind):
    # W^H C W = I, so the offset share of every frame weight puts V at or
    # above offset * mean_k phi(r~_k) times I, even with a silent frame whose
    # plain weight would diverge; the update then needs no load
    rng = np.random.default_rng(41)
    data = _two_source_mixture(rng, 8, 64)
    whiteners = _whiteners(data)
    activity = rng.uniform(0.5, 2.0, 64)
    activity[5] = 0.0
    contrast = ContrastModel(kind, num_bins=8)
    v_cov = core._covariance_block(data, core._frame_rows(core._frame_weights(activity, contrast), 2), whiteners)
    power = activity**2
    phi = contrast.weight(np.sqrt(power + core.ACTIVITY_OFFSET * np.mean(power)))
    bound = core.ACTIVITY_OFFSET * np.mean(phi)
    raw = np.einsum("fni,fnj,n->fij", data, np.conj(data), phi) / 64
    plain = np.conj(np.swapaxes(whiteners, 1, 2)) @ raw @ whiteners
    assert np.max(np.abs(v_cov - plain - bound * np.eye(2))) <= 1e-12 * np.max(np.abs(v_cov))
    assert np.all(np.linalg.eigvalsh(v_cov)[:, 0] >= bound * (1.0 - 1e-9))
    state = DemixingState(whiteners, np.ones((8, 2), dtype=complex), activity)
    assert np.all(np.isfinite(five_iteration(state, data, contrast).w))


def test_iteration_equivariant_under_unitary():
    rng = np.random.default_rng(39)
    data = _identity_cov_data(rng, 4, 100, 3)
    unitary, _ = np.linalg.qr(_cnormal(rng, (3, 3)))
    rotated = data.copy()
    rotated[2] = data[2] @ unitary.T  # x -> U x at bin 2 only

    whiteners = np.broadcast_to(np.eye(3, dtype=complex), (4, 3, 3))
    activity = rng.uniform(0.5, 2.0, 100)
    contrast = ContrastModel("laplace")
    base = DemixingState(whiteners, np.zeros((4, 3), dtype=complex), activity)
    s1 = five_iteration(base, data, contrast)
    s2 = five_iteration(base, rotated, contrast)

    assert np.max(np.abs(_fix_phase_vec(s2.w[2]) - _fix_phase_vec(unitary @ s1.w[2]))) <= 1e-10
    e1 = oracles.estimate(s1, data)[2]
    e2 = oracles.estimate(s2, rotated)[2]
    assert np.max(np.abs(np.abs(e2) - np.abs(e1))) <= 1e-10
    corr = np.vdot(e2, e1)
    assert abs(abs(corr) - np.linalg.norm(e1) * np.linalg.norm(e2)) <= 1e-10 * abs(corr)


def test_gauss_iterates_scale_invariant():
    # scaling the whitened input (here: the data, under the same whiteners)
    # leaves the normalized extraction sequence unchanged under the gauss
    # contrast
    rng = np.random.default_rng(40)
    data = _two_source_mixture(rng, 8, 300)
    whiteners = _whiteners(data)
    contrast = ContrastModel("gauss", num_bins=8)
    scaled = 7.5 * data

    state_a = core._initial_state(whiteners, data)
    state_b = core._initial_state(whiteners, scaled)
    for _ in range(4):
        state_a = five_iteration(state_a, data, contrast)
        state_b = five_iteration(state_b, scaled, contrast)
        ea = oracles.estimate(state_a, data)
        eb = oracles.estimate(state_b, scaled)
        assert np.max(np.abs(ea / np.linalg.norm(ea) - eb / np.linalg.norm(eb))) <= 1e-10


# ---------------------------------------------------------------- likelihood


def test_nll_scalar_case_by_hand():
    # M=1, F=1, N=1, laplace, estimate 1 and unit filter: the offset
    # activity is sqrt(1 + offset), so L = G(sqrt(1 + offset))
    state = DemixingState(
        whiteners=np.eye(1, dtype=complex)[None],
        w=np.ones((1, 1), dtype=complex),
        activity=np.ones(1),
    )
    want = np.sqrt(1.0 + core.ACTIVITY_OFFSET)
    assert evaluate_nll(state, ContrastModel("laplace")) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("kind", ["laplace", "gauss"])
def test_nll_non_increasing_over_iterations(kind):
    rng = np.random.default_rng(41)
    data = _two_source_mixture(rng, 16, 500, noise_floor=0.01)
    whiteners = _whiteners(data)
    contrast = ContrastModel(kind, num_bins=16)
    state = core._initial_state(whiteners, data)
    previous = evaluate_nll(state, contrast)
    for _ in range(25):
        state = five_iteration(state, data, contrast)
        current = evaluate_nll(state, contrast)
        assert current <= previous + 1e-9 * abs(previous)
        previous = current


def test_nll_doubles_under_frame_duplication():
    rng = np.random.default_rng(43)
    data = _two_source_mixture(rng, 8, 100)
    whiteners = _whiteners(data)
    contrast = ContrastModel("laplace")
    state = five_iteration(core._initial_state(whiteners, data), data, contrast)

    # the recording played twice has the same sample covariance and whiteners
    doubled_state = DemixingState(
        whiteners=whiteners,
        w=state.w,
        activity=np.concatenate([state.activity, state.activity]),
        iteration=state.iteration,
    )
    single = evaluate_nll(state, contrast)
    double = evaluate_nll(doubled_state, contrast)
    assert double == pytest.approx(2.0 * single, rel=1e-10)


def test_nll_includes_whitening_constant():
    # same whitened data, but from twice the input with the whitener W = I/2
    # (Q = 2I): the recorded whitening log-determinant must shift the value
    # accordingly
    rng = np.random.default_rng(44)
    data = _identity_cov_data(rng, 2, 50, 2)
    base = DemixingState(
        whiteners=np.broadcast_to(np.eye(2, dtype=complex), (2, 2, 2)),
        w=np.ones((2, 2), dtype=complex) / np.sqrt(2),
        activity=oracles.activity(data[:, :, 0]),
    )
    scaled = DemixingState(
        whiteners=np.broadcast_to(0.5 * np.eye(2, dtype=complex), (2, 2, 2)),
        w=base.w,
        activity=base.activity,
    )
    contrast = ContrastModel("laplace")
    shift = 2.0 * 50 * 2 * 2 * np.log(2.0)  # 2N * (bins * dim) * log 2
    got = evaluate_nll(scaled, contrast) - evaluate_nll(base, contrast)
    assert got == pytest.approx(shift, rel=1e-12)


def _complement(w):
    # orthonormal complement of w, by QR: the background block J of the monitor
    q, _ = np.linalg.qr(w[:, None], mode="complete")
    return q[:, 1:]


def _monitor_states(rng, data, whiteners, contrast):
    # the initial e_0 state, random filters, and the iterates of a short run
    n_bins, _, n_chan = data.shape
    states = [core._initial_state(whiteners, data)]
    for _ in range(2):
        w = _cnormal(rng, (n_bins, n_chan))
        activity = core._activity(core._demixing_filters(whiteners, w), data)
        states.append(DemixingState(whiteners, w, activity))
    for _ in range(3):
        states.append(five_iteration(states[-1], data, contrast))
    return states


@pytest.mark.parametrize("kind", ["laplace", "gauss"])
def test_nll_matches_explicit_complement_formula(kind):
    rng = np.random.default_rng(57)
    n_bins, n_frames, n_chan = 6, 120, 4
    data = _cnormal(rng, (n_bins, n_frames, n_chan)) @ _cnormal(rng, (n_chan, n_chan))
    whitened, factors = whiten_by_cholesky(data)
    whiteners = _whiteners(data)
    contrast = ContrastModel(kind, num_bins=n_bins)
    for state in _monitor_states(rng, data, whiteners, contrast):
        power = state.activity**2
        want = np.sum(contrast.gain(np.sqrt(power + core.ACTIVITY_OFFSET * np.mean(power))))
        for f in range(n_bins):
            basis = _complement(state.w[f])
            _, logdet = np.linalg.slogdet(np.column_stack([state.w[f], basis]))
            want += -2.0 * n_frames * logdet
            want += np.sum(np.abs(whitened[f] @ np.conj(basis)) ** 2)
            want += 2.0 * n_frames * np.sum(np.log(np.real(np.diag(factors[f]))))
        got = evaluate_nll(state, contrast)
        assert abs(got - want) <= 1e-12 * abs(want)


# ---------------------------------------------------------------- stationarity


def _spd(rng, m, spread=1.0):
    b = _cnormal(rng, (m, m))
    return b @ b.conj().T + spread * np.eye(m)


def test_head_construction_residual_tiny():
    # a state assembled from the exact candidate solution on data with an
    # exactly-identity covariance satisfies the stationarity system
    rng = np.random.default_rng(45)
    n_bins, n_frames, n_chan = 3, 64, 4
    data = _identity_cov_data(rng, n_bins, n_frames, n_chan)
    activity = rng.uniform(0.5, 2.0, n_frames)
    contrast = ContrastModel("laplace")
    w = np.empty((n_bins, n_chan), dtype=complex)
    basis = np.empty((n_bins, n_chan, n_chan - 1), dtype=complex)
    for f in range(n_bins):
        v = _bin_covariance(data, activity, contrast, f)
        _, w[f], basis[f] = head_solutions(v)[-1]
    state = DemixingState(
        whiteners=np.broadcast_to(np.eye(n_chan, dtype=complex), (n_bins, n_chan, n_chan)),
        w=w,
        activity=activity,
    )
    assert head_residual(state, data, contrast) <= 1e-10


def test_head_residual_sensitive_to_perturbation():
    rng = np.random.default_rng(46)
    n_bins, n_frames, n_chan = 3, 64, 4
    data = _identity_cov_data(rng, n_bins, n_frames, n_chan)
    activity = rng.uniform(0.5, 2.0, n_frames)
    contrast = ContrastModel("laplace")
    w = np.empty((n_bins, n_chan), dtype=complex)
    basis = np.empty((n_bins, n_chan, n_chan - 1), dtype=complex)
    for f in range(n_bins):
        _, w[f], basis[f] = head_solutions(
            _bin_covariance(data, activity, contrast, f)
        )[-1]
    direction = _cnormal(rng, (n_bins, n_chan))
    direction *= 1e-3 / np.linalg.norm(direction, axis=1, keepdims=True)
    state = DemixingState(
        whiteners=np.broadcast_to(np.eye(n_chan, dtype=complex), (n_bins, n_chan, n_chan)),
        w=w + direction,
        activity=activity,
    )
    assert head_residual(state, data, contrast) >= 1e-4


def test_head_residual_small_after_convergence():
    # once the filters stop moving (step < 1e-10 per bin), the stationarity
    # residual must certify the fixed point
    rng = np.random.default_rng(47)
    data = _two_source_mixture(rng, 32, 2000)
    whiteners = _whiteners(data)
    contrast = ContrastModel("laplace")
    state = core._initial_state(whiteners, data)
    for _ in range(60):
        previous_w = state.w
        state = five_iteration(state, data, contrast)
    assert np.max(np.linalg.norm(state.w - previous_w, axis=1)) < 1e-10
    assert head_residual(state, data, contrast) <= 1e-6


def test_head_residual_matches_explicit_gram_on_prewhiten_output():
    # the closed form against || [w,J]^H [Vw, CJ] - I ||_F with J the QR
    # complement of w, V and C the einsum covariances of the whitened data
    rng = np.random.default_rng(58)
    n_bins, n_frames, n_chan = 6, 120, 4
    data = _cnormal(rng, (n_bins, n_frames, n_chan)) @ _cnormal(rng, (n_chan, n_chan))
    whiteners = _whiteners(data)
    contrast = ContrastModel("gauss", num_bins=n_bins)
    for state in _monitor_states(rng, data, whiteners, contrast):
        want = stationarity_residual(state, data, contrast)
        assert abs(head_residual(state, data, contrast) - want) <= 1e-12


def test_head_residual_reads_no_estimate():
    # the certificate demixes the filters itself: a state that carries a
    # wrong (zero) estimate is certified as the same state without one
    rng = np.random.default_rng(61)
    data = _two_source_mixture(rng, 8, 200)
    contrast = ContrastModel("gauss", num_bins=8)
    state = five_iteration(core._initial_state(_whiteners(data), data), data, contrast)
    zeros = replace(state, estimate=np.zeros(data.shape[:2], dtype=complex))
    assert head_residual(zeros, data, contrast) == head_residual(state, data, contrast)


def test_iteration_carries_certificate_of_incoming_state():
    rng = np.random.default_rng(59)
    data = _two_source_mixture(rng, 8, 200)
    whiteners = _whiteners(data)
    contrast = ContrastModel("gauss", num_bins=8)
    state = core._initial_state(whiteners, data)
    for _ in range(3):
        # head_residual forms V w in one pass, the update from the V it builds
        expected = head_residual(state, data, contrast)
        state = five_iteration(state, data, contrast)
        assert state.previous_residual == pytest.approx(expected, rel=1e-12)


def test_report_records_certify_their_own_state():
    # record k is filled in after update k+1; it must still describe state k
    rng = np.random.default_rng(60)
    data = _two_source_mixture(rng, 8, 200, noise_floor=0.01)
    from five.stft import SpectralTensor

    spec = SpectralTensor(data, 16000, StftConfig(frame_size=14))
    contrast = ContrastModel("gauss", num_bins=8)
    states = []
    _, report = extract_spectral(
        spec,
        FiveConfig(contrast=contrast, max_iterations=3),
        callback=lambda iteration, state: states.append(state),
    )
    assert [s.iteration for s in states] == [r.iteration for r in report.records] == [0, 1, 2, 3]
    for state, record in zip(states, report.records):
        nll = evaluate_nll(state, contrast)
        assert record.nll == pytest.approx(nll, rel=1e-12)
        assert record.head_residual == pytest.approx(
            head_residual(state, data, contrast), rel=1e-12, abs=1e-15
        )


@pytest.mark.parametrize("monitoring", [True, False])
def test_monitored_run_costs_one_covariance_build(monkeypatch, monitoring):
    # K updates: K eigenpair calls with no eig_hermitian fallback, and K
    # weighted covariance builds; the last certificate of a monitored run is
    # one head_residual, which builds no covariance
    counts = {"pair": 0, "eig": 0, "cov": 0, "certify": 0}
    pair, eig = core.linalg.smallest_eigenpair, core.linalg.eig_hermitian
    build, certify = core._covariance_block, core.head_residual

    def counting_pair(*args, **kwargs):
        counts["pair"] += 1
        return pair(*args, **kwargs)

    def counting_eig(*args, **kwargs):
        counts["eig"] += 1
        return eig(*args, **kwargs)

    def counting_build(data, weights=None, whiteners=None, out=None):
        counts["cov"] += weights is not None
        return build(data, weights, whiteners, out)

    def counting_certify(*args, **kwargs):
        counts["certify"] += 1
        return certify(*args, **kwargs)

    monkeypatch.setattr(core.linalg, "smallest_eigenpair", counting_pair)
    monkeypatch.setattr(core.linalg, "eig_hermitian", counting_eig)
    monkeypatch.setattr(core, "_covariance_block", counting_build)
    monkeypatch.setattr(core, "head_residual", counting_certify)
    rng = np.random.default_rng(61)
    data = _two_source_mixture(rng, 8, 200, noise_floor=0.01)
    from five.stft import SpectralTensor

    spec = SpectralTensor(data, 16000, StftConfig(frame_size=14))
    config = FiveConfig(
        contrast=ContrastModel("gauss", num_bins=8), max_iterations=4, nll_monitoring=monitoring
    )
    _, report = extract_spectral(spec, config)
    assert report.iterations_run == 4
    assert counts == {"pair": 4, "eig": 0, "cov": 4, "certify": int(monitoring)}


def _counting_demixes(monkeypatch):
    # the bins every demixing product covers, and the apply_demixing calls
    counts = {"bins": 0, "calls": 0}
    product, demix = core._demix, core.apply_demixing

    def counting_product(w, *args):
        counts["bins"] += len(w)
        return product(w, *args)

    def counting_demix(*args, **kwargs):
        counts["calls"] += 1
        return demix(*args, **kwargs)

    monkeypatch.setattr(core, "_demix", counting_product)
    monkeypatch.setattr(core, "apply_demixing", counting_demix)
    return counts


@pytest.mark.parametrize("monitoring", [True, False])
def test_run_makes_one_demixing_product_per_update(monkeypatch, monitoring):
    # K updates demix every bin K times, the initial state's activity once,
    # the last certificate of a monitored run once, a block at a time, and
    # the run's one apply_demixing once more, into the output; a callback
    # gets each state with a demix of its own, and the same output
    rng = np.random.default_rng(62)
    data = _two_source_mixture(rng, 8, 200, noise_floor=0.01)
    spec = SpectralTensor(data, 16000, StftConfig(frame_size=14))
    config = FiveConfig(
        contrast=ContrastModel("gauss", num_bins=8), max_iterations=4, nll_monitoring=monitoring
    )
    counts = _counting_demixes(monkeypatch)
    extracted, report = extract_spectral(spec, config)
    assert report.iterations_run == 4
    assert counts == {"bins": 8 * (4 + 2 + monitoring), "calls": 1}
    states = []
    counts.update(bins=0, calls=0)
    recorded, _ = extract_spectral(spec, config, callback=lambda it, state: states.append(state))
    assert len(states) == 5
    assert counts == {"bins": 8 * (4 + 2 + monitoring + 5), "calls": 1 + 5}
    assert np.array_equal(recorded, extracted)
    assert np.array_equal(states[0].estimate, apply_demixing(states[0].whiteners[:, :, 0], data))
    assert np.array_equal(extracted, project_back(states[-1]))


def test_nll_reads_no_data(monkeypatch):
    # the closed form needs the filters, activities and whiteners only: no
    # demixing product and no covariance build
    rng = np.random.default_rng(63)
    data = _two_source_mixture(rng, 8, 200, noise_floor=0.01)
    contrast = ContrastModel("gauss", num_bins=8)
    state = five_iteration(core._initial_state(_whiteners(data), data), data, contrast)
    counts = {"demix": 0, "cov": 0}
    demix, build = core._demix, core._covariance_block

    def counting_demix(*args, **kwargs):
        counts["demix"] += 1
        return demix(*args, **kwargs)

    def counting_build(*args, **kwargs):
        counts["cov"] += 1
        return build(*args, **kwargs)

    monkeypatch.setattr(core, "_demix", counting_demix)
    monkeypatch.setattr(core, "_covariance_block", counting_build)
    assert np.isfinite(evaluate_nll(state, contrast))
    assert counts == {"demix": 0, "cov": 0}


@pytest.mark.parametrize("monitoring, calls", [(True, 5), (False, 0)])
def test_run_records_the_nll_of_evaluate_nll(monkeypatch, monitoring, calls):
    # the driver looks evaluate_nll up on the module, once per record, so a
    # wrapper installed there sees every monitored value
    values = []
    nll = core.evaluate_nll

    def counting_nll(*args, **kwargs):
        values.append(nll(*args, **kwargs))
        return values[-1]

    monkeypatch.setattr(core, "evaluate_nll", counting_nll)
    rng = np.random.default_rng(62)
    data = _two_source_mixture(rng, 8, 200, noise_floor=0.01)
    spec = SpectralTensor(data, 16000, StftConfig(frame_size=14))
    config = FiveConfig(
        contrast=ContrastModel("gauss", num_bins=8), max_iterations=4, nll_monitoring=monitoring
    )
    _, report = extract_spectral(spec, config)
    assert report.iterations_run == 4
    assert len(values) == calls
    assert report.nll_values == values


def test_head_solutions_all_satisfy_system():
    rng = np.random.default_rng(48)
    for m in (2, 3, 4):
        v = _spd(rng, m)
        for value, w, basis in head_solutions(v):
            cols = np.concatenate([w[:, None], basis], axis=1)
            target = np.concatenate([(v @ w)[:, None], basis], axis=1)
            assert np.linalg.norm(cols.conj().T @ target - np.eye(m)) <= 1e-10
            assert value > 0


def test_head_solutions_smallest_minimizes_majorizer():
    # surrogate value -2 log|det W| + w^H V w + tr(J^H J), identity
    # background: the smallest-eigenvalue candidate must win
    rng = np.random.default_rng(49)
    for m in (2, 3, 4):
        v = _spd(rng, m, spread=0.1)
        values = []
        for _, w, basis in head_solutions(v):
            cols = np.concatenate([w[:, None], basis], axis=1)
            _, logdet = np.linalg.slogdet(cols)
            values.append(
                -2.0 * logdet
                + np.real(w.conj() @ v @ w)
                + np.real(np.trace(basis.conj().T @ basis))
            )
        assert np.argmin(values) == m - 1


# ---------------------------------------------------------------- projection back


def _projection_state(seed, scale=1.0, shape=(4, 32, 2)):
    # the initial state of random data, with its filter scaled by scale and
    # so its estimate, (W scale w)^H x, by conj(scale)
    data = _cnormal(np.random.default_rng(seed), shape)
    state = core._initial_state(_whiteners(data), data)
    state = replace(state, w=scale * state.w)
    return data, replace(state, estimate=oracles.estimate(state, data))


def test_project_back_fixed_point():
    # the initial estimate is the reference channel over its rms; projected,
    # it is the reference channel
    data, state = _projection_state(50)
    out = project_back(state)
    assert np.max(np.abs(out - data[:, :, 0])) <= 1e-12


def test_project_back_inverts_scale():
    data, state = _projection_state(51, scale=2.0 - 1.0j)
    out = project_back(state)
    assert np.max(np.abs(out - data[:, :, 0])) <= 1e-12


def test_project_back_least_squares_oracle():
    # grid search with refinement over the complex scale cannot beat the
    # closed-form projection of an updated state
    data, state = _projection_state(52, shape=(3, 40, 2))
    state = five_iteration(state, data, ContrastModel("laplace"))
    estimate = oracles.estimate(state, data)
    out = project_back(replace(state, estimate=estimate))
    for f in range(3):
        reference = data[f, :, 0]
        best = out[f]
        analytic_residual = np.sum(np.abs(reference - best) ** 2)
        center, radius = 0.0 + 0.0j, 4.0
        for _ in range(14):
            grid = np.linspace(-radius, radius, 9)
            cand = center + grid[:, None] + 1j * grid[None, :]
            res = np.sum(
                np.abs(reference[None, None, :] - cand[:, :, None] * estimate[f]) ** 2,
                axis=2,
            )
            i, j = np.unravel_index(np.argmin(res), res.shape)
            center = center + grid[i] + 1j * grid[j]
            radius *= 0.3
        grid_residual = np.sum(np.abs(reference - center * estimate[f]) ** 2)
        assert analytic_residual <= grid_residual + 1e-9 * grid_residual


def test_project_back_names_a_missing_estimate():
    # DemixingState.estimate defaults to None; project_back alone reads it
    _, state = _projection_state(59)
    bare = replace(state, estimate=None)
    with pytest.raises(ValueError, match="estimate"):
        project_back(bare)
    with pytest.raises(ValueError, match="estimate"):
        project_back(bare, out=np.empty_like(state.estimate))


def test_project_back_rescales_quiet_bins():
    # any nonzero energy is projected, however small: a filter scaled by
    # 1e-8 gives a per-bin estimate energy near 1e-15
    data, state = _projection_state(58, scale=1e-8)
    out = project_back(state)
    assert np.max(np.abs(out - data[:, :, 0])) <= 1e-12


@pytest.mark.parametrize("ref_channel", [0, 2])
def test_project_back_reads_no_data(monkeypatch, ref_channel):
    # the closed form w_0 / (W_00 ||w||^2) needs the filters and whiteners
    # only: no demixing product and no covariance build, and it is the
    # least-squares projection onto the reference read from the data
    data = _cnormal(np.random.default_rng(64), (8, 200, 4)) @ _cnormal(np.random.default_rng(65), (8, 4, 4))
    states = []
    config = FiveConfig(ContrastModel("gauss", num_bins=8), max_iterations=3, ref_channel=ref_channel)
    extract_spectral(data, config, callback=lambda it, state: states.append(state))
    counts = {"demix": 0, "cov": 0}
    demix, build = core._demix, core._covariance_block

    def counting_demix(*args, **kwargs):
        counts["demix"] += 1
        return demix(*args, **kwargs)

    def counting_build(*args, **kwargs):
        counts["cov"] += 1
        return build(*args, **kwargs)

    monkeypatch.setattr(core, "_demix", counting_demix)
    monkeypatch.setattr(core, "_covariance_block", counting_build)
    for state in states:
        got = project_back(state)
        want = oracles.project_back(state.estimate, data, ref_channel)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    assert counts == {"demix": 0, "cov": 0}


# ---------------------------------------------------------------- end to end


def test_extract_single_channel_identity():
    rng = np.random.default_rng(53)
    samples = rng.uniform(-0.9, 0.9, 6 * 512)
    wave = MultichannelWave(16000, samples[:, None])
    config = FiveConfig(contrast=ContrastModel("gauss", num_bins=257), max_iterations=3)
    out, report = extract(wave, StftConfig(frame_size=512), config)
    assert out.channels == 1
    assert out.num_samples == wave.num_samples
    interior = slice(512, wave.num_samples - 512)
    err = np.linalg.norm(out.samples[interior, 0] - samples[interior])
    assert err <= 1e-6 * np.linalg.norm(samples[interior])
    assert report.iterations_run == 3


def test_extract_spectral_report_monotone_and_early_stop():
    rng = np.random.default_rng(54)
    data = _two_source_mixture(rng, 16, 400)
    from five.stft import SpectralTensor

    spec = SpectralTensor(data, 16000, StftConfig(frame_size=30))
    config = FiveConfig(
        contrast=ContrastModel("laplace"),
        max_iterations=200,
        early_stop_tol=1e-8,
    )
    extracted, report = extract_spectral(spec, config)
    assert extracted.shape == (16, 400)
    assert report.converged
    assert report.iterations_run < 200
    nll = report.nll_values
    assert len(nll) == report.iterations_run + 1
    for a, b in zip(nll, nll[1:]):
        assert b <= a + 1e-9 * abs(a)
    assert report.records[-1].head_residual <= 1e-6


def _counting_converged_run(monkeypatch, monitoring, max_iterations=200):
    # a laplace run with early_stop_tol 1e-8 that counts updates, weighted
    # covariance builds and post-loop certificates and keeps every state its
    # callback receives
    counts = {"updates": 0, "builds": 0, "certificates": 0}
    update, build, certify = core.five_iteration, core._covariance_block, core.head_residual

    def counting_update(*args, **kwargs):
        counts["updates"] += 1
        return update(*args, **kwargs)

    def counting_build(data, weights=None, whiteners=None, out=None):
        counts["builds"] += weights is not None
        return build(data, weights, whiteners, out)

    def counting_certify(*args, **kwargs):
        counts["certificates"] += 1
        return certify(*args, **kwargs)

    monkeypatch.setattr(core, "five_iteration", counting_update)
    monkeypatch.setattr(core, "_covariance_block", counting_build)
    monkeypatch.setattr(core, "head_residual", counting_certify)
    data = _two_source_mixture(np.random.default_rng(54), 16, 400)
    config = FiveConfig(
        ContrastModel("laplace"), max_iterations=max_iterations, nll_monitoring=monitoring, early_stop_tol=1e-8
    )
    states = []
    extracted, report = extract_spectral(data, config, callback=lambda it, state: states.append(state))
    return data, extracted, report, states, counts


@pytest.mark.parametrize("monitoring", [True, False])
def test_converged_run_returns_the_state_its_certificate_is_for(monkeypatch, monitoring):
    # the update that certifies state K within tol is dropped: K + 1 updates,
    # one covariance build each and none after, and the output, the last
    # record and iterations_run are those of state K, the callback's last
    data, extracted, report, states, counts = _counting_converged_run(monkeypatch, monitoring)
    contrast = ContrastModel("laplace")
    last = states[-1]
    assert report.converged
    assert counts["builds"] == counts["updates"] == report.iterations_run + 1
    assert counts["certificates"] == 0
    assert report.iterations_run == last.iteration == len(states) - 1
    assert [r.iteration for r in report.records] == [s.iteration for s in states]
    assert np.array_equal(extracted, project_back(last))
    residual = stationarity_residual(last, data, contrast)
    assert residual <= 1e-6
    if monitoring:
        certificates = [r.head_residual for r in report.records]
        assert certificates[-1] <= 1e-8 < min(certificates[:-1])
        assert certificates[-1] == pytest.approx(residual, rel=1e-6, abs=1e-12)


@pytest.mark.parametrize("monitoring", [True, False])
def test_run_that_uses_every_update_certifies_its_last_state(monkeypatch, monitoring):
    # stopped one update short of its certifying update, a monitored run
    # certifies its last record by head_residual and, that certificate being
    # within tol, is converged; an unmonitored run never certifies it.
    # head_residual forms V w in one pass, the dropped update from the V it
    # builds: the two certificates of the same state agree up to rounding
    _, _, converged, _, _ = _counting_converged_run(monkeypatch, monitoring)
    k = converged.iterations_run
    _, _, report, _, counts = _counting_converged_run(monkeypatch, monitoring, max_iterations=k)
    assert report.iterations_run == k
    assert counts == {"updates": k, "builds": k, "certificates": int(monitoring)}
    assert report.converged == monitoring
    if monitoring:
        assert report.records[-1].head_residual == pytest.approx(
            converged.records[-1].head_residual, rel=1e-12, abs=1e-13
        )


def test_converged_run_times_its_certifying_update(monkeypatch):
    # every update, the dropped certifying one too, is in some record's wall
    # time: K kept updates and the certifying one, each at least the sleep,
    # which is far above the 7 updates' own time, so a missing one shows
    sleep_s = 0.05
    update = core.five_iteration

    def slow_update(*args, **kwargs):
        time.sleep(sleep_s)
        return update(*args, **kwargs)

    monkeypatch.setattr(core, "five_iteration", slow_update)
    data = _two_source_mixture(np.random.default_rng(54), 8, 200)
    config = FiveConfig(ContrastModel("gauss", num_bins=8), max_iterations=100, early_stop_tol=1e-3)
    _, report = extract_spectral(data, config)
    assert report.converged and report.iterations_run == 7
    timed_ms = sum(record.wall_time_ms for record in report.records[1:])
    assert timed_ms >= 1e3 * sleep_s * (report.iterations_run + 1)


# ------------------------------------------------------- one estimate per run

# The driver holds no estimate between updates: every run ends with one
# demix of the state it returns, into the output that the projection scales
# in place, and a callback gets states with estimates of their own. Each run
# below is one of: converged at state 0 (the first update certifies the
# initial state), converged at some state k > 0, and run out of updates.
BUFFER_RUNS = {
    "converged_at_0": dict(contrast=ContrastModel("laplace"), max_iterations=50, early_stop_tol=1e3),
    "converged_at_k": dict(contrast=ContrastModel("laplace"), max_iterations=200, early_stop_tol=1e-8),
    "ran_out": dict(contrast=ContrastModel("gauss", num_bins=16), max_iterations=4),
}


@pytest.fixture(params=[1, 2], ids=["one_share", "two_shares"])
def shares(request, monkeypatch):
    # (16, 400, 2) data holds 204,800 bytes: a 64 KiB gate splits it in two
    monkeypatch.setattr(stft, "_WORKERS", request.param)
    monkeypatch.setattr(stft, "_SHARE_BYTES", 1 << 16)
    return request.param


def _buffer_run(name, callback=None):
    data = _two_source_mixture(np.random.default_rng(54), 16, 400)
    extracted, report = extract_spectral(data, FiveConfig(**BUFFER_RUNS[name]), callback=callback)
    return data, extracted, report


def _check_buffer_run(name, report):
    assert report.converged == name.startswith("converged")
    assert (report.iterations_run == 0) == (name == "converged_at_0")


@pytest.mark.parametrize("name", BUFFER_RUNS)
def test_run_without_a_callback_matches_a_recorded_run_to_the_bit(shares, name):
    _, alone, report = _buffer_run(name)
    states = []
    _, recorded, recorded_report = _buffer_run(name, lambda it, state: states.append(state))
    _check_buffer_run(name, report)
    assert np.array_equal(alone, recorded)
    assert report.iterations_run == recorded_report.iterations_run == states[-1].iteration
    assert report.converged == recorded_report.converged
    assert [(r.iteration, r.nll, r.head_residual) for r in report.records] == [
        (r.iteration, r.nll, r.head_residual) for r in recorded_report.records
    ]


@pytest.mark.parametrize("name", BUFFER_RUNS)
def test_states_a_callback_holds_keep_their_own_estimates(shares, name):
    # after the run, every state the callback received still carries the
    # demix of its own filters, and no two share a buffer
    states = []
    data, extracted, report = _buffer_run(name, lambda it, state: states.append(state))
    _check_buffer_run(name, report)
    for state in states:
        assert np.array_equal(state.estimate, apply_demixing(core._demixing_filters(state.whiteners, state.w), data))
        assert not np.shares_memory(state.estimate, extracted)
    assert len({id(state.estimate) for state in states}) == len(states)


@pytest.mark.parametrize("name", BUFFER_RUNS)
def test_every_run_demixes_its_returned_state_once(monkeypatch, name):
    # every bin once per update, the dropped certifying update too, and once
    # for the initial state; a monitored run that runs out once more, a block
    # at a time, for its last certificate; with or without a callback the
    # returned state once more, by one apply_demixing, and each state the
    # callback gets once
    counts = _counting_demixes(monkeypatch)
    for callback in (None, lambda it, state: None):
        counts.update(bins=0, calls=0)
        _, _, report = _buffer_run(name, callback)
        _check_buffer_run(name, report)
        updates = report.iterations_run + report.converged
        recorded = 0 if callback is None else report.iterations_run + 1
        certified = int(name == "ran_out")
        assert counts == {"bins": 16 * (updates + 2 + certified + recorded), "calls": 1 + recorded}


def test_run_converged_by_its_last_certificate_demixes_no_more(monkeypatch):
    # a monitored run that uses all its updates and then certifies its last
    # state within the tolerance dropped no update: its certificate demixes
    # the bins in place of the converged run's dropped update, so it demixes
    # what that run does, and its output is the converged run's
    _, converged, converged_report = _buffer_run("converged_at_k")
    k = converged_report.iterations_run
    counts = _counting_demixes(monkeypatch)
    data = _two_source_mixture(np.random.default_rng(54), 16, 400)
    config = FiveConfig(**{**BUFFER_RUNS["converged_at_k"], "max_iterations": k})
    extracted, report = extract_spectral(data, config)
    assert report.converged and report.iterations_run == k
    assert counts == {"bins": 16 * (k + 3), "calls": 1}
    assert np.array_equal(extracted, converged)


def test_updates_hold_no_estimate_and_projection_into_a_buffer_matches(shares):
    data = _two_source_mixture(np.random.default_rng(54), 16, 400, noise_floor=0.01)
    contrast = ContrastModel("gauss", num_bins=16)
    state = core._initial_state(_whiteners(data), data)
    for _ in range(3):
        state = five_iteration(state, data, contrast)
        assert state.estimate is None
    state = replace(state, estimate=oracles.estimate(state, data))
    projected = project_back(state)
    buffer = state.estimate.copy()
    in_place = project_back(replace(state, estimate=buffer), out=buffer)
    assert in_place is buffer
    assert np.array_equal(in_place, projected)


def test_extract_spectral_ref_channel_validated():
    rng = np.random.default_rng(55)
    data = _two_source_mixture(rng, 4, 64)
    from five.stft import SpectralTensor

    spec = SpectralTensor(data, 16000, StftConfig(frame_size=6))
    config = FiveConfig(contrast=ContrastModel("laplace"), ref_channel=5)
    with pytest.raises(ValueError, match="ref_channel"):
        extract_spectral(spec, config)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_extract_spectral_rejects_raw_data_that_is_not_finite(value):
    # the check a SpectralTensor makes, not the silent-reference error that
    # whitening a NaN would raise
    data = _two_source_mixture(np.random.default_rng(56), 4, 64)
    data[2, 10, 1] = value
    with pytest.raises(ValueError, match="data must be finite") as info:
        extract_spectral(data, FiveConfig(contrast=ContrastModel("laplace")))
    assert type(info.value) is ValueError
    with pytest.raises(ValueError, match="data must be finite"):
        SpectralTensor(data, 16000, StftConfig(frame_size=6))


def test_extract_silent_reference_channel_names_it():
    # whitening would drop the all-zero reference channel; the error names it
    from five import SceneSpec, SilentReferenceChannelError, generate_scene

    scene = generate_scene(
        SceneSpec(num_channels=4, mixing="convolutive_fir", num_samples=48000, seed=7)
    )
    samples = scene.mixture.samples.copy()
    samples[:, 0] = 0.0
    wave = MultichannelWave(scene.mixture.sample_rate, samples)
    config = FiveConfig(contrast=ContrastModel("gauss", num_bins=2049))
    with pytest.raises(SilentReferenceChannelError, match="reference channel 0 is silent"):
        extract(wave, StftConfig(frame_size=4096), config)
    assert issubclass(SilentReferenceChannelError, ValueError)


@pytest.mark.parametrize(
    "zeroed, message",
    [
        ((5, slice(None)), r"reference channel 0 is silent in bin 5, as is every channel$"),
        ((9, 0), r"reference channel 0 is silent in bin 9$"),
    ],
    ids=["every_channel", "reference_only"],
)
def test_silent_reference_error_names_the_first_silent_bin(zeroed, message):
    from five import SilentReferenceChannelError

    data = _cnormal(np.random.default_rng(58), (16, 40, 3))
    data[(zeroed[0], slice(None), zeroed[1])] = 0.0
    data[12, :, 0] = 0.0  # a later silent bin is not the one named
    with pytest.raises(SilentReferenceChannelError, match=message):
        extract_spectral(data, FiveConfig(contrast=ContrastModel("laplace")))


def test_silent_reference_in_a_later_block_is_named_past_a_dropped_channel():
    # 768 bins at M = 8 are six whitening blocks of 128. Channel 5 adds no
    # rank in bin 10, in the first; the reference is silent from bin 400 on,
    # in the fourth and later. The reference's pivot is the lowest, so the run names
    # its first silent bin, as it would with one block
    from five import SilentReferenceChannelError

    data = _cnormal(np.random.default_rng(38), (768, 16, 8))
    data[10, :, 5] = data[10, :, 0]
    data[400:, :, 0] = 0.0
    with pytest.raises(SilentReferenceChannelError, match=r"reference channel 0 is silent in bin 400$"):
        extract_spectral(data, FiveConfig(contrast=ContrastModel("laplace")))


@pytest.mark.parametrize("shape", [(16, 40), (0, 40, 3)], ids=["two_dimensional", "no_bins"])
def test_extract_spectral_names_the_layout_of_a_misshapen_array(shape):
    with pytest.raises(ValueError, match=r"data must have shape \(bins, frames, channels\)"):
        extract_spectral(np.ones(shape, dtype=complex), FiveConfig(contrast=ContrastModel("laplace")))


def test_extract_scans_the_spectrogram_for_finiteness_once(monkeypatch):
    # analyze's tensor is checked once; the projected estimate that extract
    # hands to synthesize is not scanned again
    calls = []
    check = stft._check_finite
    monkeypatch.setattr(stft, "_check_finite", lambda data: calls.append(data.shape) or check(data))
    wave = MultichannelWave(16000, np.random.default_rng(59).standard_normal((4000, 2)))
    out, _ = extract(wave, StftConfig(frame_size=256), FiveConfig(contrast=ContrastModel("laplace")))
    assert [shape[2] for shape in calls] == [2]  # the spectrogram's channels, not the estimate's one
    assert out.samples.shape == (4000, 1)


@pytest.mark.parametrize("ref_channel", [0, 2])
def test_extract_synthesizes_what_extract_spectral_returns(monkeypatch, ref_channel):
    # extract never forms the projected estimate: synthesize demixes and
    # projects it a block of frames at a time. 10-frame blocks over 41
    # frames leave a one-frame remainder, which joins the block before it;
    # either way the output is the projected estimate's synthesis to the bit
    monkeypatch.setattr(stft, "_BLOCK_BYTES", 16 * 129 * 10)
    wave = MultichannelWave(16000, np.random.default_rng(64).standard_normal((40 * 128 + 256, 3)))
    stft_config = StftConfig(frame_size=256)
    config = FiveConfig(ContrastModel("gauss", num_bins=129), max_iterations=2, ref_channel=ref_channel)
    out, report = extract(wave, stft_config, config)
    spec = analyze(wave, stft_config)
    assert spec.num_frames == 41
    extracted, want_report = extract_spectral(spec, config)
    want = synthesize(SpectralTensor(extracted[:, :, None], spec.sample_rate, stft_config, spec.num_samples))
    assert np.array_equal(out.samples, want.samples)
    assert [(r.nll, r.head_residual) for r in report.records] == [
        (r.nll, r.head_residual) for r in want_report.records
    ]


# ------------------------------------------------------- degenerate arrays


@pytest.fixture(scope="module")
def short_recording():
    # 3 s, 4-ch convolutive scene; frame 1024 keeps each extraction short
    from five import SceneSpec, generate_scene

    scene = generate_scene(
        SceneSpec(num_channels=4, mixing="convolutive_fir", num_samples=48000, seed=7)
    )
    return scene.mixture.sample_rate, scene.mixture.samples


def _extract_short(sample_rate, samples, ref_channel=0, callback=None):
    spec = analyze(MultichannelWave(sample_rate, samples), StftConfig(frame_size=1024))
    config = FiveConfig(contrast=ContrastModel("gauss", num_bins=513), ref_channel=ref_channel)
    return extract_spectral(spec, config, callback=callback)


def test_an_overflowing_recording_is_not_called_silent(short_recording):
    # at 2^510 the squares of the samples overflow: the covariance is not
    # finite, which used to fail whitening as a silent reference in bin 0
    from five import SilentReferenceChannelError

    sample_rate, samples = short_recording
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError) as info:
        _extract_short(sample_rate, np.ldexp(samples, 510))
    assert not isinstance(info.value, SilentReferenceChannelError)
    assert str(info.value) == (
        "sample covariance is not finite in bin 0: the squares of the samples overflow float64"
    )


@pytest.mark.parametrize("exponent", [-560, -600])
def test_an_underflowing_reference_is_not_called_silent(short_recording, exponent):
    # the reference is nonzero in every bin, but the squares of its samples
    # round to 0, so its power is 0 where whitening needs it positive
    from five import SilentReferenceChannelError

    sample_rate, samples = short_recording
    scaled = np.ldexp(samples, exponent)
    assert np.abs(scaled[:, 0]).max() > 0
    with pytest.raises(ValueError) as info:
        _extract_short(sample_rate, scaled)
    assert not isinstance(info.value, SilentReferenceChannelError)
    assert str(info.value) == (
        "reference channel 0 is not silent in bin 0, but the squares of its samples underflow float64 to 0"
    )


@pytest.mark.parametrize(
    "position, make_channel, ref_channel",
    [
        (2, lambda x: np.zeros(len(x)), 0),  # dead
        (1, lambda x: x[:, 0], 0),  # duplicated
        (3, lambda x: x[:, 0] + x[:, 1], 0),  # sum of two others
        (1, lambda x: np.zeros(len(x)), 2),  # dropped before the reference
    ],
    ids=["dead", "duplicated", "sum_of_two", "before_reference"],
)
def test_extract_drops_channel_that_adds_no_rank(short_recording, position, make_channel, ref_channel):
    sample_rate, samples = short_recording
    degenerate = np.insert(samples, position, make_channel(samples), axis=1)
    widths = []
    extracted, report = _extract_short(
        sample_rate, degenerate, ref_channel, lambda it, state: widths.append(state.w.shape[1])
    )
    # the same recording without that channel, the reference renumbered
    removed_ref = ref_channel - (position < ref_channel)
    want, want_report = _extract_short(sample_rate, samples, removed_ref)
    assert set(widths) == {4}
    assert np.array_equal(extracted, want)
    assert [(r.nll, r.head_residual) for r in report.records] == [
        (r.nll, r.head_residual) for r in want_report.records
    ]
    nll = report.nll_values
    assert len(nll) == len(want_report.nll_values) == 4
    for a, b in zip(nll, nll[1:]):
        assert b <= a + 1e-9 * abs(a)


def test_dead_channel_costs_one_plain_covariance_build_per_whitening(monkeypatch, short_recording):
    # each whitening attempt builds the plain sample covariance of the
    # channels kept so far: all 5, then the 4 left once the dead one is
    # dropped, read through a view of the spectrogram, not a copy
    plain = []
    build = core._covariance_stack

    def counting_build(data):
        plain.append(data.shape)
        return build(data)

    monkeypatch.setattr(core, "_covariance_stack", counting_build)
    sample_rate, samples = short_recording
    widths = []
    _extract_short(
        sample_rate,
        np.insert(samples, 2, 0.0, axis=1),
        callback=lambda it, state: widths.append(state.w.shape[1]),
    )
    assert set(widths) == {4}
    assert [shape[2] for shape in plain] == [5, 4]


def test_extract_reference_duplicating_an_earlier_channel_drops_that_channel(short_recording):
    # the reference leads the whitening, so of a reference 2 that copies
    # channel 0 it is channel 0 that adds no rank and is dropped: the result
    # is that of the recording without channel 0, the reference renumbered
    sample_rate, samples = short_recording
    copied = samples.copy()
    copied[:, 2] = copied[:, 0]
    widths = []
    extracted, report = _extract_short(
        sample_rate, copied, ref_channel=2, callback=lambda it, state: widths.append(state.w.shape[1])
    )
    want, want_report = _extract_short(sample_rate, np.delete(copied, 0, axis=1), ref_channel=1)
    assert set(widths) == {3}
    assert np.array_equal(extracted, want)
    assert [(r.nll, r.head_residual) for r in report.records] == [
        (r.nll, r.head_residual) for r in want_report.records
    ]


def test_extraction_does_not_depend_on_which_channel_is_the_reference(eight_channel_scene):
    # Quality statement: the last channel as the reference scores within
    # 0.1 dB of channel 0 once both estimates are projected onto channel 0,
    # as the scene's target image is (8 ch, 3 s, frame 2048, gauss, 3
    # updates); started from its residual after channels 0-6, it scored
    # 3.6 dB below
    from five.metrics import evaluate_extraction

    spec = analyze(eight_channel_scene.mixture, StftConfig(frame_size=2048))
    scores = []
    for ref_channel in (0, 7):
        last = []
        config = FiveConfig(ContrastModel("gauss", num_bins=spec.num_bins), ref_channel=ref_channel)
        extract_spectral(spec, config, callback=lambda it, state: last.append(state.estimate))
        projected = oracles.project_back(last[-1], spec.data, 0)
        wave = synthesize(SpectralTensor(projected[:, :, None], spec.sample_rate, spec.config))
        scores.append(evaluate_extraction(eight_channel_scene, wave.samples[:, 0], edge_trim=2048).si_sdr_db)
    assert abs(scores[1] - scores[0]) <= 0.1, scores


@pytest.mark.parametrize("ref_channel", [1, 2, 3])
def test_initial_estimate_is_the_reference_channel_over_its_rms(short_recording, ref_channel):
    # whitening starts at the reference, so record 0's estimate is x_ref
    # itself over its rms, not its residual after the channels before it
    sample_rate, samples = short_recording
    spec = analyze(MultichannelWave(sample_rate, samples), StftConfig(frame_size=1024))
    first = []
    _extract_short(sample_rate, samples, ref_channel, lambda it, state: first.append(state.estimate))
    rms = np.sqrt(np.real(sample_covariance(spec.data)[:, ref_channel, ref_channel]))
    want = spec.data[:, :, ref_channel] / rms[:, None]
    assert np.max(np.abs(first[0] - want)) <= 1e-13 * np.max(np.abs(want))


def test_extract_keeps_band_limited_channel(short_recording):
    # channel 2 with its spectrum zeroed above 4 kHz still carries rank in
    # every STFT bin: window leakage, not silence
    sample_rate, samples = short_recording
    samples = samples.copy()
    spectrum = np.fft.rfft(samples[:, 2])
    spectrum[np.fft.rfftfreq(len(samples), 1.0 / sample_rate) > 4000.0] = 0.0
    samples[:, 2] = np.fft.irfft(spectrum, len(samples))
    widths = []
    _, report = _extract_short(
        sample_rate, samples, callback=lambda it, state: widths.append(state.w.shape[1])
    )
    assert set(widths) == {4}
    nll = report.nll_values
    for a, b in zip(nll, nll[1:]):
        assert b <= a + 1e-9 * abs(a)


# ------------------------------------------------------- bounded contrast


def _w1_shape_scene(seed):
    # 8 ch, 10 s, frame 4096: 2049 bins and only 78 frames
    from five import SceneSpec, generate_scene

    return generate_scene(
        SceneSpec(num_channels=8, mixing="convolutive_fir", num_samples=160000, seed=seed)
    )


def test_gauss_runs_thirty_updates_on_w1_shape_scene():
    # the plain gauss gain 2F log r is unbounded below: one frame's activity
    # collapsed towards zero over updates 1-8 and update 9 aborted; offset
    # activities keep every frame's gain bounded below
    scene = _w1_shape_scene(1000)
    spec = analyze(scene.mixture, StftConfig(frame_size=4096))
    config = FiveConfig(contrast=ContrastModel("gauss", num_bins=spec.num_bins), max_iterations=30)
    extracted, report = extract_spectral(spec, config)
    assert report.iterations_run == 30
    assert np.all(np.isfinite(extracted))
    nll = report.nll_values
    assert len(nll) == 31
    for a, b in zip(nll, nll[1:]):
        assert b <= a + 1e-9 * abs(a)


def test_extract_reference_mic_dropout():
    # channel 1 (the reference) drops to digital zeros for 2 s. The initial
    # filter e_0 gives those frames zero activity, which once made the
    # weighted covariance degenerate at bin 0. Quality statement: the run
    # gains nothing, but loses nothing either; outside the gap the output
    # scores what the raw reference channel scores (both 4.25 dB here, where
    # the healthy recording's output scores 9.39 dB)
    from five.metrics import si_sdr
    from five.stft import SpectralTensor

    scene = _w1_shape_scene(7)
    samples = scene.mixture.samples.copy()
    samples[48000:80000, 0] = 0.0
    spec = analyze(MultichannelWave(scene.mixture.sample_rate, samples), StftConfig(frame_size=4096))
    outside = np.r_[4096:44000, 84000:155904]
    raw_db = si_sdr(samples[outside, 0], scene.target_image[outside])
    for iterations in (3, 10):
        config = FiveConfig(
            contrast=ContrastModel("gauss", num_bins=spec.num_bins), max_iterations=iterations
        )
        extracted, report = extract_spectral(spec, config)
        nll = report.nll_values
        for a, b in zip(nll, nll[1:]):
            assert b <= a + 1e-9 * abs(a)
        wave = synthesize(SpectralTensor(extracted[:, :, None], spec.sample_rate, spec.config))
        assert si_sdr(wave.samples[outside, 0], scene.target_image[outside]) >= raw_db - 0.01


# ------------------------------------------------- whitening by congruence


def _updates_on_explicitly_whitened_data(data, contrast, iterations):
    # the reference path: whiten the data itself by Q^{-H}, then run the same
    # update with W = I, for which the congruence is exact
    whitened, _ = whiten_by_cholesky(data)
    n_bins, _, n_chan = data.shape
    identity = np.broadcast_to(np.eye(n_chan, dtype=complex), (n_bins, n_chan, n_chan))
    state = core._initial_state(identity, whitened)
    for _ in range(iterations):
        state = five_iteration(state, whitened, contrast)
    return oracles.estimate(state, whitened)


def _congruence_against_explicit(samples, frame_size=1024, iterations=3):
    spec = analyze(MultichannelWave(16000, samples), StftConfig(frame_size=frame_size))
    contrast = ContrastModel("gauss", num_bins=spec.num_bins)
    raw = []
    extract_spectral(
        spec,
        FiveConfig(contrast=contrast, max_iterations=iterations),
        callback=lambda it, state: raw.append(state.estimate),
    )
    want = _updates_on_explicitly_whitened_data(spec.data, contrast, iterations)
    relative = np.max(np.abs(raw[-1] - want)) / np.max(np.abs(want))
    return relative, spec, raw[-1], want


def test_congruence_matches_explicit_whitening(short_recording):
    sample_rate, samples = short_recording
    relative, _, _, _ = _congruence_against_explicit(samples)
    assert relative <= 1e-12


@pytest.fixture(scope="module")
def eight_channel_scene():
    from five import SceneSpec, generate_scene

    return generate_scene(
        SceneSpec(num_channels=8, mixing="convolutive_fir", num_samples=48000, seed=7)
    )


@pytest.mark.parametrize("level, bound", [(1e-2, 1e-11), (1e-4, 1e-7), (1e-5, 1e-5)])
def test_congruence_accuracy_on_near_duplicate_channel(eight_channel_scene, level, bound):
    # Accuracy statement: the whitened covariances are congruences of C,
    # whose condition number is the square of the data's, so the estimate
    # differs from the explicitly whitened one by about u kappa(C). With
    # channel 7 = channel 0 + noise at `level` of its rms, kappa(C) grows as
    # 1/level^2, and the bound pinned is about 5 u / level^2 (u = 2.2e-16).
    # The difference stays far below what SI-SDR resolves.
    from five.metrics import evaluate_extraction
    from five.stft import SpectralTensor

    samples = eight_channel_scene.mixture.samples.copy()
    noise = np.random.default_rng(0).standard_normal(len(samples))
    samples[:, 7] = samples[:, 0] + level * np.sqrt(np.mean(samples[:, 0] ** 2)) * noise
    relative, spec, got, want = _congruence_against_explicit(samples)
    assert relative <= bound
    # the monitored NLL is the identity-background objective the update
    # majorizes, so it does not rise however ill-conditioned C is
    for kind in ("gauss", "laplace"):
        contrast = ContrastModel(kind, num_bins=spec.num_bins)
        _, report = extract_spectral(spec, FiveConfig(contrast=contrast, max_iterations=10))
        nll = report.nll_values
        assert len(nll) == 11
        for a, b in zip(nll, nll[1:]):
            assert b <= a + 1e-9 * abs(a)

    def si_sdr_db(estimate):
        projected = oracles.project_back(estimate, spec.data)[:, :, None]
        wave = synthesize(SpectralTensor(projected, spec.sample_rate, spec.config))
        return evaluate_extraction(eight_channel_scene, wave.samples[:, 0], edge_trim=1024).si_sdr_db

    assert abs(si_sdr_db(got) - si_sdr_db(want)) <= 5e-4

