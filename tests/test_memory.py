"""Working-set bounds of the extraction, under tracemalloc.

An extraction of a wave holds the (F, N, M) spectrogram and the (F, M, M)
whiteners at full size, and never an (F, N) estimate: an update reads the
filters and the activity, and demixes its new filters a block of bins at
a time, adding each block's |s|^2 into the activity's group sums. A
monitored run that uses every update certifies its last state a block of
bins at a time, before the output exists. synthesize then demixes,
projects and overlap-adds the returned state a block of frames at a time
into the output wave. The set-up covariance is released before the first
update. Every other temporary is a block of about stft._BLOCK_BYTES per
share (stft._blocks), a per-frame vector, or a row per group of bins; a
share builds its per-bin (M, M) stacks a block of bins at a time, a few
blocks at 8 channels, and the whitening factors and inverts the set-up
covariance in the same blocks (core._matrix_blocks), each inverse
written into the whiteners. Each bound below is that working set plus a
few blocks, under one (F, N) estimate more. The input is above the gate
of stft._split, and every pass runs with two workers, so the share
count, and with it each bound, does not depend on the machine.
"""

import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from five import core, stft
from five.core import ContrastModel, FiveConfig, extract, head_residual
from five.stft import StftConfig, analyze
from five.wavio import MultichannelWave
import oracles

CONFIG = StftConfig(frame_size=512)
BLOCK = stft._BLOCK_BYTES


@pytest.fixture(autouse=True)
def two_workers(monkeypatch):
    monkeypatch.setattr(stft, "_WORKERS", 2)


@pytest.fixture(scope="module")
def wave():
    # 4 channels, 1201 frames, the last of them past the end of the signal:
    # a sparse source and three dense ones, mixed
    rng = np.random.default_rng(80)
    length = 1201 * CONFIG.hop + 100
    sources = rng.standard_normal((length, 4))
    sources[:, 0] *= np.repeat(rng.laplace(size=length // CONFIG.hop + 1), CONFIG.hop)[:length] ** 2
    return MultichannelWave(16000, sources @ rng.standard_normal((4, 4)))


@pytest.fixture(scope="module")
def data(wave):
    return analyze(wave, CONFIG).data


@pytest.fixture(scope="module")
def start(data):
    return core._initial_state(core.prewhiten(core._covariance_stack(data)), data)


@pytest.fixture
def stage_peaks(monkeypatch):
    """stage_peaks(*names) wraps those functions of core; the dict it returns gets each one's largest traced peak.

    The peak counts everything traced while the function runs, so it
    includes what its caller holds.
    """
    peaks = {}

    def wrap(name):
        fn = getattr(core, name)

        def traced(*args, **kwargs):
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks[name] = max(peaks.get(name, 0), tracemalloc.get_traced_memory()[1])

        monkeypatch.setattr(core, name, traced)

    def stage(*names):
        for name in names:
            wrap(name)
        return peaks

    return stage


def _peak(fn):
    """fn()'s result and the most memory allocated while it ran, its result included."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_analyze_makes_no_copy_of_the_signal(wave):
    spec, peak = _peak(lambda: analyze(wave, CONFIG))
    assert (spec.num_frames - 1) * CONFIG.hop + CONFIG.frame_size > wave.num_samples  # a padded tail
    # each share holds a window buffer and its spectra, about BLOCK each
    bound = spec.data.nbytes + 2 * 3 * BLOCK
    assert peak <= bound < spec.data.nbytes + wave.samples.nbytes


def test_head_residual_holds_a_block_per_share(data, start):
    # a bare state, as five_iteration returns it, gets no whole estimate, and
    # one the state carries is not read: each of the two shares demixes a
    # block of bins at a time into one buffer and weights conj(s) there
    contrast = ContrastModel("gauss", num_bins=len(data))
    bare = core.five_iteration(start, data, contrast)
    for state in (bare, replace(bare, estimate=oracles.estimate(bare, data))):
        _, peak = _peak(lambda: head_residual(state, data, contrast))
        assert peak <= 3 * BLOCK < 16 * data.shape[0] * data.shape[1]


def test_activity_holds_one_block(data, start):
    # each of the two shares demixes into one block, and the 17 groups of 16
    # bins hold a row of Re(s)^2 and Im(s)^2 sums each: (17, 2N), 0.6 blocks here
    n_bins, n_frames = data.shape[:2]
    filters = start.whiteners[:, :, 0]
    activity, peak = _peak(lambda: core._activity(filters, data))
    want = oracles.activity(oracles.estimate(start, data))
    assert np.all(np.abs(activity - want) <= (n_bins + 2) * np.finfo(float).eps * want)
    sums = 8 * 2 * n_frames * -(-n_bins // 16)
    assert peak <= 2 * BLOCK + sums + 4 * 8 * n_frames < 16 * n_bins * n_frames


def test_update_of_a_caller_held_tensor_holds_no_estimate():
    # (257, 2000, 4): an 8.2 MB estimate, 16 blocks. Each update holds the
    # whiteners, the state it returns and a few blocks per share, not the
    # estimate of its filters
    data = np.random.default_rng(82).standard_normal((257, 2000, 8)).view(np.complex128)
    state = core._initial_state(core.prewhiten(core._covariance_stack(data)), data)
    contrast = ContrastModel("gauss", num_bins=len(data))
    estimate = 16 * 257 * 2000
    for _ in range(2):
        state, peak = _peak(lambda: core.five_iteration(state, data, contrast))
        assert state.estimate is None
        assert peak <= state.whiteners.nbytes + 6 * BLOCK < estimate


def _output_bound(wave):
    """The spectrogram, the whiteners and the output wave plus a few blocks, below the spectrogram plus one estimate."""
    n_frames = 1 + -(-(wave.num_samples - CONFIG.frame_size) // CONFIG.hop)
    estimate = 16 * CONFIG.num_bins * n_frames
    spectrogram, whiteners = wave.channels * estimate, 16 * CONFIG.num_bins * wave.channels**2
    output = 8 * (n_frames - 1 + CONFIG.frame_size // CONFIG.hop) * CONFIG.hop
    bound = spectrogram + whiteners + output + 4 * BLOCK
    assert bound < spectrogram + estimate
    return bound


def test_monitored_extraction_holds_the_spectrogram_and_the_output(wave):
    config = FiveConfig(ContrastModel("gauss", num_bins=CONFIG.num_bins), max_iterations=3)
    (_, report), peak = _peak(lambda: extract(wave, CONFIG, config))
    assert report.iterations_run == 3 and not report.converged
    assert peak <= _output_bound(wave)


def test_converged_extraction_holds_the_spectrogram_and_the_output(wave):
    # the returned state is demixed a block of frames at a time, after the
    # certifying update
    config = FiveConfig(ContrastModel("gauss", num_bins=CONFIG.num_bins), max_iterations=30, early_stop_tol=1e-3)
    (_, report), peak = _peak(lambda: extract(wave, CONFIG, config))
    assert report.converged and report.iterations_run > 0
    assert peak <= _output_bound(wave)


def test_last_certificate_comes_before_the_output(monkeypatch):
    # a monitored run of the (257, 1874, 4) shape certifies its last state
    # while it holds the spectrogram and the whiteners, and no (F, N) array
    rng = np.random.default_rng(83)
    wave = MultichannelWave(16000, rng.standard_normal((30 * 16000, 4)))
    held = []
    certify = core.head_residual

    def tracked_certify(*args, **kwargs):
        held.append(tracemalloc.get_traced_memory()[0])
        return certify(*args, **kwargs)

    monkeypatch.setattr(core, "head_residual", tracked_certify)
    config = FiveConfig(ContrastModel("gauss", num_bins=CONFIG.num_bins), max_iterations=2)
    _, peak = _peak(lambda: extract(wave, CONFIG, config))
    n_frames = 1 + -(-(wave.num_samples - CONFIG.frame_size) // CONFIG.hop)
    assert (CONFIG.num_bins, n_frames) == (257, 1874)
    estimate = 16 * CONFIG.num_bins * n_frames
    spectrogram, whiteners = wave.channels * estimate, 16 * CONFIG.num_bins * wave.channels**2
    assert len(held) == 1
    assert held[0] <= spectrogram + whiteners + BLOCK < spectrogram + estimate
    assert peak <= _output_bound(wave)


def test_prewhiten_writes_each_inverse_into_the_whiteners(stage_peaks):
    # (129, 400, 6) is one block of bins: beside the set-up covariance the
    # whitening holds the whiteners and at most two more stacks of their
    # size, the Hermitian check's a^H and numpy's copy while it makes it;
    # the inverse goes into the whiteners and the factor is conjugated in
    # place
    data = np.random.default_rng(84).standard_normal((129, 400, 12)).view(np.complex128)
    peaks = stage_peaks("prewhiten")
    _peak(lambda: core.extract_spectral(data, FiveConfig(ContrastModel("laplace"), max_iterations=1)))
    assert len(core._matrix_blocks(0, 129, 6)) == 1
    stack, vectors = 16 * 129 * 6**2, 16 * 129 * 6
    assert peaks["prewhiten"] <= 4 * stack + vectors < 5 * stack


def test_set_up_covariance_is_released_before_the_first_update(monkeypatch, data):
    # the (F, M, M) sample covariance serves only the whitening
    covariances, held = [], []
    stack, update = core._covariance_stack, core.five_iteration

    def tracked_stack(data):
        cov = stack(data)
        covariances.append(weakref.ref(cov))
        return cov

    def checking_update(*args, **kwargs):
        held.append(covariances[0]() is not None)
        return update(*args, **kwargs)

    monkeypatch.setattr(core, "_covariance_stack", tracked_stack)
    monkeypatch.setattr(core, "five_iteration", checking_update)
    core.extract_spectral(data, FiveConfig(ContrastModel("gauss", num_bins=len(data)), max_iterations=2))
    assert held == [False, False]


EIGHT = StftConfig(frame_size=4096)


@pytest.fixture(scope="module")
def eight_channel_wave():
    # 8 channels, 2049 bins, 40 frames: a bin-heavy 10.5 MB spectrogram,
    # split in two shares of about 1024 bins, each walked in blocks of 256
    rng = np.random.default_rng(81)
    length = 39 * EIGHT.hop + EIGHT.frame_size
    sources = rng.standard_normal((length, 8))
    sources[:, 0] *= np.repeat(rng.laplace(size=length // EIGHT.hop + 1), EIGHT.hop)[:length] ** 2
    return MultichannelWave(16000, sources @ rng.standard_normal((8, 8)))


def test_eight_channel_update_and_set_up_hold_a_few_blocks_per_share(stage_peaks, eight_channel_wave):
    # each share builds its (M, M) stacks a block of 256 bins at a time, sized
    # by the real product g, a (2M, 2M) float64 per bin: one g and one
    # weighted copy per share, and a few complex (M, M) blocks, not a whole
    # share of them. prewhiten factors and inverts a block at a time, so it
    # holds the covariance, the whiteners and a few blocks
    peaks = stage_peaks("_covariance_stack", "prewhiten", "five_iteration")
    config = FiveConfig(ContrastModel("gauss", num_bins=EIGHT.num_bins), max_iterations=3)
    _peak(lambda: extract(eight_channel_wave, EIGHT, config))
    n_bins, n_chan = EIGHT.num_bins, eight_channel_wave.channels
    n_frames = 1 + (eight_channel_wave.num_samples - EIGHT.frame_size) // EIGHT.hop
    assert n_bins * n_frames * n_chan * 16 >= 2 * stft._SHARE_BYTES
    assert len(core._matrix_blocks(0, n_bins, n_chan)) == 9
    spectrogram = n_bins * n_frames * n_chan * 16
    whiteners = n_bins * n_chan**2 * 16  # and the set-up covariance, its size
    # none holds an estimate, and the set-up's output is the size of the whiteners
    assert peaks["_covariance_stack"] <= spectrogram + whiteners + 4 * BLOCK
    assert peaks["prewhiten"] <= spectrogram + 2 * whiteners + 3 * BLOCK
    assert peaks["five_iteration"] <= spectrogram + whiteners + 7 * BLOCK
