"""Working-set bounds of the extraction, under tracemalloc.

An extraction holds the (F, N, M) spectrogram at full size, and one
(F, N) estimate only after its last update: an update reads the filters
and the activity, and demixes its new filters a block of bins at a time,
adding each block's |s|^2 into the activity's group sums. A monitored
run that uses every update certifies its last state a block of bins at a
time, before the output exists. The run then demixes the returned state
once, into the output that the projection scales in place. The set-up
covariance is released before the first update. Every other temporary is
a block of about stft._BLOCK_BYTES per share (stft._blocks), a per-frame
vector, or a row per group of bins; a share builds its per-bin (M, M)
stacks a block of bins at a time, a few blocks at 8 channels. Each bound
below is that working set plus a few blocks, well under one more (F, N)
estimate. The input is above the gate of stft._split, and every pass
runs with two workers, so the share count, and with it each bound, does
not depend on the machine.
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
    # 4 channels, 1202 frames, the last of them past the end of the signal:
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


def _one_estimate_bound(wave):
    """The spectrogram plus one estimate plus a few blocks, below one more estimate."""
    n_frames = 1 + -(-(wave.num_samples - CONFIG.frame_size) // CONFIG.hop)
    estimate_bytes = 16 * CONFIG.num_bins * n_frames
    working_set = wave.channels * estimate_bytes + estimate_bytes
    bound = working_set + 4 * BLOCK
    assert bound < working_set + estimate_bytes
    return bound


def test_monitored_extraction_holds_the_spectrogram_and_one_estimate(wave):
    config = FiveConfig(ContrastModel("gauss", num_bins=CONFIG.num_bins), max_iterations=3)
    (_, report), peak = _peak(lambda: extract(wave, CONFIG, config))
    assert report.iterations_run == 3 and not report.converged
    assert peak <= _one_estimate_bound(wave)


def test_converged_extraction_holds_the_spectrogram_and_one_estimate(wave):
    # the returned state is demixed once, after the certifying update
    config = FiveConfig(ContrastModel("gauss", num_bins=CONFIG.num_bins), max_iterations=30, early_stop_tol=1e-3)
    (_, report), peak = _peak(lambda: extract(wave, CONFIG, config))
    assert report.converged and report.iterations_run > 0
    assert peak <= _one_estimate_bound(wave)


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
    assert peak <= _one_estimate_bound(wave)


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
    # split in two shares of 1024 bins, each updated in two chunks of 512
    rng = np.random.default_rng(81)
    length = 39 * EIGHT.hop + EIGHT.frame_size
    sources = rng.standard_normal((length, 8))
    sources[:, 0] *= np.repeat(rng.laplace(size=length // EIGHT.hop + 1), EIGHT.hop)[:length] ** 2
    return MultichannelWave(16000, sources @ rng.standard_normal((8, 8)))


def test_eight_channel_update_and_set_up_hold_a_few_blocks_per_share(monkeypatch, eight_channel_wave):
    # each share builds its (M, M) stacks a chunk at a time: its real product
    # of two blocks and a few complex (M, M) blocks, not a whole share of them
    peaks = {}

    def stage(name):
        fn = getattr(core, name)

        def traced(*args, **kwargs):
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks[name] = max(peaks.get(name, 0), tracemalloc.get_traced_memory()[1])

        monkeypatch.setattr(core, name, traced)

    stage("_covariance_stack")
    stage("five_iteration")
    config = FiveConfig(ContrastModel("gauss", num_bins=EIGHT.num_bins), max_iterations=3)
    _peak(lambda: extract(eight_channel_wave, EIGHT, config))
    n_bins, n_chan = EIGHT.num_bins, eight_channel_wave.channels
    n_frames = 1 + (eight_channel_wave.num_samples - EIGHT.frame_size) // EIGHT.hop
    assert n_bins * n_frames * n_chan * 16 >= 2 * stft._SHARE_BYTES
    spectrogram = n_bins * n_frames * n_chan * 16
    whiteners = n_bins * n_chan**2 * 16
    # neither holds an estimate, and the set-up's output is the size of the whiteners
    assert peaks["_covariance_stack"] <= spectrogram + whiteners + 8 * BLOCK
    assert peaks["five_iteration"] <= spectrogram + whiteners + 12 * BLOCK
