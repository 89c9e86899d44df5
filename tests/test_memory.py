"""Working-set bounds of the extraction, under tracemalloc.

An extraction of a wave holds the (F, N, M) spectrogram and one (F, M, M)
stack at full size, and never an (F, N) estimate. The stack is the set-up
covariance, each block of bins (core._matrix_blocks) built straight into
it, whose storage the whiteners take over: prewhiten checks every block,
then factors each again and writes its inverse into it. An update reads
the filters and the activity; a block of whole 16-bin groups at a time it
builds V from weighted copies of a sixth of the block, whitens it in place
and takes its eigenpair, then demixes the block with its new filters and
sums its |s|^2 into the activity's group sums. A monitored run that uses
every update certifies its last state in the same blocks, before the
output exists. synthesize then demixes, projects and overlap-adds the
returned state a block of frames at a time into the output wave; the
state and its whiteners are gone by then, and only the filters remain.
Every other temporary is a block of about stft._BLOCK_BYTES per share
(stft._blocks; a block of bins holds a group at least, more above 2048
frames), a per-frame vector, or a row per group of bins; at 8 channels a
share holds a block of V and at most two stacks of its size. Each bound
below is that working set plus a few blocks, under one (F, N) estimate
more. The input is above the gate of stft._split, and every pass runs
with two workers, so the share count, and with it each bound, does not
depend on the machine.
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
    # (129, 400, 6) is one block of bins: the set-up covariance is the
    # whiteners' storage, and beside it the whitening holds at most two more
    # stacks of its size, the Hermitian check's a^H and numpy's copy while
    # it makes it; the factor is conjugated in place
    data = np.random.default_rng(84).standard_normal((129, 400, 12)).view(np.complex128)
    peaks = stage_peaks("prewhiten")
    _peak(lambda: core.extract_spectral(data, FiveConfig(ContrastModel("laplace"), max_iterations=1)))
    assert len(core._matrix_blocks(0, 129, 6)) == 1
    stack, vectors = 16 * 129 * 6**2, 16 * 129 * 6
    assert peaks["prewhiten"] <= 3 * stack + vectors < 4 * stack


def test_set_up_holds_one_stack_after_the_build(monkeypatch, data):
    # the (F, M, M) sample covariance's storage becomes the whiteners: every
    # update finds that one stack, and less than a second one beside it
    covariances, held = [], []
    stack, update = core._covariance_stack, core.five_iteration

    def tracked_stack(data):
        cov = stack(data)
        covariances.append(weakref.ref(cov))
        return cov

    def checking_update(state, *args, **kwargs):
        cov = covariances[0]()
        held.append((cov is not None and np.shares_memory(cov, state.whiteners), tracemalloc.get_traced_memory()[0]))
        return update(state, *args, **kwargs)

    monkeypatch.setattr(core, "_covariance_stack", tracked_stack)
    monkeypatch.setattr(core, "five_iteration", checking_update)
    config = FiveConfig(ContrastModel("gauss", num_bins=len(data)), max_iterations=2)
    _peak(lambda: core.extract_spectral(data, config))
    whiteners = 16 * data.shape[0] * data.shape[2] ** 2
    assert [shared for shared, _ in held] == [True, True]
    assert all(bytes_held < 2 * whiteners for _, bytes_held in held)


def test_synthesis_starts_without_the_state_or_its_whiteners(monkeypatch, wave):
    # extract hands synthesize the filters and what project_back reads, and
    # releases the whiteners, and with them the set-up covariance's storage
    whiteners, alive = [], []
    set_up, synthesize = core.prewhiten, core.synthesize

    def tracked_set_up(*args, **kwargs):
        result = set_up(*args, **kwargs)
        whiteners.extend((weakref.ref(result), weakref.ref(result.base)))
        return result

    def checking_synthesize(source):
        alive.append([ref() is not None for ref in whiteners])
        return synthesize(source)

    monkeypatch.setattr(core, "prewhiten", tracked_set_up)
    monkeypatch.setattr(core, "synthesize", checking_synthesize)
    extract(wave, CONFIG, FiveConfig(ContrastModel("gauss", num_bins=CONFIG.num_bins), max_iterations=2))
    assert alive == [[False, False]]


EIGHT = StftConfig(frame_size=4096)


@pytest.fixture(scope="module")
def eight_channel_wave():
    # 8 channels, 2049 bins, 40 frames: a bin-heavy 10.5 MB spectrogram,
    # split in two shares of about 1024 bins, each walked in blocks of 128
    rng = np.random.default_rng(81)
    length = 39 * EIGHT.hop + EIGHT.frame_size
    sources = rng.standard_normal((length, 8))
    sources[:, 0] *= np.repeat(rng.laplace(size=length // EIGHT.hop + 1), EIGHT.hop)[:length] ** 2
    return MultichannelWave(16000, sources @ rng.standard_normal((8, 8)))


def test_eight_channel_update_and_set_up_hold_a_few_blocks_per_share(stage_peaks, eight_channel_wave):
    # each share builds its (M, M) stacks a block of 128 bins at a time: it
    # weights a copy of a sixth of the block, and forms and reduces the real
    # product g of that sub-block, never a whole block's g; beside the block
    # the whitening holds at most two stacks of its size, and the eigen step
    # the inverse. prewhiten checks, factors and inverts a block at a time
    # into the covariance's own storage, so it holds one stack and a block.
    # The certificate walks the same blocks, and synthesize holds the
    # spectrogram, the filters and the output, not the whiteners. Each bound
    # is spectrogram + whiteners + k blocks
    stages = ("_covariance_stack", "prewhiten", "five_iteration", "head_residual", "synthesize")
    peaks = stage_peaks(*stages)
    config = FiveConfig(ContrastModel("gauss", num_bins=EIGHT.num_bins), max_iterations=3)
    _peak(lambda: extract(eight_channel_wave, EIGHT, config))
    n_bins, n_chan = EIGHT.num_bins, eight_channel_wave.channels
    n_frames = 1 + (eight_channel_wave.num_samples - EIGHT.frame_size) // EIGHT.hop
    assert n_bins * n_frames * n_chan * 16 >= 2 * stft._SHARE_BYTES
    assert len(core._matrix_blocks(0, n_bins, n_chan)) == 16
    spectrogram = n_bins * n_frames * n_chan * 16
    whiteners = n_bins * n_chan**2 * 16  # and the set-up covariance, its storage
    # none holds an estimate: 4 blocks are the whiteners' size here
    bounds = {"_covariance_stack": 2, "prewhiten": 1, "five_iteration": 4, "head_residual": 2, "synthesize": 2}
    assert set(bounds) == set(stages) and whiteners <= 4 * BLOCK + 1024
    for name, blocks in bounds.items():
        assert peaks[name] <= spectrogram + whiteners + blocks * BLOCK, name
