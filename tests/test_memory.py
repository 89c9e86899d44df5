"""Working-set bounds of the extraction, under tracemalloc.

An extraction holds the (F, N, M) spectrogram and at most two (F, N)
estimates at full size; every other temporary is a block of about
stft._BLOCK_BYTES or a share of one (F, N) estimate. Each bound below is
that working set plus a few blocks, well under one more (F, N) estimate.
The input is above the gate of stft._split, and every pass runs with two
workers, so the share count, and with it each bound, does not depend on
the machine.
"""

import tracemalloc

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


def test_head_residual_holds_at_most_one_estimate_temporary(data, start):
    _, peak = _peak(lambda: head_residual(start, data, ContrastModel("gauss", num_bins=len(data))))
    # the two shares' weighted conj(s) make one (F, N) estimate together
    assert peak <= start.estimate.nbytes + BLOCK < 2 * start.estimate.nbytes


def test_activity_holds_one_block(start):
    estimate = start.estimate
    activity, peak = _peak(lambda: core._activity(estimate))
    assert np.array_equal(activity, oracles.activity(estimate))
    # below |s|^2 of every bin, an (F, N) float temporary
    assert peak <= BLOCK < estimate.nbytes // 2


def test_monitored_extraction_holds_the_spectrogram_and_two_estimates(wave):
    config = FiveConfig(ContrastModel("gauss", num_bins=CONFIG.num_bins), max_iterations=3)
    (_, report), peak = _peak(lambda: extract(wave, CONFIG, config))
    assert report.iterations_run == 3
    n_frames = 1 + -(-(wave.num_samples - CONFIG.frame_size) // CONFIG.hop)
    estimate_bytes = 16 * CONFIG.num_bins * n_frames
    working_set = wave.channels * estimate_bytes + 2 * estimate_bytes
    assert peak <= working_set + 2 * BLOCK < working_set + estimate_bytes
