"""Passes split over the cores (stft._split) give the one-share result to the bit.

Every input here is above the gate: (257, 1024, 4) complex data holds 16.8 MB,
four shares' worth. The split side runs three workers, so the odd bin count
splits unevenly and the split is exercised on a machine with any number of
cores; the reference runs one worker, the serial path.
"""

import multiprocessing
import sys
import threading
import time

import numpy as np
import pytest

from five import core, stft
from five.core import ContrastModel, DegenerateCovarianceError, FiveConfig, extract_spectral, five_iteration
from five.stft import StftConfig, analyze
from five.wavio import MultichannelWave

SHAPE = (257, 1024, 4)


def _cnormal(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


@pytest.fixture(scope="module")
def data():
    # a sparse source and a dense one, mixed per bin, plus a little noise
    rng = np.random.default_rng(70)
    n_bins, n_frames, n_chan = SHAPE
    sources = _cnormal(rng, (n_bins, n_frames, n_chan))
    sources[:, :, 0] *= rng.laplace(size=n_frames) ** 2
    return sources @ _cnormal(rng, (n_bins, n_chan, n_chan))


def _both(monkeypatch, fn):
    """fn() with one worker, then with three."""
    monkeypatch.setattr(stft, "_WORKERS", 1)
    serial = fn()
    monkeypatch.setattr(stft, "_WORKERS", 3)
    return serial, fn()


def _state(data):
    return core._initial_state(core.prewhiten(core._covariance_stack(data)), data)


def test_split_shapes_are_above_the_gate(data):
    assert data.nbytes // stft._SHARE_BYTES >= 3


def test_analyze_is_bit_identical_split(monkeypatch):
    rng = np.random.default_rng(71)
    wave = MultichannelWave(16000, rng.standard_normal((1024 * 256 + 100, 4)))
    serial, split = _both(monkeypatch, lambda: analyze(wave, StftConfig(frame_size=512)).data)
    assert split.shape == SHAPE
    assert np.array_equal(serial, split)


def test_covariance_builds_are_bit_identical_split(monkeypatch, data):
    # the update's weighted build is checked split by test_update_and_certificate_are_bit_identical_split
    serial, split = _both(monkeypatch, lambda: core._covariance_stack(data))
    assert np.array_equal(serial, split)


def test_update_and_certificate_are_bit_identical_split(monkeypatch, data):
    contrast = ContrastModel("gauss", num_bins=SHAPE[0])
    state = _state(data)
    serial, split = _both(monkeypatch, lambda: five_iteration(state, data, contrast))
    for name in ("w", "activity", "estimate"):
        assert np.array_equal(getattr(serial, name), getattr(split, name)), name
    assert serial.previous_residual == split.previous_residual
    serial, split = _both(monkeypatch, lambda: core.head_residual(serial, data, contrast))
    assert serial == split


def test_extraction_is_bit_identical_split(monkeypatch, data):
    config = FiveConfig(ContrastModel("gauss", num_bins=SHAPE[0]), max_iterations=3)
    (serial, serial_report), (split, split_report) = _both(monkeypatch, lambda: extract_spectral(data, config))
    assert np.array_equal(serial, split)
    assert serial_report.records[-1].head_residual is not None
    assert [(r.nll, r.head_residual) for r in serial_report.records] == [
        (r.nll, r.head_residual) for r in split_report.records
    ]


def test_many_workers_and_short_switch_interval_lose_no_share(monkeypatch, data):
    # more workers than cores, switching threads every microsecond: a share
    # written twice or never would change the update
    contrast = ContrastModel("gauss", num_bins=SHAPE[0])
    state = _state(data)
    monkeypatch.setattr(stft, "_WORKERS", 1)
    want = five_iteration(state, data, contrast)
    monkeypatch.setattr(stft, "_WORKERS", 8)
    monkeypatch.setattr(stft, "_SHARE_BYTES", 1 << 20)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = [five_iteration(state, data, contrast) for _ in range(3)]
    finally:
        sys.setswitchinterval(interval)
    for update in got:
        assert np.array_equal(update.estimate, want.estimate)
        assert np.array_equal(update.w, want.w)


def test_degenerate_bin_is_named_by_its_global_index(monkeypatch, data):
    # zero whiteners make V zero in bins 100 and 200, in the second and third
    # of three shares (bounds 0, 85, 171, 257): the error names bin 100
    state = _state(data)
    whiteners = state.whiteners.copy()
    whiteners[[100, 200]] = 0.0
    broken = core.DemixingState(whiteners, state.w, state.activity)
    contrast = ContrastModel("gauss", num_bins=SHAPE[0])
    for workers in (1, 3):
        monkeypatch.setattr(stft, "_WORKERS", workers)
        with pytest.raises(DegenerateCovarianceError, match=r"at bin 100$"):
            five_iteration(broken, data, contrast)


def test_worker_exception_propagates_and_the_pool_still_works(monkeypatch, data):
    monkeypatch.setattr(stft, "_WORKERS", 3)

    def kernel(start, stop):
        if start:
            raise KeyError(start)

    with pytest.raises(KeyError):
        stft._split(kernel, SHAPE[0], data.nbytes)
    config = FiveConfig(ContrastModel("gauss", num_bins=SHAPE[0]), max_iterations=2)
    split, _ = extract_spectral(data, config)
    monkeypatch.setattr(stft, "_WORKERS", 1)
    serial, _ = extract_spectral(data, config)
    assert np.array_equal(serial, split)


def test_split_waits_for_every_share_before_raising(monkeypatch):
    # the first share fails at once; the others must still have run when
    # the error reaches the caller, which may then free their outputs
    monkeypatch.setattr(stft, "_WORKERS", 3)
    done = []
    release = threading.Event()

    def kernel(start, stop):
        if start == 0:
            release.set()
            raise ValueError("first share")
        release.wait(10)
        time.sleep(0.2)
        done.append(start)

    with pytest.raises(ValueError, match="first share"):
        stft._split(kernel, 3, 3 * stft._SHARE_BYTES)
    assert sorted(done) == [1, 2]


def test_gate_keeps_the_largest_tensor_workload_input_at_one_share(monkeypatch):
    # inst_converge's largest input, (129, 400, 6), runs on the calling
    # thread in one share however many cores there are
    monkeypatch.setattr(stft, "_WORKERS", 64)
    calls = []
    nbytes = np.empty((129, 400, 6), dtype=np.complex128).nbytes
    stft._split(lambda start, stop: calls.append((start, stop, threading.get_ident())), 129, nbytes)
    assert calls == [(0, 129, threading.get_ident())]


def _extract_in_child(data, config, connection):
    connection.send(extract_spectral(data, config)[0])
    connection.close()


@pytest.mark.filterwarnings("ignore::DeprecationWarning")  # fork of a process that has threads
@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="needs fork")
def test_forked_child_extracts_after_the_parent_used_the_pool(monkeypatch, data):
    monkeypatch.setattr(stft, "_WORKERS", 3)
    config = FiveConfig(ContrastModel("gauss", num_bins=SHAPE[0]), max_iterations=2)
    want, _ = extract_spectral(data, config)
    context = multiprocessing.get_context("fork")
    receive, send = context.Pipe(duplex=False)
    child = context.Process(target=_extract_in_child, args=(data, config, send))
    child.start()
    send.close()
    try:
        assert receive.poll(60), "the forked child hung"
        got = receive.recv()
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
            child.join()
    assert child.exitcode == 0
    assert np.array_equal(got, want)
