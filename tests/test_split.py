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

import five
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


def test_apply_demixing_is_bit_identical_split(monkeypatch, data):
    # into a given out and into a new array, one _demix per share
    w = _cnormal(np.random.default_rng(72), (SHAPE[0], SHAPE[2]))
    product, calls = core._demix, []
    monkeypatch.setattr(core, "_demix", lambda *args: calls.append(len(args[0])) or product(*args))
    for given in (False, True):

        def demix():
            out = np.empty(SHAPE[:2], dtype=np.complex128) if given else None
            got = core.apply_demixing(w, data, out=out)
            assert out is None or got is out
            return got

        calls.clear()
        serial, split = _both(monkeypatch, demix)
        assert sorted(calls) == [85, 86, 86, 257]
        assert np.array_equal(serial, split)


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


def _few_bin_blocks(monkeypatch, bins):
    """Blocks of bins bins for the (M, M) stacks at M = 4, and of one bin for the weighted copies and products."""
    monkeypatch.setattr(stft, "_BLOCK_BYTES", 16 * SHAPE[2] ** 2 * bins)


def test_blocks_tile_the_range():
    # at M = 8, 512 bins per block, counted from the start of the range
    assert stft._blocks(0, 1024, 16 * 8**2) == [slice(0, 512), slice(512, 1024)]
    assert stft._blocks(1024, 2049, 16 * 8**2) == [slice(1024, 1536), slice(1536, 2048), slice(2048, 2049)]
    assert stft._blocks(5, 1000, 16 * 8**2) == [slice(5, 517), slice(517, 1000)]
    assert stft._blocks(0, 2049, 16 * 4**2) == [slice(0, 2048), slice(2048, 2049)]
    # an item larger than a block is a block of its own, and an empty range has none
    assert stft._blocks(3, 6, 2 * stft._BLOCK_BYTES) == [slice(3, 4), slice(4, 5), slice(5, 6)]
    assert stft._blocks(7, 7, 16) == []
    for start, stop, item_bytes in [(0, 257, 16 * 1874), (85, 171, 16 * 4**2), (0, 2049, 16 * 78 * 8), (9, 10, 1)]:
        blocks = stft._blocks(start, stop, item_bytes)
        step = max(1, stft._BLOCK_BYTES // item_bytes)
        assert blocks[0].start == start and blocks[-1].stop == stop
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        assert all(b.stop - b.start == step for b in blocks[:-1])
        assert 0 < blocks[-1].stop - blocks[-1].start <= step


def test_update_and_set_up_are_bit_identical_in_blocks(monkeypatch, data):
    # 7-bin blocks put block bounds inside every share (share bounds 0, 85, 171, 257)
    contrast = ContrastModel("gauss", num_bins=SHAPE[0])
    state = five_iteration(_state(data), data, contrast)
    monkeypatch.setattr(stft, "_WORKERS", 3)
    whole, whole_cov = five_iteration(state, data, contrast), core._covariance_stack(data)
    whole_residual = core.head_residual(whole, data, contrast)
    _few_bin_blocks(monkeypatch, 7)
    assert len(stft._blocks(85, 171, 16 * SHAPE[2] ** 2)) == 13
    blocked = five_iteration(state, data, contrast)
    for name in ("w", "activity", "estimate"):
        assert np.array_equal(getattr(whole, name), getattr(blocked, name)), name
    assert whole.previous_residual == blocked.previous_residual
    assert np.array_equal(whole_cov, core._covariance_stack(data))
    assert whole_residual == core.head_residual(blocked, data, contrast)


def test_update_is_one_split_pass(monkeypatch, data):
    # the filters and the estimate come from one pass over the bins
    calls = []

    def counted(kernel, count, nbytes):
        calls.append(count)
        stft._split(kernel, count, nbytes)

    monkeypatch.setattr(core, "_split", counted)
    contrast = ContrastModel("gauss", num_bins=SHAPE[0])
    state = _state(data)
    calls.clear()
    for out in (None, np.empty(SHAPE[:2], dtype=np.complex128)):
        five_iteration(state, data, contrast, out=out)
        assert calls == [SHAPE[0]]
        calls.clear()


def test_degenerate_bin_is_named_by_its_global_index(monkeypatch, data):
    # zero whiteners make V zero in bins 100 and 200, in the second and third
    # of three shares (bounds 0, 85, 171, 257), and with 7-bin blocks in a
    # later block of its share (the third; the fifteenth of one share): the
    # error names bin 100
    state = _state(data)
    whiteners = state.whiteners.copy()
    whiteners[[100, 200]] = 0.0
    broken = core.DemixingState(whiteners, state.w, state.activity)
    contrast = ContrastModel("gauss", num_bins=SHAPE[0])
    for block_bins in (None, 7):
        if block_bins is not None:
            _few_bin_blocks(monkeypatch, block_bins)
            assert stft._blocks(85, 171, 16 * SHAPE[2] ** 2)[2] == slice(99, 106)
            assert stft._blocks(0, 257, 16 * SHAPE[2] ** 2)[14] == slice(98, 105)
        for workers in (1, 3):
            monkeypatch.setattr(stft, "_WORKERS", workers)
            with pytest.raises(DegenerateCovarianceError, match=r"at bin 100$"):
                five_iteration(broken, data, contrast)


def test_no_output_depends_on_the_core_count(monkeypatch):
    # 8 channels at frame 1024: 513 bins, and 260 frames put 4 shares over the
    # gate. The shares' stacks of V straddle 16384 entries (256 bins at M = 8):
    # 513 and 257 bins on 1 and 2 workers, 171 and 129 on 3 and 4, a layout
    # numpy would pick differently on each side if V's were not fixed
    config = StftConfig(frame_size=1024)
    rng = np.random.default_rng(72)
    length = 259 * config.hop + config.frame_size
    sources = rng.standard_normal((length, 8))
    sources[:, 0] *= np.repeat(rng.laplace(size=length // config.hop + 1), config.hop)[:length] ** 2
    wave = MultichannelWave(16000, sources @ rng.standard_normal((8, 8)))
    five_config = FiveConfig(ContrastModel("gauss", num_bins=config.num_bins), max_iterations=3)
    runs = []
    for workers in (1, 2, 3, 4):
        monkeypatch.setattr(stft, "_WORKERS", workers)
        runs.append(five.extract(wave, config, five_config))
    (want, want_report), rest = runs[0], runs[1:]
    assert analyze(wave, config).data.nbytes // stft._SHARE_BYTES >= 4
    assert all(r.head_residual is not None and r.nll is not None for r in want_report.records)
    for got, report in rest:
        assert np.array_equal(got.samples, want.samples)
        assert [(r.nll, r.head_residual) for r in report.records] == [
            (r.nll, r.head_residual) for r in want_report.records
        ]


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
