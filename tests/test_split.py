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
import oracles

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
    for name in ("w", "activity"):
        assert np.array_equal(getattr(serial, name), getattr(split, name)), name
    assert np.array_equal(oracles.estimate(serial, data), oracles.estimate(split, data))
    assert serial.previous_residual == split.previous_residual
    serial, split = _both(monkeypatch, lambda: core.head_residual(serial, data, contrast))
    assert serial == split


def test_apply_demixing_is_bit_identical_split(monkeypatch, data):
    # one _demix per share
    w = _cnormal(np.random.default_rng(72), (SHAPE[0], SHAPE[2]))
    product, calls = core._demix, []
    monkeypatch.setattr(core, "_demix", lambda *args: calls.append(len(args[0])) or product(*args))
    serial, split = _both(monkeypatch, lambda: core.apply_demixing(w, data))
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
        assert np.array_equal(update.activity, want.activity)
        assert np.array_equal(update.w, want.w)


def _group_blocks(monkeypatch, groups):
    """Blocks of groups whole 16-bin groups for the (M, M) stacks at M = 4 (core._matrix_blocks).

    The demix gets blocks of one group, and the weighted copies blocks of one bin.
    """
    monkeypatch.setattr(stft, "_BLOCK_BYTES", 64 * SHAPE[2] ** 2 * core._GROUP_BINS * groups)


def test_blocks_tile_the_range():
    assert stft._blocks(0, 512, 32 * 8**2) == [slice(0, 256), slice(256, 512)]
    assert stft._blocks(5, 500, 32 * 8**2) == [slice(5, 261), slice(261, 500)]
    # a one-item remainder joins the block before it: bins, and frames
    # (synthesize's 15-frame blocks at (F, C) = (2049, 1))
    assert stft._blocks(1024, 1537, 32 * 8**2) == [slice(1024, 1280), slice(1280, 1537)]
    assert stft._blocks(0, 2049, 32 * 4**2) == [slice(0, 1024), slice(1024, 2049)]
    assert stft._blocks(0, 31, 16 * 2049) == [slice(0, 15), slice(15, 31)]
    assert stft._blocks(0, 32, 16 * 2049)[-1] == slice(30, 32) and stft._blocks(0, 1, 16 * 2049) == [slice(0, 1)]
    # the (M, M) stacks' blocks: whole 16-bin groups counted from the start of
    # the range, 128 bins at M = 8, 224 at M = 6, one group at least (M = 30)
    assert core._matrix_blocks(5, 300, 8) == stft._blocks(5, 300, 64 * 8**2, 16)
    assert core._matrix_blocks(5, 300, 8) == [slice(5, 133), slice(133, 261), slice(261, 300)]
    assert core._matrix_blocks(1024, 1537, 8)[2:] == [slice(1280, 1408), slice(1408, 1537)]
    assert core._matrix_blocks(0, 2049, 4)[-1] == slice(1536, 2049) and core._matrix_blocks(7, 8, 8) == [slice(7, 8)]
    assert core._matrix_blocks(0, 513, 6) == [slice(0, 224), slice(224, 448), slice(448, 513)]
    assert core._matrix_blocks(0, 33, 30) == [slice(0, 16), slice(16, 33)]
    # the demix's blocks at N = 1874: one group of 16 bins, where 17 bins fit the budget
    assert stft._blocks(0, 257, 16 * 1874, 16)[:2] == [slice(0, 16), slice(16, 32)]
    assert stft._blocks(0, 257, 16 * 1874, 16)[-1] == slice(240, 257)
    # an item larger than a block is a block of its own, and an empty range has none
    assert stft._blocks(3, 6, 2 * stft._BLOCK_BYTES) == [slice(3, 4), slice(4, 5), slice(5, 6)]
    assert stft._blocks(7, 7, 16) == []
    for start, stop, item_bytes, unit in [(0, 257, 16 * 1874, 1), (85, 171, 16 * 4**2, 1), (0, 2049, 16 * 78 * 8, 1),
                                          (9, 10, 1, 1), (0, 257, 16 * 1874, 16), (80, 176, 16 * 400, 16)]:
        blocks = stft._blocks(start, stop, item_bytes, unit)
        step = max(1, stft._BLOCK_BYTES // (item_bytes * unit)) * unit
        sizes = [b.stop - b.start for b in blocks]
        assert blocks[0].start == start and blocks[-1].stop == stop
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        assert all(size == step for size in sizes[:-1])
        assert 0 < sizes[-1] <= step + 1 and (sizes[-1] > 1 or len(blocks) == 1)


@pytest.mark.parametrize("budget", [1, 3000, 1 << 16, None])
def test_blocks_of_bins_start_on_groups(monkeypatch, budget):
    # every block of the (M, M) stacks and of the demix starts on a group of
    # a range that does, and all but the range's last hold whole groups
    if budget is not None:
        monkeypatch.setattr(stft, "_BLOCK_BYTES", budget)
    for start, stop in [(0, 513), (80, 176), (176, 257), (32, 33), (16, 48)]:
        cuts = [core._matrix_blocks(start, stop, n_chan) for n_chan in (1, 2, 4, 6, 8, 30)]
        for n_frames in (3, 78, 400, 1874):  # the demix's blocks depend on N only
            data = np.zeros((stop, n_frames, 1), dtype=np.complex128)
            filters = np.zeros((stop - start, 1), dtype=np.complex128)
            cuts.append([block for block, _ in core._demixed_blocks(filters, data, slice(start, stop))])
        for cut in cuts:
            assert cut[0].start == start and cut[-1].stop == stop
            assert all(a.stop == b.start for a, b in zip(cut, cut[1:]))
            assert all(block.start % core._GROUP_BINS == 0 for block in cut)
            assert all((block.stop - block.start) % core._GROUP_BINS == 0 for block in cut[:-1])


def test_update_and_set_up_are_bit_identical_in_blocks(monkeypatch, data):
    # one-group blocks put block bounds inside every share (share bounds 0,
    # 85, 171, 257 for the set-up; 0, 80, 176, 257, on whole groups of 16
    # bins, for the update) and between every two groups of the update's
    # activity sums
    contrast = ContrastModel("gauss", num_bins=SHAPE[0])
    state = five_iteration(_state(data), data, contrast)
    default_budget = stft._BLOCK_BYTES
    monkeypatch.setattr(stft, "_WORKERS", 3)
    whole, whole_cov = five_iteration(state, data, contrast), core._covariance_stack(data)
    whole_residual = core.head_residual(whole, data, contrast)
    _group_blocks(monkeypatch, 1)
    assert core._matrix_blocks(85, 171, SHAPE[2])[:2] == [slice(85, 101), slice(101, 117)]
    assert len(core._matrix_blocks(80, 176, SHAPE[2])) == 6
    _assert_same_bits(whole, whole_cov, whole_residual, state, data, contrast)
    # the weighted product's sub-blocks (core._product_blocks: 1 bin, 7 bins
    # or the whole block) apart from the blocks of V (16 bins, 48 bins, or
    # 2049, every bin of a share), with g reduced once per block (the
    # default budget holds the g of 256 bins at M = 4) or once per sub-block
    # (a budget that holds the g of 3)
    for budget in (default_budget, 128 * SHAPE[2] ** 2 * 3):
        monkeypatch.setattr(stft, "_BLOCK_BYTES", budget)
        for block_bins in (16, 48, 2049):
            monkeypatch.setattr(core, "_matrix_blocks", _steps(block_bins))
            for sub_bins in sorted({1, 7, block_bins}):
                monkeypatch.setattr(core, "_product_blocks", lambda n_bins, n_frames, n_chan, step=sub_bins: _steps(step)(0, n_bins))
                _assert_same_bits(whole, whole_cov, whole_residual, state, data, contrast)


def _steps(step):
    """Slices of step items over a range, the last shorter: blocks of a fixed size in place of a budget's."""
    return lambda start, stop, *_: [slice(first, min(first + step, stop)) for first in range(start, stop, step)]


def _assert_same_bits(whole, whole_cov, whole_residual, state, data, contrast):
    blocked = five_iteration(state, data, contrast)
    for name in ("w", "activity"):
        assert np.array_equal(getattr(whole, name), getattr(blocked, name)), name
    assert np.array_equal(oracles.estimate(whole, data), oracles.estimate(blocked, data))
    assert whole.previous_residual == blocked.previous_residual
    assert np.array_equal(whole_cov, core._covariance_stack(data))
    assert whole_residual == core.head_residual(blocked, data, contrast)


def test_update_is_one_split_pass(monkeypatch, data):
    # the filters and the activity come from one pass over the 17 groups of
    # 16 bins (the last of one bin), whole groups to a share
    calls = []

    def counted(kernel, count, nbytes):
        calls.append(count)
        stft._split(kernel, count, nbytes)

    monkeypatch.setattr(core, "_split", counted)
    contrast = ContrastModel("gauss", num_bins=SHAPE[0])
    state = _state(data)
    calls.clear()
    five_iteration(state, data, contrast)
    assert calls == [17] and 16 * 16 < SHAPE[0] <= 16 * 17


def test_degenerate_bin_is_named_by_its_global_index(monkeypatch, data):
    # zero whiteners make V zero in bins 100 and 200, in the second and third
    # of three shares (bounds 0, 80, 176, 257: whole groups of 16 bins), and
    # with one-group blocks in a later block of its share (the second; the
    # seventh of one share): the error names bin 100
    state = _state(data)
    whiteners = state.whiteners.copy()
    whiteners[[100, 200]] = 0.0
    broken = core.DemixingState(whiteners, state.w, state.activity)
    contrast = ContrastModel("gauss", num_bins=SHAPE[0])
    for groups in (None, 1):
        if groups is not None:
            _group_blocks(monkeypatch, groups)
            assert core._matrix_blocks(80, 176, SHAPE[2])[1] == slice(96, 112)
            assert core._matrix_blocks(0, 257, SHAPE[2])[6] == slice(96, 112)
        for workers in (1, 3):
            monkeypatch.setattr(stft, "_WORKERS", workers)
            with pytest.raises(DegenerateCovarianceError, match=r"at bin 100$"):
                five_iteration(broken, data, contrast)


def test_no_output_depends_on_the_core_count(monkeypatch):
    # 8 channels at frame 1024: 513 bins, and 260 frames put 4 shares over the
    # gate. The blocks of V differ with the worker count (core._matrix_blocks,
    # 128 bins, or 129 with the last bin): 128 and 129 bins on 1, 2 and 4
    # workers, 128, 48 and 33 on 3, stacks numpy could lay out differently
    # if V's layout were not fixed
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
