"""STFT analysis and weighted overlap-add synthesis.

The default configuration is a 4096-point frame with half-overlap and a
periodic Hamming window. StftConfig guarantees hop | frame: it accepts a hop
only when the hop divides the frame and is smaller than it, which is exactly
when that window satisfies constant overlap-add, so the analysis/synthesis
pair reconstructs the interior of any signal to machine precision.

Spectra are laid out C-contiguous as (bins, frames, channels), the layout
whitening and the covariance builds read. Both directions transform along
contiguous rows: analyze windows cache-sized blocks of frames into one
contiguous buffer, transforms it and transposes each block into place;
synthesize inverts one contiguous (frames, channels, bins) copy and
overlap-adds hop-sized slabs.

A large pass over independent frames or bins is split into contiguous
shares, one per core the process may use, which run on one module-level
thread pool (_split); analyze's frames and core's per-bin passes use it.
Shares walk fixed blocks (_blocks) and compute what the whole pass would,
so outputs do not depend on the number of cores.
"""

import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np

from .wavio import MultichannelWave, _is_integer

__all__ = ["StftConfig", "SpectralTensor", "ShortSignalError", "analyze", "synthesize"]

# Bytes per block of frames or bins (_blocks): a block's working copies stay
# inside a 2 MiB per-core L2 cache.
_BLOCK_BYTES = 1 << 19
# Bytes of input a share of a split pass holds at least: below this the
# hand-off to a thread costs more than the share's work saves.
_SHARE_BYTES = 1 << 22
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_pool = None  # (pid, executor): a forked child must not reuse its parent's threads


def _split(kernel, count, nbytes):
    """Call kernel(start, stop) on contiguous shares of range(count), one per worker.

    A pass of nbytes input bytes gets at most one share per _SHARE_BYTES, so a
    small pass runs as one share on the calling thread. Kernels write into
    outputs the caller allocated, and must not call _split themselves: a
    worker that waits on the pool can deadlock it. Every share is finished
    before the first failing one's exception, in share order, is raised.
    """
    global _pool
    shares = max(1, min(_WORKERS, count, nbytes // _SHARE_BYTES))
    if shares == 1:
        kernel(0, count)
        return
    if _pool is None or _pool[0] != os.getpid():  # callers that race here each get a working pool
        _pool = (os.getpid(), ThreadPoolExecutor(_WORKERS, thread_name_prefix="five"))
    pool = _pool[1]
    bounds = [count * k // shares for k in range(shares + 1)]
    futures = [pool.submit(kernel, start, stop) for start, stop in zip(bounds, bounds[1:])]
    wait(futures)
    for future in futures:
        future.result()


def _blocks(start, stop, item_bytes):
    """Slices of range(start, stop) of _BLOCK_BYTES // item_bytes items each (at least one); the last may be shorter."""
    step = max(1, _BLOCK_BYTES // item_bytes)
    return [slice(first, min(first + step, stop)) for first in range(start, stop, step)]


def _check_finite(data):
    """Raise ValueError unless every entry of the array is finite; in shares over the cores."""

    def check(start, stop):
        if not np.all(np.isfinite(data[start:stop])):
            raise ValueError("data must be finite")

    _split(check, len(data), data.nbytes)


class ShortSignalError(ValueError):
    """Input shorter than a single analysis frame."""


def _periodic_hamming(n):
    return 0.54 - 0.46 * np.cos(2.0 * np.pi * np.arange(n) / n)


@dataclass(frozen=True)
class StftConfig:
    frame_size: int = 4096
    hop: int | None = None

    def __post_init__(self):
        if not _is_integer(self.frame_size) or self.frame_size < 2 or self.frame_size % 2 != 0:
            raise ValueError("frame_size must be a positive even integer")
        if self.hop is None:
            object.__setattr__(self, "hop", self.frame_size // 2)
        if not _is_integer(self.hop) or not 0 < self.hop <= self.frame_size:
            raise ValueError("hop must be an integer in (0, frame_size]")
        # Constant overlap-add holds exactly when hop | frame and hop < frame.
        # Sample t of the interior sums the window taps j = t (mod hop). With
        # K = frame/hop >= 2 the cosine terms cancel over every residue class,
        # so each sum is 0.54 K; a hop that does not divide the frame puts
        # different numbers of taps in the classes.
        if self.frame_size % self.hop or self.hop == self.frame_size:
            raise ValueError(
                f"hop {self.hop} does not satisfy constant overlap-add "
                f"with the Hamming window of {self.frame_size}"
            )

    @property
    def num_bins(self):
        return self.frame_size // 2 + 1

    def window_samples(self):
        return _periodic_hamming(self.frame_size)


@dataclass
class SpectralTensor:
    """One-sided complex STFT data of shape (bins F, frames N, channels M)."""

    data: np.ndarray
    sample_rate: int
    config: StftConfig = field(default_factory=StftConfig)
    num_samples: int | None = None  # original signal length, set by analyze; at most the overlap-add length

    def __post_init__(self):
        if not _is_integer(self.sample_rate) or self.sample_rate <= 0:
            raise ValueError("sample_rate must be a positive integer")
        data = np.asarray(self.data, dtype=np.complex128)
        if data.ndim != 3:
            raise ValueError("data must have shape (bins, frames, channels)")
        if data.shape[0] != self.config.num_bins:
            raise ValueError(
                f"bin count {data.shape[0]} does not match frame_size "
                f"{self.config.frame_size} (expected {self.config.num_bins})"
            )
        # synthesize trims its overlap-add to num_samples, so more than that
        # many samples, or fewer than one, cannot be honoured
        length = (data.shape[1] - 1) * self.config.hop + self.config.frame_size
        if self.num_samples is not None and not (_is_integer(self.num_samples) and 1 <= self.num_samples <= length):
            raise ValueError(
                f"num_samples must be None or an integer in [1, {length}] for {data.shape[1]} frames, "
                f"got {self.num_samples!r}"
            )
        _check_finite(data)
        self.data = data

    @property
    def num_bins(self):
        return self.data.shape[0]

    @property
    def num_frames(self):
        return self.data.shape[1]

    @property
    def num_channels(self):
        return self.data.shape[2]


def analyze(wave, config=None):
    """Windowed one-sided DFT of every frame of every channel.

    The tail is zero-padded so each input sample is covered by at least one
    frame; the original length is recorded so synthesize can trim back.
    Frames are windowed and transformed in blocks of about _BLOCK_BYTES of
    spectra, in shares of frames over the cores (_split); every frame's
    spectrum equals np.fft.rfft of that windowed frame to the bit. The
    signal is not copied: frames are read in place, and only a frame that
    runs past the end comes from a zero-padded copy of its samples, so the
    working set is the spectrogram plus one block of windowed frames and
    their spectra per share. Samples near the float64 limit can overflow in
    the transform, which SpectralTensor rejects as non-finite data.

    Parameters
    ----------
    wave: MultichannelWave
    config: StftConfig, optional

    Returns
    -------
    SpectralTensor with C-contiguous data of shape
    (frame_size/2 + 1, num_frames, channels).
    """
    if config is None:
        config = StftConfig()
    frame, hop = config.frame_size, config.hop
    x = wave.samples
    if x.shape[0] < frame:
        raise ShortSignalError(
            f"signal of {x.shape[0]} samples is shorter than one frame ({frame})"
        )

    n_frames = 1 + -(-(x.shape[0] - frame) // hop)  # ceil division
    # (frames, channels, frame) view of the frames inside the signal. At
    # most the last frame runs past the end (the padding is under one hop);
    # it is read from a zero-padded copy of the tail, one frame per channel.
    frames = np.lib.stride_tricks.sliding_window_view(x, frame, axis=0)[::hop]
    inside = len(frames)
    if inside < n_frames:
        tail = np.zeros((x.shape[1], frame))
        tail[:, : x.shape[0] - inside * hop] = x[inside * hop :].T
    # Each block of a share's frames is windowed into the share's one reused
    # buffer (a fresh temporary per block costs page faults) and its
    # transposed spectra fill a contiguous run in every bin of the output.
    win = config.window_samples()
    spectra = np.empty((config.num_bins, n_frames, x.shape[1]), dtype=np.complex128)

    def transform(first, last):
        blocks = _blocks(first, last, 16 * config.num_bins * x.shape[1])
        windowed = np.empty((blocks[0].stop - first, x.shape[1], frame))
        for span in blocks:
            block = windowed[: span.stop - span.start]
            np.multiply(frames[span], win, out=block[: inside - span.start])
            if span.stop > inside:
                np.multiply(tail, win, out=block[-1])
            spectra[:, span] = np.fft.rfft(block, axis=-1).transpose(2, 0, 1)

    _split(transform, n_frames, spectra.nbytes)
    return SpectralTensor(
        data=spectra,
        sample_rate=wave.sample_rate,
        config=config,
        num_samples=wave.num_samples,
    )


def synthesize(spec):
    """Weighted overlap-add inverse of analyze.

    The synthesis window equals the analysis window and the output is
    normalized per sample by the accumulated squared window, so unmodified
    spectra reconstruct the input exactly wherever frames overlap.

    StftConfig guarantees hop | frame, so the output is laid out in
    hop-sized blocks and slice r of every frame is added, in one
    shifted slab, to the blocks r to r + num_frames - 1.
    """
    config = spec.config
    frame, hop = config.frame_size, config.hop
    win = config.window_samples()
    n_frames, n_chan = spec.num_frames, spec.num_channels
    slices = frame // hop

    # (frames, channels, frame) rows: the inverse transform and the window
    # run along contiguous memory
    time_frames = np.fft.irfft(np.ascontiguousarray(spec.data.transpose(1, 2, 0)), n=frame, axis=-1)
    time_frames *= win
    time_frames = time_frames.reshape(n_frames, n_chan, slices, hop)
    out = np.zeros((n_frames + slices - 1, hop, n_chan))
    weight = np.zeros((n_frames + slices - 1, hop))
    win_sq = (win * win).reshape(slices, hop)
    # last slice first, so each sample sums its frames in frame order
    for r in reversed(range(slices)):
        out[r : r + n_frames] += time_frames[:, :, r].transpose(0, 2, 1)
        weight[r : r + n_frames] += win_sq[r]
    out = out.reshape(-1, n_chan)
    out /= weight.reshape(-1, 1)  # Hamming never reaches zero, so weight > 0

    if spec.num_samples is not None:
        out = out[: spec.num_samples]
    return MultichannelWave(sample_rate=spec.sample_rate, samples=out)
