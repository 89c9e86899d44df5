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
"""

from dataclasses import dataclass, field

import numpy as np

from .wavio import MultichannelWave

__all__ = ["StftConfig", "SpectralTensor", "ShortSignalError", "analyze", "synthesize"]

# Bytes per block of frames in analyze, and per block of bins in core's
# covariance builds: a block's working copies stay inside a 2 MiB per-core
# L2 cache.
_BLOCK_BYTES = 1 << 19


class ShortSignalError(ValueError):
    """Input shorter than a single analysis frame."""


def _periodic_hamming(n):
    return 0.54 - 0.46 * np.cos(2.0 * np.pi * np.arange(n) / n)


@dataclass(frozen=True)
class StftConfig:
    frame_size: int = 4096
    hop: int | None = None

    def __post_init__(self):
        if self.frame_size < 2 or self.frame_size % 2 != 0:
            raise ValueError("frame_size must be a positive even integer")
        if self.hop is None:
            object.__setattr__(self, "hop", self.frame_size // 2)
        if not 0 < self.hop <= self.frame_size:
            raise ValueError("hop must be in (0, frame_size]")
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
    num_samples: int | None = None  # original signal length, set by analyze

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.complex128)
        if data.ndim != 3:
            raise ValueError("data must have shape (bins, frames, channels)")
        if data.shape[0] != self.config.num_bins:
            raise ValueError(
                f"bin count {data.shape[0]} does not match frame_size "
                f"{self.config.frame_size} (expected {self.config.num_bins})"
            )
        if not np.all(np.isfinite(data)):
            raise ValueError("data must be finite")
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
    spectra; every frame's spectrum equals np.fft.rfft of that windowed
    frame to the bit. Samples near the float64 limit can overflow in the
    transform, which SpectralTensor rejects as non-finite data.

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
    padded_len = (n_frames - 1) * hop + frame
    if padded_len > x.shape[0]:
        x = np.concatenate([x, np.zeros((padded_len - x.shape[0], x.shape[1]))])

    # (frames, channels, frame) view. Each block of frames is windowed into
    # one reused buffer (a fresh temporary per block costs page faults) and
    # its transposed spectra fill a contiguous run in every bin of the output.
    frames = np.lib.stride_tricks.sliding_window_view(x, frame, axis=0)[::hop]
    win = config.window_samples()
    spectra = np.empty((config.num_bins, n_frames, x.shape[1]), dtype=np.complex128)
    step = max(1, _BLOCK_BYTES // (16 * config.num_bins * x.shape[1]))
    windowed = np.empty((min(step, n_frames), x.shape[1], frame))
    for start in range(0, n_frames, step):
        block = windowed[: min(step, n_frames - start)]
        np.multiply(frames[start : start + step], win, out=block)
        spectra[:, start : start + step] = np.fft.rfft(block, axis=-1).transpose(2, 0, 1)
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
