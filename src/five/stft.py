"""STFT analysis and weighted overlap-add synthesis.

The default configuration is a 4096-point frame with half-overlap and a
periodic Hamming window, which satisfies constant overlap-add exactly, so
the analysis/synthesis pair reconstructs the interior of any signal to
machine precision.
"""

from dataclasses import dataclass, field

import numpy as np

from .wavio import MultichannelWave

__all__ = ["StftConfig", "SpectralTensor", "ShortSignalError", "analyze", "synthesize"]

_COLA_RTOL = 1e-10


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
        self._check_cola()

    def _check_cola(self):
        # Overlap-added window sums must be constant over the interior.
        win = self.window_samples()
        span = 4 * self.frame_size
        ola = np.zeros(span + self.frame_size)
        for start in range(0, span, self.hop):
            ola[start : start + self.frame_size] += win
        interior = ola[self.frame_size : span - self.frame_size]
        level = interior.mean()
        if level <= 0 or np.max(np.abs(interior - level)) > _COLA_RTOL * level:
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

    Parameters
    ----------
    wave: MultichannelWave
    config: StftConfig, optional

    Returns
    -------
    SpectralTensor with data of shape (frame_size/2 + 1, num_frames, channels).
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

    # (n_frames, channels, frame) view, then window and transform per frame
    frames = np.lib.stride_tricks.sliding_window_view(x, frame, axis=0)[::hop]
    spectra = np.fft.rfft(frames * config.window_samples(), axis=-1)
    return SpectralTensor(
        data=spectra.transpose(2, 0, 1),
        sample_rate=wave.sample_rate,
        config=config,
        num_samples=wave.num_samples,
    )


def synthesize(spec):
    """Weighted overlap-add inverse of analyze.

    The synthesis window equals the analysis window and the output is
    normalized per sample by the accumulated squared window, so unmodified
    spectra reconstruct the input exactly wherever frames overlap.
    """
    config = spec.config
    frame, hop = config.frame_size, config.hop
    win = config.window_samples()
    n_frames, n_chan = spec.num_frames, spec.num_channels

    time_frames = np.fft.irfft(spec.data, n=frame, axis=0) * win[:, None, None]
    total = (n_frames - 1) * hop + frame
    out = np.zeros((total, n_chan))
    weight = np.zeros(total)
    win_sq = win * win
    for n in range(n_frames):
        out[n * hop : n * hop + frame] += time_frames[:, n, :]
        weight[n * hop : n * hop + frame] += win_sq
    out /= weight[:, None]  # Hamming never reaches zero, so weight > 0

    if spec.num_samples is not None:
        out = out[: spec.num_samples]
    return MultichannelWave(sample_rate=spec.sample_rate, samples=out)
