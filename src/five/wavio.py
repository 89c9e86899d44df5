"""Multichannel RIFF/WAVE reading and writing.

Only uncompressed little-endian WAV is handled: 16-bit integer PCM
(format code 1) and 32-bit IEEE float (format code 3). Everything else
is rejected so the rest of the pipeline never sees half-decoded audio.
"""

import numbers
import struct
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MultichannelWave",
    "WaveFormatError",
    "TruncatedWaveError",
    "read_wave",
    "write_wave",
]

_PCM16_SCALE = 32768.0


def _is_integer(value):
    """An Integral other than a bool: True is no count, size, rate or channel."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


class WaveFormatError(ValueError):
    """File is not a WAV we support (bad container or unsupported codec)."""


class TruncatedWaveError(ValueError):
    """A chunk declares more bytes than the file actually contains."""


@dataclass(frozen=True)
class MultichannelWave:
    """Time-domain multichannel signal, samples shaped (num_samples, channels)."""

    sample_rate: int
    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 2 or samples.shape[1] < 1:
            raise ValueError("samples must be a (num_samples, channels) matrix")
        if not _is_integer(self.sample_rate) or self.sample_rate <= 0:
            raise ValueError("sample_rate must be a positive integer")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        object.__setattr__(self, "samples", samples)

    @property
    def channels(self):
        return self.samples.shape[1]

    @property
    def num_samples(self):
        return self.samples.shape[0]

    @property
    def duration(self):
        return self.num_samples / self.sample_rate


def _chunks(blob):
    """Yield (chunk id, payload offset, declared size) for every RIFF chunk."""
    pos = 12
    while pos + 8 <= len(blob):
        cid, size = struct.unpack_from("<4sI", blob, pos)
        yield cid, pos + 8, size
        pos += 8 + size + (size & 1)  # chunks are word-aligned


def read_wave(path):
    """Read a PCM16 or float32 WAV file into a normalized MultichannelWave.

    PCM16 samples are scaled by 1/32768; float32 samples are taken as-is.
    Raises FileNotFoundError, WaveFormatError or TruncatedWaveError.
    """
    with open(path, "rb") as fh:
        blob = fh.read()

    if len(blob) < 12 or blob[:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise WaveFormatError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    data = None
    for cid, off, size in _chunks(blob):
        if off + size > len(blob):
            raise TruncatedWaveError(
                f"{path}: chunk {cid!r} declares {size} bytes but only "
                f"{len(blob) - off} remain"
            )
        if cid == b"fmt ":
            fmt = blob[off : off + size]
        elif cid == b"data":
            data = blob[off : off + size]

    if fmt is None or data is None:
        raise TruncatedWaveError(f"{path}: missing fmt or data chunk")
    if len(fmt) < 16:
        raise TruncatedWaveError(f"{path}: fmt chunk too short ({len(fmt)} bytes)")

    code, channels, rate, _, block_align, bits = struct.unpack_from("<HHIIHH", fmt)
    if channels < 1 or rate <= 0:
        raise WaveFormatError(f"{path}: invalid fmt fields")
    if code == 1 and bits == 16:
        dtype, width = "<i2", 2
    elif code == 3 and bits == 32:
        dtype, width = "<f4", 4
    else:
        raise WaveFormatError(
            f"{path}: unsupported codec (format code {code}, {bits} bits); "
            "only PCM16 and IEEE float32 are handled"
        )
    if block_align != channels * width or len(data) % (channels * width) != 0:
        raise TruncatedWaveError(f"{path}: data chunk is not a whole number of frames")

    samples = np.frombuffer(data, dtype=dtype).reshape(-1, channels).astype(np.float64)
    if code == 1:
        samples /= _PCM16_SCALE
    return MultichannelWave(sample_rate=rate, samples=samples)


def write_wave(path, wave, format="float32"):
    """Write a MultichannelWave as PCM16 or float32 WAV.

    In pcm16 mode, samples outside [-1, 1] are hard-clipped; the number of
    clipped samples is returned (always 0 for float32). A value that its
    header field cannot hold (a sample rate or byte rate of 2**32 or more,
    say) raises ValueError naming the field, and no file is opened.
    """
    if format not in ("pcm16", "float32"):
        raise ValueError(f"unknown format {format!r}; use 'pcm16' or 'float32'")
    code, width = (1, 2) if format == "pcm16" else (3, 4)
    channels = wave.channels
    fields = [  # (name, value, bits) of every header field that grows with the wave
        ("channel count", channels, 16),
        ("sample rate", wave.sample_rate, 32),
        ("byte rate", wave.sample_rate * channels * width, 32),
        ("block align", channels * width, 16),
        ("RIFF chunk size", 36 + wave.num_samples * channels * width, 32),
    ]
    for name, value, bits in fields:
        if value >= 1 << bits:
            raise ValueError(f"{name} {value} does not fit the {bits}-bit WAV header field")
    if format == "pcm16":
        clipped = int(np.count_nonzero(np.abs(wave.samples) > 1.0))
        ints = np.rint(np.clip(wave.samples, -1.0, 1.0) * _PCM16_SCALE)
        payload = np.clip(ints, -32768, 32767).astype("<i2").tobytes()
    else:
        clipped = 0
        payload = wave.samples.astype("<f4").tobytes()

    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + len(payload),
        b"WAVE",
        b"fmt ",
        16,
        code,
        channels,
        wave.sample_rate,
        wave.sample_rate * channels * width,
        channels * width,
        width * 8,
        b"data",
        len(payload),
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)
    return clipped
