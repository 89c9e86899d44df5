"""Synthetic ground-truth scenes: one non-Gaussian target in a Gaussian background.

Instantaneous scenes are built directly in the time-frequency domain as the
model assumes: a rank-1 target image (random unit mixing vector per bin
times an envelope-modulated circular Gaussian source) plus a background of
rank-1 Gaussian interferer images and uncorrelated noise. Convolutive
scenes are built in the time domain: each source reaches each channel
through a random exponentially decaying FIR filter, applied by one batched
overlap-add FFT convolution per image (target, interference), which
equals direct convolution up to rounding. In both modes the target is
rescaled so the realized channel-1 signal-to-interference-and-noise ratio
matches the request exactly, and the channel-1 ground-truth images
satisfy mixture = target + background bit-exactly. Instantaneous scenes
also carry the true per-bin target and background covariances, which
the max-SINR oracles of the tests and the benchmark read.
"""

import numbers
import struct
import typing
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .stft import SpectralTensor, StftConfig
from .wavio import MultichannelWave, _is_integer, read_wave, write_wave

__all__ = [
    "SceneSpec",
    "GroundTruthScene",
    "generate_scene",
    "tensor_config",
    "save_scene",
    "load_scene",
    "read_image",
    "write_tensor",
    "read_tensor",
]

TENSOR_MAGIC = b"FIV1"

TARGET_MODELS = ("laplace_modulated", "gauss_timevarying")
MIXING_MODES = ("instantaneous_per_bin", "convolutive_fir")

_ENVELOPE_BLOCK = 512  # samples per envelope step in convolutive mode


@dataclass(frozen=True)
class SceneSpec:
    num_channels: int
    num_bins: int = 64
    num_frames: int = 500
    sample_rate: int = 16000
    target_model: str = "laplace_modulated"
    num_interferers: int = 10
    input_sinr_db: float = 5.0
    uncorrelated_noise_fraction: float = 0.01
    seed: int = 0
    mixing: str = "instantaneous_per_bin"
    fir_length: int = 256
    num_samples: int | None = None  # convolutive mode; defaults to 1 s

    def __post_init__(self):
        for name in ("num_channels", "num_bins", "num_frames", "num_interferers", "seed", "fir_length", "num_samples"):
            if not _is_integer(getattr(self, name)) and not (name == "num_samples" and self.num_samples is None):
                raise ValueError(f"{name} must be an integer")
        if self.num_channels < 1:
            raise ValueError("num_channels must be >= 1")
        if self.num_bins < 1:
            raise ValueError("num_bins must be >= 1")
        if self.num_frames < self.num_channels:
            raise ValueError("num_frames must be >= num_channels")
        if not _is_integer(self.sample_rate) or self.sample_rate <= 0:
            raise ValueError("sample_rate must be a positive integer")
        if self.target_model not in TARGET_MODELS:
            raise ValueError(f"target_model must be one of {TARGET_MODELS}")
        if self.mixing not in MIXING_MODES:
            raise ValueError(f"mixing must be one of {MIXING_MODES}")
        for name in ("num_interferers", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if not isinstance(self.input_sinr_db, numbers.Real) or not np.isfinite(self.input_sinr_db):
            raise ValueError("input_sinr_db must be a finite number")
        noise = self.uncorrelated_noise_fraction
        if not isinstance(noise, numbers.Real) or not 0.0 <= noise <= 1.0:
            raise ValueError("uncorrelated_noise_fraction must be in [0, 1]")
        if self.fir_length < 1:
            raise ValueError("fir_length must be >= 1")
        if self.num_samples is not None and self.num_samples < 1:
            raise ValueError(f"num_samples must be >= 1 or None, got {self.num_samples}")

    @property
    def noise_fraction_effective(self):
        # With no interferers the whole background budget is uncorrelated noise.
        return 1.0 if self.num_interferers == 0 else self.uncorrelated_noise_fraction


@dataclass
class GroundTruthScene:
    spec: SceneSpec
    mixture: "SpectralTensor | MultichannelWave"
    target_image: np.ndarray  # channel-1 target contribution, (F, N) or (T,)
    background_image: np.ndarray  # channel-1 background contribution
    true_target_covariance: np.ndarray | None = None  # (F, M, M)
    true_background_covariance: np.ndarray | None = None  # (F, M, M)

    @property
    def is_spectral(self):
        return isinstance(self.mixture, SpectralTensor)


def tensor_config(num_bins):
    """Smallest StftConfig whose one-sided spectrum has num_bins bins."""
    if num_bins < 2:
        raise ValueError("spectral scenes need num_bins >= 2")
    return StftConfig(frame_size=2 * (num_bins - 1))


def _complex_normal(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _unit_sphere(rng, shape):
    # shape ends with the channel axis; each vector is normalized
    z = _complex_normal(rng, shape)
    return z / np.linalg.norm(z, axis=-1, keepdims=True)


def _envelope(rng, model, count):
    if model == "laplace_modulated":
        g = rng.exponential(1.0, count)
    else:
        g = np.exp(rng.uniform(np.log(0.1), np.log(10.0), count))
    return g / np.sqrt(np.mean(g * g))


def _sinr_linear(db):
    return 10.0 ** (db / 10.0)


def generate_scene(spec):
    """Draw a reproducible ground-truth scene from its description."""
    rng = np.random.default_rng(spec.seed)
    if spec.mixing == "instantaneous_per_bin":
        return _generate_spectral(spec, rng)
    return _generate_convolutive(spec, rng)


def _generate_spectral(spec, rng):
    n_bins, n_frames, n_chan = spec.num_bins, spec.num_frames, spec.num_channels
    n_interf = spec.num_interferers
    frac = spec.noise_fraction_effective

    mixing = _unit_sphere(rng, (n_bins, n_chan))
    source = _envelope(rng, spec.target_model, n_frames)[None, :] * _complex_normal(
        rng, (n_bins, n_frames)
    )
    target = mixing[:, None, :] * source[:, :, None]

    # Background at nominal unit channel-1 power: interferer images are
    # rank-1 with unit-sphere mixing (mean channel gain 1/M), plus white noise.
    background = np.zeros((n_bins, n_frames, n_chan), dtype=np.complex128)
    cov_background = np.zeros((n_bins, n_chan, n_chan), dtype=np.complex128)
    if n_interf > 0:
        interferer_var = n_chan * (1.0 - frac) / n_interf
        interferer_mix = _unit_sphere(rng, (n_interf, n_bins, n_chan))
        interferer_sig = _complex_normal(rng, (n_interf, n_bins, n_frames)) * np.sqrt(
            interferer_var
        )
        background += np.einsum("qfm,qfn->fnm", interferer_mix, interferer_sig)
        cov_background += interferer_var * np.einsum(
            "qfm,qfk->fmk", interferer_mix, np.conj(interferer_mix)
        )
    noise_var = frac
    background += _complex_normal(rng, (n_bins, n_frames, n_chan)) * np.sqrt(noise_var)
    cov_background += noise_var * np.eye(n_chan)

    # Rescale the target so the realized channel-1 energy ratio is exact.
    background_energy = np.sum(np.abs(background[:, :, 0]) ** 2)
    target_energy = np.sum(np.abs(target[:, :, 0]) ** 2)
    scale = np.sqrt(_sinr_linear(spec.input_sinr_db) * background_energy / target_energy)
    target *= scale

    mixture_data = target + background
    target_variance = scale**2 * np.mean(np.abs(source) ** 2, axis=1)
    cov_target = target_variance[:, None, None] * (
        mixing[:, :, None] * np.conj(mixing[:, None, :])
    )

    mixture = SpectralTensor(
        data=mixture_data,
        sample_rate=spec.sample_rate,
        config=tensor_config(n_bins),
    )
    # storing the target image as mixture - background makes the additivity
    # identity hold bit-exactly in floating point
    background_image = background[:, :, 0].copy()
    return GroundTruthScene(
        spec=spec,
        mixture=mixture,
        target_image=mixture_data[:, :, 0] - background_image,
        background_image=background_image,
        true_target_covariance=cov_target,
        true_background_covariance=cov_background,
    )


def _decaying_fir(rng, shape, length):
    taps = rng.standard_normal(shape + (length,)) * np.exp(
        -np.arange(length) / (length / 4.0)
    )
    return taps / np.linalg.norm(taps, axis=-1, keepdims=True)


def _fft_size(fir_length):
    # Overlap-add transform size: a power of two at least 16 times the
    # filter, so that most of each transform is new signal.
    return 1 << (16 * fir_length - 1).bit_length()


def _convolve_sum(sources, firs, num_samples):
    """sum_q sources[q] convolved with firs[q, m], its first num_samples, as (num_samples, channels).

    sources is (Q, num_samples) and firs (Q, channels, taps). Overlap-add:
    the sources are cut into blocks of nfft - taps + 1 samples, each block
    and every filter is transformed once, the Q sources are mixed per bin
    by one matmul, and each channel's blocks come back from one irfft. A
    block's taps - 1 sample tail overlaps the start of the next block only.
    """
    n_src, n_chan, taps = firs.shape
    nfft = _fft_size(taps)
    step = nfft - taps + 1
    n_blocks = -(-num_samples // step)
    padded = np.zeros((n_src, n_blocks * step))
    padded[:, :num_samples] = sources
    spectra = np.fft.rfft(padded.reshape(n_src, n_blocks, step), n=nfft)  # (Q, blocks, bins)
    gains = np.fft.rfft(firs, n=nfft)  # (Q, channels, bins)
    mixed = np.matmul(spectra.transpose(2, 1, 0), gains.transpose(2, 0, 1))  # (bins, blocks, channels)
    blocks = np.fft.irfft(mixed, n=nfft, axis=0)  # (nfft, blocks, channels)
    out = np.ascontiguousarray(blocks[:step].transpose(1, 0, 2))
    out[1:, : taps - 1] += blocks[step:, :-1].transpose(1, 0, 2)
    return out.reshape(-1, n_chan)[:num_samples]


def _generate_convolutive(spec, rng):
    n_chan, n_interf = spec.num_channels, spec.num_interferers
    n_samples = spec.sample_rate if spec.num_samples is None else spec.num_samples
    frac = spec.noise_fraction_effective

    # Draw order: target envelope and source, target filters, then each
    # interferer's source and filters, then the noise.
    blocks = -(-n_samples // _ENVELOPE_BLOCK)
    envelope = np.repeat(_envelope(rng, spec.target_model, blocks), _ENVELOPE_BLOCK)
    target_src = envelope[:n_samples] * rng.standard_normal(n_samples)
    target_firs = _decaying_fir(rng, (n_chan,), spec.fir_length)
    sources = np.empty((n_interf, n_samples))
    firs = np.empty((n_interf, n_chan, spec.fir_length))
    for q in range(n_interf):
        sources[q] = rng.standard_normal(n_samples)
        firs[q] = _decaying_fir(rng, (n_chan,), spec.fir_length)
    noise = rng.standard_normal((n_samples, n_chan))
    target = _convolve_sum(target_src[None], target_firs[None], n_samples)
    interference = _convolve_sum(sources, firs, n_samples)

    # Realized channel-1 energies define the scales, so the SINR is exact.
    if n_interf > 0:
        interference *= np.sqrt(
            (1.0 - frac) * n_samples / np.sum(interference[:, 0] ** 2)
        )
    noise *= np.sqrt(frac * n_samples / np.sum(noise[:, 0] ** 2))
    background = interference + noise
    target *= np.sqrt(
        _sinr_linear(spec.input_sinr_db)
        * np.sum(background[:, 0] ** 2)
        / np.sum(target[:, 0] ** 2)
    )

    mixture = target + background
    peak = np.max(np.abs(mixture))
    if peak > 0:
        gain = 0.9 / peak
        mixture *= gain
        background *= gain

    background_image = background[:, 0].copy()
    return GroundTruthScene(
        spec=spec,
        mixture=MultichannelWave(sample_rate=spec.sample_rate, samples=mixture),
        target_image=mixture[:, 0] - background_image,
        background_image=background_image,
    )


def write_tensor(path, array):
    """Raw complex tensor file: FIV1 magic, F/N/M uint32 LE, complex128 data."""
    arr = np.asarray(array, dtype=np.complex128)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    if arr.ndim != 3:
        raise ValueError("tensor must have shape (F, N) or (F, N, M)")
    with open(path, "wb") as fh:
        fh.write(TENSOR_MAGIC)
        fh.write(struct.pack("<III", *arr.shape))
        fh.write(np.ascontiguousarray(arr, dtype="<c16").tobytes())


def read_tensor(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != TENSOR_MAGIC:
        raise ValueError(f"{path}: not a tensor file (bad magic)")
    # a short header reads as an empty shape, which still needs its 16 bytes
    n_bins, n_frames, n_chan = struct.unpack_from("<III", blob, 4) if len(blob) >= 16 else (0, 0, 0)
    if len(blob) < 16 + 16 * n_bins * n_frames * n_chan:
        raise ValueError(f"{path}: truncated tensor file")
    data = np.frombuffer(blob, dtype="<c16", count=n_bins * n_frames * n_chan, offset=16)
    return data.reshape(n_bins, n_frames, n_chan).copy()


def _write_keyvalues(path, mapping):
    with open(path, "w") as fh:
        for key, value in mapping.items():
            fh.write(f"{key}={value}\n")


def read_keyvalues(path):
    out = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def _parse_value(annotation, raw):
    # annotation is int, float, str or int | None; "None" is None only where
    # the annotation admits it, and elsewhere fails to parse
    types = typing.get_args(annotation) or (annotation,)
    if raw == "None" and type(None) in types:
        return None
    return types[0](raw)


def spec_from_keyvalues(values):
    """A SceneSpec from scene.txt strings, each parsed as its field's type."""
    kwargs = {
        fld.name: _parse_value(fld.type, values[fld.name])
        for fld in fields(SceneSpec)
        if fld.name in values
    }
    return SceneSpec(**kwargs)


def read_image(path):
    """Channel 0 of an image file and its sample rate.

    (F, N) and None from a .fiv tensor, which records no rate; (T,) and the
    header's rate from a WAV.
    """
    if str(path).endswith(".fiv"):
        return read_tensor(path)[:, :, 0], None
    wave = read_wave(path)
    return wave.samples[:, 0], wave.sample_rate


def save_scene(scene, directory):
    """Serialize a scene: key-value description plus mixture and images."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    desc = {fld.name: getattr(scene.spec, fld.name) for fld in fields(SceneSpec)}
    _write_keyvalues(directory / "scene.txt", desc)
    if scene.is_spectral:
        write_tensor(directory / "mixture.fiv", scene.mixture.data)
        write_tensor(directory / "target_image.fiv", scene.target_image)
        write_tensor(directory / "background_image.fiv", scene.background_image)
    else:
        rate = scene.mixture.sample_rate
        write_wave(directory / "mixture.wav", scene.mixture, format="float32")
        write_wave(
            directory / "target_image.wav",
            MultichannelWave(rate, scene.target_image[:, None]),
            format="float32",
        )
        write_wave(
            directory / "background_image.wav",
            MultichannelWave(rate, scene.background_image[:, None]),
            format="float32",
        )


def load_scene(directory):
    """Load a serialized scene. True covariances are not serialized."""
    directory = Path(directory)
    spec = spec_from_keyvalues(read_keyvalues(directory / "scene.txt"))
    if spec.mixing == "instantaneous_per_bin":
        suffix = ".fiv"
        data = read_tensor(directory / "mixture.fiv")
        mixture = SpectralTensor(
            data=data, sample_rate=spec.sample_rate, config=tensor_config(data.shape[0])
        )
    else:
        suffix = ".wav"
        mixture = read_wave(directory / "mixture.wav")
    return GroundTruthScene(
        spec=spec,
        mixture=mixture,
        target_image=read_image(directory / f"target_image{suffix}")[0],
        background_image=read_image(directory / f"background_image{suffix}")[0],
    )
