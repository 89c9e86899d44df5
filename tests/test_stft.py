import numpy as np
import pytest

from five.stft import ShortSignalError, SpectralTensor, StftConfig, analyze, synthesize
from five.wavio import MultichannelWave


def _wave(samples, rate=16000):
    if samples.ndim == 1:
        samples = samples[:, None]
    return MultichannelWave(rate, samples)


def test_default_config():
    config = StftConfig()
    assert config.frame_size == 4096
    assert config.hop == 2048
    assert config.num_bins == 2049


def test_cola_violation_rejected():
    # hop == frame has no overlap, the window sum cannot be constant
    with pytest.raises(ValueError, match="overlap-add"):
        StftConfig(frame_size=256, hop=256)


def test_config_validation():
    with pytest.raises(ValueError):
        StftConfig(frame_size=255)
    with pytest.raises(ValueError):
        StftConfig(frame_size=256, hop=0)


def test_zero_input_gives_zero_tensor():
    spec = analyze(_wave(np.zeros(2048)), StftConfig(frame_size=512))
    assert np.all(spec.data == 0)


def test_frame_count_formula_on_aligned_length():
    config = StftConfig(frame_size=512, hop=256)
    for length in (512, 1024, 2048 + 512):
        spec = analyze(_wave(np.zeros(length)), config)
        assert spec.num_frames == (length - 512) // 256 + 1


def test_tail_padding_covers_all_samples():
    config = StftConfig(frame_size=512, hop=256)
    spec = analyze(_wave(np.ones(1000)), config)  # 1000 = 512 + 256 + 232
    assert spec.num_frames == 3
    assert spec.num_samples == 1000


def test_bin_center_cosine_concentrates_energy():
    # closed-form windowed DFT: a bin-centered cosine under the 3-term
    # periodic Hamming window leaks exactly one bin to each side
    frame = 512
    config = StftConfig(frame_size=frame)
    k0 = 37
    t = np.arange(4 * frame)
    spec = analyze(_wave(np.cos(2 * np.pi * k0 * t / frame)), config)
    mags = np.abs(spec.data[:, 1, 0])  # interior frame
    expected_peak = 0.54 * frame / 2
    expected_side = 0.23 * frame / 2
    assert abs(mags[k0] - expected_peak) <= 1e-9 * expected_peak
    assert abs(mags[k0 + 1] - expected_side) <= 1e-9 * expected_peak
    far = np.concatenate([mags[: k0 - 1], mags[k0 + 2 :]])
    assert np.max(far) <= expected_peak * 10 ** (-30 / 20)


def test_analyze_is_channelwise():
    rng = np.random.default_rng(3)
    samples = rng.standard_normal((3000, 2))
    config = StftConfig(frame_size=256)
    both = analyze(_wave(samples), config)
    for ch in range(2):
        single = analyze(_wave(samples[:, ch]), config)
        assert np.array_equal(both.data[:, :, ch], single.data[:, :, 0])


def test_dc_and_nyquist_real_for_real_input():
    rng = np.random.default_rng(4)
    spec = analyze(_wave(rng.standard_normal(4000)), StftConfig(frame_size=512))
    frame_mag = np.abs(spec.data).max()
    assert np.max(np.abs(spec.data[0].imag)) <= 1e-10 * frame_mag
    assert np.max(np.abs(spec.data[-1].imag)) <= 1e-10 * frame_mag


@pytest.mark.parametrize("channels", [1, 4])
def test_roundtrip_white_noise_interior(channels):
    rng = np.random.default_rng(5)
    samples = rng.standard_normal((6 * 512, channels))
    config = StftConfig(frame_size=512)
    back = synthesize(analyze(_wave(samples), config))
    assert back.num_samples == samples.shape[0]
    interior = slice(512, samples.shape[0] - 512)
    err = np.linalg.norm(back.samples[interior] - samples[interior])
    assert err <= 1e-6 * np.linalg.norm(samples[interior])


def test_roundtrip_pure_tone_interior():
    t = np.arange(8192)
    samples = np.sin(2 * np.pi * 440 * t / 16000)
    config = StftConfig(frame_size=1024)
    back = synthesize(analyze(_wave(samples), config))
    interior = slice(1024, len(t) - 1024)
    err = np.linalg.norm(back.samples[interior, 0] - samples[interior])
    assert err <= 1e-6 * np.linalg.norm(samples[interior])


def test_zero_tensor_synthesizes_to_zero():
    config = StftConfig(frame_size=256)
    spec = SpectralTensor(np.zeros((129, 5, 2), dtype=complex), 8000, config)
    assert np.all(synthesize(spec).samples == 0)


def test_parseval_per_frame():
    rng = np.random.default_rng(6)
    frame = 512
    config = StftConfig(frame_size=frame)
    samples = rng.standard_normal(4 * frame)
    spec = analyze(_wave(samples), config)
    win = config.window_samples()
    for n in range(spec.num_frames):
        segment = samples[n * config.hop : n * config.hop + frame] * win
        time_energy = np.sum(segment**2)
        mags = np.abs(spec.data[:, n, 0]) ** 2
        spec_energy = (mags[0] + mags[-1] + 2 * np.sum(mags[1:-1])) / frame
        assert abs(spec_energy - time_energy) <= 1e-8 * time_energy


def test_short_signal_rejected():
    with pytest.raises(ShortSignalError):
        analyze(_wave(np.zeros(100)), StftConfig(frame_size=512))


def test_tensor_validation():
    config = StftConfig(frame_size=256)
    with pytest.raises(ValueError, match="bin count"):
        SpectralTensor(np.zeros((100, 4, 1), dtype=complex), 8000, config)
    with pytest.raises(ValueError, match="finite"):
        SpectralTensor(np.full((129, 4, 1), np.nan, dtype=complex), 8000, config)
    with pytest.raises(ValueError, match="shape"):
        SpectralTensor(np.zeros((129, 4), dtype=complex), 8000, config)


def test_quarter_hop_roundtrip():
    # 75% overlap also satisfies constant overlap-add for the periodic window
    rng = np.random.default_rng(8)
    samples = rng.standard_normal(4096)
    config = StftConfig(frame_size=512, hop=128)
    back = synthesize(analyze(_wave(samples), config))
    interior = slice(512, 4096 - 512)
    err = np.linalg.norm(back.samples[interior, 0] - samples[interior])
    assert err <= 1e-6 * np.linalg.norm(samples[interior])


def test_odd_length_roundtrip_preserves_length():
    rng = np.random.default_rng(7)
    samples = rng.standard_normal(3001)
    config = StftConfig(frame_size=512)
    back = synthesize(analyze(_wave(samples), config))
    assert back.num_samples == 3001
    interior = slice(512, 3001 - 512)
    err = np.linalg.norm(back.samples[interior, 0] - samples[interior])
    assert err <= 1e-6 * np.linalg.norm(samples[interior])
