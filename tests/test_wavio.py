import struct

import numpy as np
import pytest

from five.wavio import (
    MultichannelWave,
    TruncatedWaveError,
    WaveFormatError,
    read_wave,
    write_wave,
)


def _wav_bytes(payload, code=1, channels=1, rate=8000, bits=16):
    width = bits // 8
    return struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + len(payload),
        b"WAVE",
        b"fmt ",
        16,
        code,
        channels,
        rate,
        rate * channels * width,
        channels * width,
        bits,
        b"data",
        len(payload),
    ) + payload


def test_pcm16_scaling_single_sample(tmp_path):
    # hand-assembled one-sample file holding 16384, expect 0.5
    path = tmp_path / "one.wav"
    path.write_bytes(_wav_bytes(struct.pack("<h", 16384)))
    wave = read_wave(path)
    assert wave.sample_rate == 8000
    assert wave.channels == 1
    assert abs(wave.samples[0, 0] - 0.5) < 1e-4


def test_float32_zero_channel_reads_exactly_zero(tmp_path):
    rng = np.random.default_rng(0)
    samples = np.stack([np.zeros(64), rng.uniform(-1, 1, 64)], axis=1)
    path = tmp_path / "two.wav"
    write_wave(path, MultichannelWave(16000, samples), format="float32")
    back = read_wave(path)
    assert np.all(back.samples[:, 0] == 0.0)


def test_float32_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    samples = rng.uniform(-1, 1, (300, 4)).astype(np.float32).astype(np.float64)
    path = tmp_path / "four.wav"
    clipped = write_wave(path, MultichannelWave(48000, samples), format="float32")
    back = read_wave(path)
    assert clipped == 0
    assert back.sample_rate == 48000
    assert np.max(np.abs(back.samples - samples)) == 0.0


def test_pcm16_full_scale_within_quantization(tmp_path):
    path = tmp_path / "full.wav"
    write_wave(path, MultichannelWave(8000, np.array([[1.0]])), format="pcm16")
    assert abs(read_wave(path).samples[0, 0] - 1.0) <= 2.0**-15


def test_pcm16_quantization_bound(tmp_path):
    rng = np.random.default_rng(2)
    samples = rng.uniform(-1, 1, (500, 8))
    path = tmp_path / "eight.wav"
    write_wave(path, MultichannelWave(16000, samples), format="pcm16")
    back = read_wave(path)
    assert np.max(np.abs(back.samples - samples)) <= 2.0**-15


def test_pcm16_clipping_counted(tmp_path):
    samples = np.array([[0.5], [1.5], [-2.0], [1.0]])
    path = tmp_path / "clip.wav"
    clipped = write_wave(path, MultichannelWave(8000, samples), format="pcm16")
    assert clipped == 2
    back = read_wave(path)
    assert abs(back.samples[1, 0] - 1.0) <= 2.0**-15
    assert abs(back.samples[2, 0] + 1.0) <= 2.0**-15


def test_channel_order_preserved(tmp_path):
    # channel-indexed ramps must come back on the same channels
    ramps = np.arange(40, dtype=np.float64)[:, None] / 100.0 + np.arange(6) / 10.0
    path = tmp_path / "ramps.wav"
    write_wave(path, MultichannelWave(8000, ramps), format="float32")
    back = read_wave(path)
    assert np.allclose(back.samples, ramps.astype(np.float32), atol=0)


def test_missing_file_reported():
    with pytest.raises(FileNotFoundError):
        read_wave("/nonexistent/never.wav")


def test_unsupported_codec_reported(tmp_path):
    path = tmp_path / "alaw.wav"
    path.write_bytes(_wav_bytes(b"\x00\x00", code=6, bits=8))
    with pytest.raises(WaveFormatError, match="unsupported codec"):
        read_wave(path)


def test_not_riff_reported(tmp_path):
    path = tmp_path / "junk.wav"
    path.write_bytes(b"OggS" + b"\x00" * 40)
    with pytest.raises(WaveFormatError, match="not a RIFF"):
        read_wave(path)


def test_truncated_chunk_reported(tmp_path):
    good = _wav_bytes(struct.pack("<4h", 1, 2, 3, 4))
    path = tmp_path / "cut.wav"
    path.write_bytes(good[:-3])  # data chunk now shorter than declared
    with pytest.raises(TruncatedWaveError):
        read_wave(path)


def test_wave_invariants():
    with pytest.raises(ValueError):
        MultichannelWave(0, np.zeros((4, 1)))
    with pytest.raises(ValueError):
        MultichannelWave(8000, np.array([np.nan])[:, None])
    with pytest.raises(ValueError):
        MultichannelWave(8000, np.zeros(4))  # not 2-D


def test_unknown_write_format(tmp_path):
    with pytest.raises(ValueError, match="unknown format"):
        write_wave(tmp_path / "x.wav", MultichannelWave(8000, np.zeros((4, 1))), format="mp3")


def test_sample_rate_must_be_an_integer(tmp_path):
    # a float rate made write_wave die in struct.pack, and True wrote a 1 Hz file
    for rate in (16000.5, np.float64(16000.0), True):
        with pytest.raises(ValueError, match="sample_rate must be a positive integer"):
            MultichannelWave(rate, np.zeros((4, 1)))
    path = tmp_path / "rate.wav"
    write_wave(path, MultichannelWave(np.int64(16000), np.zeros((4, 1))))
    assert read_wave(path).sample_rate == 16000
