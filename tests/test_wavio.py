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


def _riff(*chunks):
    body = b"WAVE" + b"".join(struct.pack("<4sI", cid, len(payload)) + payload for cid, payload in chunks)
    return b"RIFF" + struct.pack("<I", len(body)) + body


def test_missing_chunk_reported(tmp_path):
    good = _wav_bytes(struct.pack("<h", 1))
    fmt, data = good[20:36], struct.pack("<h", 1)
    path = tmp_path / "one_chunk.wav"
    for chunks in ([(b"fmt ", fmt)], [(b"data", data)], [(b"LIST", b"info"), (b"data", data)]):
        path.write_bytes(_riff(*chunks))
        with pytest.raises(TruncatedWaveError, match="missing fmt or data chunk"):
            read_wave(path)


def test_short_fmt_chunk_reported(tmp_path):
    path = tmp_path / "short_fmt.wav"
    path.write_bytes(_riff((b"fmt ", struct.pack("<HHI", 1, 1, 8000)), (b"data", b"\x00\x00")))
    with pytest.raises(TruncatedWaveError, match=r"fmt chunk too short \(8 bytes\)"):
        read_wave(path)


@pytest.mark.parametrize("channels, rate", [(0, 8000), (1, 0)])
def test_invalid_fmt_fields_reported(tmp_path, channels, rate):
    path = tmp_path / "fields.wav"
    path.write_bytes(_wav_bytes(b"\x00\x00", channels=channels, rate=rate))
    with pytest.raises(WaveFormatError, match="invalid fmt fields"):
        read_wave(path)


@pytest.mark.parametrize("payload, channels", [(b"\x00\x00\x00", 1), (struct.pack("<3h", 1, 2, 3), 2)])
def test_partial_frame_data_chunk_reported(tmp_path, payload, channels):
    # 3 bytes of 16-bit mono, or 3 samples of stereo: not a whole number of frames
    path = tmp_path / "partial.wav"
    path.write_bytes(_wav_bytes(payload, channels=channels))
    with pytest.raises(TruncatedWaveError, match="not a whole number of frames"):
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


@pytest.mark.parametrize(
    "rate, channels, format, field",
    [
        (2**32, 1, "float32", "sample rate"),
        (2**29, 3, "float32", "byte rate"),  # 2**29 * 3 * 4 bytes per second
        (2**31, 1, "pcm16", "byte rate"),
        (8000, 2**16, "pcm16", "channel count"),
        (8000, 2**14, "float32", "block align"),  # 2**14 * 4 bytes per frame
    ],
)
def test_write_wave_names_a_header_field_too_small_for_its_value(tmp_path, rate, channels, format, field):
    # each died in struct.pack; the check runs before the file is opened
    path = tmp_path / "big.wav"
    with pytest.raises(ValueError, match=f"^{field} "):
        write_wave(path, MultichannelWave(rate, np.zeros((1, channels))), format=format)
    assert not path.exists()


def test_write_wave_takes_the_largest_byte_rate_its_header_holds(tmp_path):
    path = tmp_path / "edge.wav"
    write_wave(path, MultichannelWave(2**31 - 1, np.zeros((2, 1))), format="pcm16")  # 2**32 - 2 bytes per second
    assert read_wave(path).sample_rate == 2**31 - 1
