import numpy as np
import pytest

from five import stft
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


def test_accepted_hops_divide_the_frame():
    # synthesize overlap-adds in hop-sized blocks, which needs hop | frame.
    # The numerical window-sum check that the divisibility rule replaced was
    # swept against the rule over all even frames up to 4096 (exhaustive up to
    # 1024; above that every divisor plus the 64 smallest and 64 largest hops):
    # 22,564 accepted pairs, 0 mismatches. This covers frames up to 128 and
    # the sizes in use.
    for frame in [*range(2, 129, 2), 512, 1024, 4096]:
        for hop in range(1, frame + 1):
            try:
                StftConfig(frame_size=frame, hop=hop)
            except ValueError:
                continue
            assert frame % hop == 0, (frame, hop)


def test_cola_check_matches_overlap_add_loop():
    # reference: overlap-add the window over 4 frames, read the interior
    def loop_accepts(frame, hop):
        win = StftConfig(frame_size=frame).window_samples()
        ola = np.zeros(5 * frame)
        for start in range(0, 4 * frame, hop):
            ola[start : start + frame] += win
        interior = ola[frame : 3 * frame]
        level = interior.mean()
        return level > 0 and np.max(np.abs(interior - level)) <= 1e-10 * level

    for frame in range(2, 65, 2):
        for hop in range(1, frame + 1):
            try:
                StftConfig(frame_size=frame, hop=hop)
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == loop_accepts(frame, hop), (frame, hop)


def test_config_validation():
    with pytest.raises(ValueError):
        StftConfig(frame_size=255)
    with pytest.raises(ValueError):
        StftConfig(frame_size=256, hop=0)
    config = StftConfig(frame_size=np.int64(256), hop=np.int32(64))
    assert (config.frame_size, config.hop, config.num_bins) == (256, 64, 129)


@pytest.mark.parametrize(
    "settings",
    [{"frame_size": 512.0}, {"frame_size": True}, {"frame_size": "512"}, {"hop": True}, {"hop": 128.0},
     {"hop": np.True_}],
    ids=["float_frame", "bool_frame", "string_frame", "bool_hop", "float_hop", "numpy_bool_hop"],
)
def test_config_rejects_sizes_that_are_not_integers(settings):
    # a float frame would fail in analyze with a TypeError, and True would be a hop of 1
    with pytest.raises(ValueError, match="integer"):
        StftConfig(**{"frame_size": 256, **settings})


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


def test_analyze_matches_per_frame_rfft_in_contiguous_layout():
    rng = np.random.default_rng(9)
    samples = rng.standard_normal((1500, 3))
    config = StftConfig(frame_size=256, hop=64)
    spec = analyze(_wave(samples), config)
    assert spec.data.flags.c_contiguous
    padded = np.concatenate([samples, np.zeros((64 * (spec.num_frames - 1) + 256 - 1500, 3))])
    for n in range(spec.num_frames):
        segment = padded[n * 64 : n * 64 + 256].T * config.window_samples()
        assert np.array_equal(spec.data[:, n, :], np.fft.rfft(segment, axis=-1).T)


def _rfft_by_frame(samples, config):
    # reference: zero-pad the tail, then window and transform one frame at a time
    frame, hop = config.frame_size, config.hop
    n_frames = 1 + -(-(samples.shape[0] - frame) // hop)
    padded = np.zeros(((n_frames - 1) * hop + frame, samples.shape[1]))
    padded[: samples.shape[0]] = samples
    out = np.empty((config.num_bins, n_frames, samples.shape[1]), dtype=complex)
    for n in range(n_frames):
        out[:, n, :] = np.fft.rfft(padded[n * hop : n * hop + frame].T * config.window_samples(), axis=-1).T
    return out


@pytest.mark.parametrize("frame, hop", [(512, 256), (256, 64), (4096, 2048)])
@pytest.mark.parametrize("channels", [1, 3, 8])
def test_analyze_blocks_match_per_frame_rfft(channels, frame, hop):
    # several blocks of frames and a partial last one (unless a block is one
    # frame), a zero-padded tail, and a signal of exactly one frame
    config = StftConfig(frame_size=frame, hop=hop)
    step = max(1, stft._BLOCK_BYTES // (16 * config.num_bins * channels))
    n_frames = 2 * step + max(1, step // 2)
    rng = np.random.default_rng(channels * frame + hop)
    for length in ((n_frames - 1) * hop + frame - hop // 3, frame):
        samples = rng.standard_normal((length, channels))
        spec = analyze(_wave(samples), config)
        assert spec.data.flags.c_contiguous
        assert np.array_equal(spec.data, _rfft_by_frame(samples, config))
    assert spec.num_frames == 1


@pytest.mark.parametrize("frame", [16, 512])
def test_analyze_quarter_hop_tails_match_per_frame_rfft(frame):
    # hop = frame/4: the signal's last frame of samples spans four frames, and
    # the last of them may run past the end by 1 to hop - 1 samples; lengths
    # from one frame to a few, at every kind of remainder
    hop = frame // 4
    config = StftConfig(frame_size=frame, hop=hop)
    rng = np.random.default_rng(frame + 4)
    for frames_in in range(1, 6):
        for extra in sorted({0, 1, hop // 2, hop - 1}):
            samples = rng.standard_normal(((frames_in - 1) * hop + frame + extra, 2))
            spec = analyze(_wave(samples), config)
            assert spec.num_frames == frames_in + (extra > 0)
            assert np.array_equal(spec.data, _rfft_by_frame(samples, config))


def test_analyze_rejects_spectra_that_overflow():
    # finite samples near the float64 limit sum to inf in the transform, so
    # SpectralTensor's finiteness check on analyze's output is not redundant
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="finite"):
        analyze(_wave(np.full((4096, 2), 1e308)), StftConfig(frame_size=512))


def _overlap_add_by_frame(spec):
    # reference: one frame at a time, in frame order
    frame, hop = spec.config.frame_size, spec.config.hop
    win = spec.config.window_samples()
    time_frames = np.fft.irfft(spec.data, n=frame, axis=0) * win[:, None, None]
    total = (spec.num_frames - 1) * hop + frame
    out = np.zeros((total, spec.num_channels))
    weight = np.zeros(total)
    for n in range(spec.num_frames):
        out[n * hop : n * hop + frame] += time_frames[:, n, :]
        weight[n * hop : n * hop + frame] += win * win
    return (out / weight[:, None])[: spec.num_samples]


@pytest.mark.parametrize("hop", [256, 128, 64])
def test_synthesize_matches_frame_by_frame_overlap_add(hop):
    # same additions in the same order, so equal to the last bit
    rng = np.random.default_rng(10)
    spec = analyze(_wave(rng.standard_normal((3001, 2))), StftConfig(frame_size=512, hop=hop))
    spec.data = spec.data * rng.uniform(0.5, 2.0, spec.data.shape)  # not a plain round trip
    assert np.array_equal(synthesize(spec).samples, _overlap_add_by_frame(spec))


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


@pytest.mark.parametrize("rate", [-5, 0, 8000.0, True, "8000"])
def test_tensor_rejects_a_sample_rate_that_is_not_a_positive_integer(rate):
    # MultichannelWave rejects a rate that is not positive, and synthesize builds one from this rate
    with pytest.raises(ValueError, match="sample_rate"):
        SpectralTensor(np.zeros((129, 4, 1), dtype=complex), rate, StftConfig(frame_size=256))


@pytest.mark.parametrize("num_samples", [-5, 0, 353, 1000, 100.0, True, "100"])
def test_tensor_rejects_a_num_samples_that_synthesis_cannot_honour(num_samples):
    # 10 frames of 64 at hop 32 overlap-add to 352 samples: synthesize would
    # return fewer samples than asked for, or drop some from the end, or fail
    with pytest.raises(ValueError, match="num_samples"):
        SpectralTensor(np.zeros((33, 10, 1), dtype=complex), 8000, StftConfig(frame_size=64), num_samples)


@pytest.mark.parametrize("num_samples", [None, 1, 300, 352])
def test_tensor_synthesizes_the_num_samples_it_accepts(num_samples):
    spec = SpectralTensor(np.ones((33, 10, 1), dtype=complex), 8000, StftConfig(frame_size=64), num_samples)
    assert synthesize(spec).num_samples == (352 if num_samples is None else num_samples)


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
