import struct

import numpy as np
import pytest

import oracles
from five import core, scenes
from five.core import (
    ContrastModel,
    DemixingState,
    apply_demixing,
    five_iteration,
    prewhiten,
)
from five.scenes import (
    GroundTruthScene,
    SceneSpec,
    generate_scene,
    load_scene,
    read_image,
    read_tensor,
    save_scene,
    spec_from_keyvalues,
    write_tensor,
)
from five.wavio import MultichannelWave, write_wave
from oracles import beamformer_sinr, oracle_max_sinr


def _spec(**kw):
    base = dict(num_channels=3, num_bins=16, num_frames=400, seed=5)
    base.update(kw)
    return SceneSpec(**base)


# ---------------------------------------------------------------- generation


def test_same_seed_is_bit_identical():
    a = generate_scene(_spec())
    b = generate_scene(_spec())
    assert np.array_equal(a.mixture.data, b.mixture.data)
    assert np.array_equal(a.target_image, b.target_image)
    assert np.array_equal(a.true_background_covariance, b.true_background_covariance)


def test_different_seed_differs():
    a = generate_scene(_spec(seed=1))
    b = generate_scene(_spec(seed=2))
    assert not np.array_equal(a.mixture.data, b.mixture.data)


def test_no_interferers_gives_white_background_covariance():
    scene = generate_scene(_spec(num_interferers=0, uncorrelated_noise_fraction=1.0))
    eye = np.broadcast_to(np.eye(3), (16, 3, 3))
    assert np.array_equal(scene.true_background_covariance, eye * 1.0)


def test_additivity_is_exact():
    scene = generate_scene(_spec())
    recovered = scene.mixture.data[:, :, 0] - scene.background_image
    assert np.array_equal(recovered, scene.target_image)


@pytest.mark.parametrize("model", ["laplace_modulated", "gauss_timevarying"])
def test_measured_sinr_matches_request(model):
    scene = generate_scene(
        _spec(num_frames=10000, target_model=model, input_sinr_db=5.0)
    )
    measured = 10 * np.log10(
        np.sum(np.abs(scene.target_image) ** 2)
        / np.sum(np.abs(scene.background_image) ** 2)
    )
    assert abs(measured - 5.0) <= 0.3  # realized scaling makes this ~1e-13


def test_mixture_covariance_converges_to_truth():
    scene = generate_scene(_spec(num_bins=4, num_frames=20000, seed=11))
    data = scene.mixture.data
    truth = scene.true_target_covariance + scene.true_background_covariance
    for f in range(4):
        emp = data[f].T @ np.conj(data[f]) / data.shape[1]
        err = np.linalg.norm(emp - truth[f]) / np.linalg.norm(truth[f])
        assert err <= 0.1


def test_channel1_background_power_matches_truth():
    scene = generate_scene(_spec(num_bins=8, num_frames=20000, seed=12))
    emp = np.mean(np.abs(scene.background_image) ** 2)
    truth = np.mean(np.real(scene.true_background_covariance[:, 0, 0]))
    assert abs(emp - truth) <= 0.1 * truth


def test_target_activity_invariant_to_bin_permutation():
    scene = generate_scene(_spec(seed=13))
    rng = np.random.default_rng(0)
    permuted = scene.target_image[rng.permutation(16)]
    r0 = np.sqrt(np.sum(np.abs(scene.target_image) ** 2, axis=0))
    r1 = np.sqrt(np.sum(np.abs(permuted) ** 2, axis=0))
    assert np.allclose(r0, r1, rtol=1e-12)


def test_spec_validation():
    with pytest.raises(ValueError):
        _spec(num_channels=0)
    with pytest.raises(ValueError):
        _spec(num_frames=2)  # fewer frames than channels
    with pytest.raises(ValueError):
        _spec(target_model="impulsive")
    with pytest.raises(ValueError):
        _spec(mixing="anechoic")
    with pytest.raises(ValueError):
        _spec(uncorrelated_noise_fraction=1.5)
    with pytest.raises(ValueError):
        generate_scene(SceneSpec(num_channels=1, num_bins=1, num_frames=4))


@pytest.mark.parametrize("num_samples", [0, -5])
def test_spec_rejects_nonpositive_num_samples(num_samples):
    with pytest.raises(ValueError, match="num_samples"):
        _spec(mixing="convolutive_fir", num_samples=num_samples)


# ---------------------------------------------------------------- oracle beamformer


def test_oracle_matched_filter_for_white_background():
    rng = np.random.default_rng(20)
    n_bins, n_chan = 6, 4
    mixing = rng.standard_normal((n_bins, n_chan)) + 1j * rng.standard_normal((n_bins, n_chan))
    mixing /= np.linalg.norm(mixing, axis=1, keepdims=True)
    cov_t = 3.0 * mixing[:, :, None] * np.conj(mixing[:, None, :])
    cov_b = np.broadcast_to(np.eye(n_chan, dtype=complex), (n_bins, n_chan, n_chan)).copy()
    scene = GroundTruthScene(
        spec=_spec(num_channels=n_chan),
        mixture=None,
        target_image=None,
        background_image=None,
        true_target_covariance=cov_t,
        true_background_covariance=cov_b,
    )
    w = oracle_max_sinr(scene)
    for f in range(n_bins):
        cos = abs(np.vdot(w[f], mixing[f])) / (np.linalg.norm(w[f]) * np.linalg.norm(mixing[f]))
        assert cos >= 1.0 - 1e-10


def test_oracle_matches_closed_form_2x2():
    rng = np.random.default_rng(21)
    n_bins = 5
    cov_t = np.empty((n_bins, 2, 2), dtype=complex)
    cov_b = np.empty((n_bins, 2, 2), dtype=complex)
    for f in range(n_bins):
        x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        cov_t[f] = x @ x.conj().T + 0.1 * np.eye(2)
        y = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        cov_b[f] = y @ y.conj().T + 0.5 * np.eye(2)
    scene = GroundTruthScene(
        spec=_spec(num_channels=2),
        mixture=None,
        target_image=None,
        background_image=None,
        true_target_covariance=cov_t,
        true_background_covariance=cov_b,
    )
    w = oracle_max_sinr(scene)
    for f in range(n_bins):
        c = cov_t[f] + cov_b[f]
        b = cov_b[f]
        # det(C - lambda B) = 0 expanded to a quadratic in lambda
        qa = np.real(b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0])
        qb = -np.real(
            c[0, 0] * b[1, 1] + c[1, 1] * b[0, 0] - c[0, 1] * b[1, 0] - c[1, 0] * b[0, 1]
        )
        qc = np.real(c[0, 0] * c[1, 1] - c[0, 1] * c[1, 0])
        top = (-qb + np.sqrt(qb * qb - 4 * qa * qc)) / (2 * qa)
        row = (c - top * b)[0]
        closed = np.array([row[1], -row[0]])
        if np.linalg.norm(closed) < 1e-12:
            row = (c - top * b)[1]
            closed = np.array([row[1], -row[0]])
        cos = abs(np.vdot(w[f], closed)) / (np.linalg.norm(w[f]) * np.linalg.norm(closed))
        assert cos >= 1.0 - 1e-10


def test_oracle_dominates_random_probes_and_five():
    scene = generate_scene(_spec(num_channels=3, seed=22))
    w_oracle = oracle_max_sinr(scene)
    sinr_oracle = beamformer_sinr(
        w_oracle, scene.true_target_covariance, scene.true_background_covariance
    )

    rng = np.random.default_rng(0)
    probes = rng.standard_normal((1000, 3)) + 1j * rng.standard_normal((1000, 3))
    probes /= np.linalg.norm(probes, axis=1, keepdims=True)
    num = np.real(
        np.einsum("pm,fmk,pk->fp", np.conj(probes), scene.true_target_covariance, probes)
    )
    den = np.real(
        np.einsum("pm,fmk,pk->fp", np.conj(probes), scene.true_background_covariance, probes)
    )
    assert np.all(num / den <= sinr_oracle[:, None] * (1 + 1e-9))

    data = scene.mixture.data
    whiteners = prewhiten(core._covariance_stack(data))
    contrast = ContrastModel("gauss", num_bins=16)
    w0 = np.zeros((16, 3), dtype=complex)
    w0[:, 0] = 1.0
    state = DemixingState(whiteners, w0, core._activity(apply_demixing(whiteners[:, :, 0], data)))
    for _ in range(10):
        state = five_iteration(state, data, contrast)
    w_five = (whiteners @ state.w[:, :, None])[:, :, 0]  # back to input coordinates
    sinr_five = beamformer_sinr(
        w_five, scene.true_target_covariance, scene.true_background_covariance
    )
    assert np.all(sinr_five <= sinr_oracle * (1 + 1e-9))


def test_oracle_requires_true_covariances():
    scene = generate_scene(_spec(mixing="convolutive_fir", num_samples=4000))
    with pytest.raises(ValueError, match="covariances"):
        oracle_max_sinr(scene)


# ---------------------------------------------------------------- convolutive mode


def test_convolutive_scene_shapes_and_additivity():
    spec = _spec(num_channels=2, mixing="convolutive_fir", num_samples=8000, seed=3)
    scene = generate_scene(spec)
    assert not scene.is_spectral
    assert scene.mixture.samples.shape == (8000, 2)
    assert scene.target_image.shape == (8000,)
    recovered = scene.mixture.samples[:, 0] - scene.background_image
    assert np.array_equal(recovered, scene.target_image)
    assert np.max(np.abs(scene.mixture.samples)) <= 0.9 + 1e-12
    assert scene.true_background_covariance is None


def test_convolutive_sinr_and_determinism():
    spec = _spec(num_channels=2, mixing="convolutive_fir", num_samples=16000, seed=4)
    a = generate_scene(spec)
    b = generate_scene(spec)
    assert np.array_equal(a.mixture.samples, b.mixture.samples)
    measured = 10 * np.log10(
        np.sum(a.target_image**2) / np.sum(a.background_image**2)
    )
    assert abs(measured - 5.0) <= 0.3


def test_convolutive_default_length_is_one_second():
    spec = _spec(num_channels=2, mixing="convolutive_fir", sample_rate=8000)
    assert generate_scene(spec).mixture.num_samples == 8000


def _relative_error(actual, expected):
    return np.max(np.abs(actual - expected)) / np.max(np.abs(expected))


@pytest.mark.parametrize("fir_length", [1, 256, 5000])
@pytest.mark.parametrize("blocks", ["shorter_than_one", "exact_multiple", "ragged_tail"])
def test_overlap_add_matches_direct_convolution(fir_length, blocks):
    step = scenes._fft_size(fir_length) - fir_length + 1
    num_samples = {
        "shorter_than_one": step // 2 + 1,
        "exact_multiple": 2 * step,
        "ragged_tail": 2 * step + step // 3 + 1,
    }[blocks]
    rng = np.random.default_rng(1234)
    sources = rng.standard_normal((2, num_samples))
    firs = rng.standard_normal((2, 2, fir_length))
    actual = scenes._convolve_sum(sources, firs, num_samples)
    assert actual.shape == (num_samples, 2)
    assert _relative_error(actual, oracles.convolve_sum(sources, firs, num_samples)) <= 1e-14


def test_convolutive_scene_matches_direct_convolution_draw_for_draw():
    # a reference that draws in the documented order and convolves directly
    # pins both the draw order and the overlap-add images
    spec = _spec(num_channels=2, mixing="convolutive_fir", num_samples=8000, seed=11)
    scene = generate_scene(spec)
    mixture, target, background = oracles.convolutive_scene(spec)
    assert _relative_error(scene.mixture.samples, mixture) <= 1e-13
    assert _relative_error(scene.target_image, target) <= 1e-13
    assert _relative_error(scene.background_image, background) <= 1e-13


# ---------------------------------------------------------------- serialization


def test_tensor_file_format_contract(tmp_path):
    rng = np.random.default_rng(30)
    arr = rng.standard_normal((3, 5, 2)) + 1j * rng.standard_normal((3, 5, 2))
    path = tmp_path / "t.fiv"
    write_tensor(path, arr)
    blob = path.read_bytes()
    assert blob[:4] == b"FIV1"
    assert struct.unpack_from("<III", blob, 4) == (3, 5, 2)
    flat = np.frombuffer(blob[16:], dtype="<f8")
    assert flat[0] == arr[0, 0, 0].real and flat[1] == arr[0, 0, 0].imag
    assert np.array_equal(read_tensor(path), arr)


def test_tensor_file_errors(tmp_path):
    bad = tmp_path / "bad.fiv"
    bad.write_bytes(b"WAVE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        read_tensor(bad)
    short = tmp_path / "short.fiv"
    short.write_bytes(b"FIV1" + struct.pack("<III", 4, 4, 4))
    with pytest.raises(ValueError, match="truncated"):
        read_tensor(short)
    for size in (4, 6, 15):  # the header is the magic and three uint32 sizes
        short.write_bytes((b"FIV1" + struct.pack("<III", 1, 1, 1))[:size])
        with pytest.raises(ValueError, match="truncated tensor file"):
            read_tensor(short)


def test_spectral_scene_roundtrip(tmp_path):
    scene = generate_scene(_spec(seed=31))
    save_scene(scene, tmp_path / "scene")
    loaded = load_scene(tmp_path / "scene")
    assert loaded.spec == scene.spec
    assert np.array_equal(loaded.mixture.data, scene.mixture.data)
    assert np.array_equal(loaded.target_image, scene.target_image)
    assert np.array_equal(loaded.background_image, scene.background_image)


def test_convolutive_scene_roundtrip(tmp_path):
    scene = generate_scene(_spec(num_channels=2, mixing="convolutive_fir", num_samples=4000))
    save_scene(scene, tmp_path / "scene")
    loaded = load_scene(tmp_path / "scene")
    assert not loaded.is_spectral
    assert np.allclose(loaded.mixture.samples, scene.mixture.samples, atol=1e-7)
    assert np.allclose(loaded.target_image, scene.target_image, atol=1e-7)


def test_scene_files_byte_identical_across_saves(tmp_path):
    for name in ("a", "b"):
        save_scene(generate_scene(_spec(seed=32)), tmp_path / name)
    for fname in ("scene.txt", "mixture.fiv", "target_image.fiv", "background_image.fiv"):
        assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()


def test_spec_keyvalue_roundtrip():
    spec = _spec(num_samples=1234, input_sinr_db=-2.5)
    values = {name: str(getattr(spec, name)) for name in spec.__dataclass_fields__}
    assert spec_from_keyvalues(values) == spec


def test_spec_keyvalues_none_only_where_the_field_admits_it():
    values = {"num_channels": "3", "num_samples": "None"}
    assert spec_from_keyvalues(values).num_samples is None
    with pytest.raises(ValueError):
        spec_from_keyvalues({**values, "seed": "None"})


def test_read_image_takes_channel_0(tmp_path):
    rng = np.random.default_rng(33)
    tensor = rng.standard_normal((5, 7, 3)) + 1j * rng.standard_normal((5, 7, 3))
    write_tensor(tmp_path / "t.fiv", tensor)
    image, rate = read_image(tmp_path / "t.fiv")
    assert image.shape == (5, 7)
    assert np.array_equal(image, tensor[:, :, 0])
    assert rate is None

    samples = rng.uniform(-0.5, 0.5, (300, 2))
    write_wave(tmp_path / "w.wav", MultichannelWave(8000, samples), format="float32")
    image, rate = read_image(tmp_path / "w.wav")
    assert image.shape == (300,)
    assert np.array_equal(image, samples[:, 0].astype(np.float32))
    assert rate == 8000
