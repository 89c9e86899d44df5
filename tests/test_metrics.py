import numpy as np
import pytest

from five.metrics import CAP_DB, evaluate_extraction, si_sdr, si_sir
from five.scenes import SceneSpec, generate_scene


def _orthogonalize(noise, signal):
    return noise - (noise @ signal) / (signal @ signal) * signal


# ---------------------------------------------------------------- si_sdr


def test_exact_match_hits_cap():
    rng = np.random.default_rng(0)
    s = rng.standard_normal(256)
    assert si_sdr(s, s) == CAP_DB


def test_scaled_copy_hits_cap():
    rng = np.random.default_rng(1)
    s = rng.standard_normal(256)
    assert si_sdr(0.5 * s, s) == CAP_DB


def test_orthogonal_noise_closed_form():
    # noise at 1/100 of the reference energy, orthogonal: exactly 20 dB
    rng = np.random.default_rng(2)
    s = rng.standard_normal(4096)
    n = _orthogonalize(rng.standard_normal(4096), s)
    n *= np.linalg.norm(s) / (10.0 * np.linalg.norm(n))
    assert si_sdr(s + n, s) == pytest.approx(20.0, abs=1e-9)


@pytest.mark.parametrize("scale", [0.5, 2.0, -0.25, 1024.0, -1.0])
def test_scale_invariance_exact(scale):
    # power-of-two scales commute with IEEE arithmetic, so equality is exact
    rng = np.random.default_rng(3)
    s = rng.standard_normal(512)
    e = s + 0.3 * rng.standard_normal(512)
    assert si_sdr(scale * e, s) == si_sdr(e, s)


def test_scale_invariance_generic():
    rng = np.random.default_rng(4)
    s = rng.standard_normal(512)
    e = s + 0.3 * rng.standard_normal(512)
    base = si_sdr(e, s)
    for c in (0.3, 7.7, -3.3, 1e6, 1e-6):
        assert si_sdr(c * e, s) == pytest.approx(base, abs=1e-9)


def test_monotone_degradation():
    rng = np.random.default_rng(5)
    s = rng.standard_normal(1024)
    n = _orthogonalize(rng.standard_normal(1024), s)
    n /= np.linalg.norm(n)
    values = [si_sdr(s + g * n, s) for g in (0.01, 0.1, 0.5, 1.0, 5.0)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_zero_reference_rejected():
    with pytest.raises(ValueError, match="reference"):
        si_sdr(np.ones(8), np.zeros(8))


def test_zero_estimate_hits_negative_cap():
    assert si_sdr(np.zeros(8), np.ones(8)) == -CAP_DB


def test_length_mismatch_rejected():
    with pytest.raises(ValueError, match="length"):
        si_sdr(np.ones(8), np.ones(9))


def test_complex_inputs_viewed_as_real():
    rng = np.random.default_rng(6)
    s = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    assert si_sdr(s, s) == CAP_DB
    assert si_sdr((1.0 + 0.0j) * 2 * s, s) == CAP_DB


# ---------------------------------------------------------------- si_sir


def test_sir_pure_target_hits_cap():
    rng = np.random.default_rng(7)
    t = rng.standard_normal(128)
    b = rng.standard_normal(128)  # need not be orthogonal to t
    assert si_sir(t, t, b) == CAP_DB


def test_sir_equal_energy_orthogonal_is_zero_db():
    rng = np.random.default_rng(8)
    t = rng.standard_normal(256)
    b = _orthogonalize(rng.standard_normal(256), t)
    b *= np.linalg.norm(t) / np.linalg.norm(b)
    assert si_sir(t + b, t, b) == pytest.approx(0.0, abs=1e-9)


def test_sir_pure_background_hits_negative_cap():
    rng = np.random.default_rng(9)
    t = rng.standard_normal(256)
    b = _orthogonalize(rng.standard_normal(256), t)
    assert si_sir(b, t, b) == -CAP_DB


def test_sir_zero_images_rejected():
    with pytest.raises(ValueError, match="images"):
        si_sir(np.ones(8), np.zeros(8), np.ones(8))


# ---------------------------------------------------------------- evaluate_extraction


def _scene(**kw):
    base = dict(num_channels=3, num_bins=16, num_frames=300, seed=40)
    base.update(kw)
    return generate_scene(SceneSpec(**base))


def test_unprocessed_channel_has_zero_deltas():
    scene = _scene()
    report = evaluate_extraction(scene, scene.mixture.data[:, :, 0])
    assert report.delta_si_sdr_db == pytest.approx(0.0, abs=1e-9)
    assert report.delta_si_sir_db == pytest.approx(0.0, abs=1e-9)


def test_perfect_extraction_delta_is_cap_minus_input():
    scene = _scene()
    report = evaluate_extraction(scene, scene.target_image)
    assert report.si_sdr_db == CAP_DB
    assert report.delta_si_sdr_db == pytest.approx(CAP_DB - report.input_si_sdr_db, abs=1e-9)


def test_matches_independent_recomputation():
    # recompute every formula from scratch on the raw arrays
    scene = _scene(seed=41)
    rng = np.random.default_rng(42)
    estimate = scene.target_image + 0.1 * (
        rng.standard_normal(scene.target_image.shape)
        + 1j * rng.standard_normal(scene.target_image.shape)
    )
    report = evaluate_extraction(scene, estimate)

    def as_real(z):
        return np.concatenate([np.asarray(z).real.ravel(), np.asarray(z).imag.ravel()])

    def sdr(e, s):
        a = (e @ s) / (s @ s)
        return 10 * np.log10(np.sum((a * s) ** 2) / np.sum((e - a * s) ** 2))

    e, t = as_real(estimate), as_real(scene.target_image)
    b, m = as_real(scene.background_image), as_real(scene.mixture.data[:, :, 0])
    assert report.si_sdr_db == pytest.approx(sdr(e, t), abs=1e-9)
    assert report.input_si_sdr_db == pytest.approx(sdr(m, t), abs=1e-9)
    assert report.delta_si_sdr_db == pytest.approx(sdr(e, t) - sdr(m, t), abs=1e-9)

    alpha = (e @ t) / (t @ t)
    beta = ((e - alpha * t) @ b) / (b @ b)
    sir = 10 * np.log10(np.sum((alpha * t) ** 2) / np.sum((beta * b) ** 2))
    assert report.si_sir_db == pytest.approx(sir, abs=1e-9)


def test_time_domain_edge_trim():
    scene = _scene(num_channels=2, mixing="convolutive_fir", num_samples=6000)
    report = evaluate_extraction(scene, scene.mixture.samples[:, 0], edge_trim=512)
    assert report.delta_si_sdr_db == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(ValueError, match="short"):
        evaluate_extraction(scene, scene.mixture.samples[:, 0], edge_trim=3000)


def test_shape_mismatch_rejected():
    scene = _scene()
    with pytest.raises(ValueError, match="match"):
        evaluate_extraction(scene, scene.target_image[:, :10])



def test_time_domain_estimate_is_one_channel():
    # the (T, 2) mixture would be scored with its channels interleaved as one
    # signal (-47.7 dB, against 0 dB for its channel 0), and a (1, T) row too;
    # a (T, 1) column scores as its channel
    scene = _scene(num_channels=2, mixing="convolutive_fir", num_samples=16000, seed=3)
    with pytest.raises(ValueError, match=r"\(16000, 2\)"):
        evaluate_extraction(scene, scene.mixture.samples)
    with pytest.raises(ValueError, match=r"\(1, 16000\)"):
        evaluate_extraction(scene, scene.mixture.samples[:, :1].T)
    column = evaluate_extraction(scene, scene.mixture.samples[:, :1])
    assert column == evaluate_extraction(scene, scene.mixture.samples[:, 0])
    assert column.delta_si_sdr_db == 0.0
