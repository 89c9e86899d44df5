import numpy as np
import pytest

from five import core
from five.core import (
    ContrastModel,
    DegenerateCovarianceError,
    DemixingState,
    FiveConfig,
    apply_demixing,
    evaluate_nll,
    extract,
    extract_spectral,
    five_iteration,
    head_residual,
    head_solutions,
    prewhiten,
    project_back,
    update_activity,
    weighted_covariance,
)
from five.stft import StftConfig, analyze, synthesize
from five.wavio import MultichannelWave


def _cnormal(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def _identity_cov_data(rng, n_bins, n_frames, n_chan):
    # frames built from orthonormal columns give an exactly-identity
    # per-bin sample covariance
    data = np.empty((n_bins, n_frames, n_chan), dtype=np.complex128)
    for f in range(n_bins):
        q, _ = np.linalg.qr(_cnormal(rng, (n_frames, n_chan)))
        data[f] = np.sqrt(n_frames) * np.conj(q)
    return data


def _fix_phase_vec(v):
    lead = v[np.argmax(np.abs(v))]
    return v * np.conj(lead) / abs(lead)


def _two_source_mixture(rng, n_bins, n_frames, noise_floor=0.0):
    # unit-variance envelope-modulated source plus an independent Gaussian;
    # noise_floor adds uncorrelated sensor noise so extraction cannot become
    # exact (the gauss contrast diverges when frames go fully silent)
    g = rng.exponential(1.0, n_frames)
    g /= np.sqrt(np.mean(g * g))
    target = g[None, :] * _cnormal(rng, (n_bins, n_frames))
    noise = _cnormal(rng, (n_bins, n_frames))
    mixing = _cnormal(rng, (n_bins, 2, 2))
    data = np.einsum("fmk,kfn->fnm", mixing, np.stack([target, noise]))
    if noise_floor:
        data = data + np.sqrt(noise_floor) * _cnormal(rng, data.shape)
    return data


def _initial_state(whitened, whiteners, ref=0):
    n_bins, _, n_chan = whitened.shape
    w0 = np.zeros((n_bins, n_chan), dtype=np.complex128)
    w0[:, ref] = 1.0
    return DemixingState(whiteners, w0, update_activity(whitened[:, :, ref]))


# ---------------------------------------------------------------- contrast models


def test_laplace_contrast_values():
    c = ContrastModel("laplace")
    assert c.weight(2.0) == pytest.approx(0.25, abs=0)  # 1/(2r)
    assert c.gain(3.0) == pytest.approx(3.0, abs=0)


def test_gauss_contrast_values():
    c = ContrastModel("gauss", num_bins=16)
    assert c.weight(2.0) == pytest.approx(4.0, abs=0)  # F / r^2
    assert c.gain(np.e) == pytest.approx(32.0, rel=1e-12)  # 2 F log r


def test_contrast_weights_strictly_decreasing():
    r = np.linspace(0.1, 10, 200)
    for c in (ContrastModel("laplace"), ContrastModel("gauss", num_bins=8)):
        assert np.all(np.diff(c.weight(r)) < 0)


def test_contrast_validation():
    with pytest.raises(ValueError):
        ContrastModel("cauchy")
    with pytest.raises(ValueError):
        ContrastModel("gauss")  # needs num_bins


def test_config_validation():
    contrast = ContrastModel("laplace")
    with pytest.raises(ValueError):
        FiveConfig(contrast, max_iterations=0)


# ---------------------------------------------------------------- prewhiten


def test_prewhiten_identity_covariance_is_noop():
    rng = np.random.default_rng(30)
    data = _identity_cov_data(rng, 3, 64, 4)
    whitened, whiteners = prewhiten(data)
    assert np.max(np.abs(whiteners - np.eye(4))) <= 1e-10
    assert np.max(np.abs(whitened - data)) <= 1e-10


def test_prewhiten_single_channel_rms():
    rng = np.random.default_rng(31)
    data = _cnormal(rng, (5, 128, 1)) * 3.0
    whitened, whiteners = prewhiten(data)
    for f in range(5):
        rms = np.sqrt(np.mean(np.abs(data[f, :, 0]) ** 2))
        assert whiteners[f, 0, 0] == pytest.approx(rms, rel=1e-12)
        power = np.mean(np.abs(whitened[f, :, 0]) ** 2)
        assert power == pytest.approx(1.0, abs=1e-10)


def test_prewhiten_covariance_oracle():
    rng = np.random.default_rng(32)
    data = _cnormal(rng, (6, 256, 3)) @ (np.eye(3) + 0.5j * np.eye(3, k=1))
    whitened, _ = prewhiten(data)
    for f in range(6):
        cov = whitened[f].T @ np.conj(whitened[f]) / 256
        assert np.linalg.norm(cov - np.eye(3)) <= 1e-8


def test_prewhiten_needs_enough_frames():
    with pytest.raises(ValueError, match="frames"):
        prewhiten(np.zeros((2, 3, 4), dtype=complex))


def test_prewhiten_rank_deficient_rejected():
    with pytest.raises(core.RankDeficientCovarianceError):
        prewhiten(np.zeros((2, 8, 2), dtype=complex))


# ---------------------------------------------------------------- weighted covariance


class _UnitWeight:
    @staticmethod
    def weight(r):
        return np.ones_like(np.asarray(r, dtype=float))


def test_weighted_covariance_unit_weights_reduce_to_sample_covariance():
    rng = np.random.default_rng(33)
    data = _cnormal(rng, (4, 64, 3))
    activity = rng.uniform(0.5, 2.0, 64)
    for f in range(4):
        got = weighted_covariance(data, activity, _UnitWeight(), f)
        want = data[f].T @ np.conj(data[f]) / 64
        assert np.linalg.norm(got - want) <= 1e-13


def test_weighted_covariance_single_frame_by_hand():
    # one frame, laplace weight at r=2 is 1/4, unit vector on channel 1
    data = np.zeros((1, 1, 3), dtype=complex)
    data[0, 0, 0] = 1.0
    got = weighted_covariance(data, np.array([2.0]), ContrastModel("laplace"), 0)
    want = np.zeros((3, 3))
    want[0, 0] = 0.25
    assert np.linalg.norm(got - want) == 0.0


def test_weighted_covariance_matches_triple_loop():
    rng = np.random.default_rng(34)
    n_bins, n_frames, n_chan = 3, 17, 4
    data = _cnormal(rng, (n_bins, n_frames, n_chan))
    activity = rng.uniform(0.1, 3.0, n_frames)
    contrast = ContrastModel("gauss", num_bins=n_bins)
    floor = 1e-12
    for f in range(n_bins):
        brute = np.zeros((n_chan, n_chan), dtype=complex)
        for n in range(n_frames):
            phi = contrast.weight(max(activity[n], floor))
            for a in range(n_chan):
                for b in range(n_chan):
                    brute[a, b] += phi * data[f, n, a] * np.conj(data[f, n, b])
        brute /= n_frames
        got = weighted_covariance(data, activity, contrast, f)
        assert np.max(np.abs(got - brute)) <= 1e-12


@pytest.mark.parametrize("weighted", [False, True])
def test_covariance_stack_matches_einsum_on_stft_layout(weighted):
    # analyze returns a strided (F, N, M) view, not a contiguous array
    rng = np.random.default_rng(35)
    wave = MultichannelWave(16000, rng.standard_normal((40 * 64, 3)))
    data = analyze(wave, StftConfig(frame_size=128)).data
    assert not data.flags.c_contiguous
    weights = rng.uniform(0.1, 3.0, data.shape[1]) if weighted else None
    got = core._covariance_stack(data, weights)
    scale = np.ones(data.shape[1]) if weights is None else weights
    want = np.einsum("fni,fnj,n->fij", data, np.conj(data), scale) / data.shape[1]
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    assert np.array_equal(got, np.conj(np.swapaxes(got, 1, 2)))


def test_weighted_covariance_floors_activity():
    data = np.ones((1, 2, 1), dtype=complex)
    activity = np.array([0.0, 1.0])  # zero would make the weight blow up
    got = weighted_covariance(data, activity, ContrastModel("laplace"), 0)
    assert got[0, 0] == pytest.approx((0.5 / core.ACTIVITY_FLOOR + 0.5) / 2)


# ---------------------------------------------------------------- activity


def test_activity_pythagorean():
    extracted = np.array([[3.0 + 4.0j]])
    assert update_activity(extracted)[0] == pytest.approx(5.0, abs=0)


def test_activity_zero_frame():
    assert update_activity(np.zeros((4, 3), dtype=complex))[1] == 0.0


def test_activity_matches_elementwise_oracle():
    rng = np.random.default_rng(35)
    extracted = _cnormal(rng, (16, 4))
    got = update_activity(extracted)
    for n in range(4):
        want = np.sqrt(sum(abs(extracted[f, n]) ** 2 for f in range(16)))
        assert abs(got[n] - want) <= 1e-12


# ---------------------------------------------------------------- iteration


def test_iteration_single_channel_is_rescale():
    rng = np.random.default_rng(36)
    data = _cnormal(rng, (4, 64, 1))
    whitened, whiteners = prewhiten(data)
    state = five_iteration(
        _initial_state(whitened, whiteners), whitened, ContrastModel("laplace")
    )
    extracted = apply_demixing(state.w, whitened)
    for f in range(4):
        ratio = extracted[f] / whitened[f, :, 0]
        assert np.max(np.abs(ratio - ratio[0])) <= 1e-12
        assert ratio[0].imag == pytest.approx(0.0, abs=1e-12)
        assert ratio[0].real > 0


def test_iteration_scaling_row_holds_exactly():
    # immediately after the update, w^H V w = 1 for the covariance that
    # produced the update
    rng = np.random.default_rng(37)
    data = _two_source_mixture(rng, 8, 400)
    whitened, whiteners = prewhiten(data)
    contrast = ContrastModel("laplace")
    state = _initial_state(whitened, whiteners)
    for _ in range(3):
        anchor_activity = state.activity
        state = five_iteration(state, whitened, contrast)
        for f in range(8):
            v = weighted_covariance(whitened, anchor_activity, contrast, f)
            scale = state.w[f].conj() @ v @ state.w[f]
            assert abs(scale - 1.0) <= 1e-10


def test_iteration_activity_consistent_with_estimate():
    rng = np.random.default_rng(38)
    data = _two_source_mixture(rng, 8, 200)
    whitened, whiteners = prewhiten(data)
    state = five_iteration(
        _initial_state(whitened, whiteners), whitened, ContrastModel("laplace")
    )
    recomputed = update_activity(apply_demixing(state.w, whitened))
    assert np.max(np.abs(recomputed - state.activity)) <= 1e-10


def test_iteration_reaches_fixed_point_two_channels():
    # two-channel mixture converges to a stationary point; the row-one
    # residual against the current-activity covariance certifies it
    # (the contraction rate is about 1/2 per iteration, so 40 iterations
    # land far below the 1e-8 requirement)
    rng = np.random.default_rng(42)
    data = _two_source_mixture(rng, 32, 2000)
    whitened, whiteners = prewhiten(data)
    contrast = ContrastModel("laplace")
    state = _initial_state(whitened, whiteners)
    for _ in range(40):
        state = five_iteration(state, whitened, contrast)
    for f in range(32):
        v = weighted_covariance(whitened, state.activity, contrast, f)
        assert abs(state.w[f].conj() @ v @ state.w[f] - 1.0) <= 1e-8


def test_iteration_degenerate_covariance_rejected():
    state = DemixingState(
        whiteners=np.broadcast_to(np.eye(2, dtype=complex), (3, 2, 2)),
        w=np.ones((3, 2), dtype=complex),
        activity=np.ones(8),
    )
    with pytest.raises(DegenerateCovarianceError):
        five_iteration(state, np.zeros((3, 8, 2), dtype=complex), ContrastModel("laplace"))


def test_iteration_reloads_near_singular_bin_in_closed_form(monkeypatch):
    # bin 1 has 0 < lambda_min <= t = REGULARIZATION * trace/M. Loaded to
    # V + tI it keeps V's eigenvector r and gets lambda_min + t, with no
    # second eigendecomposition.
    rng = np.random.default_rng(41)
    data = _identity_cov_data(rng, 2, 64, 3)
    data[1, :, 2] *= 1e-6
    contrast = ContrastModel("laplace")
    state = DemixingState(
        whiteners=np.broadcast_to(np.eye(3, dtype=complex), (2, 3, 3)),
        w=np.ones((2, 3), dtype=complex),
        activity=rng.uniform(0.5, 2.0, 64),
    )
    values, vectors = core.linalg.eig_hermitian(weighted_covariance(data, state.activity, contrast, 1))
    load = core.REGULARIZATION * np.sum(values) / 3
    assert 0 < values[-1] <= load

    calls = []
    eig = core.linalg.eig_hermitian
    monkeypatch.setattr(core.linalg, "eig_hermitian", lambda a: calls.append(a.shape) or eig(a))
    new = five_iteration(state, data, contrast)
    assert len(calls) == 1
    want = vectors[:, -1] / np.sqrt(values[-1] + load)
    assert np.max(np.abs(new.w[1] - want)) <= 1e-12 * np.linalg.norm(want)


def test_iteration_equivariant_under_unitary():
    rng = np.random.default_rng(39)
    data = _identity_cov_data(rng, 4, 100, 3)
    unitary, _ = np.linalg.qr(_cnormal(rng, (3, 3)))
    rotated = data.copy()
    rotated[2] = data[2] @ unitary.T  # x -> U x at bin 2 only

    whiteners = np.broadcast_to(np.eye(3, dtype=complex), (4, 3, 3))
    activity = rng.uniform(0.5, 2.0, 100)
    contrast = ContrastModel("laplace")
    base = DemixingState(whiteners, np.zeros((4, 3), dtype=complex), activity)
    s1 = five_iteration(base, data, contrast)
    s2 = five_iteration(base, rotated, contrast)

    assert np.max(np.abs(_fix_phase_vec(s2.w[2]) - _fix_phase_vec(unitary @ s1.w[2]))) <= 1e-10
    e1 = apply_demixing(s1.w, data)[2]
    e2 = apply_demixing(s2.w, rotated)[2]
    assert np.max(np.abs(np.abs(e2) - np.abs(e1))) <= 1e-10
    corr = np.vdot(e2, e1)
    assert abs(abs(corr) - np.linalg.norm(e1) * np.linalg.norm(e2)) <= 1e-10 * abs(corr)


def test_gauss_iterates_scale_invariant():
    # scaling the whitened input leaves the normalized extraction sequence
    # unchanged under the gauss contrast
    rng = np.random.default_rng(40)
    data = _two_source_mixture(rng, 8, 300)
    whitened, whiteners = prewhiten(data)
    contrast = ContrastModel("gauss", num_bins=8)
    scaled = 7.5 * whitened

    state_a = _initial_state(whitened, whiteners)
    state_b = _initial_state(scaled, whiteners)
    for _ in range(4):
        state_a = five_iteration(state_a, whitened, contrast)
        state_b = five_iteration(state_b, scaled, contrast)
        ea = apply_demixing(state_a.w, whitened)
        eb = apply_demixing(state_b.w, scaled)
        assert np.max(np.abs(ea / np.linalg.norm(ea) - eb / np.linalg.norm(eb))) <= 1e-10


# ---------------------------------------------------------------- likelihood


def test_nll_scalar_case_by_hand():
    # M=1, F=1, N=1, laplace, estimate 1 and unit filter: L = G(1) = 1
    whitened = np.ones((1, 1, 1), dtype=complex)
    state = DemixingState(
        whiteners=np.eye(1, dtype=complex)[None],
        w=np.ones((1, 1), dtype=complex),
        activity=np.ones(1),
    )
    assert evaluate_nll(state, whitened, ContrastModel("laplace")) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("kind", ["laplace", "gauss"])
def test_nll_non_increasing_over_iterations(kind):
    rng = np.random.default_rng(41)
    data = _two_source_mixture(rng, 16, 500, noise_floor=0.01)
    whitened, whiteners = prewhiten(data)
    contrast = ContrastModel(kind, num_bins=16)
    state = _initial_state(whitened, whiteners)
    previous = evaluate_nll(state, whitened, contrast)
    for _ in range(25):
        state = five_iteration(state, whitened, contrast)
        current = evaluate_nll(state, whitened, contrast)
        assert current <= previous + 1e-9 * abs(previous)
        previous = current


def test_nll_doubles_under_frame_duplication():
    rng = np.random.default_rng(43)
    data = _two_source_mixture(rng, 8, 100)
    whitened, whiteners = prewhiten(data)
    contrast = ContrastModel("laplace")
    state = five_iteration(_initial_state(whitened, whiteners), whitened, contrast)

    doubled = np.concatenate([whitened, whitened], axis=1)
    doubled_state = DemixingState(
        whiteners=whiteners,
        w=state.w,
        activity=np.concatenate([state.activity, state.activity]),
        iteration=state.iteration,
    )
    single = evaluate_nll(state, whitened, contrast)
    double = evaluate_nll(doubled_state, doubled, contrast)
    assert double == pytest.approx(2.0 * single, rel=1e-10)


def test_nll_includes_whitening_constant():
    # same data, but expressed with a non-identity whitener: the recorded
    # whitening log-determinant must shift the value accordingly
    rng = np.random.default_rng(44)
    data = _identity_cov_data(rng, 2, 50, 2)
    base = DemixingState(
        whiteners=np.broadcast_to(np.eye(2, dtype=complex), (2, 2, 2)),
        w=np.ones((2, 2), dtype=complex) / np.sqrt(2),
        activity=update_activity(data[:, :, 0]),
    )
    scaled = DemixingState(
        whiteners=np.broadcast_to(2.0 * np.eye(2, dtype=complex), (2, 2, 2)),
        w=base.w,
        activity=base.activity,
    )
    contrast = ContrastModel("laplace")
    shift = 2.0 * 50 * 2 * 2 * np.log(2.0)  # 2N * (bins * dim) * log 2
    got = evaluate_nll(scaled, data, contrast) - evaluate_nll(base, data, contrast)
    assert got == pytest.approx(shift, rel=1e-12)


def _complement(w):
    # orthonormal complement of w, by QR: the background block J of the monitor
    q, _ = np.linalg.qr(w[:, None], mode="complete")
    return q[:, 1:]


def _monitor_states(rng, whitened, whiteners, contrast):
    # the initial e_ref state, random filters, and the iterates of a short run
    n_bins, _, n_chan = whitened.shape
    states = [_initial_state(whitened, whiteners)]
    for _ in range(2):
        w = _cnormal(rng, (n_bins, n_chan))
        states.append(DemixingState(whiteners, w, update_activity(apply_demixing(w, whitened))))
    for _ in range(3):
        states.append(five_iteration(states[-1], whitened, contrast))
    return states


@pytest.mark.parametrize("kind", ["laplace", "gauss"])
def test_nll_matches_explicit_complement_formula(kind):
    rng = np.random.default_rng(57)
    n_bins, n_frames, n_chan = 6, 120, 4
    data = _cnormal(rng, (n_bins, n_frames, n_chan)) @ _cnormal(rng, (n_chan, n_chan))
    whitened, whiteners = prewhiten(data)
    contrast = ContrastModel(kind, num_bins=n_bins)
    for state in _monitor_states(rng, whitened, whiteners, contrast):
        want = np.sum(contrast.gain(np.maximum(state.activity, core.ACTIVITY_FLOOR)))
        for f in range(n_bins):
            basis = _complement(state.w[f])
            _, logdet = np.linalg.slogdet(np.column_stack([state.w[f], basis]))
            want += -2.0 * n_frames * logdet
            want += np.sum(np.abs(whitened[f] @ np.conj(basis)) ** 2)
            want += 2.0 * n_frames * np.sum(np.log(np.real(np.diag(whiteners[f]))))
        got = evaluate_nll(state, whitened, contrast)
        assert abs(got - want) <= 1e-12 * abs(want)


# ---------------------------------------------------------------- stationarity


def _spd(rng, m, spread=1.0):
    b = _cnormal(rng, (m, m))
    return b @ b.conj().T + spread * np.eye(m)


def test_head_construction_residual_tiny():
    # a state assembled from the exact candidate solution on data with an
    # exactly-identity covariance satisfies the stationarity system
    rng = np.random.default_rng(45)
    n_bins, n_frames, n_chan = 3, 64, 4
    data = _identity_cov_data(rng, n_bins, n_frames, n_chan)
    activity = rng.uniform(0.5, 2.0, n_frames)
    contrast = ContrastModel("laplace")
    w = np.empty((n_bins, n_chan), dtype=complex)
    basis = np.empty((n_bins, n_chan, n_chan - 1), dtype=complex)
    for f in range(n_bins):
        v = weighted_covariance(data, activity, contrast, f)
        _, w[f], basis[f] = head_solutions(v)[-1]
    state = DemixingState(
        whiteners=np.broadcast_to(np.eye(n_chan, dtype=complex), (n_bins, n_chan, n_chan)),
        w=w,
        activity=activity,
    )
    assert head_residual(state, data, contrast) <= 1e-10


def test_head_residual_sensitive_to_perturbation():
    rng = np.random.default_rng(46)
    n_bins, n_frames, n_chan = 3, 64, 4
    data = _identity_cov_data(rng, n_bins, n_frames, n_chan)
    activity = rng.uniform(0.5, 2.0, n_frames)
    contrast = ContrastModel("laplace")
    w = np.empty((n_bins, n_chan), dtype=complex)
    basis = np.empty((n_bins, n_chan, n_chan - 1), dtype=complex)
    for f in range(n_bins):
        _, w[f], basis[f] = head_solutions(
            weighted_covariance(data, activity, contrast, f)
        )[-1]
    direction = _cnormal(rng, (n_bins, n_chan))
    direction *= 1e-3 / np.linalg.norm(direction, axis=1, keepdims=True)
    state = DemixingState(
        whiteners=np.broadcast_to(np.eye(n_chan, dtype=complex), (n_bins, n_chan, n_chan)),
        w=w + direction,
        activity=activity,
    )
    assert head_residual(state, data, contrast) >= 1e-4


def test_head_residual_small_after_convergence():
    # once the filters stop moving (step < 1e-10 per bin), the stationarity
    # residual must certify the fixed point
    rng = np.random.default_rng(47)
    data = _two_source_mixture(rng, 32, 2000)
    whitened, whiteners = prewhiten(data)
    contrast = ContrastModel("laplace")
    state = _initial_state(whitened, whiteners)
    for _ in range(60):
        previous_w = state.w
        state = five_iteration(state, whitened, contrast)
    assert np.max(np.linalg.norm(state.w - previous_w, axis=1)) < 1e-10
    assert head_residual(state, whitened, contrast) <= 1e-6


def test_head_residual_matches_explicit_gram_on_prewhiten_output():
    # the closed form against || [w,J]^H [Vw, CJ] - I ||_F with J the QR
    # complement of w and C the plain sample covariance of the whitened data
    rng = np.random.default_rng(58)
    n_bins, n_frames, n_chan = 6, 120, 4
    data = _cnormal(rng, (n_bins, n_frames, n_chan)) @ _cnormal(rng, (n_chan, n_chan))
    whitened, whiteners = prewhiten(data)
    contrast = ContrastModel("gauss", num_bins=n_bins)
    for state in _monitor_states(rng, whitened, whiteners, contrast):
        want = 0.0
        for f in range(n_bins):
            v = weighted_covariance(whitened, state.activity, contrast, f)
            c = whitened[f].T @ np.conj(whitened[f]) / n_frames
            basis = _complement(state.w[f])
            lhs = np.column_stack([state.w[f], basis])
            rhs = np.column_stack([v @ state.w[f], c @ basis])
            want = max(want, np.linalg.norm(lhs.conj().T @ rhs - np.eye(n_chan)))
        assert abs(head_residual(state, whitened, contrast) - want) <= 1e-12


def test_iteration_carries_certificate_of_incoming_state():
    rng = np.random.default_rng(59)
    data = _two_source_mixture(rng, 8, 200)
    whitened, whiteners = prewhiten(data)
    contrast = ContrastModel("gauss", num_bins=8)
    state = _initial_state(whitened, whiteners)
    for _ in range(3):
        expected = head_residual(state, whitened, contrast)
        state = five_iteration(state, whitened, contrast)
        assert state.previous_residual == expected


def test_report_records_certify_their_own_state():
    # record k is filled in after update k+1; it must still describe state k
    rng = np.random.default_rng(60)
    data = _two_source_mixture(rng, 8, 200, noise_floor=0.01)
    from five.stft import SpectralTensor

    spec = SpectralTensor(data, 16000, StftConfig(frame_size=14))
    contrast = ContrastModel("gauss", num_bins=8)
    states = []
    _, report = extract_spectral(
        spec,
        FiveConfig(contrast=contrast, max_iterations=3),
        callback=lambda iteration, state, raw: states.append(state),
    )
    whitened, _ = prewhiten(spec)
    assert [s.iteration for s in states] == [r.iteration for r in report.records] == [0, 1, 2, 3]
    for state, record in zip(states, report.records):
        nll = evaluate_nll(state, whitened, contrast)
        assert record.nll == pytest.approx(nll, rel=1e-12)
        assert record.head_residual == pytest.approx(
            head_residual(state, whitened, contrast), rel=1e-12, abs=1e-15
        )


@pytest.mark.parametrize("monitoring", [True, False])
def test_monitored_run_costs_one_covariance_build(monkeypatch, monitoring):
    # K updates: K eigendecompositions, and K covariance builds plus one
    # more for the last certificate when monitoring
    counts = {"eig": 0, "cov": 0}
    eig, build = core.linalg.eig_hermitian, core._weighted_covariance_stack

    def counting_eig(*args, **kwargs):
        counts["eig"] += 1
        return eig(*args, **kwargs)

    def counting_build(*args, **kwargs):
        counts["cov"] += 1
        return build(*args, **kwargs)

    monkeypatch.setattr(core.linalg, "eig_hermitian", counting_eig)
    monkeypatch.setattr(core, "_weighted_covariance_stack", counting_build)
    rng = np.random.default_rng(61)
    data = _two_source_mixture(rng, 8, 200, noise_floor=0.01)
    from five.stft import SpectralTensor

    spec = SpectralTensor(data, 16000, StftConfig(frame_size=14))
    config = FiveConfig(
        contrast=ContrastModel("gauss", num_bins=8), max_iterations=4, nll_monitoring=monitoring
    )
    _, report = extract_spectral(spec, config)
    assert report.iterations_run == 4
    assert counts == {"eig": 4, "cov": 5 if monitoring else 4}


def test_head_solutions_all_satisfy_system():
    rng = np.random.default_rng(48)
    for m in (2, 3, 4):
        v = _spd(rng, m)
        for value, w, basis in head_solutions(v):
            cols = np.concatenate([w[:, None], basis], axis=1)
            target = np.concatenate([(v @ w)[:, None], basis], axis=1)
            assert np.linalg.norm(cols.conj().T @ target - np.eye(m)) <= 1e-10
            assert value > 0


def test_head_solutions_smallest_minimizes_majorizer():
    # surrogate value -2 log|det W| + w^H V w + tr(J^H J), identity
    # background: the smallest-eigenvalue candidate must win
    rng = np.random.default_rng(49)
    for m in (2, 3, 4):
        v = _spd(rng, m, spread=0.1)
        values = []
        for _, w, basis in head_solutions(v):
            cols = np.concatenate([w[:, None], basis], axis=1)
            _, logdet = np.linalg.slogdet(cols)
            values.append(
                -2.0 * logdet
                + np.real(w.conj() @ v @ w)
                + np.real(np.trace(basis.conj().T @ basis))
            )
        assert np.argmin(values) == m - 1


# ---------------------------------------------------------------- projection back


def test_project_back_fixed_point():
    rng = np.random.default_rng(50)
    data = _cnormal(rng, (4, 32, 2))
    out = project_back(data[:, :, 0], data)
    assert np.max(np.abs(out - data[:, :, 0])) <= 1e-12


def test_project_back_inverts_scale():
    rng = np.random.default_rng(51)
    data = _cnormal(rng, (4, 32, 2))
    out = project_back(2.0 * data[:, :, 0], data)
    assert np.max(np.abs(out - data[:, :, 0])) <= 1e-12


def test_project_back_least_squares_oracle():
    # grid search with refinement over the complex scale cannot beat the
    # closed-form projection
    rng = np.random.default_rng(52)
    data = _cnormal(rng, (3, 40, 2))
    estimate = _cnormal(rng, (3, 40))
    out = project_back(estimate, data)
    for f in range(3):
        reference = data[f, :, 0]
        best = out[f]
        analytic_residual = np.sum(np.abs(reference - best) ** 2)
        center, radius = 0.0 + 0.0j, 4.0
        for _ in range(14):
            grid = np.linspace(-radius, radius, 9)
            cand = center + grid[:, None] + 1j * grid[None, :]
            res = np.sum(
                np.abs(reference[None, None, :] - cand[:, :, None] * estimate[f]) ** 2,
                axis=2,
            )
            i, j = np.unravel_index(np.argmin(res), res.shape)
            center = center + grid[i] + 1j * grid[j]
            radius *= 0.3
        grid_residual = np.sum(np.abs(reference - center * estimate[f]) ** 2)
        assert analytic_residual <= grid_residual + 1e-9 * grid_residual


def test_project_back_passes_through_silent_bins():
    data = np.ones((2, 8, 1), dtype=complex)
    estimate = np.zeros((2, 8), dtype=complex)
    estimate[1] = 0.5
    out = project_back(estimate, data)
    assert np.array_equal(out[0], estimate[0])  # silent bin untouched
    assert np.allclose(out[1], 1.0, atol=1e-12)


# ---------------------------------------------------------------- end to end


def test_extract_single_channel_identity():
    rng = np.random.default_rng(53)
    samples = rng.uniform(-0.9, 0.9, 6 * 512)
    wave = MultichannelWave(16000, samples[:, None])
    config = FiveConfig(contrast=ContrastModel("gauss", num_bins=257), max_iterations=3)
    out, report = extract(wave, StftConfig(frame_size=512), config)
    assert out.channels == 1
    assert out.num_samples == wave.num_samples
    interior = slice(512, wave.num_samples - 512)
    err = np.linalg.norm(out.samples[interior, 0] - samples[interior])
    assert err <= 1e-6 * np.linalg.norm(samples[interior])
    assert report.iterations_run == 3


def test_extract_spectral_report_monotone_and_early_stop():
    rng = np.random.default_rng(54)
    data = _two_source_mixture(rng, 16, 400)
    from five.stft import SpectralTensor

    spec = SpectralTensor(data, 16000, StftConfig(frame_size=30))
    config = FiveConfig(
        contrast=ContrastModel("laplace"),
        max_iterations=200,
        early_stop_tol=1e-8,
    )
    extracted, report = extract_spectral(spec, config)
    assert extracted.shape == (16, 400)
    assert report.converged
    assert report.iterations_run < 200
    nll = report.nll_values
    assert len(nll) == report.iterations_run + 1
    for a, b in zip(nll, nll[1:]):
        assert b <= a + 1e-9 * abs(a)
    assert report.records[-1].head_residual <= 1e-6


def test_extract_spectral_ref_channel_validated():
    rng = np.random.default_rng(55)
    data = _two_source_mixture(rng, 4, 64)
    from five.stft import SpectralTensor

    spec = SpectralTensor(data, 16000, StftConfig(frame_size=6))
    config = FiveConfig(contrast=ContrastModel("laplace"), ref_channel=5)
    with pytest.raises(ValueError, match="ref_channel"):
        extract_spectral(spec, config)


def test_extract_silent_reference_channel_names_it():
    # whitening and the update would otherwise abort with a degenerate
    # weighted covariance at bin 0
    from five import SceneSpec, SilentReferenceChannelError, generate_scene

    scene = generate_scene(
        SceneSpec(num_channels=4, mixing="convolutive_fir", num_samples=48000, seed=7)
    )
    samples = scene.mixture.samples.copy()
    samples[:, 0] = 0.0
    wave = MultichannelWave(scene.mixture.sample_rate, samples)
    config = FiveConfig(contrast=ContrastModel("gauss", num_bins=2049))
    with pytest.raises(SilentReferenceChannelError, match="reference channel 0 is silent"):
        extract(wave, StftConfig(frame_size=4096), config)
    assert issubclass(SilentReferenceChannelError, ValueError)


def test_report_csv_round_trip():
    rng = np.random.default_rng(56)
    data = _two_source_mixture(rng, 4, 64)
    from five.stft import SpectralTensor

    spec = SpectralTensor(data, 16000, StftConfig(frame_size=6))
    config = FiveConfig(contrast=ContrastModel("laplace"), max_iterations=2)
    _, report = extract_spectral(spec, config)
    text = report.to_csv_string(header={"contrast": "laplace"})
    lines = text.strip().splitlines()
    assert lines[0] == "# contrast=laplace"
    assert lines[1] == "iteration,nll,head_residual,wall_time_ms"
    assert len(lines) == 2 + 3  # records for iterations 0..2
    first = lines[2].split(",")
    assert first[0] == "0"
    assert float(first[1]) == pytest.approx(report.records[0].nll)
