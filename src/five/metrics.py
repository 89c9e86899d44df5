"""Scale-invariant separation metrics against ground-truth images.

SI-SDR projects the estimate on the reference and compares projection to
residual; SI-SIR removes the target projection first and measures what is
left along the background image direction. Values are capped at +-300 dB
so degenerate (exactly proportional or orthogonal) cases stay finite.
"""

from dataclasses import dataclass

import numpy as np

__all__ = ["CAP_DB", "MetricReport", "si_sdr", "si_sir", "evaluate_extraction"]

CAP_DB = 300.0


@dataclass(frozen=True)
class MetricReport:
    si_sdr_db: float
    si_sir_db: float
    input_si_sdr_db: float
    input_si_sir_db: float
    delta_si_sdr_db: float
    delta_si_sir_db: float


def _as_real_vector(x):
    x = np.asarray(x)
    if np.iscomplexobj(x):
        return np.concatenate([x.real.ravel(), x.imag.ravel()])
    return x.ravel().astype(np.float64)


def _capped_db(numerator, denominator):
    if numerator <= 0:
        return -CAP_DB
    if denominator <= 0:
        return CAP_DB
    return float(np.clip(10.0 * np.log10(numerator / denominator), -CAP_DB, CAP_DB))


def si_sdr(estimate, reference):
    """Scale-invariant signal-to-distortion ratio in dB.

    With the projection scale a = <e, s>/||s||^2, returns
    10 log10(||a s||^2 / ||e - a s||^2), capped at +-300 dB.
    """
    e = _as_real_vector(estimate)
    s = _as_real_vector(reference)
    if e.shape != s.shape:
        raise ValueError("estimate and reference must have equal length")
    ref_energy = float(s @ s)
    if ref_energy == 0.0:
        raise ValueError("reference must not be all-zero")
    est_energy = float(e @ e)
    cross = float(e @ s)
    # ratio = ||a s||^2 / ||e - a s||^2 = cross^2 / (||e||^2 ||s||^2 - cross^2);
    # written this way a common scale on e cancels exactly.
    return _capped_db(cross * cross, est_energy * ref_energy - cross * cross)


def si_sir(estimate, target_image, background_image):
    """Scale-invariant signal-to-interference ratio in dB.

    The target projection is removed first; the interference term is the
    projection of the remainder on the background image direction.
    """
    e = _as_real_vector(estimate)
    t = _as_real_vector(target_image)
    b = _as_real_vector(background_image)
    if e.shape != t.shape or e.shape != b.shape:
        raise ValueError("estimate and images must have equal length")
    t_energy = float(t @ t)
    b_energy = float(b @ b)
    if t_energy == 0.0 or b_energy == 0.0:
        raise ValueError("images must not be all-zero")
    alpha = float(e @ t) / t_energy
    remainder = e - alpha * t
    beta = float(remainder @ b) / b_energy
    return _capped_db(alpha * alpha * t_energy, beta * beta * b_energy)


def _aligned(x, length, edge_trim):
    x = _as_real_vector(x)[:length]
    if edge_trim > 0:
        x = x[edge_trim : len(x) - edge_trim]
    return x


def evaluate_extraction(scene, extracted, edge_trim=0):
    """Metrics of an extracted signal against a scene's ground-truth images.

    For spectral scenes the complex (F, N) arrays are compared as real
    vectors. For time-domain scenes, edge_trim samples are dropped from
    both ends of every signal so analysis edge effects do not bias the
    scores. A time-domain estimate is one channel, (T,) or (T, 1); more
    channels raise ValueError rather than being scored interleaved. The
    unprocessed mixture channel 1 provides the baseline for the delta
    columns.
    """
    if scene.is_spectral:
        if np.asarray(extracted).shape != scene.target_image.shape:
            raise ValueError("extracted tensor does not match the scene images")
        estimate = _as_real_vector(extracted)
        target = _as_real_vector(scene.target_image)
        background = _as_real_vector(scene.background_image)
        baseline = _as_real_vector(scene.mixture.data[:, :, 0])
    else:
        shape = np.shape(extracted)
        if not (len(shape) == 1 or len(shape) == 2 and shape[1] == 1):
            raise ValueError(f"a time-domain estimate must have shape (T,) or (T, 1), not {shape}")
        length = min(
            len(_as_real_vector(extracted)),
            len(scene.target_image),
            scene.mixture.num_samples,
        )
        if length <= 2 * edge_trim:
            raise ValueError("signals too short after edge trimming")
        estimate = _aligned(extracted, length, edge_trim)
        target = _aligned(scene.target_image, length, edge_trim)
        background = _aligned(scene.background_image, length, edge_trim)
        baseline = _aligned(scene.mixture.samples[:, 0], length, edge_trim)

    out_sdr = si_sdr(estimate, target)
    out_sir = si_sir(estimate, target, background)
    in_sdr = si_sdr(baseline, target)
    in_sir = si_sir(baseline, target, background)
    return MetricReport(
        si_sdr_db=out_sdr,
        si_sir_db=out_sir,
        input_si_sdr_db=in_sdr,
        input_si_sir_db=in_sir,
        delta_si_sdr_db=out_sdr - in_sdr,
        delta_si_sir_db=out_sir - in_sir,
    )
