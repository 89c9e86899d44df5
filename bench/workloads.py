"""The benchmark's workloads: generated inputs, one extraction, and its checks.

Every input comes from five.scenes and is drawn from the run's seed, except
the recording of the degenerate-array variants, which is fixed so that its
known fault fails identically on every seed. Extractions go through the
public library path: five.extract for audio, five.extract_spectral for
tensors.
"""

from dataclasses import dataclass, field

import five
from five.wavio import MultichannelWave

import checks

SAMPLE_RATE = 16000
REF_CHANNEL = 0
VARIANT_SCENE_SEED = 7  # fixed: the degenerate variants must not depend on --seed


def scene_seed(seed, k):
    """Seed of the k-th scene of a run; distinct runs' seeds never share scenes."""
    return 1000 * seed + k


@dataclass
class Case:
    """One input and the two configurations it is extracted with each round."""

    label: str
    scene: five.GroundTruthScene
    unmonitored: five.FiveConfig
    monitored: five.FiveConfig
    oracle_delta_db: float | None = None  # true-covariance max-SINR beamformer

    @property
    def mixture(self):
        return self.scene.mixture


@dataclass
class Variant:
    """A degenerate copy of one recording, attempted every round, never timed."""

    label: str
    mixture: MultichannelWave
    config: five.FiveConfig


@dataclass
class Inputs:
    cases: list
    variants: list = field(default_factory=list)
    variant_scene: five.GroundTruthScene | None = None
    variant_reference_db: float | None = None  # same recording, channel removed


def _gauss_configs(num_bins, **kwargs):
    contrast = five.ContrastModel("gauss", num_bins=num_bins)
    return (
        five.FiveConfig(contrast=contrast, nll_monitoring=False, **kwargs),
        five.FiveConfig(contrast=contrast, nll_monitoring=True, **kwargs),
    )


@dataclass(frozen=True)
class AudioWorkload:
    """Convolutive multichannel recordings, fixed iteration count, gauss contrast."""

    name: str
    channels: int
    duration_s: float
    frame_size: int
    scenes: int
    floor_db: float  # delta SI-SDR every estimate must clear
    degenerate_variants: bool = False
    iterations: int = 3

    @property
    def stft(self):
        return five.StftConfig(frame_size=self.frame_size)

    def _scene(self, seed):
        return five.generate_scene(
            five.SceneSpec(
                num_channels=self.channels,
                sample_rate=SAMPLE_RATE,
                mixing="convolutive_fir",
                num_samples=int(self.duration_s * SAMPLE_RATE),
                seed=seed,
            )
        )

    def setup(self, seed):
        unmonitored, monitored = _gauss_configs(
            self.stft.num_bins, max_iterations=self.iterations, ref_channel=REF_CHANNEL
        )
        cases = [
            Case(f"scene{k}", self._scene(scene_seed(seed, k)), unmonitored, monitored)
            for k in range(self.scenes)
        ]
        inputs = Inputs(cases)
        if self.degenerate_variants:
            self._add_variants(inputs, monitored)
        return inputs

    def _add_variants(self, inputs, config):
        # The last channel dead, or a copy of the first; the reference is the
        # same recording with the last channel removed.
        scene = self._scene(VARIANT_SCENE_SEED)
        samples = scene.mixture.samples
        dead = samples.copy()
        dead[:, -1] = 0.0
        duplicated = samples.copy()
        duplicated[:, -1] = samples[:, 0]
        reduced = MultichannelWave(SAMPLE_RATE, samples[:, :-1].copy())
        estimate, _ = five.extract(reduced, self.stft, config)
        inputs.variant_scene = scene
        inputs.variant_reference_db = self.delta_db(scene, estimate.samples)
        inputs.variants = [
            Variant("dead_channel", MultichannelWave(SAMPLE_RATE, dead), config),
            Variant("duplicated_channel", MultichannelWave(SAMPLE_RATE, duplicated), config),
        ]

    def extract(self, mixture, config):
        wave, report = five.extract(mixture, self.stft, config)
        return wave.samples, report

    def delta_db(self, scene, estimate):
        return five.evaluate_extraction(
            scene, estimate[:, 0], edge_trim=self.frame_size
        ).delta_si_sdr_db

    def expected_shape(self, mixture):
        return (mixture.num_samples, 1)

    def check_quality(self, case, estimate, report):
        delta = self.delta_db(case.scene, estimate)
        checks.check_floor(delta, self.floor_db)
        return delta

    def check_variant(self, inputs, variant, estimate, report):
        checks.check_output(estimate, self.expected_shape(variant.mixture))
        checks.check_monotone_nll(report.nll_values)
        delta = self.delta_db(inputs.variant_scene, estimate)
        checks.check_near(
            delta, inputs.variant_reference_db, checks.VARIANT_MARGIN_DB, "the channel-removed recording"
        )


@dataclass(frozen=True)
class TensorWorkload:
    """Instantaneous per-bin scenes with true covariances, run to convergence."""

    name: str
    channel_counts: tuple = (2, 4, 6)
    scenes_per_size: int = 2
    bins: int = 129
    frames: int = 400
    contrasts: tuple = ("laplace", "gauss")
    early_stop_tol: float = 1e-8
    max_iterations: int = 300

    def setup(self, seed):
        cases = []
        k = 0
        for channels in self.channel_counts:
            for _ in range(self.scenes_per_size):
                scene = five.generate_scene(
                    five.SceneSpec(
                        num_channels=channels,
                        num_bins=self.bins,
                        num_frames=self.frames,
                        sample_rate=SAMPLE_RATE,
                        seed=scene_seed(seed, k),
                    )
                )
                oracle = checks.max_sinr_estimate(
                    scene.mixture.data,
                    scene.true_target_covariance,
                    scene.true_background_covariance,
                    REF_CHANNEL,
                )
                oracle_db = five.evaluate_extraction(scene, oracle).delta_si_sdr_db
                for kind in self.contrasts:
                    contrast = five.ContrastModel(kind, num_bins=self.bins)
                    unmonitored, monitored = (
                        five.FiveConfig(
                            contrast=contrast,
                            max_iterations=self.max_iterations,
                            early_stop_tol=self.early_stop_tol,
                            ref_channel=REF_CHANNEL,
                            nll_monitoring=flag,
                        )
                        for flag in (False, True)
                    )
                    cases.append(
                        Case(f"m{channels}_scene{k}_{kind}", scene, unmonitored, monitored, oracle_db)
                    )
                k += 1
        return Inputs(cases)

    def extract(self, mixture, config):
        return five.extract_spectral(mixture, config)

    def delta_db(self, scene, estimate):
        return five.evaluate_extraction(scene, estimate).delta_si_sdr_db

    def expected_shape(self, mixture):
        return mixture.data.shape[:2]

    def check_quality(self, case, estimate, report):
        checks.check_converged(report)
        delta = self.delta_db(case.scene, estimate)
        checks.check_near(delta, case.oracle_delta_db, checks.ORACLE_MARGIN_DB, "the max-SINR beamformer")
        return delta


# Why each workload is here: see README.md.
WORKLOADS = {
    w.name: w
    for w in (
        AudioWorkload("conv8_10s", channels=8, duration_s=10.0, frame_size=4096, scenes=6,
                      floor_db=1.0, degenerate_variants=True),
        AudioWorkload("conv4_30s", channels=4, duration_s=30.0, frame_size=512, scenes=2, floor_db=4.0),
        TensorWorkload("inst_converge"),
    )
}


def check_case(workload, case, estimate, report, monitored, unmonitored_estimate=None):
    """All checks for one timed extraction; returns its delta SI-SDR in dB."""
    checks.check_output(estimate, workload.expected_shape(case.mixture))
    if monitored:
        checks.check_monotone_nll(report.nll_values)
        if unmonitored_estimate is not None:
            checks.check_agree(unmonitored_estimate, estimate)
    return workload.check_quality(case, estimate, report)
