"""Blind extraction of a single non-Gaussian source from a Gaussian background."""

from .core import (
    ContrastModel,
    DemixingState,
    ExtractionReport,
    FiveConfig,
    SilentReferenceChannelError,
    apply_demixing,
    evaluate_nll,
    extract,
    extract_spectral,
    five_iteration,
    head_residual,
    prewhiten,
    project_back,
)
from .metrics import MetricReport, evaluate_extraction, si_sdr, si_sir
from .scenes import (
    GroundTruthScene,
    SceneSpec,
    generate_scene,
    load_scene,
    save_scene,
)
from .stft import SpectralTensor, StftConfig, analyze, synthesize
from .wavio import MultichannelWave, read_wave, write_wave

__version__ = "0.1.0"

__all__ = [
    "ContrastModel",
    "DemixingState",
    "ExtractionReport",
    "FiveConfig",
    "GroundTruthScene",
    "MetricReport",
    "MultichannelWave",
    "SceneSpec",
    "SilentReferenceChannelError",
    "SpectralTensor",
    "StftConfig",
    "analyze",
    "apply_demixing",
    "evaluate_extraction",
    "evaluate_nll",
    "extract",
    "extract_spectral",
    "five_iteration",
    "generate_scene",
    "head_residual",
    "load_scene",
    "prewhiten",
    "project_back",
    "read_wave",
    "save_scene",
    "si_sdr",
    "si_sir",
    "synthesize",
    "write_wave",
    "__version__",
]
