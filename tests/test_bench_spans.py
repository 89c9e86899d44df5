"""The benchmark's tracer rebinds package attributes by name: keep them there."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

import five

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_target_resolves():
    spans = _load_spans()
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in spans.TARGETS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert spans.TARGETS and not missing


def test_monitored_extraction_leaves_no_span_silent():
    # every span reads the path a monitored extraction runs, except the
    # explicit whitening product (off the path) and the eigen fallback
    spans = _load_spans()
    rng = np.random.default_rng(0)
    wave = five.MultichannelWave(16000, rng.standard_normal((16 * 256, 3)))
    config = five.FiveConfig(contrast=five.ContrastModel("gauss", num_bins=129), max_iterations=2)
    with spans.Tracer() as tracer:
        five.extract(wave, five.StftConfig(frame_size=256), config)
    silent = set(spans.SPAN_NAMES) - {span.name for span in tracer.spans}
    assert silent == {"linalg.apply_inverse_hermitian_transpose", "linalg.eig_hermitian"}
