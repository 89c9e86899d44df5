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
    # explicit whitening product (off the path), the eigen fallback and
    # apply_demixing, which only a converged run calls
    spans = _load_spans()
    rng = np.random.default_rng(0)
    wave = five.MultichannelWave(16000, rng.standard_normal((16 * 256, 3)))
    config = five.FiveConfig(contrast=five.ContrastModel("gauss", num_bins=129), max_iterations=2)
    with spans.Tracer() as tracer:
        five.extract(wave, five.StftConfig(frame_size=256), config)
    silent = set(spans.SPAN_NAMES) - {span.name for span in tracer.spans}
    assert silent == {"linalg.apply_inverse_hermitian_transpose", "linalg.eig_hermitian", "core.apply_demixing"}


def test_trace_of_a_split_extraction_nests(monkeypatch):
    # above the gate the passes run in shares on the pool's threads, which
    # call no traced function: every span lies inside its parent and no
    # self time is negative
    spans = _load_spans()
    monkeypatch.setattr(five.stft, "_WORKERS", 3)
    rng = np.random.default_rng(1)
    wave = five.MultichannelWave(16000, rng.standard_normal((1024 * 256, 4)))
    config = five.FiveConfig(contrast=five.ContrastModel("gauss", num_bins=257), max_iterations=2)
    spec = five.analyze(wave, five.StftConfig(frame_size=512))
    assert spec.data.nbytes // five.stft._SHARE_BYTES >= 3
    with spans.Tracer() as tracer:
        five.extract(wave, five.StftConfig(frame_size=512), config)
    assert {"stft.analyze", "core.five_iteration", "core.head_residual"} <= {span.name for span in tracer.spans}
    for span in tracer.spans:
        if span.parent is not None:
            parent = tracer.spans[span.parent]
            assert parent.start <= span.start <= span.end <= parent.end
    for per_name in tracer.per_extraction().values():
        assert all(self_ms >= 0 for self_ms, _, _ in per_name.values())


def test_converged_extraction_demixes_its_returned_state_in_one_span():
    # the dropped certifying update overwrote the returned state's estimate:
    # one apply_demixing call restores it after the last update, from the
    # calling thread (no pool thread calls a traced function), before the
    # projection
    spans = _load_spans()
    rng = np.random.default_rng(2)
    wave = five.MultichannelWave(16000, rng.standard_normal((16 * 256, 3)))
    config = five.FiveConfig(five.ContrastModel("laplace"), max_iterations=50, early_stop_tol=1e3)
    with spans.Tracer() as tracer:
        _, report = five.extract(wave, five.StftConfig(frame_size=256), config)
    assert report.converged
    demix = [span for span in tracer.spans if span.name == "core.apply_demixing"]
    assert len(demix) == 1 and demix[0].parent is None
    (projection,) = [span for span in tracer.spans if span.name == "core.project_back"]
    last_update = max(span.end for span in tracer.spans if span.name == "core.five_iteration")
    assert last_update <= demix[0].start <= demix[0].end <= projection.start
