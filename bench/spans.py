"""Per-layer timing spans recorded from outside the package.

The tracer replaces the public functions of five.stft, five.core and
five.linalg with timing wrappers by rebinding module attributes, and puts
the originals back afterwards. five.core imports analyze and synthesize by
name, so its own bindings are wrapped as well. Spans stay in memory; the
benchmark aggregates them per extraction and writes them out when it ends.
"""

import functools
import importlib
import json
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name). The same function reached through two
# bindings records under one name.
TARGETS = [
    ("five.stft", "analyze", "stft.analyze"),
    ("five.stft", "synthesize", "stft.synthesize"),
    ("five.core", "analyze", "stft.analyze"),
    ("five.core", "synthesize", "stft.synthesize"),
    ("five.core", "prewhiten", "core.prewhiten"),
    ("five.core", "five_iteration", "core.five_iteration"),
    ("five.core", "evaluate_nll", "core.evaluate_nll"),
    ("five.core", "head_residual", "core.head_residual"),
    ("five.core", "apply_demixing", "core.apply_demixing"),
    ("five.core", "project_back", "core.project_back"),
    ("five.linalg", "cholesky", "linalg.cholesky"),
    ("five.linalg", "apply_inverse_hermitian_transpose", "linalg.apply_inverse_hermitian_transpose"),
    ("five.linalg", "eig_hermitian", "linalg.eig_hermitian"),
    ("five.linalg", "check_hermitian", "linalg.check_hermitian"),
]

SPAN_NAMES = sorted({name for _, _, name in TARGETS})

# Calls whose first argument is a matrix stack: record how many matrices.
_COUNT_MATRICES = {"linalg.eig_hermitian"}


class Span:
    __slots__ = ("name", "start", "end", "parent", "extraction", "matrices")

    def __init__(self, name, start, parent, extraction, matrices):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.extraction = extraction
        self.matrices = matrices


class Tracer:
    """Records a span for every call of a wrapped function while installed."""

    def __init__(self):
        self.spans = []
        self.extraction = None  # id shared by the spans of one extraction
        self._open = []
        self._saved = []

    def _wrap(self, name, fn):
        count = name in _COUNT_MATRICES

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            matrices = int(np.prod(np.shape(args[0])[:-2])) if count else 0
            parent = self._open[-1] if self._open else None
            span = Span(name, 0.0, parent, self.extraction, matrices)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()

        return timed

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def per_extraction(self):
        """{extraction id: {span name: (self ms, calls, matrices)}}.

        Self time is a span's duration minus the durations of the wrapped
        calls made inside it.
        """
        child_s = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_s[span.parent] += span.end - span.start
        out = defaultdict(lambda: defaultdict(lambda: [0.0, 0, 0]))
        for index, span in enumerate(self.spans):
            entry = out[span.extraction][span.name]
            entry[0] += (span.end - span.start - child_s[index]) * 1e3
            entry[1] += 1
            entry[2] += span.matrices
        return out

    def write(self, path, extraction_labels):
        """One JSON line per span; extraction_labels maps id -> dict of metadata."""
        with open(path, "w") as fh:
            for span in self.spans:
                record = {
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": span.parent,
                    "extraction": span.extraction,
                    **extraction_labels.get(span.extraction, {}),
                }
                if span.matrices:
                    record["matrices"] = span.matrices
                fh.write(json.dumps(record) + "\n")
