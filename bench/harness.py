"""Measurement loop: set-up, timed rounds, optional traced rounds, metrics.

A run repeats whole rounds until --seconds of rounds have passed. A round
extracts every case of the workload once without and once with NLL
monitoring, and then attempts the workload's degenerate-array variants, so
the share of failed extractions is the same in every run. With tracing on,
untraced and traced rounds alternate and stop after a traced one.
"""

import contextlib
import json
import statistics
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

from five.wavio import MultichannelWave

import workloads
from spans import SPAN_NAMES, Tracer

SETUP_REPEATS = 3

END_TO_END = [
    ("extract_ms", "ms"),
    ("extract_monitored_ms", "ms"),
    ("delta_si_sdr_db", "dB"),
    ("peak_alloc_mb", "MB"),
    ("setup_s", "s"),
]

PER_LAYER = [(f"{name}_ms", "ms") for name in SPAN_NAMES] + [
    ("linalg.eig_hermitian_calls", "count"),
    ("linalg.eig_matrices", "count"),
    ("core.iterations", "count"),
    ("trace.overhead_ms", "ms"),
]


class Tally:
    """Extractions attempted and failed, with the distinct failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0  # failures outside the known-fault variants
        self.reasons = Counter()

    def ok(self):
        self.attempted += 1

    def fail(self, label, exc, known_fault=False):
        self.attempted += 1
        self.failed += 1
        self.unexpected += not known_fault
        self.reasons[f"{label}: {type(exc).__name__}: {exc}"] += 1


def _timed_extract(workload, mixture, config, tracer=None):
    with tracer if tracer is not None else contextlib.nullcontext():
        t0 = time.perf_counter()
        estimate, report = workload.extract(mixture, config)
        ms = (time.perf_counter() - t0) * 1e3
    return estimate, report, ms


def _set_up(workload, seed):
    inputs = workload.setup(seed)
    first = inputs.cases[0]
    workload.extract(first.mixture, first.unmonitored)
    workload.extract(first.mixture, first.monitored)
    return inputs


class Run:
    """State of one benchmark run of one workload."""

    def __init__(self, workload, inputs, trace):
        self.workload = workload
        self.inputs = inputs
        self.tally = Tally()
        # times[(traced, monitored)][case index] -> ms of each round
        self.times = defaultdict(lambda: [[] for _ in inputs.cases])
        self.deltas = {}  # case index -> delta SI-SDR (dB), deterministic
        self.tracer = Tracer() if trace else None
        self.labels = {}  # extraction id -> metadata of a traced extraction
        self.rounds = 0

    def round(self, traced):
        tracer = self.tracer if traced else None
        for index, case in enumerate(self.inputs.cases):
            unmonitored = None
            for monitored in (False, True):
                config = case.monitored if monitored else case.unmonitored
                label = {"case": case.label, "monitored": monitored, "round": self.rounds}
                if tracer is not None:
                    tracer.extraction = len(self.labels)
                    self.labels[tracer.extraction] = label
                try:
                    estimate, report, ms = _timed_extract(self.workload, case.mixture, config, tracer)
                    delta = workloads.check_case(
                        self.workload, case, estimate, report, monitored, unmonitored
                    )
                except Exception as exc:  # a raising extraction or a failed check
                    self.tally.fail(case.label, exc)
                    continue
                self.tally.ok()
                label["ok"] = True
                self.times[(traced, monitored)][index].append(ms)
                if not monitored:
                    unmonitored = estimate
                    self.deltas.setdefault(index, delta)
        for variant in self.inputs.variants:
            try:
                estimate, report = self.workload.extract(variant.mixture, variant.config)
                self.workload.check_variant(self.inputs, variant, estimate, report)
            except Exception as exc:  # the known degenerate-array fault
                self.tally.fail(variant.label, exc, known_fault=True)
                continue
            self.tally.ok()
        self.rounds += 1

    def _mean_of_case_medians(self, key):
        medians = [statistics.median(t) for t in self.times[key] if t]
        return statistics.fmean(medians) if medians else 0.0

    def end_to_end(self, setup_s):
        return {
            "extract_ms": self._mean_of_case_medians((False, False)),
            "extract_monitored_ms": self._mean_of_case_medians((False, True)),
            "delta_si_sdr_db": statistics.median(self.deltas.values()) if self.deltas else 0.0,
            "peak_alloc_mb": peak_alloc_mb(self.workload, self.inputs),
            "setup_s": setup_s,
        }

    def per_layer(self):
        """Per monitored extraction: median over traced rounds, mean over cases."""
        stats = self.tracer.per_extraction()
        samples = defaultdict(lambda: defaultdict(list))  # case -> metric -> values
        for extraction, label in self.labels.items():
            if not (label["monitored"] and label.get("ok")):
                continue
            spans = stats.get(extraction, {})
            values = samples[label["case"]]
            for name in SPAN_NAMES:
                values[f"{name}_ms"].append(spans.get(name, (0.0, 0, 0))[0])
            eig = spans.get("linalg.eig_hermitian", (0.0, 0, 0))
            values["linalg.eig_hermitian_calls"].append(eig[1])
            values["linalg.eig_matrices"].append(eig[2])
            values["core.iterations"].append(spans.get("core.five_iteration", (0.0, 0, 0))[1])
        metrics = {}
        for name, _ in PER_LAYER[:-1]:
            medians = [statistics.median(v[name]) for v in samples.values()]
            metrics[name] = statistics.fmean(medians) if medians else 0.0
        overhead = [
            statistics.median(traced) - statistics.median(plain)
            for traced, plain in zip(self.times[(True, True)], self.times[(False, True)])
            if traced and plain
        ]
        metrics["trace.overhead_ms"] = statistics.fmean(overhead) if overhead else 0.0
        return metrics

    def write(self, out_dir, stem):
        """Raw extraction times (ms) per case, and the spans of a traced run."""
        out_dir.mkdir(parents=True, exist_ok=True)
        kinds = {(False, False): "plain", (False, True): "monitored",
                 (True, False): "traced_plain", (True, True): "traced_monitored"}
        times = {
            case.label: {kinds[key]: self.times[key][index] for key in kinds if key in self.times}
            for index, case in enumerate(self.inputs.cases)
        }
        (out_dir / f"times-{stem}.json").write_text(json.dumps(times))
        if self.tracer is not None:
            self.tracer.write(out_dir / f"spans-{stem}.jsonl", self.labels)


def peak_alloc_mb(workload, inputs):
    """Largest tracemalloc peak of one monitored extraction, over input shapes."""
    peak, seen = 0, set()
    for case in inputs.cases:
        mixture = case.mixture
        shape = (mixture.samples if isinstance(mixture, MultichannelWave) else mixture.data).shape
        if shape in seen:
            continue
        seen.add(shape)
        tracemalloc.start()
        try:
            workload.extract(mixture, case.monitored)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        except Exception:  # already counted as a failure in the timed rounds
            pass
        finally:
            tracemalloc.stop()
    return peak / 1e6


def measure(workload, seed, seconds, trace, import_s, out_dir=None):
    """One benchmark run; returns (result dict for the JSON line, Run).

    The set-up is timed SETUP_REPEATS times. Repeats after the first run
    between blocks of timed rounds, so that the rounds sample a longer
    stretch of a machine whose speed drifts over seconds.
    """
    setup_times = []

    def set_up():
        t0 = time.perf_counter()
        inputs = _set_up(workload, seed)
        setup_times.append(time.perf_counter() - t0)
        return inputs

    run = Run(workload, set_up(), trace)
    measured = 0.0
    for block in range(SETUP_REPEATS):
        if block:
            set_up()
        start = time.perf_counter()
        target = seconds * (block + 1) / SETUP_REPEATS
        while True:
            traced = trace and run.rounds % 2 == 1
            run.round(traced)
            if measured + time.perf_counter() - start >= target and (traced or not trace):
                break
        measured += time.perf_counter() - start

    if out_dir is not None:
        run.write(out_dir, f"{workload.name}-seed{seed}-trace{int(trace)}")
    if trace:
        values, units = run.per_layer(), dict(PER_LAYER)
    else:
        values = run.end_to_end(import_s + statistics.median(setup_times))
        units = dict(END_TO_END)
    result = {
        "correct": run.tally.unexpected == 0,
        "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    return result, run


def report(workload, seed, trace, result, run, out):
    """Human-readable summary, then the JSON result as the last line."""
    tally = run.tally
    known = tally.failed - tally.unexpected
    print(
        f"{workload.name} seed={seed} trace={trace}: {run.rounds} rounds, "
        f"{tally.attempted} extractions attempted, {tally.failed} failed "
        f"({known} known degenerate-array fault, {tally.unexpected} unexpected)",
        file=out,
    )
    for name, metric in result["metrics"].items():
        print(f"  {name:<44} {metric['value']:>14.4f} {metric['unit']}", file=out)
    for reason, count in tally.reasons.most_common():
        print(f"  failed x{count}: {reason}", file=sys.stderr)
    print(json.dumps(result), file=out)
