"""Self-test of the benchmark: every check rejects a corrupted output, then a quick run.

    python3 bench/selftest.py

Part 1 extracts small inputs of each kind, confirms that the genuine outputs
pass, and then hands the same checks the harness applies corrupted copies:
the unprocessed reference channel in place of the estimate, a rising NLL
trace, an unconverged report, a certificate above its bound, a truncated
output, a non-finite output, an estimate changed by monitoring, and a
degenerate-array variant that runs but misses its reference. Each must be
rejected. It also checks that tracing restores the package's functions.

Part 2 runs every workload at a reduced size for one second, untraced and
traced, and checks the result object the benchmark prints.

Exits with status 0 when everything holds, 1 otherwise.
"""

import dataclasses
import io
import json
import math
import sys

from run import ROOT, WORKLOAD_NAMES, load_harness

harness, _ = load_harness()

import checks  # noqa: E402  (needs the package path set by load_harness)
import five  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

REDUCED = {
    "conv8_10s": dict(scenes=1),
    "conv4_30s": dict(duration_s=3.0, scenes=1),
    "inst_converge": dict(channel_counts=(2, 4), scenes_per_size=1, bins=33, frames=200),
}

failures = []


def expect(what, accepted, fn):
    """Run fn; it must raise CheckFailure exactly when accepted is False."""
    try:
        fn()
    except checks.CheckFailure as exc:
        ok, outcome = not accepted, f"rejected ({exc})"
    else:
        ok, outcome = accepted, "accepted"
    print(f"{'ok  ' if ok else 'FAIL'} {what}: {outcome}")
    if not ok:
        failures.append(what)


def with_records(report, **changes):
    """Copy of an ExtractionReport with its last record's fields replaced."""
    records = list(report.records)
    records[-1] = dataclasses.replace(records[-1], **changes)
    return dataclasses.replace(report, records=records)


def rising(report):
    first = report.records[0].nll
    return with_records(report, nll=first + 1e-3 * abs(first))


def corrupt_case(workload, case, reference_channel):
    name = workload.name
    plain, _ = workload.extract(case.mixture, case.unmonitored)
    estimate, report = workload.extract(case.mixture, case.monitored)

    def judge(out, rep, unmonitored=plain):
        return lambda: workloads.check_case(workload, case, out, rep, True, unmonitored)

    expect(f"{name}: genuine monitored output", True, judge(estimate, report))
    expect(f"{name}: reference channel as estimate", False, judge(reference_channel, report, None))
    expect(f"{name}: rising NLL trace", False, judge(estimate, rising(report)))
    expect(f"{name}: truncated output", False, judge(estimate[:-1], report, None))
    bad = estimate.copy()
    bad.flat[0] = math.nan
    expect(f"{name}: non-finite output", False, judge(bad, report, None))
    expect(f"{name}: monitoring changed the estimate", False, judge(estimate, report, plain * (1 + 1e-6)))
    return estimate, report


def part1():
    reduced = {name: dataclasses.replace(w, **REDUCED[name]) for name, w in workloads.WORKLOADS.items()}

    tensor = reduced["inst_converge"]
    case = tensor.setup(0).cases[0]
    estimate, report = corrupt_case(tensor, case, case.mixture.data[:, :, 0])
    judge = lambda rep: lambda: workloads.check_case(tensor, case, estimate, rep, True)  # noqa: E731
    expect("inst_converge: unconverged report", False, judge(dataclasses.replace(report, converged=False)))
    expect("inst_converge: certificate above bound", False, judge(with_records(report, head_residual=1e-3)))

    audio = reduced["conv4_30s"]
    case = audio.setup(0).cases[0]
    corrupt_case(audio, case, case.mixture.samples[:, :1].copy())

    array = reduced["conv8_10s"]
    inputs = array.setup(0)
    variant = inputs.variants[0]
    reference_channel = variant.mixture.samples[:, :1].copy()
    _, report = array.extract(inputs.cases[0].mixture, inputs.cases[0].monitored)
    expect(
        "conv8_10s: degenerate variant that misses its reference",
        False,
        lambda: array.check_variant(inputs, variant, reference_channel, report),
    )

    originals = {attr: getattr(five.core, attr) for _, attr, _ in spans.TARGETS if hasattr(five.core, attr)}
    with spans.Tracer() as tracer:
        tracer.extraction = 0
        five.extract_spectral(tensor.setup(1).cases[0].mixture, tensor.setup(1).cases[0].monitored)
    restored = all(getattr(five.core, attr) is fn for attr, fn in originals.items())
    nested = all(
        s.parent is None or tracer.spans[s.parent].start <= s.start <= s.end <= tracer.spans[s.parent].end
        for s in tracer.spans
    )
    print(f"{'ok  ' if restored and nested else 'FAIL'} tracer: {len(tracer.spans)} spans nest, bindings restored")
    if not (restored and nested):
        failures.append("tracer")


def part2():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = (
        [w["name"] for w in spec["workloads"]],
        [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        [(m["name"], m["unit"]) for m in spec["per_layer"]],
    )
    measured = (list(workloads.WORKLOADS), harness.END_TO_END, harness.PER_LAYER)
    same = declared == measured and WORKLOAD_NAMES == list(workloads.WORKLOADS)
    print(f"{'ok  ' if same else 'FAIL'} BENCHMARK.json names the workloads and metrics the harness reports")
    if not same:
        failures.append("BENCHMARK.json")
    for name, workload in workloads.WORKLOADS.items():
        small = dataclasses.replace(workload, **REDUCED[name])
        for trace in (0, 1):
            result, run = harness.measure(small, seed=0, seconds=1, trace=trace, import_s=0.0)
            out = io.StringIO()
            harness.report(small, 0, trace, result, run, out)
            print(out.getvalue(), end="")
            printed = json.loads(out.getvalue().splitlines()[-1])
            names = [n for n, _ in (harness.PER_LAYER if trace else harness.END_TO_END)]
            problems = []
            if set(printed) != {"correct", "attempted", "failed", "metrics"}:
                problems.append("result keys")
            if list(printed["metrics"]) != names:
                problems.append("metric names")
            if not all(math.isfinite(m["value"]) for m in printed["metrics"].values()):
                problems.append("non-finite metric")
            if not printed["correct"] or printed["attempted"] < 1:
                problems.append("an extraction outside the known fault failed")
            status = "ok  " if not problems else "FAIL"
            print(f"{status} quick run {name} trace={trace}" + (f": {', '.join(problems)}" if problems else ""))
            if problems:
                failures.append(f"quick run {name} trace={trace}")


if __name__ == "__main__":
    part1()
    part2()
    print(f"selftest: {len(failures)} failure(s)" + (f": {failures}" if failures else ""))
    sys.exit(1 if failures else 0)
