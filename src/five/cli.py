"""Batch command line: extraction, scene simulation, evaluation, benchmarking.

Subcommands exchange plain files (WAV, raw tensor files, CSV) so runs can
be scripted and plotted with any tool. Every report echoes the fully
resolved configuration. Exit codes: 0 success, 1 usage error, 2 runtime
failure.
"""

import argparse
import csv
import sys
import time
from dataclasses import replace
from pathlib import Path

from . import core, metrics, scenes
from .stft import SpectralTensor, StftConfig, analyze, synthesize
from .wavio import read_wave, write_wave


class _Parser(argparse.ArgumentParser):
    # spec'd exit codes: argparse's default usage-error code is 2, we need 1
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _nonneg_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {value}")
    return value


def _add_stft_args(parser):
    parser.add_argument("--frame-size", type=_positive_int, default=None, help="STFT frame (default 4096)")
    parser.add_argument("--hop", type=_positive_int, default=None, help="STFT hop (default frame/2)")


def _add_five_args(parser):
    parser.add_argument("--contrast", choices=["laplace", "gauss"], default=None, help="source model (default gauss)")
    parser.add_argument("--iterations", type=_positive_int, default=None, help="demixing updates (default 3)")
    parser.add_argument("--ref-channel", type=_nonneg_int, default=None, help="reference channel (default 0)")


def _add_scene_args(parser):
    parser.add_argument("--channels", type=_positive_int, default=None, help="microphone count (default 4)")
    parser.add_argument("--interferers", type=_nonneg_int, default=None, help="background sources (default 10)")
    parser.add_argument("--sinr-db", type=float, default=None, help="channel-1 SINR (default 5)")
    parser.add_argument("--bins", type=_positive_int, default=None, help="frequency bins (default 64)")
    parser.add_argument("--frames", type=_positive_int, default=None, help="frames (default 500)")
    parser.add_argument("--mixing", choices=list(scenes.MIXING_MODES), default=None)
    parser.add_argument("--target-model", choices=list(scenes.TARGET_MODELS), default=None)
    parser.add_argument("--noise-fraction", type=float, default=None, help="uncorrelated share (default 0.01)")
    parser.add_argument("--sample-rate", type=_positive_int, default=None, help="default 16000")
    parser.add_argument("--duration", type=float, default=None, help="convolutive length in seconds (default 1)")
    parser.add_argument("--fir-length", type=_positive_int, default=None, help="convolutive filter taps (default 256)")


def build_parser():
    parser = _Parser(prog="five", description="Blind single-source extraction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ext = sub.add_parser("extract", parents=[], help="extract the target from a recording")
    p_ext.add_argument("--input", required=True, help="input WAV or .fiv tensor")
    p_ext.add_argument("--output", required=True, help="output WAV or .fiv tensor")
    p_ext.add_argument("--report", default=None, help="per-iteration CSV report")
    p_ext.add_argument("--format", choices=["float32", "pcm16"], default=None, help="output WAV sample format")
    p_ext.add_argument("--sample-rate", type=_positive_int, default=None, help="rate for tensor input (default 16000)")
    _add_stft_args(p_ext)
    _add_five_args(p_ext)
    p_ext.add_argument("--config", default=None, help="key=value config file; flags override")

    p_sim = sub.add_parser("simulate", help="generate a synthetic ground-truth scene")
    p_sim.add_argument("--output", required=True, help="scene directory")
    p_sim.add_argument("--seed", type=_nonneg_int, default=None, help="default 0")
    _add_scene_args(p_sim)
    p_sim.add_argument("--config", default=None)

    p_eval = sub.add_parser("evaluate", help="score an estimate against a scene")
    p_eval.add_argument("--scene", required=True, help="scene directory")
    p_eval.add_argument("--estimate", required=True, help="extracted WAV or .fiv tensor")
    p_eval.add_argument("--report", required=True, help="CSV to append the metric row to")
    p_eval.add_argument("--algorithm", default="five")
    p_eval.add_argument("--iterations", type=_nonneg_int, default=None)
    _add_stft_args(p_eval)
    p_eval.add_argument("--config", default=None)

    p_bench = sub.add_parser("bench", help="convergence/runtime curves over seeded scenes")
    p_bench.add_argument("--output", required=True, help="CSV output")
    p_bench.add_argument("--scenes", type=_positive_int, default=None, help="number of seeds (default 5)")
    p_bench.add_argument("--seed", type=_nonneg_int, default=None, help="base seed (default 0)")
    _add_stft_args(p_bench)
    _add_five_args(p_bench)
    _add_scene_args(p_bench)
    p_bench.add_argument("--config", default=None)
    parser.commands = sub.choices
    return parser


_DEFAULTS = {
    "frame_size": 4096,
    "hop": None,
    "contrast": "gauss",
    "iterations": 3,
    "ref_channel": 0,
    "format": "float32",
    "seed": 0,
    "channels": 4,
    "interferers": 10,
    "sinr_db": 5.0,
    "bins": 64,
    "frames": 500,
    "mixing": "instantaneous_per_bin",
    "target_model": "laplace_modulated",
    "noise_fraction": 0.01,
    "sample_rate": 16000,
    "duration": 1.0,
    "fir_length": 256,
    "scenes": 5,
    "algorithm": "five",
}


def _apply_config_file(parser, args, argv):
    """Parse argv again with the --config file's values as the subcommand's defaults.

    argparse converts and checks string defaults with the flag's type, so a
    file value gets the same checks as the flag, and a flag still wins. It
    checks choices on command-line values only, so they are checked here.
    """
    if not getattr(args, "config", None):
        return args
    file_values = scenes.read_keyvalues(args.config)
    command = parser.commands[args.command]
    command.set_defaults(**{key: raw for key, raw in file_values.items() if hasattr(args, key)})
    args = parser.parse_args(argv)
    for action in command._actions:
        value = getattr(args, action.dest, None)
        if action.choices is not None and value is not None and value not in action.choices:
            flag, choices = action.option_strings[0], ", ".join(map(repr, action.choices))
            command.error(f"argument {flag}: invalid choice: {value!r} (choose from {choices})")
    return args


def _resolve(args):
    """Materialize the full configuration: flags > config file > defaults."""
    resolved = {}
    for key, value in vars(args).items():
        if key not in ("command", "config"):
            resolved[key] = _DEFAULTS.get(key) if value is None else value
    if resolved.get("hop") is None and "frame_size" in resolved:
        resolved["hop"] = resolved["frame_size"] // 2
    return resolved


def _stft_config(cfg):
    return StftConfig(frame_size=cfg["frame_size"], hop=cfg["hop"])


def _five_config(cfg, num_bins):
    return core.FiveConfig(
        contrast=core.ContrastModel(cfg["contrast"], num_bins=num_bins),
        max_iterations=cfg["iterations"],
        ref_channel=cfg["ref_channel"],
    )


def _scene_spec(cfg, seed=None):
    return scenes.SceneSpec(
        num_channels=cfg["channels"],
        num_bins=cfg["bins"],
        num_frames=cfg["frames"],
        sample_rate=cfg["sample_rate"],
        target_model=cfg["target_model"],
        num_interferers=cfg["interferers"],
        input_sinr_db=cfg["sinr_db"],
        uncorrelated_noise_fraction=cfg["noise_fraction"],
        seed=cfg["seed"] if seed is None else seed,
        mixing=cfg["mixing"],
        fir_length=cfg["fir_length"],
        num_samples=int(round(cfg["duration"] * cfg["sample_rate"])),
    )


def _load_estimate(path):
    path = str(path)
    if path.endswith(".fiv"):
        return scenes.read_tensor(path)[:, :, 0]
    return read_wave(path).samples[:, 0]


def cmd_extract(cfg):
    in_path = cfg["input"]
    if not Path(in_path).exists():
        raise FileNotFoundError(f"input not found: {in_path}")
    spectral_in = str(in_path).endswith(".fiv")
    if spectral_in:
        data = scenes.read_tensor(in_path)
        spec = SpectralTensor(
            data=data,
            sample_rate=cfg["sample_rate"],
            config=scenes.tensor_config(data.shape[0]),
        )
        five_cfg = _five_config(cfg, spec.num_bins)
        extracted, report = core.extract_spectral(spec, five_cfg)
        scenes.write_tensor(cfg["output"], extracted)
    else:
        wave = read_wave(in_path)
        stft_cfg = _stft_config(cfg)
        five_cfg = _five_config(cfg, stft_cfg.num_bins)
        out_wave, report = core.extract(wave, stft_cfg, five_cfg)
        clipped = write_wave(cfg["output"], out_wave, format=cfg["format"])
        if clipped:
            print(f"five extract: clipped {clipped} out-of-range samples", file=sys.stderr)
    if cfg.get("report"):
        report.to_csv(cfg["report"], header=cfg)
    return 0


def cmd_simulate(cfg):
    scene = scenes.generate_scene(_scene_spec(cfg))
    scenes.save_scene(scene, cfg["output"])
    return 0


def cmd_evaluate(cfg):
    scene = scenes.load_scene(cfg["scene"])
    estimate = _load_estimate(cfg["estimate"])
    edge_trim = 0 if scene.is_spectral else cfg["frame_size"]
    report = metrics.evaluate_extraction(scene, estimate, edge_trim=edge_trim)
    row = metrics.metric_csv_row(
        Path(cfg["scene"]).name, cfg["algorithm"], cfg["iterations"], report
    )
    report_path = Path(cfg["report"])
    write_header = not report_path.exists()
    with open(report_path, "a") as fh:
        if write_header:
            core.write_config_header(fh, cfg)
            fh.write("scene_id,algorithm,iterations,si_sdr,si_sir,delta_si_sdr,delta_si_sir\n")
        fh.write(row + "\n")
    return 0


def bench_one_seed(cfg, seed):
    """Per-iteration (runtime, nll, delta SI-SDR) trace for one seeded scene.

    Runs core.extract_spectral, as extract does, and scores the estimate its
    callback receives at every iteration. Runtime is the cumulative
    algorithmic time normalized per second of input: analysis, the report's
    wall time of each record (whitening and initialization, then each update)
    and the projection and synthesis of each scored estimate. Scoring is not
    counted, nor is the part of the monitor that runs outside the updates.
    """
    scene = scenes.generate_scene(_scene_spec(cfg, seed=seed))
    stft_cfg = _stft_config(cfg)
    if scene.is_spectral:
        spec = scene.mixture
        duration = scene.mixture.num_frames * (scene.mixture.config.hop / cfg["sample_rate"])
        t_base = 0.0
        edge_trim = 0
    else:
        t0 = time.perf_counter()
        spec = analyze(scene.mixture, stft_cfg)
        t_base = time.perf_counter() - t0
        duration = scene.mixture.duration
        edge_trim = stft_cfg.frame_size

    ref = cfg["ref_channel"]
    finish_s, deltas = [], []

    def _score(iteration, state, raw):
        t_fin = time.perf_counter()
        estimate = core.project_back(raw, spec, ref)
        if not scene.is_spectral:
            estimate = synthesize(replace(spec, data=estimate[:, :, None])).samples[:, 0]
        finish_s.append(time.perf_counter() - t_fin)
        report = metrics.evaluate_extraction(scene, estimate, edge_trim=edge_trim)
        deltas.append(report.delta_si_sdr_db)

    _, report = core.extract_spectral(spec, _five_config(cfg, spec.num_bins), callback=_score)
    rows = []
    elapsed = t_base
    for record, finish, delta in zip(report.records, finish_s, deltas):
        elapsed += record.wall_time_ms / 1e3 + finish
        rows.append((seed, record.iteration, elapsed / duration, record.nll, delta))
    return rows


def cmd_bench(cfg):
    traces = [bench_one_seed(cfg, cfg["seed"] + k) for k in range(cfg["scenes"])]
    with open(cfg["output"], "w", newline="") as fh:
        core.write_config_header(fh, cfg)
        writer = csv.writer(fh)
        writer.writerow(["seed", "iteration", "runtime_per_input_second", "nll", "delta_si_sdr"])
        for rows in traces:
            for seed, iteration, runtime, nll, delta in rows:
                writer.writerow([seed, iteration, f"{runtime:.6f}", repr(nll), f"{delta:.6f}"])
    return 0


_COMMANDS = {
    "extract": cmd_extract,
    "simulate": cmd_simulate,
    "evaluate": cmd_evaluate,
    "bench": cmd_bench,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args = _apply_config_file(parser, args, argv)
        return _COMMANDS[args.command](_resolve(args))
    except SystemExit as exc:  # usage error in a flag or a config-file value, or --help
        return int(exc.code or 0)
    except BrokenPipeError:
        return 2
    except Exception as exc:  # runtime failure -> exit 2 with a diagnostic
        print(f"five {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
