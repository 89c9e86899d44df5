"""Batch command line: extraction, scene simulation, evaluation, benchmarking.

Subcommands exchange plain files (WAV, raw tensor files, CSV) so runs can
be scripted and plotted with any tool. Settings are parsed once by argparse:
each line of a --config file is read as a flag given before the command
line's own (sinr_db=-2 as --sinr-db=-2), so it gets that flag's checks and
a command-line flag wins; keys that name no flag of the subcommand are
ignored. Defaults the library also has are read from its dataclasses, and
--help shows each one. Every CSV goes through _write_csv, which echoes the
fully resolved configuration as sorted '# key=value' lines above the column
row, ends every line with LF and quotes a field that holds a comma; each
command that writes a CSV states its columns. Exit codes: 0 success, 1 usage
error, 2 runtime failure.
"""

import argparse
import csv
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

from . import core, metrics, scenes
from .stft import SpectralTensor, StftConfig, analyze, synthesize
from .wavio import read_wave, write_wave


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        super().__init__(formatter_class=argparse.ArgumentDefaultsHelpFormatter, **kwargs)

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


_FIVE = core.FiveConfig
_SCENE = scenes.SceneSpec


def _add_stft_args(parser):
    parser.add_argument("--frame-size", type=_positive_int, default=StftConfig.frame_size, help="STFT frame")
    parser.add_argument("--hop", type=_positive_int, default=None, help="STFT hop; None means frame/2")


def _add_five_args(parser):
    parser.add_argument("--contrast", choices=["laplace", "gauss"], default="gauss", help="source model")
    parser.add_argument("--iterations", type=_positive_int, default=_FIVE.max_iterations, help="demixing updates")
    parser.add_argument("--ref-channel", type=_nonneg_int, default=_FIVE.ref_channel, help="reference channel")


def _add_scene_args(parser):
    parser.add_argument("--channels", type=_positive_int, default=4, help="microphone count")
    parser.add_argument("--interferers", type=_nonneg_int, default=_SCENE.num_interferers, help="background sources")
    parser.add_argument("--sinr-db", type=float, default=_SCENE.input_sinr_db, help="channel-1 SINR")
    parser.add_argument("--bins", type=_positive_int, default=_SCENE.num_bins, help="frequency bins")
    parser.add_argument("--frames", type=_positive_int, default=_SCENE.num_frames, help="frames")
    parser.add_argument("--mixing", choices=scenes.MIXING_MODES, default=_SCENE.mixing, help="mixing model")
    parser.add_argument("--target-model", choices=scenes.TARGET_MODELS, default=_SCENE.target_model,
                        help="target source model")
    parser.add_argument("--noise-fraction", type=float, default=_SCENE.uncorrelated_noise_fraction,
                        help="uncorrelated share")
    parser.add_argument("--sample-rate", type=_positive_int, default=_SCENE.sample_rate, help="sample rate in Hz")
    parser.add_argument("--duration", type=float, default=1.0, help="convolutive length in seconds")
    parser.add_argument("--fir-length", type=_positive_int, default=_SCENE.fir_length, help="convolutive filter taps")


def build_parser():
    parser = _Parser(prog="five", description="Blind single-source extraction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ext = sub.add_parser("extract", help="extract the target from a recording")
    p_ext.add_argument("--input", required=True, help="input WAV or .fiv tensor")
    p_ext.add_argument("--output", required=True, help="output WAV or .fiv tensor")
    p_ext.add_argument("--report", default=None, help="per-iteration CSV report")
    p_ext.add_argument("--format", choices=["float32", "pcm16"], default="float32", help="output WAV sample format")
    p_ext.add_argument("--sample-rate", type=_positive_int, default=_SCENE.sample_rate, help="rate for tensor input")
    _add_stft_args(p_ext)
    _add_five_args(p_ext)

    p_sim = sub.add_parser("simulate", help="generate a synthetic ground-truth scene")
    p_sim.add_argument("--output", required=True, help="scene directory")
    p_sim.add_argument("--seed", type=_nonneg_int, default=_SCENE.seed, help="scene seed")
    _add_scene_args(p_sim)

    p_eval = sub.add_parser("evaluate", help="score an estimate against a scene")
    p_eval.add_argument("--scene", required=True, help="scene directory")
    p_eval.add_argument("--estimate", required=True, help="extracted WAV or .fiv tensor")
    p_eval.add_argument("--report", required=True, help="CSV to append the metric row to, if its columns match")
    p_eval.add_argument("--algorithm", default="five", help="algorithm label for the row")
    p_eval.add_argument("--iterations", type=_nonneg_int, default=_FIVE.max_iterations, help="the row's iterations")
    _add_stft_args(p_eval)

    p_bench = sub.add_parser("bench", help="convergence/runtime curves over seeded scenes")
    p_bench.add_argument("--output", required=True, help="CSV output")
    p_bench.add_argument("--scenes", type=_positive_int, default=5, help="number of seeds")
    p_bench.add_argument("--seed", type=_nonneg_int, default=_SCENE.seed, help="base seed")
    _add_stft_args(p_bench)
    _add_five_args(p_bench)
    _add_scene_args(p_bench)
    for command in sub.choices.values():
        command.add_argument("--config", default=None, help="key=value file, read as flags before the command line's")
    parser.commands = sub.choices
    return parser


def _config_tokens(args):
    """Each --config line whose key is a setting of the subcommand, as the flag --key-with-dashes=value."""
    return [
        f"--{key.replace('_', '-')}={value}"
        for key, value in scenes.read_keyvalues(args.config).items()
        if hasattr(args, key) and key not in ("command", "config")
    ]


def _resolve(parser, args):
    """The full configuration, hop from StftConfig; a frame or hop StftConfig rejects is a usage error of parser."""
    cfg = {key: value for key, value in vars(args).items() if key not in ("command", "config")}
    if "frame_size" in cfg:
        try:
            cfg["hop"] = _stft_config(cfg).hop
        except ValueError as exc:
            parser.error(f"argument --frame-size/--hop: {exc}")
    return cfg


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
        # only a convolutive scene has a length; a tensor scene records None
        num_samples=(
            int(round(cfg["duration"] * cfg["sample_rate"])) if cfg["mixing"] == "convolutive_fir" else None
        ),
    )


def _write_csv(path, cfg, columns, rows, append=False):
    """Write cfg as sorted '# key=value' lines, the column row and rows; append adds rows only."""
    with open(path, "a" if append else "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if not append:
            fh.writelines(f"# {key}={cfg[key]}\n" for key in sorted(cfg))
            writer.writerow(columns)
        writer.writerows(rows)


def _column_row(path):
    """The column row of a CSV: its first line that is not a '# key=value' line, or None."""
    with open(path, newline="") as fh:
        return next(csv.reader(line for line in fh if not line.startswith("#")), None)


def cmd_extract(cfg):
    in_path = cfg["input"]
    spectral_in = str(in_path).endswith(".fiv")
    if str(cfg["output"]).endswith(".fiv") != spectral_in:
        print("five extract: error: --output must be a .fiv tensor exactly when --input is one", file=sys.stderr)
        return 1
    if not Path(in_path).exists():
        raise FileNotFoundError(f"input not found: {in_path}")
    if spectral_in:
        data = scenes.read_tensor(in_path)
        spec = SpectralTensor(
            data=data,
            sample_rate=cfg["sample_rate"],
            config=scenes.tensor_config(data.shape[0]),
        )
        five_cfg = _five_config(cfg, spec.num_bins)
        extracted, report = core.extract_spectral(spec, five_cfg)
        # the report echoes the tensor's own STFT settings, the ones used
        cfg = {**cfg, **asdict(spec.config)}
    else:
        wave = read_wave(in_path)
        stft_cfg = _stft_config(cfg)
        five_cfg = _five_config(cfg, stft_cfg.num_bins)
        out_wave, report = core.extract(wave, stft_cfg, five_cfg)
        # the report echoes the file's own sample rate, the one used
        cfg = {**cfg, "sample_rate": wave.sample_rate}
    # the report goes first: a run that cannot write it leaves no estimate
    if cfg.get("report"):  # monitoring is on, so every record holds its NLL and certificate
        rows = [
            [rec.iteration, repr(rec.nll), repr(rec.head_residual), f"{rec.wall_time_ms:.3f}"]
            for rec in report.records
        ]
        _write_csv(cfg["report"], cfg, ["iteration", "nll", "head_residual", "wall_time_ms"], rows)
    try:
        if spectral_in:
            scenes.write_tensor(cfg["output"], extracted)
        else:
            clipped = write_wave(cfg["output"], out_wave, format=cfg["format"])
    except Exception:  # and a run that cannot write the estimate leaves no report
        if cfg.get("report"):
            Path(cfg["report"]).unlink(missing_ok=True)
        raise
    if not spectral_in and clipped:
        print(f"five extract: clipped {clipped} out-of-range samples", file=sys.stderr)
    return 0


def cmd_simulate(cfg):
    scene = scenes.generate_scene(_scene_spec(cfg))
    scenes.save_scene(scene, cfg["output"])
    return 0


def cmd_evaluate(cfg):
    columns = ["scene_id", "algorithm", "iterations", "si_sdr", "si_sir", "delta_si_sdr", "delta_si_sir"]
    append = Path(cfg["report"]).exists()
    if append and _column_row(cfg["report"]) != columns:
        print(f"five evaluate: error: --report {cfg['report']} exists with other columns", file=sys.stderr)
        return 1
    scene = scenes.load_scene(cfg["scene"])
    estimate, rate = scenes.read_image(cfg["estimate"])
    if rate is not None and rate != scene.mixture.sample_rate:
        raise ValueError(
            f"estimate sample rate {rate} Hz differs from the scene's {scene.mixture.sample_rate} Hz"
        )
    edge_trim = 0 if scene.is_spectral else cfg["frame_size"]
    report = metrics.evaluate_extraction(scene, estimate, edge_trim=edge_trim)
    scores = (report.si_sdr_db, report.si_sir_db, report.delta_si_sdr_db, report.delta_si_sir_db)
    row = [Path(cfg["scene"]).name, cfg["algorithm"], cfg["iterations"]] + [f"{score:.6f}" for score in scores]
    _write_csv(cfg["report"], cfg, columns, [row], append=append)
    return 0


def bench_one_seed(cfg, seed):
    """Per-iteration (runtime, nll, delta SI-SDR) trace for one seeded scene.

    Runs core.extract_spectral, as extract does, and scores the projected
    estimate of the state its callback receives at every iteration. Runtime
    is the cumulative algorithmic time normalized per second of input:
    analysis, the report's wall time of each record (whitening and
    initialization, then each update) and the projection and synthesis of
    each scored estimate. Scoring is not counted, nor is the part of the
    monitor that runs outside the updates.
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

    finish_s, deltas = [], []

    def _score(iteration, state):
        t_fin = time.perf_counter()
        estimate = core.project_back(state)
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
    if cfg["ref_channel"] != 0:  # a projection onto channel k > 0 would be scored against channel 0's image
        print("five bench: error: --ref-channel must be 0: scenes keep only channel 0's target image", file=sys.stderr)
        return 1
    traces = [bench_one_seed(cfg, cfg["seed"] + k) for k in range(cfg["scenes"])]
    if cfg["mixing"] != "convolutive_fir":  # tensor scenes run at their own STFT settings: echo those
        cfg = {**cfg, **asdict(scenes.tensor_config(cfg["bins"]))}
    rows = [
        [seed, iteration, f"{runtime:.6f}", repr(nll), f"{delta:.6f}"]
        for trace in traces
        for seed, iteration, runtime, nll, delta in trace
    ]
    _write_csv(cfg["output"], cfg, ["seed", "iteration", "runtime_per_input_second", "nll", "delta_si_sdr"], rows)
    return 0


_COMMANDS = {
    "extract": cmd_extract,
    "simulate": cmd_simulate,
    "evaluate": cmd_evaluate,
    "bench": cmd_bench,
}


def main(argv=None):
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if args.config is not None:  # the subcommand is argv[0]: the top level has no other option
            args = parser.parse_args(argv[:1] + _config_tokens(args) + argv[1:])
        return _COMMANDS[args.command](_resolve(parser.commands[args.command], args))
    except SystemExit as exc:  # usage error in a flag or a config-file value, or --help
        return int(exc.code or 0)
    except BrokenPipeError:
        return 2
    except Exception as exc:  # runtime failure -> exit 2 with a diagnostic
        print(f"five {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
