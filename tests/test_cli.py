import csv

import numpy as np
import pytest

from five import cli
from five.core import ContrastModel, FiveConfig, extract_spectral
from five.metrics import CAP_DB
from five.scenes import load_scene, read_tensor, write_tensor
from five.wavio import MultichannelWave, read_wave, write_wave


def _write_noise_wav(path, channels=1, samples=4096, rate=16000, seed=0):
    rng = np.random.default_rng(seed)
    data = 0.5 * rng.uniform(-1, 1, (samples, channels))
    write_wave(path, MultichannelWave(rate, data), format="float32")
    return data


# ---------------------------------------------------------------- extract


def test_extract_single_channel_roundtrip(tmp_path, capsys):
    in_path = tmp_path / "in.wav"
    out_path = tmp_path / "out.wav"
    data = _write_noise_wav(in_path, samples=6 * 512)
    rc = cli.main(
        ["extract", "--input", str(in_path), "--output", str(out_path),
         "--frame-size", "512", "--report", str(tmp_path / "rep.csv")]
    )
    assert rc == 0
    out = read_wave(out_path)
    assert out.channels == 1
    interior = slice(512, data.shape[0] - 512)
    err = np.linalg.norm(out.samples[interior, 0] - data[interior, 0])
    assert err <= 1e-6 * np.linalg.norm(data[interior, 0]) + 1e-7  # float32 storage

    report = (tmp_path / "rep.csv").read_text()
    assert "# frame_size=512" in report
    assert report.strip().splitlines()[-1].startswith("3,")  # 3 iterations by default
    assert b"\r" not in (tmp_path / "rep.csv").read_bytes()  # LF ends comments and rows alike


def test_extract_pcm16_output(tmp_path):
    in_path = tmp_path / "in.wav"
    _write_noise_wav(in_path, samples=4 * 512)
    out_path = tmp_path / "out.wav"
    rc = cli.main(
        ["extract", "--input", str(in_path), "--output", str(out_path),
         "--frame-size", "512", "--format", "pcm16"]
    )
    assert rc == 0
    assert read_wave(out_path).channels == 1


def test_extract_pcm16_output_reports_clipped_samples(tmp_path, capsys):
    # a float32 input of amplitude 2 extracts, on one channel, to itself:
    # every sample beyond [-1, 1] is clipped and counted on stderr
    in_path, out_path = tmp_path / "in.wav", tmp_path / "out.wav"
    data = 4 * _write_noise_wav(in_path, samples=6 * 512)
    write_wave(in_path, MultichannelWave(16000, data), format="float32")
    rc = cli.main(["extract", "--input", str(in_path), "--output", str(out_path), "--frame-size", "512",
                   "--format", "pcm16"])
    assert rc == 0
    err = capsys.readouterr().err
    assert err.startswith("five extract: clipped ") and err.endswith(" out-of-range samples\n")
    assert int(err.split()[3]) > 0
    assert np.max(np.abs(read_wave(out_path).samples)) <= 1.0


def test_extract_missing_input_names_path(tmp_path, capsys):
    rc = cli.main(
        ["extract", "--input", str(tmp_path / "ghost.wav"), "--output", str(tmp_path / "o.wav")]
    )
    assert rc == 2
    assert "ghost.wav" in capsys.readouterr().err


def test_extract_spectral_tensor_input(tmp_path):
    rng = np.random.default_rng(1)
    mix = rng.standard_normal((33, 80, 3)) + 1j * rng.standard_normal((33, 80, 3))
    in_path = tmp_path / "mix.fiv"
    write_tensor(in_path, mix)
    out_path = tmp_path / "out.fiv"
    rc = cli.main(["extract", "--input", str(in_path), "--output", str(out_path),
                   "--iterations", "2"])
    assert rc == 0
    assert read_tensor(out_path).shape == (33, 80, 1)


def test_extract_tensor_report_echoes_the_tensors_stft_settings(tmp_path):
    # a 16-bin tensor is processed with frame 30 and hop 15, not the CLI's 4096
    rng = np.random.default_rng(2)
    in_path = tmp_path / "mix.fiv"
    mix = rng.standard_normal((16, 60, 3)) + 1j * rng.standard_normal((16, 60, 3))
    write_tensor(in_path, mix)
    report = tmp_path / "rep.csv"
    rc = cli.main(["extract", "--input", str(in_path), "--output", str(tmp_path / "out.fiv"),
                   "--iterations", "2", "--report", str(report)])
    assert rc == 0
    lines = report.read_text().splitlines()
    assert "# frame_size=30" in lines
    assert "# hop=15" in lines
    # the column row, then one row per record: K + 1 rows for K updates, each
    # NLL written as the repr of the library's value
    rows = [line for line in lines if not line.startswith("#")]
    assert rows[0] == "iteration,nll,head_residual,wall_time_ms"
    assert len(rows) == 1 + 3
    _, library = extract_spectral(mix, FiveConfig(ContrastModel("gauss", num_bins=16), max_iterations=2))
    assert rows[1].split(",")[:2] == ["0", repr(library.records[0].nll)]


def test_extract_wav_report_echoes_the_files_sample_rate(tmp_path):
    # an 8 kHz recording is processed at 8 kHz, not the CLI's 16 kHz default
    in_path = tmp_path / "in.wav"
    _write_noise_wav(in_path, channels=2, samples=8 * 256, rate=8000)
    report = tmp_path / "rep.csv"
    rc = cli.main(["extract", "--input", str(in_path), "--output", str(tmp_path / "out.wav"),
                   "--frame-size", "512", "--report", str(report)])
    assert rc == 0
    assert read_wave(tmp_path / "out.wav").sample_rate == 8000
    lines = report.read_text().splitlines()
    assert "# sample_rate=8000" in lines
    assert "# sample_rate=16000" not in lines


@pytest.mark.parametrize("in_name, out_name", [("mix.fiv", "est.wav"), ("mix.wav", "est.fiv")])
def test_extract_output_format_must_match_input(tmp_path, capsys, in_name, out_name):
    # the writer follows the input, so a mismatched suffix would name a
    # .fiv tensor .wav or WAV data .fiv, which evaluate cannot read
    in_path = tmp_path / in_name
    if in_name.endswith(".fiv"):
        rng = np.random.default_rng(3)
        write_tensor(in_path, rng.standard_normal((16, 60, 2)) + 1j * rng.standard_normal((16, 60, 2)))
    else:
        _write_noise_wav(in_path, channels=2, samples=6 * 512)
    out_path = tmp_path / out_name
    rc = cli.main(["extract", "--input", str(in_path), "--output", str(out_path), "--frame-size", "512"])
    assert rc == 1
    assert ".fiv" in capsys.readouterr().err
    assert not out_path.exists()


@pytest.mark.parametrize("in_name, out_name", [("mix.fiv", "est.fiv"), ("mix.wav", "est.wav")])
def test_extract_unwritable_report_leaves_no_estimate(tmp_path, capsys, in_name, out_name):
    # a --report that cannot be written (here a directory) fails the run,
    # exit 2, before the estimate is written: no output that looks complete
    in_path = tmp_path / in_name
    if in_name.endswith(".fiv"):
        rng = np.random.default_rng(4)
        write_tensor(in_path, rng.standard_normal((16, 60, 2)) + 1j * rng.standard_normal((16, 60, 2)))
    else:
        _write_noise_wav(in_path, channels=2, samples=6 * 512)
    report = tmp_path / "reports"
    report.mkdir()
    out_path = tmp_path / out_name
    rc = cli.main(["extract", "--input", str(in_path), "--output", str(out_path), "--frame-size", "512",
                   "--report", str(report)])
    assert rc == 2
    assert "reports" in capsys.readouterr().err
    assert not out_path.exists()


@pytest.mark.parametrize("in_name, out_name", [("mix.fiv", "est.fiv"), ("mix.wav", "outdir")])
def test_extract_unwritable_estimate_leaves_no_report(tmp_path, capsys, in_name, out_name):
    # the report is written first; an --output that then cannot be written
    # (here a directory) fails the run, exit 2, and takes the report with it
    in_path = tmp_path / in_name
    if in_name.endswith(".fiv"):
        rng = np.random.default_rng(5)
        write_tensor(in_path, rng.standard_normal((16, 60, 2)) + 1j * rng.standard_normal((16, 60, 2)))
    else:
        _write_noise_wav(in_path, channels=2, samples=6 * 512)
    out_path = tmp_path / out_name
    out_path.mkdir()
    report = tmp_path / "rep.csv"
    rc = cli.main(["extract", "--input", str(in_path), "--output", str(out_path), "--frame-size", "512",
                   "--report", str(report)])
    assert rc == 2
    assert out_name in capsys.readouterr().err
    assert not report.exists()


def test_extract_rejects_zero_iterations(tmp_path, capsys):
    in_path = tmp_path / "in.wav"
    _write_noise_wav(in_path, samples=6 * 512)
    out_path = tmp_path / "out.wav"
    rc = cli.main(["extract", "--input", str(in_path), "--output", str(out_path),
                   "--frame-size", "512", "--iterations", "0"])
    assert rc == 1
    assert "--iterations" in capsys.readouterr().err
    assert not out_path.exists()


def test_usage_error_exit_code_is_one(capsys):
    assert cli.main(["extract", "--input", "x.wav"]) == 1  # --output missing
    assert cli.main(["frobnicate"]) == 1
    assert cli.main([]) == 1


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0


def test_negative_count_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "scene"
    assert cli.main(["simulate", "--output", str(out), "--seed", "-1"]) == 1
    assert "expected a non-negative integer, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (["simulate", "--seed", "abc"], None, "argument --seed: expected a non-negative integer, got abc"),
        (["simulate", "--channels", "1.5"], None, "argument --channels: expected a positive integer, got 1.5"),
        (["extract", "--input", "in.wav"], "frame_size=abc\n",
         "argument --frame-size: expected a positive integer, got abc"),
    ],
    ids=["seed", "channels", "config_file"],
)
def test_text_that_is_not_an_integer_is_a_usage_error_naming_the_flag(tmp_path, capsys, argv, config, message):
    # argparse words a type's ValueError after the type's function, a private
    # name: the message names the flag and what it expects, as for -1
    if config is not None:
        (tmp_path / "run.cfg").write_text(config)
        argv = argv + ["--config", str(tmp_path / "run.cfg")]
    out = tmp_path / "out"
    assert cli.main(argv + ["--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert message in err
    assert "invalid" not in err and "_positive_int" not in err and "_nonneg_int" not in err
    assert not out.exists()


def test_broken_pipe_exits_two_without_a_diagnostic(monkeypatch, tmp_path, capsys):
    # a reader that closed the pipe (five ... | head) is not a runtime error to report
    def closed(cfg):
        raise BrokenPipeError

    monkeypatch.setitem(cli._COMMANDS, "simulate", closed)
    assert cli.main(["simulate", "--output", str(tmp_path / "scene")]) == 2
    assert capsys.readouterr().err == ""


# ---------------------------------------------------------------- simulate


def test_simulate_deterministic_byte_identical(tmp_path):
    for name in ("a", "b"):
        rc = cli.main(
            ["simulate", "--output", str(tmp_path / name), "--seed", "9",
             "--channels", "3", "--bins", "16", "--frames", "100"]
        )
        assert rc == 0
    for fname in ("scene.txt", "mixture.fiv", "target_image.fiv", "background_image.fiv"):
        assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()


def test_simulate_rejects_zero_channels(tmp_path):
    rc = cli.main(["simulate", "--output", str(tmp_path / "s"), "--channels", "0"])
    assert rc == 1  # caught at argument validation


def test_simulate_unwritable_directory():
    rc = cli.main(["simulate", "--output", "/proc/definitely/not/writable"])
    assert rc == 2


# ---------------------------------------------------------------- evaluate


@pytest.fixture
def scene_dir(tmp_path):
    path = tmp_path / "scene"
    rc = cli.main(
        ["simulate", "--output", str(path), "--seed", "3",
         "--channels", "3", "--bins", "16", "--frames", "200"]
    )
    assert rc == 0
    return path


def test_evaluate_ground_truth_estimate(scene_dir, tmp_path):
    scene = load_scene(scene_dir)
    est = tmp_path / "perfect.fiv"
    write_tensor(est, scene.target_image)
    report = tmp_path / "metrics.csv"
    rc = cli.main(
        ["evaluate", "--scene", str(scene_dir), "--estimate", str(est),
         "--report", str(report)]
    )
    assert rc == 0
    row = report.read_text().strip().splitlines()[-1].split(",")
    assert row[0] == "scene"
    assert float(row[3]) == CAP_DB
    # delta equals cap minus the input quality
    input_sdr = float(row[3]) - float(row[5])
    assert abs((CAP_DB - input_sdr) - float(row[5])) <= 1e-6


def test_evaluate_channel1_estimate_has_zero_deltas(scene_dir, tmp_path):
    scene = load_scene(scene_dir)
    est = tmp_path / "ch1.fiv"
    write_tensor(est, scene.mixture.data[:, :, 0])
    report = tmp_path / "metrics.csv"
    rc = cli.main(
        ["evaluate", "--scene", str(scene_dir), "--estimate", str(est),
         "--report", str(report)]
    )
    assert rc == 0
    row = report.read_text().strip().splitlines()[-1].split(",")
    assert float(row[5]) == pytest.approx(0.0, abs=1e-6)
    assert float(row[6]) == pytest.approx(0.0, abs=1e-6)


def test_evaluate_appends_rows(scene_dir, tmp_path):
    scene = load_scene(scene_dir)
    est = tmp_path / "e.fiv"
    write_tensor(est, scene.target_image)
    report = tmp_path / "metrics.csv"
    for _ in range(2):
        assert cli.main(
            ["evaluate", "--scene", str(scene_dir), "--estimate", str(est),
             "--report", str(report)]
        ) == 0
    lines = [ln for ln in report.read_text().splitlines() if ln and not ln.startswith("#")]
    assert len(lines) == 3  # header + two rows


@pytest.mark.parametrize(
    "text", ["# frame_size=30\niteration,nll,head_residual,wall_time_ms\n0,1.5,0.25,0.100\n", ""]
)
def test_evaluate_refuses_a_report_with_other_columns(scene_dir, tmp_path, capsys, text):
    # its 7-field row under an extract report's columns, or under none,
    # would leave a CSV no reader can parse by its columns: exit 1, and the
    # file stays as it was
    est = tmp_path / "e.fiv"
    write_tensor(est, load_scene(scene_dir).target_image)
    report = tmp_path / "rep.csv"
    report.write_text(text)
    rc = cli.main(["evaluate", "--scene", str(scene_dir), "--estimate", str(est), "--report", str(report)])
    assert rc == 1
    assert "other columns" in capsys.readouterr().err
    assert report.read_text() == text


def test_evaluate_quotes_free_text(tmp_path):
    # a comma in the algorithm name or the scene directory stays in its field
    scene_path = tmp_path / "room,1"
    assert cli.main(["simulate", "--output", str(scene_path), "--seed", "3",
                     "--channels", "2", "--bins", "16", "--frames", "100"]) == 0
    est = tmp_path / "e.fiv"
    write_tensor(est, load_scene(scene_path).target_image)
    report = tmp_path / "metrics.csv"
    assert cli.main(["evaluate", "--scene", str(scene_path), "--estimate", str(est),
                     "--algorithm", "fast,v2", "--iterations", "5", "--report", str(report)]) == 0
    lines = [ln for ln in report.read_text().splitlines() if not ln.startswith("#")]
    header, row = csv.reader(lines)
    assert len(header) == len(row) == 7
    assert row[:3] == ["room,1", "fast,v2", "5"]
    assert float(row[3]) == CAP_DB


def test_evaluate_missing_scene_fails(tmp_path):
    est = tmp_path / "e.fiv"
    write_tensor(est, np.zeros((4, 7), dtype=complex))
    rc = cli.main(
        ["evaluate", "--scene", str(tmp_path / "nope"), "--estimate", str(est),
         "--report", str(tmp_path / "m.csv")]
    )
    assert rc == 2


def test_evaluate_rejects_estimate_at_another_sample_rate(tmp_path, capsys):
    # an 8 kHz scene's own target image, relabelled as 16 kHz
    scene_path = tmp_path / "scene"
    assert cli.main(
        ["simulate", "--output", str(scene_path), "--mixing", "convolutive_fir",
         "--channels", "2", "--duration", "0.5", "--sample-rate", "8000", "--seed", "1"]
    ) == 0
    target = read_wave(scene_path / "target_image.wav")
    assert target.sample_rate == 8000
    est = tmp_path / "relabelled.wav"
    write_wave(est, MultichannelWave(16000, target.samples), format="float32")
    report = tmp_path / "metrics.csv"
    rc = cli.main(
        ["evaluate", "--scene", str(scene_path), "--estimate", str(est),
         "--report", str(report)]
    )
    assert rc == 2
    assert "sample rate 16000 Hz differs from the scene's 8000 Hz" in capsys.readouterr().err
    assert not report.exists()


def test_extract_honors_hop_flag(tmp_path):
    in_path = tmp_path / "in.wav"
    _write_noise_wav(in_path, samples=8 * 256)
    out_path = tmp_path / "out.wav"
    report = tmp_path / "rep.csv"
    rc = cli.main(
        ["extract", "--input", str(in_path), "--output", str(out_path),
         "--frame-size", "1024", "--hop", "256", "--report", str(report)]
    )
    assert rc == 0
    assert "# hop=256" in report.read_text()


def test_extract_honors_hop_from_config_file(tmp_path):
    # hop has no typed default, so a file value once stayed a string
    in_path = tmp_path / "in.wav"
    _write_noise_wav(in_path, samples=8 * 256)
    config = tmp_path / "run.cfg"
    config.write_text("frame_size=1024\nhop=256\n")
    report = tmp_path / "rep.csv"
    rc = cli.main(
        ["extract", "--input", str(in_path), "--output", str(tmp_path / "out.wav"),
         "--config", str(config), "--report", str(report)]
    )
    assert rc == 0
    assert "# hop=256" in report.read_text()


def test_extract_report_echoes_resolved_hop(tmp_path):
    in_path = tmp_path / "in.wav"
    _write_noise_wav(in_path, samples=8 * 256)
    report = tmp_path / "rep.csv"
    rc = cli.main(
        ["extract", "--input", str(in_path), "--output", str(tmp_path / "out.wav"),
         "--frame-size", "1024", "--report", str(report)]
    )
    assert rc == 0
    assert "# hop=512" in report.read_text().splitlines()


@pytest.mark.parametrize(
    "command, flags",
    [
        ("extract", ["--frame-size", "513"]),
        ("extract", ["--frame-size", "1024", "--hop", "300"]),
        ("evaluate", ["--frame-size", "513"]),
        ("bench", ["--frame-size", "1024", "--hop", "300"]),
        ("bench", ["--config", "{config}"]),
    ],
)
def test_invalid_stft_settings_are_usage_errors(tmp_path, capsys, command, flags):
    # an odd frame, or a hop that does not divide the frame, exits 1 like
    # --frame-size 0, before any file is read or written
    config = tmp_path / "run.cfg"
    config.write_text("frame_size=1024\nhop=300\n")
    out = tmp_path / "out"
    common = {
        "extract": ["--input", str(tmp_path / "in.wav"), "--output", str(out)],
        "evaluate": ["--scene", str(tmp_path / "scene"), "--estimate", str(tmp_path / "e.wav"),
                     "--report", str(out)],
        "bench": ["--output", str(out), "--scenes", "1", "--bins", "16", "--frames", "100"],
    }[command]
    _write_noise_wav(tmp_path / "in.wav", channels=2, samples=8 * 1024)
    rc = cli.main([command] + common + [flag.format(config=config) for flag in flags])
    assert rc == 1
    assert f"five {command}: error: argument --frame-size/--hop" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_shape_mismatch_fails(scene_dir, tmp_path):
    est = tmp_path / "bad.fiv"
    write_tensor(est, np.zeros((4, 7), dtype=complex))
    rc = cli.main(
        ["evaluate", "--scene", str(scene_dir), "--estimate", str(est),
         "--report", str(tmp_path / "m.csv")]
    )
    assert rc == 2


# ---------------------------------------------------------------- full pipeline and bench


def test_convolutive_pipeline_end_to_end(tmp_path):
    scene_path = tmp_path / "scene"
    assert cli.main(
        ["simulate", "--output", str(scene_path), "--mixing", "convolutive_fir",
         "--channels", "4", "--duration", "1.0", "--seed", "1"]
    ) == 0
    out = tmp_path / "extracted.wav"
    report = tmp_path / "extract.csv"
    assert cli.main(
        ["extract", "--input", str(scene_path / "mixture.wav"), "--output", str(out),
         "--frame-size", "1024", "--iterations", "3", "--report", str(report)]
    ) == 0
    assert out.exists() and report.exists()
    metrics_csv = tmp_path / "metrics.csv"
    assert cli.main(
        ["evaluate", "--scene", str(scene_path), "--estimate", str(out),
         "--report", str(metrics_csv), "--frame-size", "1024"]
    ) == 0
    row = metrics_csv.read_text().strip().splitlines()[-1].split(",")
    assert float(row[5]) > 0.0  # extraction must improve on the raw mixture


def test_bench_csv_properties(tmp_path):
    out = tmp_path / "bench.csv"
    rc = cli.main(
        ["bench", "--output", str(out), "--scenes", "2", "--seed", "0",
         "--channels", "4", "--mixing", "convolutive_fir", "--duration", "0.5",
         "--frame-size", "1024", "--iterations", "4"]
    )
    assert rc == 0
    assert b"\r" not in out.read_bytes()
    lines = [ln for ln in out.read_text().splitlines() if ln and not ln.startswith("#")]
    assert lines[0] == "seed,iteration,runtime_per_input_second,nll,delta_si_sdr"
    rows = [ln.split(",") for ln in lines[1:]]
    assert len(rows) == 2 * 5  # two seeds, iterations 0..4
    by_seed = {}
    for seed, iteration, runtime, nll, delta in rows:
        by_seed.setdefault(seed, []).append((int(iteration), float(runtime), float(nll), float(delta)))
    for trace in by_seed.values():
        iterations, runtimes, nlls, deltas = zip(*sorted(trace))
        assert iterations == (0, 1, 2, 3, 4)
        assert deltas[0] == pytest.approx(0.0, abs=1e-6)  # no update yet
        assert all(r > 0 for r in runtimes)
        assert all(b > a for a, b in zip(runtimes, runtimes[1:]))  # cumulative
        assert all(b <= a + 1e-9 * abs(a) for a, b in zip(nlls, nlls[1:]))


def test_bench_spectral_mode_and_threads(tmp_path):
    out = tmp_path / "bench.csv"
    rc = cli.main(
        ["bench", "--output", str(out), "--scenes", "2", "--bins", "32",
         "--frames", "200", "--iterations", "2"]
    )
    assert rc == 0
    lines = [ln for ln in out.read_text().splitlines() if ln and not ln.startswith("#")]
    assert len(lines) == 1 + 2 * 3


def test_bench_tensor_scenes_echo_their_stft_settings(tmp_path):
    # 16-bin tensor scenes run at frame 30 and hop 15, not the CLI's 4096
    out = tmp_path / "bench.csv"
    rc = cli.main(["bench", "--output", str(out), "--scenes", "1", "--bins", "16",
                   "--frames", "100", "--channels", "2", "--iterations", "1"])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert "# frame_size=30" in lines
    assert "# hop=15" in lines


def test_bench_rejects_zero_iterations(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    rc = cli.main(["bench", "--output", str(out), "--scenes", "1", "--bins", "16",
                   "--frames", "120", "--channels", "2", "--iterations", "0"])
    assert rc == 1
    assert "--iterations" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_bench_refuses_a_reference_other_than_channel_0(tmp_path, capsys, source):
    # scenes keep channel 0's images only, so a channel-2 projection cannot be scored
    out = tmp_path / "bench.csv"
    argv = ["bench", "--output", str(out), "--scenes", "1", "--channels", "4",
            "--mixing", "convolutive_fir", "--duration", "0.5", "--frame-size", "1024"]
    if source == "flag":
        argv += ["--ref-channel", "2"]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("ref_channel=2\n")
        argv += ["--config", str(cfg)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert "--ref-channel" in err and "channel 0" in err
    assert not out.exists()


def test_bench_deterministic_modulo_runtime(tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert cli.main(
            ["bench", "--output", str(out), "--scenes", "2", "--bins", "16",
             "--frames", "120", "--channels", "2", "--iterations", "2", "--seed", "5"]
        ) == 0
        rows = [
            ln.split(",") for ln in out.read_text().splitlines()
            if ln and not ln.startswith("#")
        ]
        outs.append([(r[0], r[1], r[3], r[4]) for r in rows[1:]])  # drop runtime column
    assert outs[0] == outs[1]


def test_config_file_with_flag_override(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("channels=2\nbins=32\nframes=150\nseed=7\n")
    out_a = tmp_path / "a"
    assert cli.main(["simulate", "--output", str(out_a), "--config", str(config)]) == 0
    scene = load_scene(out_a)
    assert scene.spec.num_channels == 2
    assert scene.spec.num_bins == 32
    # a flag beats the file
    out_b = tmp_path / "b"
    assert cli.main(
        ["simulate", "--output", str(out_b), "--config", str(config), "--channels", "3"]
    ) == 0
    assert load_scene(out_b).spec.num_channels == 3


@pytest.mark.parametrize(
    "command, line, flag",
    [("bench", "contrast=foo", "--contrast"), ("simulate", "mixing=bogus", "--mixing")],
)
def test_config_file_values_get_choice_checks(tmp_path, capsys, command, line, flag):
    config = tmp_path / "bad.cfg"
    config.write_text(line + "\n")
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(config), "--output", str(out)]) == 1
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, flag", [("iterations", "--iterations"), ("frame_size", "--frame-size")])
def test_config_file_values_get_flag_checks(tmp_path, capsys, key, flag):
    config = tmp_path / "zero.cfg"
    config.write_text(f"{key}=0\n")
    out = tmp_path / "bench.csv"
    assert cli.main(["bench", "--config", str(config), "--output", str(out)]) == 1
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "lines, give_output, rc, scene_line",
    [
        ("contrast=gauss\nbogus=1\nbins=16\nframes=100\n", True, 0, "num_bins=16"),
        ("sinr_db=-2\nbins=16\nframes=100\n", True, 0, "input_sinr_db=-2.0"),
        ("output={out}\nbins=16\nframes=100\n", False, 1, None),
    ],
    ids=["foreign-and-unknown-keys-ignored", "negative-value", "file-cannot-supply-required-flag"],
)
def test_config_file_lines_parse_as_flags(tmp_path, lines, give_output, rc, scene_line):
    out = tmp_path / "scene"
    config = tmp_path / "sim.cfg"
    config.write_text(lines.format(out=out))
    argv = ["simulate", "--config", str(config)] + (["--output", str(out)] if give_output else [])
    assert cli.main(argv) == rc
    if scene_line is None:
        assert not out.exists()
    else:
        assert scene_line in (out / "scene.txt").read_text().splitlines()


def test_simulate_rejects_zero_duration(tmp_path, capsys):
    out = tmp_path / "scene"
    rc = cli.main(["simulate", "--output", str(out), "--mixing", "convolutive_fir", "--duration", "0"])
    assert rc != 0
    assert "num_samples" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_tensor_scene_has_no_duration(tmp_path):
    # --duration sets the length of convolutive scenes only
    out = tmp_path / "scene"
    rc = cli.main(["simulate", "--output", str(out), "--bins", "16", "--frames", "100", "--duration", "0"])
    assert rc == 0
    assert "num_samples=None" in (out / "scene.txt").read_text().splitlines()
    scene = load_scene(out)
    assert scene.spec.num_samples is None
    assert scene.mixture.data.shape == (16, 100, 4)
