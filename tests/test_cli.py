import numpy as np
import pytest

from five import cli
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


def test_evaluate_missing_scene_fails(tmp_path):
    est = tmp_path / "e.fiv"
    write_tensor(est, np.zeros((4, 7), dtype=complex))
    rc = cli.main(
        ["evaluate", "--scene", str(tmp_path / "nope"), "--estimate", str(est),
         "--report", str(tmp_path / "m.csv")]
    )
    assert rc == 2


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


def test_bench_rejects_zero_iterations(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    rc = cli.main(["bench", "--output", str(out), "--scenes", "1", "--bins", "16",
                   "--frames", "120", "--channels", "2", "--iterations", "0"])
    assert rc == 1
    assert "--iterations" in capsys.readouterr().err
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
