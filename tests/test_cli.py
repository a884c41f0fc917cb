"""End-to-end pipeline through the command-line interface."""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowcast import cli
from flowcast.cli import PipelineConfig, load_config, main
from flowcast.errors import ConfigError
from flowcast.graph import read_metadata_csv
from flowcast.tables import read_table

CONFIG_TEMPLATE = """
[paths]
metadata = {root}/sensors.csv
timeseries = {root}/timeseries.csv
output_dir = {root}/out

[graph]
k_nn = 11
threshold = 100.0

[partition]
k = 2
d_prime = 1.0
horizon_k = 11

[model]
mode = speed_only
lookback = 4
horizon = 3
layers = 1
units = 4

[training]
batch_size = 64
epochs = 2
patience = 5
seed = 7

[synth]
nodes = 12
days = 5
clusters = 2
noise = 0.02
congestion_windows = 7-9,16-18
"""


def _write_config(root):
    config = root / "config.ini"
    config.write_text(CONFIG_TEMPLATE.format(root=root))
    return root, str(config)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    return _write_config(tmp_path_factory.mktemp("pipeline"))


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A config whose output directory already holds graph, bundles and checkpoints."""
    root, config = _write_config(tmp_path_factory.mktemp("trained"))
    for command in ("synth", "build-graph", "partition", "train"):
        assert main([command, "--config", config]) == 0, command
    return root, config


@pytest.fixture(scope="module")
def trained_multioutput(tmp_path_factory):
    """As `trained`, in multioutput mode, and evaluated."""
    root = tmp_path_factory.mktemp("multioutput")
    config = root / "config.ini"
    config.write_text(CONFIG_TEMPLATE.format(root=root).replace("speed_only", "multioutput"))
    for command in ("synth", "build-graph", "partition", "train", "evaluate"):
        assert main([command, "--config", str(config)]) == 0, command
    return root, str(config)


def run_ok(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip().splitlines()
    summary = json.loads(out[-1])
    assert code == 0, summary
    assert summary["status"] == "ok"
    return summary


def test_full_pipeline(pipeline, capsys):
    root, config = pipeline

    synth = run_ok(capsys, "synth", "--config", config)
    assert synth["nodes"] == 12 and synth["ticks"] == 5 * 288
    input_bytes = {p: (root / p).read_bytes() for p in ("sensors.csv", "timeseries.csv")}

    built = run_ok(capsys, "build-graph", "--config", config)
    assert built["n_nodes"] == 12 and built["n_edges"] > 0
    graph_bytes = (root / "out" / "graph.json").read_bytes()

    parted = run_ok(capsys, "partition", "--config", config)
    assert parted["k"] == 2
    assert sorted(parted["part_sizes"]) == [6, 6]  # the two clusters
    assert all(c >= 1 for c in parted["halo_counts"])

    trained = run_ok(capsys, "train", "--config", config)
    assert trained["trained"] == 2 and trained["failed"] == 0
    ckpt0 = (root / "out" / "checkpoints" / "part000.fcbin").read_bytes()
    assert (root / "out" / "training_epochs.csv").exists()
    assert (root / "out" / "training_summary.json").exists()

    evaluated = run_ok(capsys, "evaluate", "--config", config)
    assert evaluated["nodes"] == 12  # halos never double-report
    assert evaluated["mean_mae"] < 20.0
    lines = (root / "out" / "node_mae.csv").read_text().strip().splitlines()
    assert lines[0] == "node_id,part,mae_speed"
    assert len(lines) == 13

    forecasted = run_ok(capsys, "forecast", "--config", config)
    assert forecasted["nodes"] == 12 and forecasted["steps"] == 3
    flines = (root / "out" / "forecast.csv").read_text().strip().splitlines()
    assert len(flines) == 1 + 12 * 3

    analyzed = run_ok(capsys, "analyze", "--config", config)
    assert analyzed["records"] == 12
    assert (root / "out" / "cart_importances.csv").exists()
    assert (root / "out" / "mae_box_stats.csv").exists()

    # idempotency: rebuilding produces byte-identical data artifacts
    run_ok(capsys, "build-graph", "--config", config)
    assert (root / "out" / "graph.json").read_bytes() == graph_bytes
    run_ok(capsys, "train", "--config", config)
    assert (root / "out" / "checkpoints" / "part000.fcbin").read_bytes() == ckpt0

    # no command mutated its inputs
    for name, blob in input_bytes.items():
        assert (root / name).read_bytes() == blob


def test_parallel_training_matches(trained, capsys):
    root, config = trained
    ckpts = {}
    for workers in ("1", "4"):
        run_ok(capsys, "train", "--config", config, "--workers", workers)
        ckpts[workers] = [(root / "out" / "checkpoints" / f"part{p:03d}.fcbin").read_bytes()
                          for p in range(2)]
    assert ckpts["1"] == ckpts["4"]


def test_set_overrides(pipeline, capsys, tmp_path):
    _, config = pipeline
    alt = tmp_path / "alt"
    summary = run_ok(capsys, "synth", "--config", config,
                     "--set", "synth.nodes=6", "--set", "synth.days=1",
                     "--set", f"paths.metadata={alt}/m.csv",
                     "--set", f"paths.timeseries={alt}/t.csv")
    assert summary["nodes"] == 6 and summary["ticks"] == 288


def test_three_sensor_toy_graph(pipeline, capsys, tmp_path):
    _, config = pipeline
    toy = tmp_path / "toy"
    run_ok(capsys, "synth", "--config", config,
           "--set", "synth.nodes=3", "--set", "synth.days=1", "--set", "synth.clusters=1",
           "--set", f"paths.metadata={toy}/m.csv", "--set", f"paths.timeseries={toy}/t.csv")
    built = run_ok(capsys, "build-graph", "--config", config,
                   "--set", f"paths.metadata={toy}/m.csv",
                   "--set", f"paths.output_dir={toy}/out")
    assert built["n_nodes"] == 3 and built["n_edges"] <= 6


def test_config_errors_exit_2(pipeline, capsys, tmp_path):
    _, config = pipeline
    assert main(["synth", "--config", str(tmp_path / "nope.ini")]) == 2
    assert main(["synth", "--config", config, "--set", "synth.bogus=1"]) == 2
    assert main(["evaluate", "--config", config,
                 "--set", "paths.output_dir=" + str(tmp_path / "void")]) != 0
    capsys.readouterr()


@pytest.mark.parametrize("command", ["train", "evaluate", "forecast", "analyze"])
def test_unknown_mode_exits_2_before_reading_files(capsys, tmp_path, command):
    # nothing exists under tmp_path: any file read would fail with another error
    _, config = _write_config(tmp_path)
    code = main([command, "--config", config, "--set", "model.mode=foo"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 2 and len(lines) == 1
    out = json.loads(lines[0])
    assert out["kind"] == "config" and "mode 'foo'" in out["message"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.ini"]


@pytest.mark.parametrize("command", ["train", "evaluate", "forecast", "analyze"])
@pytest.mark.parametrize("setting, message", [
    ("model.filter_type=foo", "model.filter_type must be one of"),
    ("model.lookback=0", "model.lookback must be at least 1"),
    ("model.lookback=a", "model.lookback must be an integer"),
    ("model.horizon=0", "model.horizon must be at least 1"),
])
def test_bad_model_setting_exits_2_before_reading_files(capsys, tmp_path, command, setting,
                                                        message):
    # nothing exists under tmp_path: any file read would fail with another error
    _, config = _write_config(tmp_path)
    code = main([command, "--config", config, "--set", setting])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 2 and len(lines) == 1
    out = json.loads(lines[0])
    assert out["kind"] == "config" and message in out["message"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.ini"]


@pytest.mark.parametrize("setting", [
    "graph.sigma_mode=nan",    # exited 0 with no edges and sigma NaN
    "graph.sigma_mode=inf",    # exited 0 with every weight 1.0
    "graph.sigma_mode=-1",     # exited 4
    "graph.sigma_mode=x",      # exited 1 with a traceback
    "graph.threshold_on=foo",  # exited 1 with a traceback
    "graph.threshold=nan",     # exited 0 with no edges
])
def test_bad_graph_setting_exits_2_before_reading_files(capsys, tmp_path, setting):
    # nothing exists under tmp_path: any file read would fail with another error
    _, config = _write_config(tmp_path)
    code = main(["build-graph", "--config", config, "--set", setting])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 2 and len(lines) == 1
    out = json.loads(lines[0])
    assert out["kind"] == "config" and setting.split("=")[0] in out["message"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.ini"]


# One or more bad values for every key of cli._SETTINGS; the first of each key
# is its one required case, the others are values that once escaped.
BAD_SETTINGS = {
    "paths.metadata": ["a\0b"],
    "paths.timeseries": ["a\0b"],
    "paths.output_dir": ["a\0b"],
    "paths.distance_table": ["a\0b"],
    "graph.k_nn": ["0", "x"],
    "graph.threshold_on": ["foo"],
    "graph.threshold": ["nan", "-1"],
    "graph.sigma_mode": ["x", "0"],
    "graph.provider": ["foo"],  # exited 2 naming paths.metadata when that file was missing
    "graph.routing_url": ["file:///etc/hosts"],
    "partition.k": ["0"],
    "partition.imbalance": ["-0.5"],
    "partition.d_prime": ["nan"],
    "partition.horizon_k": ["0"],
    "data.impute": ["foo"],  # exited 3
    "data.train_fraction": ["nan", "0", "1.5"],  # nan: traceback; 1.5: exited 3
    "data.valid_fraction": ["-0.1", "0.95"],  # exited 3
    "model.mode": ["foo"],
    "model.lookback": ["0"],
    "model.horizon": ["0"],
    "model.layers": ["0"],
    "model.units": ["x"],
    "model.diffusion_steps": ["0"],
    "model.filter_type": ["foo"],
    "training.batch_size": ["0"],
    "training.epochs": ["0"],
    "training.patience": ["-1"],
    "training.learning_rate": ["nan", "-0.1"],  # nan: exited 4 after training
    "training.lr_decay": ["nan", "0"],  # nan: exited 4 after training
    "training.lr_milestones": ["a", "0", "-2,5", "5,3"],  # a: traceback; 0, -2,5: exited 0
    "training.max_grad_norm": ["inf"],  # exited 0
    "training.sampling_tau": ["nan"],  # exited 0
    "training.seed": ["-1", "x"],  # -1: traceback
    "synth.nodes": ["0"],  # exited 3
    "synth.days": ["0"],  # exited 3
    "synth.clusters": ["0"],  # exited 3
    "synth.noise": ["nan", "-1"],  # exited 0 and wrote noise-free data
    "synth.seed": ["-1"],
    "synth.congestion_windows": ["7", "9-7", "7-30", "a-b"],  # 7, a-b: traceback; 9-7, 7-30: exited 0
}


def test_bad_settings_cover_every_key():
    keys = {f"{section}.{key}" for section, rows in cli._SETTINGS.items() for key in rows}
    assert set(BAD_SETTINGS) == keys


def _assert_config_error_before_files(capsys, tmp_path, code, named):
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 2 and len(lines) == 1
    out = json.loads(lines[0])
    assert out["kind"] == "config" and named in out["message"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.ini"]


@pytest.mark.parametrize("key, value", [(key, value) for key, values in BAD_SETTINGS.items()
                                        for value in values])
def test_every_bad_setting_exits_2_before_reading_files(capsys, tmp_path, key, value):
    # nothing but the config exists under tmp_path; synth would write files there
    _, config = _write_config(tmp_path)
    for command in cli._COMMANDS:
        code = main([command, "--config", config, "--set", f"{key}={value}"])
        _assert_config_error_before_files(capsys, tmp_path, code, key)


@pytest.mark.parametrize("setting, named", [
    ("graph.provider=routing", "graph.routing_url"),
    ("graph.provider=table", "paths.distance_table"),
    ("synth.clusters=13", "synth.clusters"),  # the config has 12 nodes
    ("data.valid_fraction=0.3", "data.train_fraction + data.valid_fraction"),
])
def test_inconsistent_settings_exit_2_before_reading_files(capsys, tmp_path, setting, named):
    _, config = _write_config(tmp_path)
    for command in cli._COMMANDS:
        code = main([command, "--config", config, "--set", setting])
        _assert_config_error_before_files(capsys, tmp_path, code, named)


@pytest.mark.parametrize("text", [
    b"k_nn = 3\n",  # no section header
    b"[graph]\nk_nn = 3\nk_nn = 4\n",  # a key given twice
    b"[graph]\nk_nn = \xff\n",  # not UTF-8
])
def test_unparsable_config_file_exits_2(capsys, tmp_path, text):
    (tmp_path / "config.ini").write_bytes(text)
    code = main(["synth", "--config", str(tmp_path / "config.ini")])
    _assert_config_error_before_files(capsys, tmp_path, code, "config.ini")


@pytest.mark.parametrize("setting", ["graph.routing_url=http://h/a%20b", "paths.output_dir=out%%x",
                                     "paths.output_dir=%(metadata)s"])
def test_config_file_and_set_read_a_value_alike(tmp_path, setting):
    target, value = setting.split("=", 1)
    section, key = target.split(".")
    (tmp_path / "config.ini").write_text(f"[{section}]\n{key} = {value}\n")
    from_file = load_config(str(tmp_path / "config.ini"), [])
    (tmp_path / "empty.ini").write_text("")
    from_set = load_config(str(tmp_path / "empty.ini"), [setting])
    assert from_file.values == from_set.values
    assert from_file.values[section][key] == value


@settings(max_examples=300, deadline=None)
@given(key=st.sampled_from(sorted(BAD_SETTINGS)),
       text=st.one_of(st.text(), st.integers().map(str), st.floats().map(str),
                      st.sampled_from(["auto", "", "7-9", "1,2", "routing", "http://h"])))
def test_any_setting_text_loads_typed_or_is_a_config_error(pipeline, key, text):
    _, config = pipeline
    try:
        loaded = load_config(config, [f"{key}={text}"])
    except ConfigError:
        return
    assert isinstance(loaded, PipelineConfig)
    loaded.training_config()  # the library's own guard accepts what the table accepts


def test_readme_config_reference_matches_settings():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("### Config reference")[1].split("```ini\n")[1].split("```")[0]
    listed, section = {}, None
    for line in block.splitlines():
        line = line.split(";")[0].strip()
        if line.startswith("["):
            section = line.strip("[]")
        elif line:
            key, _, default = line.partition("=")
            listed[f"{section}.{key.strip()}"] = default.strip()
    assert listed == {f"{section}.{key}": row[0]
                      for section, rows in cli._SETTINGS.items() for key, row in rows.items()}


@pytest.mark.parametrize("fault", ["non_numeric_mae", "short_row", "empty_file", "nan_mae",
                                   "sensor_missing_from_series", "repeated_node",
                                   "multioutput_header_under_flow_only"])
def test_corrupt_node_mae_exits_3(trained, capsys, tmp_path, fault):
    root, config = trained
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    rows = ["node_id,part,mae_speed"] + [f"S{i:04d},{i // 6},1.5" for i in range(12)]
    series = root / "timeseries.csv"
    if fault == "non_numeric_mae":
        rows[3] = "S0002,0,x"
    elif fault == "short_row":
        rows[3] = "S0002,0"
    elif fault == "nan_mae":
        rows[3] = "S0002,0,nan"
    elif fault == "repeated_node":  # exited 0, counting the node twice
        rows[3] = "S0001,0,1.5"
    elif fault == "multioutput_header_under_flow_only":  # exited 0, reading mae_speed as flow's
        rows = ["node_id,part,mae_speed,mae_flow"] + [f"{r},2.5" for r in rows[1:]]
    elif fault == "sensor_missing_from_series":
        series = tmp_path / "series.csv"
        lines = (root / "timeseries.csv").read_text().splitlines(keepends=True)
        series.write_text("".join(line for line in lines if ",S0011," not in line))
    (out_dir / "node_mae.csv").write_text("" if fault == "empty_file" else "\n".join(rows) + "\n")
    mode = "flow_only" if fault == "multioutput_header_under_flow_only" else "speed_only"
    code = main(["analyze", "--config", config, "--set", f"paths.output_dir={out_dir}",
                 "--set", f"paths.timeseries={series}", "--set", f"model.mode={mode}"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 3 and len(lines) == 1
    out = json.loads(lines[0])
    named = {"empty_file": "header", "sensor_missing_from_series": "node S0011",
             "repeated_node": "node S0001",
             "multioutput_header_under_flow_only": "header node_id,part,mae_flow",
             }.get(fault, "row 4")
    assert out["kind"] == "data" and "node_mae.csv" in out["message"] and named in out["message"]


def test_missing_checkpoints_exit_2(trained, capsys, tmp_path):
    root, config = trained
    import shutil

    partial = tmp_path / "partial"
    shutil.copytree(root / "out", partial)
    shutil.rmtree(partial / "checkpoints")
    code = main(["evaluate", "--config", config,
                 "--set", f"paths.output_dir={partial}"])
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 2 and "run train first" in out["message"]


def test_multioutput_analyze_forecasts_each_test_window(trained_multioutput, capsys):
    """fundamental_diagram.csv holds, for each test window that starts a
    horizon after the last, the forecast of each non-halo node."""
    from flowcast.data import make_windows, slice_for_partition
    from flowcast.partition import read_bundles
    from flowcast.training import Checkpoint, forecast

    root, config = trained_multioutput
    summary = run_ok(capsys, "analyze", "--config", config)
    _, (_, _, test_panel) = cli._load_split_panels(load_config(config, []))
    expected = []
    for bundle in read_bundles(root / "out" / "bundles"):
        ckpt = Checkpoint.load(root / "out" / "checkpoints" / f"part{bundle.part_id:03d}.fcbin")
        windows = make_windows(slice_for_partition(test_panel, bundle), 4, 3, stride=3)
        for x in windows.x:
            pred = forecast(ckpt, x)
            expected.extend([bundle.graph.sensor_ids[i], str(t), repr(float(pred[t, i, 0])),
                             repr(float(pred[t, i, 1]))]
                            for i in np.flatnonzero(~bundle.halo_flags) for t in range(3))
    rows = [list(row) for _, row in read_table(root / "out" / "fundamental_diagram.csv",
                                               ["node_id", "step", "speed_mph",
                                                "flow_veh_per_5min"])]
    assert rows == expected and summary["fundamental_rows"] == len(expected) > 0


@pytest.mark.parametrize("command", ["evaluate", "forecast", "analyze"])
@pytest.mark.parametrize("key", ["model.mode", "model.lookback", "model.horizon"])
def test_checkpoints_of_another_model_exit_3_before_the_series_is_read(
        trained, trained_multioutput, capsys, tmp_path, command, key):
    """speed_only checkpoints under flow_only made evaluate and forecast exit 0
    with wrong values; other mismatches raised a traceback or named no key."""
    import shutil

    # analyze forecasts only in multioutput mode, so its mode case loads speed_only checkpoints
    multioutput = command == "analyze" and key != "model.mode"
    root, config = trained_multioutput if multioutput else trained
    value = {"model.mode": "multioutput" if command == "analyze" else "flow_only",
             "model.lookback": "5", "model.horizon": "2"}[key]
    out_dir = tmp_path / "out"
    shutil.copytree(root / "out", out_dir)
    if not (out_dir / "node_mae.csv").exists():
        (out_dir / "node_mae.csv").write_text("node_id,part,mae_speed,mae_flow\n")
    code = main([command, "--config", config, "--set", f"{key}={value}",
                 "--set", f"paths.output_dir={out_dir}",
                 "--set", f"paths.timeseries={tmp_path / 'absent.csv'}"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 3 and len(lines) == 1
    out = json.loads(lines[0])
    assert out["kind"] == "data"
    assert out["message"].startswith(f"{out_dir / 'checkpoints' / 'part000.fcbin'}: {key} is ")


def test_partition_without_graph_exits_2(trained, capsys, tmp_path):
    _, config = trained
    code = main(["partition", "--config", config,
                 "--set", f"paths.output_dir={tmp_path / 'empty'}"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 2 and len(lines) == 1
    out = json.loads(lines[0])
    assert out["kind"] == "config" and "graph.json; run build-graph first" in out["message"]


@pytest.mark.parametrize("command,key,value", [
    ("build-graph", "graph.k_nn", "0"),
    ("partition", "partition.k", "0"),
    ("partition", "partition.horizon_k", "0"),
    ("partition", "partition.d_prime", "0"),
    ("partition", "partition.d_prime", "nan"),
    ("partition", "partition.imbalance", "-0.5"),
])
def test_out_of_range_settings_exit_2(trained, capsys, tmp_path, command, key, value):
    root, config = trained
    import shutil

    (tmp_path / "out").mkdir()
    shutil.copy(root / "out" / "graph.json", tmp_path / "out" / "graph.json")
    code = main([command, "--config", config, "--set", f"paths.output_dir={tmp_path / 'out'}",
                 "--set", f"{key}={value}"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 2 and len(lines) == 1
    out = json.loads(lines[0])
    assert out["kind"] == "config" and key in out["message"]
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["graph.json"]


@pytest.mark.parametrize("corruption", ["missing_array", "index_out_of_range",
                                        "wrong_sized_support", "short_halo_flags",
                                        "unknown_config_key", "cut 8 bytes",
                                        "first 12 bytes only", "config units=8",
                                        "config input_dim=2", "config units=0",
                                        "config layers=0", "config max_diffusion_steps=0",
                                        "p0001 1-d", "p0000 transposed", "n_supports 0",
                                        "one scaler mean"])
def test_corrupt_checkpoint_exits_3(trained, capsys, tmp_path, corruption):
    root, config = trained
    import shutil

    from flowcast.data import read_array_container, write_array_container
    from flowcast.sparse import CsrMatrix

    out_dir = tmp_path / "out"
    shutil.copytree(root / "out", out_dir)
    path = out_dir / "checkpoints" / "part000.fcbin"
    arrays, meta = read_array_container(path)
    if corruption == "missing_array":
        del arrays["p0001"]
    elif corruption == "index_out_of_range":
        arrays["s0_indices"][0] = -1
    elif corruption == "short_halo_flags":
        arrays["halo_flags"] = arrays["halo_flags"][:-1]
    elif corruption == "unknown_config_key":
        meta["config"]["bogus"] = 1
    elif corruption.startswith("config "):  # a config that the stored parameters do not fit
        key, value = corruption[len("config "):].split("=")
        meta["config"][key] = int(value)
    elif corruption == "p0001 1-d":
        arrays["p0001"] = arrays["p0001"].ravel()
    elif corruption == "p0000 transposed":
        arrays["p0000"] = np.ascontiguousarray(arrays["p0000"].T)
    elif corruption == "n_supports 0":
        meta["n_supports"] = 0
    elif corruption == "one scaler mean":  # exited 0, scaling by the wrong mean
        meta["scaler"]["means"] = meta["scaler"]["means"][:1]
    elif corruption == "wrong_sized_support":  # well-formed, one node short of the sensors
        n = int(arrays["s0_shape"][0])
        s = CsrMatrix(n, n, arrays["s0_indptr"], arrays["s0_indices"], arrays["s0_data"])
        s = s.restrict(range(n - 1))
        arrays.update(s0_indptr=s.indptr, s0_indices=s.indices, s0_data=s.data,
                      s0_shape=np.array([n - 1, n - 1], dtype=np.int64))
    write_array_container(path, arrays, meta)
    if corruption == "cut 8 bytes":
        path.write_bytes(path.read_bytes()[:-8])
    elif corruption == "first 12 bytes only":
        path.write_bytes(path.read_bytes()[:12])
    code = main(["evaluate", "--config", config, "--set", f"paths.output_dir={out_dir}"])
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 3 and out["kind"] == "data" and "part000" in out["message"]


@pytest.mark.parametrize("command", ["evaluate", "forecast"])
@pytest.mark.parametrize("corruption, field", [
    ("parameter nan", "parameter"),  # exited 4, numerical divergence
    ("parameter inf", "parameter"),  # exited 0 with a finite MAE
    ("std 0", "scaler stds"),  # exited 4, and evaluate warned on stderr
    ("std nan", "scaler stds"),
    ("mean inf", "scaler means"),
    ("support nan", "support 0"),
    ("support inf", "support 0"),
])
def test_non_finite_checkpoint_exits_3(trained, capsys, tmp_path, command, corruption, field):
    root, config = trained
    import shutil

    from flowcast.data import read_array_container, write_array_container

    out_dir = tmp_path / "out"
    shutil.copytree(root / "out", out_dir)
    path = out_dir / "checkpoints" / "part000.fcbin"
    arrays, meta = read_array_container(path)
    bad = math.nan if "nan" in corruption else math.inf
    if corruption.startswith("parameter"):
        arrays["p0002"].flat[1] = bad
    elif corruption.startswith("support"):
        arrays["s0_data"][3] = bad
    elif corruption.startswith("std"):
        meta["scaler"]["stds"][0] = 0.0 if corruption == "std 0" else bad
    else:
        meta["scaler"]["means"][0] = bad
    write_array_container(path, arrays, meta)
    code = main([command, "--config", config, "--set", f"paths.output_dir={out_dir}"])
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    out = json.loads(lines[-1])
    assert code == 3 and out["kind"] == "data" and len(lines) == 1
    assert out["message"].startswith(f"{path}: {field}") and captured.err == ""


def test_failing_forecast_block_exits_4_and_leaves_no_thread(trained, capsys, monkeypatch,
                                                             tmp_path):
    # the test split predicted in several blocks on two threads; the second
    # block's NumericalError reaches the CLI as exit 4 and one JSON line
    import itertools
    import shutil
    import threading

    from flowcast import training
    from flowcast.errors import NumericalError

    root, config = trained
    shutil.copytree(root / "out", tmp_path / "out")
    calls, counts, original = itertools.count(), [], training.predict

    def failing_predict(params, supports, z):
        counts.append(threading.active_count())
        if next(calls) == 1:
            raise NumericalError("numerical divergence")
        return original(params, supports, z)

    monkeypatch.setattr(training, "predict", failing_predict)
    monkeypatch.setattr(training, "_BLOCK_ROWS", 64)
    monkeypatch.setattr(training, "_usable_cpus", lambda: 2)
    before = threading.active_count()
    code = main(["evaluate", "--config", config, "--set", f"paths.output_dir={tmp_path / 'out'}"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 4 and len(lines) == 1
    out = json.loads(lines[0])
    assert out["kind"] == "numerical" and out["message"] == "numerical divergence"
    assert max(counts) > before and threading.active_count() == before


def _corrupt_graph(text, corruption):
    doc = json.loads(text)
    if corruption == "truncated":
        return text[:len(text) // 2]
    if corruption == "no_edges_key":
        del doc["edges"]
    elif corruption == "non_integer_index":
        doc["edges"][0][1] = "one"
    elif corruption == "n_nodes_below_index":
        doc["n_nodes"] = max(max(e[0], e[1]) for e in doc["edges"])
        doc["sensor_ids"] = doc["sensor_ids"][:doc["n_nodes"]]
    elif corruption == "sensor_ids_length":
        doc["sensor_ids"] = doc["sensor_ids"][:-1]
    return json.dumps(doc)


@pytest.mark.parametrize("corruption", ["truncated", "no_edges_key", "non_integer_index",
                                        "n_nodes_below_index", "sensor_ids_length"])
def test_corrupt_graph_file_exits_3(trained, capsys, tmp_path, corruption):
    root, config = trained
    import shutil

    out_dir = tmp_path / "out"
    shutil.copytree(root / "out", out_dir)
    path = out_dir / "graph.json"
    path.write_text(_corrupt_graph(path.read_text(), corruption))
    code = main(["partition", "--config", config, "--set", f"paths.output_dir={out_dir}"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 3 and len(lines) == 1
    out = json.loads(lines[0])
    assert out["kind"] == "data" and "graph.json" in out["message"]


@pytest.mark.parametrize("corruption", ["short_row", "non_integer_field", "is_halo_2",
                                        "missing_row", "missing_file", "stray_directory"])
def test_corrupt_bundle_nodes_exits_3(trained, capsys, tmp_path, corruption):
    root, config = trained
    import shutil

    out_dir = tmp_path / "out"
    shutil.copytree(root / "out", out_dir)
    path = out_dir / "bundles" / "part000" / "nodes.csv"
    rows = path.read_text().splitlines()
    fields = rows[1].split(",")
    if corruption == "short_row":
        rows[1] = ",".join(fields[:3])
    elif corruption == "non_integer_field":
        rows[1] = ",".join(fields[:2] + ["x"] + fields[3:])
    elif corruption == "is_halo_2":
        rows[1] = ",".join(fields[:3] + ["2"])
    elif corruption == "missing_row":
        del rows[-1]
    elif corruption == "stray_directory":
        shutil.copytree(path.parent, out_dir / "bundles" / "part_old")
    path.write_text("\n".join(rows) + "\n")
    if corruption == "missing_file":
        path.unlink()
    code = main(["train", "--config", config, "--set", f"paths.output_dir={out_dir}"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 3 and len(lines) == 1
    out = json.loads(lines[0])
    named = "part_old" if corruption == "stray_directory" else "nodes.csv"
    assert out["kind"] == "data" and named in out["message"]


def test_synth_places_64_clusters(capsys, tmp_path):
    root, config = _write_config(tmp_path)
    summary = run_ok(capsys, "synth", "--config", config, "--set", "synth.nodes=200",
                     "--set", "synth.clusters=64", "--set", "synth.days=1")
    assert summary["nodes"] == 200
    meta = read_metadata_csv(root / "sensors.csv")
    assert len({(m.latitude, m.longitude) for m in meta}) == 200


# Every table a speed_only pipeline writes, with the header its writer gives it.
WRITTEN_TABLES = {
    "sensors.csv": "sensor_id,latitude,longitude,district,sensor_type,lane_type",
    "timeseries.csv": "timestamp,sensor_id,speed,flow",
    "out/assignment.csv": "sensor_id,part",
    "out/bundles/part000/nodes.csv": "local_index,sensor_id,global_index,is_halo",
    "out/bundles/part001/nodes.csv": "local_index,sensor_id,global_index,is_halo",
    "out/bundles/part000/halos.csv": "sensor_id,global_index",
    "out/bundles/part001/halos.csv": "sensor_id,global_index",
    "out/training_epochs.csv": "partition,epoch,train_loss,valid_loss,lr,epsilon,seconds",
    "out/node_mae.csv": "node_id,part,mae_speed",
    "out/horizon_mae.csv": "node_id,part,horizon_minutes,mae_speed",
    "out/forecast.csv": "node_id,minutes_ahead,speed",
    "out/error_records.csv": "node_id,mae,mae_class,cov,district,sensor_type,lane_type",
    "out/cart_importances.csv": "factor,importance",
    "out/mae_box_stats.csv": "q1,median,q3,whisker_low,whisker_high,outliers",
}


def test_every_written_table_reads_back(trained, capsys, tmp_path):
    root, config = trained
    import shutil

    run = tmp_path / "run"
    shutil.copytree(root, run)
    for command in ("evaluate", "forecast", "analyze"):
        run_ok(capsys, command, "--config", config, "--set", f"paths.output_dir={run / 'out'}")
    written = {str(p.relative_to(run)) for p in run.rglob("*.csv")}
    assert written == set(WRITTEN_TABLES)
    for name, header in WRITTEN_TABLES.items():
        numbers = [lineno for lineno, _ in read_table(run / name, header.split(","))]
        assert numbers == list(range(2, len(numbers) + 2)) and numbers, name


def test_data_errors_exit_3(pipeline, capsys, tmp_path):
    _, config = pipeline
    bad = tmp_path / "bad.csv"
    bad.write_text("sensor_id,latitude,longitude,district,sensor_type,lane_type\nX,200,0,,,\n")
    code = main(["build-graph", "--config", config, "--set", f"paths.metadata={bad}"])
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 3 and out["kind"] == "data"


UNREADABLE = {  # fault -> (new third field by row number, message by command)
    "not_utf8": ({3: b"\xff"}, "row 3: not UTF-8 text (invalid start byte)"),
    "huge_field": ({3: b"9" * 200_000}, "row 3: field larger than field limit (131072)"),
    "bad_row_before_not_utf8": ({4: b"x", 6: b"\xff"}, {"build-graph": "row 4: bad coordinates",
                                                        "train": "row 4: bad value 'x'"}),
}


@pytest.mark.parametrize("command", ["build-graph", "train"])
@pytest.mark.parametrize("fault", list(UNREADABLE))
@pytest.mark.parametrize("quoted", [False, True], ids=["split_at_commas", "csv_parsed"])
def test_unreadable_table_exits_3(trained, capsys, tmp_path, command, fault, quoted):
    """Text that is not UTF-8, and a field over csv's size limit, in the
    metadata (build-graph) or the time series (train), each reported at its
    row and after any bad row before it. A quoted field in row 2 sends the
    whole file through csv."""
    root, config = trained
    import shutil

    key, name = ("metadata", "sensors.csv") if command == "build-graph" else ("timeseries",
                                                                             "timeseries.csv")
    lines = (root / name).read_bytes().split(b"\n")
    replaced, message = UNREADABLE[fault]
    for row, value in replaced.items():
        fields = lines[row - 1].split(b",")
        fields[2] = value
        lines[row - 1] = b",".join(fields)
    if quoted:
        fields = lines[1].split(b",")
        fields[1] = b'"' + fields[1] + b'"'
        lines[1] = b",".join(fields)
    bad = tmp_path / name
    bad.write_bytes(b"\n".join(lines))
    shutil.copytree(root / "out", tmp_path / "out")
    code = main([command, "--config", config, "--set", f"paths.{key}={bad}",
                 "--set", f"paths.output_dir={tmp_path / 'out'}"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 3 and len(lines) == 1
    out = json.loads(lines[0])
    message = message[command] if isinstance(message, dict) else message
    assert out["kind"] == "data" and out["message"] == f"{bad}: {message}"


def test_forecast_with_mismatched_series_fails(trained, capsys, tmp_path):
    root, config = trained
    other = tmp_path / "other"
    # different sensor ids than the trained checkpoints
    assert main(["synth", "--config", config, "--set", "synth.nodes=5",
                 "--set", f"paths.metadata={other}/m.csv",
                 "--set", f"paths.timeseries={other}/t.csv"]) == 0
    code = main(["forecast", "--config", config,
                 "--set", f"paths.timeseries={other}/t.csv"])
    assert code == 3
    capsys.readouterr()


def test_partition_failure_exits_4(trained, capsys, tmp_path):
    root, config = trained
    import shutil

    out2 = tmp_path / "out2"
    shutil.copytree(root / "out", out2)
    broken = tmp_path / "broken.csv"
    lines = (root / "timeseries.csv").read_text().splitlines()
    fixed = [lines[0]]
    for line in lines[1:]:
        ts, sid, _, _ = line.split(",")
        fixed.append(",".join([ts, sid, "50.0", "100.0"]))  # constant everywhere
    broken.write_text("\n".join(fixed) + "\n")
    code = main(["train", "--config", config,
                 "--set", f"paths.timeseries={broken}",
                 "--set", f"paths.output_dir={out2}"])
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 4 and out["kind"] == "numerical"
    assert "degenerate" in out["message"]


def test_cli_import_loads_no_network_stack():
    # only the routing provider needs urllib, which loads ssl, http and email
    probe = ("import sys, flowcast.cli; "
             "print(sorted(m for m in ('ssl', 'urllib.request') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_console_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "flowcast.cli", "synth"],
                          capture_output=True, text=True)
    assert proc.returncode == 2  # missing --config is an argparse error
