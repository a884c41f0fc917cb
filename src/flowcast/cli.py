"""Command-line pipeline: synth, build-graph, partition, train, evaluate,
forecast, analyze.

One INI-style config file drives every command; any field can be overridden
with repeated ``--set section.key=value`` flags. Each command prints a single
machine-readable JSON summary line and exits 0 on success, 2 on configuration
errors, 3 on data errors, and 4 on numerical failures.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analysis, data, graph as graphmod, partition as partmod, training
from .errors import ConfigError, DataError, FlowcastError, NumericalError
from .model import FILTER_TYPES
from .tables import read_table, write_table


def _rule(convert, check, rule: str, unconvertible: str | None = None):
    """A parse that converts the text and checks the value, or raises ValueError(rule)."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise ValueError(unconvertible or rule) from None
        if not check(value):
            raise ValueError(rule)
        return value
    return parse


def _choice(choices):
    return _rule(str, lambda v: v in choices, f"must be one of {', '.join(choices)}")


_count = _rule(int, lambda v: v >= 1, "must be at least 1", "must be an integer")
_seed = _rule(int, lambda v: v >= 0, "must be at least 0", "must be an integer")
_positive = _rule(float, lambda v: 0.0 < v < math.inf, "must be a finite number greater than 0")
_nonnegative = _rule(float, lambda v: 0.0 <= v < math.inf, "must be a finite number at least 0")
_path = _rule(str, lambda v: "\0" not in v, "must not contain a NUL character")
_url = _rule(str, lambda v: not v or v.startswith(("http://", "https://")),
             "must be empty or an http:// or https:// URL")
_sigma = _rule(lambda t: t if t == "auto" else float(t),
               lambda v: v == "auto" or 0.0 < v < math.inf,
               "must be auto or a finite number greater than 0")
_milestones = _rule(  # empty: TrainingConfig derives them from epochs
    lambda t: tuple(int(m) for m in t.split(",")) if t.strip() else None,
    lambda ms: ms is None or (ms[0] >= 1 and all(a < b for a, b in zip(ms, ms[1:]))),
    "must be empty or integers of at least 1 in strictly increasing order")
_windows = _rule(
    lambda t: (tuple(tuple(float(h) for h in w.split("-")) for w in t.split(","))
               if t.strip() else ()),
    lambda ws: all(len(w) == 2 and 0.0 <= w[0] < w[1] <= 24.0 for w in ws),
    "must be start-end hour pairs with 0 <= start < end <= 24")

# section -> key -> (default text, parse); parse returns the typed value or
# raises ValueError naming the rule. load_config applies every row.
_SETTINGS = {
    "paths": {"metadata": ("", _path), "timeseries": ("", _path),
              "output_dir": ("out", _path), "distance_table": ("", _path)},
    "graph": {"k_nn": ("30", _count),
              "threshold_on": ("distance_sq", _choice(graphmod.THRESHOLD_MODES)),
              "threshold": ("100.0", _nonnegative), "sigma_mode": ("auto", _sigma),
              "provider": ("haversine", _choice(("haversine", "table", "routing"))),
              "routing_url": ("", _url)},
    "partition": {"k": ("2", _count), "imbalance": ("0.05", _nonnegative),
                  "d_prime": ("1.0", _positive), "horizon_k": ("30", _count)},
    "data": {"impute": ("temporal_mean", _choice(data.IMPUTE_METHODS)),
             "train_fraction": ("0.7", _positive), "valid_fraction": ("0.1", _positive)},
    "model": {"mode": ("speed_only", _choice(training.MODE_FEATURES)),
              "lookback": ("12", _count), "horizon": ("12", _count), "layers": ("2", _count),
              "units": ("16", _count), "diffusion_steps": ("2", _count),
              "filter_type": ("random_walk", _choice(FILTER_TYPES))},
    "training": {"batch_size": ("64", _count), "epochs": ("30", _count),
                 "patience": ("10", _count), "learning_rate": ("0.01", _nonnegative),
                 "lr_decay": ("0.1", _positive), "lr_milestones": ("", _milestones),
                 "max_grad_norm": ("5.0", _positive), "sampling_tau": ("40.0", _positive),
                 "seed": ("0", _seed)},
    "synth": {"nodes": ("24", _count), "days": ("14", _count), "clusters": ("2", _count),
              "noise": ("0.05", _nonnegative), "seed": ("0", _seed),
              "congestion_windows": ("7-9,16-18", _windows)},
}


@dataclass
class PipelineConfig:
    values: dict[str, dict[str, object]]  # typed, one entry per _SETTINGS row

    def get(self, section: str, key: str):
        return self.values[section][key]

    def path(self, key: str, must_exist: bool = False) -> Path:
        value = self.get("paths", key)
        if not value:
            raise ConfigError(f"paths.{key} is not set")
        p = Path(value)
        if must_exist and not p.exists():
            raise ConfigError(f"paths.{key}: {p} does not exist")
        return p

    def training_config(self) -> training.TrainingConfig:
        model = self.values["model"]
        return training.TrainingConfig(**self.values["training"], **{
            key: model[key] for key in ("diffusion_steps", "layers", "units", "filter_type")})


def load_config(path: str, overrides: list[str]) -> PipelineConfig:
    """Read the file and the --set overrides, then parse every setting and
    apply the cross-key rules; any bad value is a ConfigError naming its key."""
    parser, text = configparser.ConfigParser(interpolation=None), {}  # % is literal, as in --set
    try:
        if not parser.read(path):
            raise ConfigError(f"cannot read config file {path}")
        for section in parser.sections():
            if section not in _SETTINGS:
                raise ConfigError(f"unknown config section [{section}]")
            text.update(((section, key), value) for key, value in parser.items(section))
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path}: {exc}") from None
    for item in overrides:
        target, eq, value = item.partition("=")
        section, dot, key = target.partition(".")
        if not (eq and dot):
            raise ConfigError(f"--set expects section.key=value, got {item!r}")
        text[section, key] = value
    for section, key in text:
        if key not in _SETTINGS.get(section, {}):
            raise ConfigError(f"unknown config key {section}.{key}")
    values = {section: {} for section in _SETTINGS}
    for section, rows in _SETTINGS.items():
        for key, (default, parse) in rows.items():
            value = text.get((section, key), default)
            try:
                values[section][key] = parse(value)
            except ValueError as exc:
                raise ConfigError(f"{section}.{key} {exc}, got {key} {value!r}") from None
    fractions, graph, synth = values["data"], values["graph"], values["synth"]
    if fractions["train_fraction"] + fractions["valid_fraction"] >= 1.0:
        raise ConfigError("data.train_fraction + data.valid_fraction must be less than 1")
    if graph["provider"] == "routing" and not graph["routing_url"]:
        raise ConfigError("graph.routing_url is required for the routing provider")
    if graph["provider"] == "table" and not values["paths"]["distance_table"]:
        raise ConfigError("paths.distance_table is required for the table provider")
    if synth["clusters"] > synth["nodes"]:
        raise ConfigError("synth.clusters must be at most synth.nodes")
    return PipelineConfig(values)


def _summary(command: str, **fields) -> None:
    print(json.dumps({"command": command, "status": "ok", **fields}, sort_keys=True))


def _provider_for(config: PipelineConfig, meta):
    kind = config.get("graph", "provider")
    if kind == "table":
        return graphmod.TableDistances.from_csv(config.path("distance_table", must_exist=True), meta)
    order = graphmod.canonical_order(meta)
    if kind == "routing":
        return graphmod.RoutingServiceClient(config.get("graph", "routing_url"), order)
    return graphmod.HaversineDistances(order)


def _load_split_panels(config: PipelineConfig):
    """Shared ingestion path: read, impute (training-slice statistics), split
    into slices of at least lookback + horizon ticks."""
    panel = data.read_timeseries_csv(config.path("timeseries", must_exist=True))
    settings = config.values["data"]
    train_frac, valid_frac = settings["train_fraction"], settings["valid_fraction"]
    fractions = (train_frac, valid_frac, 1.0 - train_frac - valid_frac)
    imputed = data.impute(panel, settings["impute"], stats_through=int(panel.n_ticks * train_frac))
    min_length = config.get("model", "lookback") + config.get("model", "horizon")
    parts = data.split(imputed, fractions, min_length=min_length)
    return imputed, parts


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------


def cmd_synth(config: PipelineConfig) -> None:
    synth = config.values["synth"]
    meta, panel = data.generate_synthetic(data.SyntheticScenario(
        n_nodes=synth["nodes"], days=synth["days"], clusters=synth["clusters"],
        congestion_windows=synth["congestion_windows"], noise=synth["noise"],
        seed=synth["seed"]))
    meta_path = config.path("metadata")
    series_path = config.path("timeseries")
    meta_path.parent.mkdir(parents=True, exist_ok=True)
    series_path.parent.mkdir(parents=True, exist_ok=True)
    graphmod.write_metadata_csv(meta_path, meta)
    data.write_timeseries_csv(series_path, panel)
    _summary("synth", nodes=panel.n_nodes, ticks=panel.n_ticks,
             metadata=str(meta_path), timeseries=str(series_path))


def cmd_build_graph(config: PipelineConfig) -> None:
    settings = config.values["graph"]
    meta = graphmod.read_metadata_csv(config.path("metadata", must_exist=True))
    g = graphmod.build_adjacency(meta, graphmod.knn_candidates(meta, settings["k_nn"]),
                                 _provider_for(config, meta), thresh=settings["threshold"],
                                 sigma_mode=settings["sigma_mode"],
                                 threshold_on=settings["threshold_on"])
    out_dir = config.path("output_dir")
    out_dir.mkdir(parents=True, exist_ok=True)
    g.save(out_dir / "graph.json")
    _summary("build-graph", n_nodes=g.n_nodes, n_edges=g.n_edges,
             sigma=g.kernel_sigma, graph=str(out_dir / "graph.json"))


def cmd_partition(config: PipelineConfig) -> None:
    out_dir = config.path("output_dir")
    graph_path = out_dir / "graph.json"
    if not graph_path.exists():
        raise ConfigError(f"missing {graph_path}; run build-graph first")
    g = graphmod.SensorGraph.load(graph_path)
    meta = graphmod.read_metadata_csv(config.path("metadata", must_exist=True))
    settings = config.values["partition"]
    k = settings["k"]
    assignment = partmod.partition_graph(g, k, settings["imbalance"],
                                         seed=config.get("training", "seed"))
    provider = _provider_for(config, meta)
    halos = [partmod.add_overlap_nodes(g, assignment, p, settings["horizon_k"],
                                       settings["d_prime"], provider) for p in range(k)]
    bundles = partmod.extract_subgraphs(g, assignment, halos)
    partmod.write_assignment_csv(out_dir / "assignment.csv", g, assignment)
    partmod.write_bundles(out_dir / "bundles", bundles)
    _summary("partition", k=k, edge_cut=partmod.edge_cut(g, assignment),
             halo_counts=[len(h) for h in halos],
             part_sizes=[int((assignment.part_of == p).sum()) for p in range(k)])


def cmd_train(config: PipelineConfig, workers: int = 1) -> None:
    model = config.values["model"]
    out_dir = config.path("output_dir")
    bundles = partmod.read_bundles(out_dir / "bundles")
    _, (train_panel, valid_panel, _) = _load_split_panels(config)
    results = training.train_all(
        bundles, train_panel, valid_panel, config.training_config(), mode=model["mode"],
        lookback=model["lookback"], horizon=model["horizon"], workers=workers,
    )
    ckpt_dir = out_dir / "checkpoints"
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    for r in results:
        if r.ok:
            r.checkpoint.save(ckpt_dir / f"part{r.part_id:03d}.fcbin")
    training.write_report_csv(out_dir / "training_epochs.csv", results)
    training.write_training_summary(out_dir / "training_summary.json", results)
    summary = training.aggregate_training_summary(results)
    if summary["failed"]:
        details = "; ".join(f"part {f['part']}: {f['error']}" for f in summary["failed"])
        raise NumericalError(f"{len(summary['failed'])} partition(s) failed to train ({details})")
    _summary("train", trained=summary["trained"], failed=0,
             max_wall_seconds=summary["max_wall_seconds"])


def _load_partitions(config: PipelineConfig) -> list[tuple]:
    """(bundle, checkpoint) pairs, each checkpoint checked against its bundle
    and model.mode, model.lookback and model.horizon before any series is read."""
    model = config.values["model"]
    out_dir = config.path("output_dir")
    partitions = []
    for bundle in partmod.read_bundles(out_dir / "bundles"):
        path = out_dir / "checkpoints" / f"part{bundle.part_id:03d}.fcbin"
        if not path.exists():
            raise ConfigError(f"missing checkpoint {path}; run train first")
        ckpt = training.Checkpoint.load(path)
        if ckpt.sensor_ids != list(bundle.graph.sensor_ids):
            raise DataError(f"{path}: nodes differ from those of bundle {bundle.part_id}")
        if (ckpt.input_features, ckpt.output_features) != training.mode_features(model["mode"]):
            raise DataError(f"{path}: model.mode is {model['mode']}, but the checkpoint maps "
                            f"{'+'.join(ckpt.input_features)} to {'+'.join(ckpt.output_features)}")
        for key in ("lookback", "horizon"):
            if getattr(ckpt.config, key) != model[key]:
                raise DataError(f"{path}: model.{key} is {model[key]}, but the checkpoint "
                                f"was trained with {getattr(ckpt.config, key)}")
        partitions.append((bundle, ckpt))
    return partitions


def cmd_evaluate(config: PipelineConfig) -> None:
    lookback, horizon = config.get("model", "lookback"), config.get("model", "horizon")
    in_f, out_f = training.mode_features(config.get("model", "mode"))
    out_dir = config.path("output_dir")
    partitions = _load_partitions(config)
    _, (_, _, test_panel) = _load_split_panels(config)
    rows = []
    horizon_rows = []
    for bundle, ckpt in partitions:
        local = data.slice_for_partition(test_panel, bundle)
        windows = data.make_windows(local, lookback, horizon,
                                    input_features=in_f, output_features=out_f)
        result = training.evaluate(ckpt, windows, bundle)
        for i, sid in enumerate(result.node_ids):
            rows.append([sid, bundle.part_id] + [repr(float(v)) for v in result.mae[i]])
            for minutes, mae in sorted(result.horizon_mae.items()):
                horizon_rows.append([sid, bundle.part_id, minutes]
                                    + [repr(float(v)) for v in mae[i]])
    feature_cols = [f"mae_{f}" for f in out_f]
    write_table(out_dir / "node_mae.csv", ["node_id", "part"] + feature_cols, sorted(rows))
    write_table(out_dir / "horizon_mae.csv", ["node_id", "part", "horizon_minutes"] + feature_cols,
                sorted(horizon_rows))
    primary = np.array([float(r[2]) for r in rows])
    _summary("evaluate", nodes=len(rows), mean_mae=float(primary.mean()),
             median_mae=float(np.median(primary)))


def cmd_forecast(config: PipelineConfig) -> None:
    lookback, horizon = config.get("model", "lookback"), config.get("model", "horizon")
    in_f, out_f = training.mode_features(config.get("model", "mode"))
    out_dir = config.path("output_dir")
    partitions = _load_partitions(config)
    imputed, _ = _load_split_panels(config)
    recent = imputed.tick_slice(imputed.n_ticks - lookback, imputed.n_ticks)
    in_idx = [recent.feature_index(f) for f in in_f]
    rows = []
    for bundle, ckpt in partitions:
        window = data.slice_for_partition(recent, bundle).values[:, :, in_idx]
        pred = training.forecast(ckpt, window)
        for i in np.flatnonzero(~bundle.halo_flags):
            sid = bundle.graph.sensor_ids[int(i)]
            for t in range(pred.shape[0]):
                rows.append([sid, (t + 1) * 5] + [repr(float(v)) for v in pred[t, int(i)]])
    write_table(out_dir / "forecast.csv", ["node_id", "minutes_ahead"] + list(out_f), sorted(rows))
    _summary("forecast", nodes=len({r[0] for r in rows}), steps=horizon,
             file=str(out_dir / "forecast.csv"))


def cmd_analyze(config: PipelineConfig) -> None:
    lookback, horizon = config.get("model", "lookback"), config.get("model", "horizon")
    mode = config.get("model", "mode")
    in_f, out_f = training.mode_features(mode)
    out_dir = config.path("output_dir")
    mae_path = out_dir / "node_mae.csv"
    if not mae_path.exists():
        raise ConfigError(f"missing {mae_path}; run evaluate first")
    partitions = _load_partitions(config) if mode == "multioutput" else []
    meta = {m.sensor_id: m for m in
            graphmod.read_metadata_csv(config.path("metadata", must_exist=True))}
    imputed, (_, _, test_panel) = _load_split_panels(config)
    primary_feature = "flow" if mode == "flow_only" else "speed"
    cov, zero_mean = analysis.coefficient_of_variation(imputed, primary_feature)
    cov_by_id = {sid: float(cov[i]) for i, sid in enumerate(imputed.node_ids)}
    records = []
    header = ["node_id", "part"] + [f"mae_{f}" for f in out_f]
    for lineno, row in read_table(mae_path, header):
        sid = row[0]
        try:
            mae = float(row[2])
        except ValueError:
            mae = math.nan
        if not 0.0 <= mae < math.inf:
            raise DataError(f"{mae_path}: row {lineno}: expected node_id,part,finite MAE >= 0")
        m, cov_value = meta.get(sid), cov_by_id.pop(sid, None)  # pop: one row per node
        if m is None or cov_value is None:
            raise DataError(f"{mae_path}: row {lineno}: node {sid} is repeated or "
                            "lacks metadata or a series")
        if np.isnan(cov_value):
            continue  # zero-mean node: dispersion undefined, reported in summary
        records.append(analysis.ErrorRecord.make(
            sid, mae, cov_value, m.district, m.sensor_type, m.lane_type))
    if not records:
        raise DataError("no nodes with a defined coefficient of variation")
    tree, train_acc, test_acc, importances = analysis.train_cart(
        records, seed=config.get("training", "seed"))
    analysis.write_error_records_csv(out_dir / "error_records.csv", records)
    analysis.write_importances_csv(out_dir / "cart_importances.csv", importances,
                                   train_acc, test_acc)
    stats = analysis.mae_distribution_stats([r.mae for r in records])
    analysis.write_box_stats_csv(out_dir / "mae_box_stats.csv", stats)
    fd_rows = 0
    if mode == "multioutput":
        all_rows = []
        for bundle, ckpt in partitions:
            local = data.slice_for_partition(test_panel, bundle)
            windows = data.make_windows(local, lookback, horizon, stride=horizon,
                                        input_features=in_f, output_features=out_f)
            keep = ~bundle.halo_flags
            ids = [s for s, h in zip(bundle.graph.sensor_ids, bundle.halo_flags) if not h]
            for pred in training.forecast(ckpt, windows.x):
                all_rows.extend(analysis.emit_fundamental_diagram(pred[:, keep], ids, out_f))
        analysis.write_fundamental_csv(out_dir / "fundamental_diagram.csv", all_rows)
        fd_rows = len(all_rows)
    _summary("analyze", records=len(records), cart_train_accuracy=train_acc,
             cart_test_accuracy=test_acc,
             top_factor=max(importances, key=importances.get),
             zero_mean_nodes=len(zero_mean), fundamental_rows=fd_rows)


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

_COMMANDS = {
    "synth": cmd_synth,
    "build-graph": cmd_build_graph,
    "partition": cmd_partition,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "forecast": cmd_forecast,
    "analyze": cmd_analyze,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="flowcast",
        description="Partitioned diffusion-convolutional GRU traffic forecasting pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="INI configuration file")
        p.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
                       help="override a config value")
        if name == "train":
            p.add_argument("--workers", type=int, default=1,
                           help="partition-parallel worker processes")
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config, args.set)
        if args.command == "train":
            _COMMANDS[args.command](config, workers=args.workers)
        else:
            _COMMANDS[args.command](config)
    except FlowcastError as exc:
        kind, code = next((kind, code) for cls, kind, code in (
            (ConfigError, "config", 2), (DataError, "data", 3),
            (NumericalError, "numerical", 4), (FlowcastError, "other", 1)) if isinstance(exc, cls))
        print(json.dumps({"command": args.command, "status": "error", "kind": kind,
                          "message": str(exc)}))
        return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
