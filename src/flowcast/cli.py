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
import csv
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import analysis, data, graph as graphmod, partition as partmod, training
from .errors import ConfigError, DataError, FlowcastError, NumericalError
from .model import FILTER_TYPES

_DEFAULTS = {
    "paths": {"metadata": "", "timeseries": "", "output_dir": "out", "distance_table": ""},
    "graph": {"k_nn": "30", "threshold_on": "distance_sq", "threshold": "100.0",
              "sigma_mode": "auto", "provider": "haversine", "routing_url": ""},
    "partition": {"k": "2", "imbalance": "0.05", "d_prime": "1.0", "horizon_k": "30"},
    "data": {"impute": "temporal_mean", "train_fraction": "0.7", "valid_fraction": "0.1"},
    "model": {"mode": "speed_only", "lookback": "12", "horizon": "12", "layers": "2",
              "units": "16", "diffusion_steps": "2", "filter_type": "random_walk"},
    "training": {"batch_size": "64", "epochs": "30", "patience": "10",
                 "learning_rate": "0.01", "lr_decay": "0.1", "lr_milestones": "",
                 "max_grad_norm": "5.0", "sampling_tau": "40.0", "seed": "0"},
    "synth": {"nodes": "24", "days": "14", "clusters": "2", "noise": "0.05",
              "seed": "0", "congestion_windows": "7-9,16-18"},
}


@dataclass
class PipelineConfig:
    raw: dict[str, dict[str, str]] = field(default_factory=dict)

    def get(self, section: str, key: str) -> str:
        return self.raw[section][key]

    def get_int(self, section: str, key: str, minimum: int | None = None) -> int:
        try:
            value = int(self.get(section, key))
        except ValueError:
            raise ConfigError(f"{section}.{key} must be an integer") from None
        if minimum is not None and value < minimum:
            raise ConfigError(f"{section}.{key} must be at least {minimum}, got {value}")
        return value

    def get_float(self, section: str, key: str, minimum: float | None = None,
                  strict: bool = False) -> float:
        """A float; with minimum, values that are not finite or lie below it
        (or equal, if strict) raise."""
        try:
            value = float(self.get(section, key))
        except ValueError:
            raise ConfigError(f"{section}.{key} must be a number") from None
        if minimum is not None and not (math.isfinite(value)
                                        and (value > minimum if strict else value >= minimum)):
            bound = "greater than" if strict else "at least"
            raise ConfigError(f"{section}.{key} must be a finite number {bound} {minimum}, "
                              f"got {value}")
        return value

    def path(self, key: str, must_exist: bool = False) -> Path:
        value = self.get("paths", key)
        if not value:
            raise ConfigError(f"paths.{key} is not set")
        p = Path(value)
        if must_exist and not p.exists():
            raise ConfigError(f"paths.{key}: {p} does not exist")
        return p

    def training_config(self) -> training.TrainingConfig:
        milestones_text = self.get("training", "lr_milestones").strip()
        milestones = (tuple(int(m) for m in milestones_text.split(",") if m.strip())
                      if milestones_text else None)
        return training.TrainingConfig(
            batch_size=self.get_int("training", "batch_size"),
            diffusion_steps=self.get_int("model", "diffusion_steps"),
            layers=self.get_int("model", "layers"),
            units=self.get_int("model", "units"),
            max_grad_norm=self.get_float("training", "max_grad_norm"),
            learning_rate=self.get_float("training", "learning_rate"),
            lr_decay=self.get_float("training", "lr_decay"),
            lr_milestones=milestones,
            epochs=self.get_int("training", "epochs"),
            patience=self.get_int("training", "patience"),
            sampling_tau=self.get_float("training", "sampling_tau"),
            seed=self.get_int("training", "seed"),
            filter_type=self.get("model", "filter_type"),
        )


def load_config(path: str, overrides: list[str]) -> PipelineConfig:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    raw = {section: dict(values) for section, values in _DEFAULTS.items()}
    for section in parser.sections():
        if section not in raw:
            raise ConfigError(f"unknown config section [{section}]")
        for key, value in parser.items(section):
            if key not in raw[section]:
                raise ConfigError(f"unknown config key {section}.{key}")
            raw[section][key] = value
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"--set expects section.key=value, got {item!r}")
        target, value = item.split("=", 1)
        section, key = target.split(".", 1)
        if section not in raw or key not in raw[section]:
            raise ConfigError(f"unknown config key {section}.{key}")
        raw[section][key] = value
    return PipelineConfig(raw)


def _summary(command: str, **fields) -> None:
    print(json.dumps({"command": command, "status": "ok", **fields}, sort_keys=True))


def _provider_for(config: PipelineConfig, meta):
    kind = config.get("graph", "provider")
    if kind == "haversine":
        return graphmod.HaversineDistances(graphmod.canonical_order(meta))
    if kind == "table":
        return graphmod.TableDistances.from_csv(config.path("distance_table", must_exist=True), meta)
    if kind == "routing":
        url = config.get("graph", "routing_url")
        if not url:
            raise ConfigError("graph.routing_url is required for the routing provider")
        return graphmod.RoutingServiceClient(url, graphmod.canonical_order(meta))
    raise ConfigError(f"unknown distance provider {kind!r}")


def _model_settings(config: PipelineConfig):
    """((input, output) features, lookback, horizon) from the [model] section,
    checked with model.filter_type before a command reads any file, so a bad
    value exits 2 naming its key."""
    features = training.mode_features(config.get("model", "mode"))
    filter_type = config.get("model", "filter_type")
    if filter_type not in FILTER_TYPES:
        raise ConfigError(f"model.filter_type must be one of {', '.join(FILTER_TYPES)}, "
                          f"got {filter_type!r}")
    return (features, config.get_int("model", "lookback", minimum=1),
            config.get_int("model", "horizon", minimum=1))


def _load_split_panels(config: PipelineConfig, min_length: int):
    """Shared ingestion path: read, impute (training-slice statistics), split
    into slices of at least min_length ticks (lookback + horizon)."""
    panel = data.read_timeseries_csv(config.path("timeseries", must_exist=True))
    train_frac = config.get_float("data", "train_fraction")
    valid_frac = config.get_float("data", "valid_fraction")
    fractions = (train_frac, valid_frac, 1.0 - train_frac - valid_frac)
    stats_through = int(panel.n_ticks * train_frac)
    imputed = data.impute(panel, config.get("data", "impute"), stats_through=stats_through)
    parts = data.split(imputed, fractions, min_length=min_length)
    return imputed, parts


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------


def cmd_synth(config: PipelineConfig) -> None:
    windows = []
    text = config.get("synth", "congestion_windows").strip()
    if text:
        for token in text.split(","):
            lo, hi = token.split("-")
            windows.append((float(lo), float(hi)))
    scenario = data.SyntheticScenario(
        n_nodes=config.get_int("synth", "nodes"),
        days=config.get_int("synth", "days"),
        clusters=config.get_int("synth", "clusters"),
        congestion_windows=tuple(windows),
        noise=config.get_float("synth", "noise"),
        seed=config.get_int("synth", "seed"),
    )
    meta, panel = data.generate_synthetic(scenario)
    meta_path = config.path("metadata")
    series_path = config.path("timeseries")
    meta_path.parent.mkdir(parents=True, exist_ok=True)
    series_path.parent.mkdir(parents=True, exist_ok=True)
    graphmod.write_metadata_csv(meta_path, meta)
    data.write_timeseries_csv(series_path, panel)
    _summary("synth", nodes=panel.n_nodes, ticks=panel.n_ticks,
             metadata=str(meta_path), timeseries=str(series_path))


def cmd_build_graph(config: PipelineConfig) -> None:
    k_nn = config.get_int("graph", "k_nn", minimum=1)
    thresh = config.get_float("graph", "threshold", minimum=0.0)
    threshold_on = config.get("graph", "threshold_on")
    if threshold_on not in ("distance_sq", "weight"):
        raise ConfigError(f"graph.threshold_on must be distance_sq or weight, got {threshold_on!r}")
    sigma_mode = config.get("graph", "sigma_mode")
    if sigma_mode != "auto":
        sigma_mode = config.get_float("graph", "sigma_mode", minimum=0.0, strict=True)
    meta = graphmod.read_metadata_csv(config.path("metadata", must_exist=True))
    g = graphmod.build_adjacency(meta, graphmod.knn_candidates(meta, k_nn),
                                 _provider_for(config, meta), thresh=thresh,
                                 sigma_mode=sigma_mode, threshold_on=threshold_on)
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
    k = config.get_int("partition", "k", minimum=1)
    imbalance = config.get_float("partition", "imbalance", minimum=0.0)
    horizon_k = config.get_int("partition", "horizon_k", minimum=1)
    d_prime = config.get_float("partition", "d_prime", minimum=0.0, strict=True)
    seed = config.get_int("training", "seed")
    assignment = partmod.partition_graph(g, k, imbalance, seed=seed)
    provider = _provider_for(config, meta)
    halos = [partmod.add_overlap_nodes(g, assignment, p, horizon_k, d_prime, provider)
             for p in range(k)]
    bundles = partmod.extract_subgraphs(g, assignment, halos)
    partmod.write_assignment_csv(out_dir / "assignment.csv", g, assignment)
    partmod.write_bundles(out_dir / "bundles", bundles)
    _summary("partition", k=k, edge_cut=partmod.edge_cut(g, assignment),
             halo_counts=[len(h) for h in halos],
             part_sizes=[int((assignment.part_of == p).sum()) for p in range(k)])


def cmd_train(config: PipelineConfig, workers: int = 1) -> None:
    _, lookback, horizon = _model_settings(config)
    out_dir = config.path("output_dir")
    bundles = partmod.read_bundles(out_dir / "bundles")
    _, (train_panel, valid_panel, _) = _load_split_panels(config, lookback + horizon)
    tc = config.training_config()
    results = training.train_all(
        bundles, train_panel, valid_panel, tc, mode=config.get("model", "mode"),
        lookback=lookback, horizon=horizon, workers=workers,
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


def _load_checkpoints(out_dir: Path, bundles) -> list[training.Checkpoint]:
    checkpoints = []
    for b in bundles:
        path = out_dir / "checkpoints" / f"part{b.part_id:03d}.fcbin"
        if not path.exists():
            raise ConfigError(f"missing checkpoint {path}; run train first")
        checkpoints.append(training.Checkpoint.load(path))
    return checkpoints


def cmd_evaluate(config: PipelineConfig) -> None:
    (in_f, out_f), lookback, horizon = _model_settings(config)
    out_dir = config.path("output_dir")
    bundles = partmod.read_bundles(out_dir / "bundles")
    checkpoints = _load_checkpoints(out_dir, bundles)
    _, (_, _, test_panel) = _load_split_panels(config, lookback + horizon)
    rows = []
    horizon_rows = []
    for bundle, ckpt in zip(bundles, checkpoints):
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
    with open(out_dir / "node_mae.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node_id", "part"] + feature_cols)
        writer.writerows(sorted(rows))
    with open(out_dir / "horizon_mae.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node_id", "part", "horizon_minutes"] + feature_cols)
        writer.writerows(sorted(horizon_rows))
    primary = np.array([float(r[2]) for r in rows])
    _summary("evaluate", nodes=len(rows), mean_mae=float(primary.mean()),
             median_mae=float(np.median(primary)))


def cmd_forecast(config: PipelineConfig) -> None:
    (in_f, _), lookback, horizon = _model_settings(config)
    out_dir = config.path("output_dir")
    bundles = partmod.read_bundles(out_dir / "bundles")
    checkpoints = _load_checkpoints(out_dir, bundles)
    imputed, _ = _load_split_panels(config, lookback + horizon)
    in_idx = [imputed.feature_index(f) for f in in_f]
    rows = []
    for bundle, ckpt in zip(bundles, checkpoints):
        local = data.slice_for_partition(imputed, bundle)
        window = local.values[-lookback:][:, :, in_idx]
        pred = training.forecast(ckpt, window)
        for i in np.flatnonzero(~bundle.halo_flags):
            sid = bundle.graph.sensor_ids[int(i)]
            for t in range(pred.shape[0]):
                rows.append([sid, (t + 1) * 5] + [repr(float(v)) for v in pred[t, int(i)]])
    with open(out_dir / "forecast.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node_id", "minutes_ahead"]
                        + list(checkpoints[0].output_features))
        writer.writerows(sorted(rows))
    _summary("forecast", nodes=len({r[0] for r in rows}),
             steps=checkpoints[0].config.horizon, file=str(out_dir / "forecast.csv"))


def cmd_analyze(config: PipelineConfig) -> None:
    _, lookback, horizon = _model_settings(config)
    mode = config.get("model", "mode")
    out_dir = config.path("output_dir")
    mae_path = out_dir / "node_mae.csv"
    if not mae_path.exists():
        raise ConfigError(f"missing {mae_path}; run evaluate first")
    meta = {m.sensor_id: m for m in
            graphmod.read_metadata_csv(config.path("metadata", must_exist=True))}
    imputed, (_, _, test_panel) = _load_split_panels(config, lookback + horizon)
    primary_feature = "flow" if mode == "flow_only" else "speed"
    cov, zero_mean = analysis.coefficient_of_variation(imputed, primary_feature)
    cov_by_id = {sid: cov[i] for i, sid in enumerate(imputed.node_ids)}
    records = []
    with open(mae_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            sid, mae = row[0], float(row[2])
            m = meta.get(sid)
            if m is None:
                raise DataError(f"node {sid} missing from metadata")
            cov_value = float(cov_by_id[sid])
            if np.isnan(cov_value):
                continue  # zero-mean node: dispersion undefined, reported in summary
            records.append(analysis.ErrorRecord.make(
                sid, mae, cov_value, m.district, m.sensor_type, m.lane_type))
    if not records:
        raise DataError("no nodes with a defined coefficient of variation")
    tree, train_acc, test_acc, importances = analysis.train_cart(
        records, seed=config.get_int("training", "seed"))
    analysis.write_error_records_csv(out_dir / "error_records.csv", records)
    analysis.write_importances_csv(out_dir / "cart_importances.csv", importances,
                                   train_acc, test_acc)
    stats = analysis.mae_distribution_stats([r.mae for r in records])
    analysis.write_box_stats_csv(out_dir / "mae_box_stats.csv", stats)
    fd_rows = 0
    if mode == "multioutput":
        bundles = partmod.read_bundles(out_dir / "bundles")
        checkpoints = _load_checkpoints(out_dir, bundles)
        all_rows = []
        for bundle, ckpt in zip(bundles, checkpoints):
            local = data.slice_for_partition(test_panel, bundle)
            windows = data.make_windows(local, lookback, horizon, stride=horizon,
                                        input_features=ckpt.input_features,
                                        output_features=ckpt.output_features)
            keep = ~bundle.halo_flags
            ids = [s for s, h in zip(bundle.graph.sensor_ids, bundle.halo_flags) if not h]
            for s in range(windows.n_samples):
                pred = training.forecast(ckpt, windows.x[s])
                all_rows.extend(analysis.emit_fundamental_diagram(
                    pred[:, keep], ids, ckpt.output_features))
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
    except ConfigError as exc:
        print(json.dumps({"command": args.command, "status": "error",
                          "kind": "config", "message": str(exc)}))
        return 2
    except DataError as exc:
        print(json.dumps({"command": args.command, "status": "error",
                          "kind": "data", "message": str(exc)}))
        return 3
    except NumericalError as exc:
        print(json.dumps({"command": args.command, "status": "error",
                          "kind": "numerical", "message": str(exc)}))
        return 4
    except FlowcastError as exc:
        print(json.dumps({"command": args.command, "status": "error",
                          "kind": "other", "message": str(exc)}))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
