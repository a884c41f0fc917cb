"""Panels: ingestion, imputation, splitting, scaling, windowing, synthesis."""

import hashlib
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from flowcast import data as data_mod, tables
from flowcast.data import (FEATURES, TICK, SyntheticScenario, TimeSeriesPanel,
                           congested_core_ticks, fit_scaler, generate_synthetic, impute,
                           inverse_transform, make_windows, read_array_container,
                           read_timeseries_csv, slice_for_partition, split, transform,
                           transform_values, write_array_container, write_timeseries_csv)
from flowcast.errors import DataError, NumericalError
from flowcast.partition import PartitionAssignment, extract_subgraphs
from flowcast.sparse import CsrMatrix
from flowcast.graph import SensorGraph, write_metadata_csv


def make_panel(values, start="2024-01-01", node_ids=None, mask=None, features=FEATURES):
    values = np.asarray(values, dtype=np.float64)
    t, n, f = values.shape
    stamps = np.datetime64(start, "s") + np.arange(t) * TICK
    if node_ids is None:
        node_ids = [f"S{i:04d}" for i in range(n)]
    if mask is None:
        mask = np.zeros_like(values, dtype=bool)
    return TimeSeriesPanel(stamps, node_ids, values, mask, tuple(features[:f]))


def test_panel_grid_validation():
    stamps = np.array(["2024-01-01T00:00:00", "2024-01-01T00:07:00"], dtype="datetime64[s]")
    with pytest.raises(DataError, match="5-minute grid"):
        TimeSeriesPanel(stamps, ["a"], np.zeros((2, 1, 2)), np.zeros((2, 1, 2), bool))
    with pytest.raises(DataError):
        make_panel(np.zeros((3, 2, 2)), node_ids=["a"])


def test_timeseries_csv_round_trip(tmp_path):
    values = np.arange(2 * 2 * 2, dtype=float).reshape(2, 2, 2) + 0.125
    mask = np.zeros_like(values, dtype=bool)
    mask[1, 0, 1] = True
    panel = make_panel(values, mask=mask)
    path = tmp_path / "ts.csv"
    write_timeseries_csv(path, panel)
    back = read_timeseries_csv(path)
    assert back.node_ids == panel.node_ids
    assert np.array_equal(back.mask, panel.mask)
    assert np.array_equal(back.values[~back.mask], panel.values[~panel.mask])
    mixed = tmp_path / "mixed.csv"  # one 5-minute grid spelled in two ISO forms
    mixed.write_text("timestamp,sensor_id,speed,flow\n2024-01-01T00:00:00,a,1,2\n"
                     "2024-01-01 00:05:00,a,3,4\n2024-01-01T00:10:00,a,5,6\n")
    back = read_timeseries_csv(mixed)
    assert np.array_equal(back.timestamps, np.datetime64("2024-01-01", "s") + np.arange(3) * TICK)
    assert back.values[:, 0, 0].tolist() == [1.0, 3.0, 5.0]


def test_timeseries_csv_errors(tmp_path):
    bad_header = tmp_path / "a.csv"
    bad_header.write_text("time,sensor,speed,flow\n")
    with pytest.raises(DataError, match="header"):
        read_timeseries_csv(bad_header)
    off_grid = tmp_path / "b.csv"
    off_grid.write_text("timestamp,sensor_id,speed,flow\n"
                        "2024-01-01T00:00:00,a,1,2\n2024-01-01T00:03:00,a,1,2\n")
    with pytest.raises(DataError, match="grid"):
        read_timeseries_csv(off_grid)
    bad_value = tmp_path / "c.csv"
    bad_value.write_text("timestamp,sensor_id,speed,flow\n2024-01-01T00:00:00,a,fast,2\n")
    with pytest.raises(DataError, match="row 2"):
        read_timeseries_csv(bad_value)
    bad_stamp = tmp_path / "e.csv"  # a bad timestamp repeated later is reported at its first row
    bad_stamp.write_text("timestamp,sensor_id,speed,flow\n2024-01-01T00:00:00,a,1,2\n"
                         "2024-13-01T00:00:00,a,1,2\n2024-13-01T00:00:00,b,1,2\n"
                         "2024-01-01T00:00:00,b,1,2\n2024-13-01T00:00:00,c,1,2\n")
    with pytest.raises(DataError, match=r"row 3: bad timestamp '2024-13-01T00:00:00'"):
        read_timeseries_csv(bad_stamp)
    not_a_time = tmp_path / "h.csv"  # numpy parses NaT, which has no place on the grid
    not_a_time.write_text("timestamp,sensor_id,speed,flow\n2024-01-01T00:00:00,a,1,2\nNaT,a,1,2\n")
    with pytest.raises(DataError, match=r"row 3: bad timestamp 'NaT'"):
        read_timeseries_csv(not_a_time)
    duplicate = tmp_path / "d.csv"
    duplicate.write_text("timestamp,sensor_id,speed,flow\n"
                         "2024-01-01T00:00:00,a,1,2\n2024-01-01T00:00:00,a,1,3\n")
    with pytest.raises(DataError, match="duplicate"):
        read_timeseries_csv(duplicate)
    respelled = tmp_path / "f.csv"  # one tick in two ISO spellings is still a duplicate
    respelled.write_text("timestamp,sensor_id,speed,flow\n"
                         "2024-01-01T00:00:00,A,50,5\n2024-01-01 00:00:00,A,10,1\n")
    with pytest.raises(DataError, match="row 3: duplicate"):
        read_timeseries_csv(respelled)
    for text in ("nan", "inf", "-inf", "1e999"):  # only an empty field means missing
        non_finite = tmp_path / "g.csv"
        non_finite.write_text("timestamp,sensor_id,speed,flow\n"
                              f"2024-01-01T00:00:00,a,50,5\n2024-01-01T00:05:00,a,{text},5\n")
        with pytest.raises(DataError, match=f"row 3: bad value '{text}'"):
            read_timeseries_csv(non_finite)


# Values that stress repr and float round trips: the smallest subnormal, two
# that repr writes in exponent form (1e-05, 1e16), -0.0 and the largest float.
SPECIAL_VALUES = (5e-324, 1e-05, 1e16, -0.0, 0.0, 0.1, 1.0 / 3.0, -2.5e-310,
                  1.7976931348623157e308)
# Ids that csv.writer must quote (comma, quote, line breaks) or that the
# reader strips (spaces), so that two of them may name one sensor.
SENSOR_IDS = st.lists(st.text(alphabet='Sab0 ,"\r\n\u00e9', max_size=5), min_size=1,
                      max_size=4, unique=True)


@st.composite
def random_panels(draw):
    node_ids = draw(SENSOR_IDS)
    shape = (draw(st.integers(1, 5)), len(node_ids), 2)
    values = draw(arrays(np.float64, shape, elements=st.one_of(
        st.sampled_from(SPECIAL_VALUES), st.floats(allow_nan=False, allow_infinity=False))))
    mask = draw(arrays(bool, shape))
    start = np.datetime64("2024-01-01", "s") + draw(st.integers(-10**6, 10**6)) * TICK
    return TimeSeriesPanel(start + np.arange(shape[0]) * TICK, node_ids,
                           np.where(mask, np.nan, values), mask)


def _outcome(read, path):
    """A read panel, bit for bit, or the DataError it raised."""
    try:
        panel = read(path)
    except DataError as exc:
        return "DataError", str(exc)
    return (panel.timestamps.tobytes(), panel.node_ids, panel.values.tobytes(),
            panel.mask.tobytes())


def _small_blocks(data):
    """Block sizes drawn down to a row or a character, so a short file spans
    many blocks and switches from comma splitting to csv part way."""
    def size(*choices):
        return data.draw(st.sampled_from(choices))

    return (mock.patch.object(tables, "_BLOCK_CHARS", size(1, 50, 1 << 20)),
            mock.patch.object(tables, "_BLOCK_ROWS", size(1, 2, 1 << 14)),
            mock.patch.object(data_mod, "_WRITE_ROWS", size(1, 3, 1 << 14)))


@settings(max_examples=150, deadline=None)
@given(panel=random_panels(), data=st.data())
def test_timeseries_csv_matches_the_row_by_row_oracle(panel, data):
    blocks, rows, write_rows = _small_blocks(data)
    with tempfile.TemporaryDirectory() as tmp, blocks, rows, write_rows:
        ours, theirs = Path(tmp) / "ours.csv", Path(tmp) / "theirs.csv"
        write_timeseries_csv(ours, panel)
        oracles.write_timeseries_csv(theirs, panel)
        assert ours.read_bytes() == theirs.read_bytes()
        assert _outcome(read_timeseries_csv, ours) == _outcome(oracles.read_timeseries_csv, ours)


@settings(max_examples=300, deadline=None)
@given(text=st.text(alphabet='a ,"\r\n', max_size=40), width=st.integers(1, 3), data=st.data())
def test_table_blocks_split_rows_as_csv_does(text, width, data):
    """Quotes, blank lines and every line end, split at commas where a block
    allows it and by csv elsewhere, give csv's rows and errors."""
    header = [f"h{j}" for j in range(width)]
    blocks, rows, _ = _small_blocks(data)
    with tempfile.TemporaryDirectory() as tmp, blocks, rows:
        path = Path(tmp) / "t.csv"
        path.write_bytes((",".join(header) + "\r\n" + text).encode("utf-8"))
        outcomes = []
        for read in (tables.read_table, oracles._read_table):
            try:
                outcomes.append([(n, list(row)) for n, row in read(path, header)])
            except DataError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]


BAD_VALUES = ("nan", "inf", "-inf", "1e999", "fast", "", " ", " 7.5 ", "1_0", "0x10",
              "\u0661\u0662", "+3", "-0.0", "5e-324")
BAD_STAMPS = ("2024-13-01T00:00:00", "NaT", "", "soon", "2023-12-31T23:57:00")


@st.composite
def malformed_files(draw):
    """The oracle writer's lines of a small panel, changed 1 to 3 times."""
    panel = draw(random_panels())
    with tempfile.TemporaryDirectory() as tmp:
        oracles.write_timeseries_csv(Path(tmp) / "ts.csv", panel)
        lines = (Path(tmp) / "ts.csv").read_bytes().decode("utf-8").split("\r\n")[:-1]
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["value", "stamp", "respell", "off_grid", "sensor", "duplicate",
                                     "fields", "blank", "quote", "empty", "header"]))
        if len(lines) < 2:
            break
        i = draw(st.integers(1, len(lines) - 1))
        fields = lines[i].split(",")
        if len(fields) != 4 and kind not in ("duplicate", "blank", "empty", "header"):
            continue  # a blank line, or an id holding a comma or a line break
        if kind == "value":
            fields[draw(st.sampled_from([2, 3]))] = draw(st.sampled_from(BAD_VALUES))
        elif kind == "stamp":
            fields[0] = draw(st.sampled_from(BAD_STAMPS))
        elif kind == "respell":  # the same instant, spelled with a space
            fields[0] = fields[0].replace("T", " ")
        elif kind == "off_grid":
            fields[0] = fields[0][:-4] + "3:00"
        elif kind == "sensor":
            fields[1] = draw(st.sampled_from([" " + fields[1], (lines[1].split(",") + [""])[1]]))
        elif kind == "duplicate":
            lines.insert(draw(st.integers(i, len(lines))), lines[i].replace("T", draw(
                st.sampled_from(["T", " "]))))
        elif kind == "fields":
            fields = fields[:-1] if draw(st.booleans()) else fields + ["1"]
        elif kind == "blank":
            lines.insert(i, "")
        elif kind == "quote":
            fields[1] = '"' + fields[1].replace('"', "") + '"'
        elif kind == "empty":
            del lines[1:]
            continue
        else:
            lines[0] = "time,sensor,speed,flow"
        if kind not in ("duplicate", "blank"):
            lines[i] = ",".join(fields)
    return "".join(line + draw(st.sampled_from(["\r\n", "\n"])) for line in lines)


@settings(max_examples=300, deadline=None)
@given(text=malformed_files(), data=st.data())
def test_malformed_timeseries_csv_fails_as_the_oracle_does(text, data):
    blocks, rows, write_rows = _small_blocks(data)
    with tempfile.TemporaryDirectory() as tmp, blocks, rows, write_rows:
        path = Path(tmp) / "ts.csv"
        path.write_bytes(text.encode("utf-8"))
        assert _outcome(read_timeseries_csv, path) == _outcome(oracles.read_timeseries_csv, path)


def test_binary_container_rejects_foreign_files(tmp_path):
    junk = tmp_path / "junk.fcbin"
    junk.write_bytes(b"PNG\x00 definitely not ours")
    with pytest.raises(DataError, match="container"):
        read_array_container(junk)

    good = tmp_path / "good.fcbin"
    write_array_container(good, {"v": np.arange(4.0)}, {"k": 1})
    blob = good.read_bytes()
    hlen = int.from_bytes(blob[7:15], "little")

    def framed(header: bytes, payload: bytes = b"") -> bytes:
        return blob[:7] + len(header).to_bytes(8, "little") + header + payload

    faults = {
        "cut 8 bytes": blob[:-8],
        "first 12 bytes only": blob[:12],
        "header not json": framed(b"{not json"),
        "header lacks meta": framed(b'{"arrays": []}'),
        "header lacks arrays": framed(b'{"meta": {}}'),
        "float32 payload": framed(blob[15:15 + hlen].replace(b"float64", b"float32"),
                                  blob[15 + hlen:]),
        "header length past the end": blob[:7] + (1 << 62).to_bytes(8, "little") + blob[15:],
        "shape past the end": framed(blob[15:15 + hlen].replace(b"[4]", b"[1099511627776]"),
                                     blob[15 + hlen:]),
    }
    for name, data in faults.items():
        bad = tmp_path / f"{name}.fcbin"
        bad.write_bytes(data)
        with pytest.raises(DataError, match=re.escape(str(bad))):
            read_array_container(bad)


def test_binary_containers_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    values = rng.normal(size=(6, 3, 2))
    mask = rng.uniform(size=values.shape) < 0.2
    values[mask] = np.nan
    panel = make_panel(values, mask=mask)
    arrays = {"timestamps": panel.timestamps.astype(np.int64), "values": panel.values,
              "mask": panel.mask.astype(np.uint8)}
    meta = {"node_ids": panel.node_ids, "feature_names": list(panel.feature_names)}
    write_array_container(tmp_path / "p.fcbin", arrays, meta)
    back, back_meta = read_array_container(tmp_path / "p.fcbin")
    assert np.array_equal(back["timestamps"].astype("datetime64[s]"), panel.timestamps)
    assert np.array_equal(back["mask"].astype(bool), panel.mask)
    assert np.array_equal(np.isnan(back["values"]), mask)
    assert np.array_equal(back["values"][~mask], panel.values[~mask])
    assert back_meta == meta

    clean = make_panel(rng.normal(size=(30, 3, 2)))
    ds = make_windows(clean, 4, 2)
    write_array_container(tmp_path / "w.fcbin", {"x": ds.x, "y": ds.y, "starts": ds.starts},
                          {"input_features": list(ds.input_features)})
    back, back_meta = read_array_container(tmp_path / "w.fcbin")
    assert np.array_equal(back["x"], ds.x)
    assert np.array_equal(back["y"], ds.y)
    assert np.array_equal(back["starts"], ds.starts)
    assert tuple(back_meta["input_features"]) == ds.input_features


# ----------------------------------------------------------------------
# imputation
# ----------------------------------------------------------------------


def _three_week_panel():
    """21 days, one node; 08:00 weekday slot engineered for a hand-checkable mean."""
    t = 21 * 288
    values = np.full((t, 1, 2), 40.0)
    panel = make_panel(values)  # starts Monday 2024-01-01
    weekday = panel.weekday()
    slot = panel.time_of_day_slot()
    eight = slot == 96  # 08:00
    weekday_eight = np.flatnonzero(eight & (weekday < 5))
    assert weekday_eight.size == 15
    values[weekday_eight[:8], 0, 0] = 60.0
    values[weekday_eight[8:], 0, 0] = 70.0
    values[eight & (weekday >= 5), 0, 0] = 20.0  # weekends pooled separately
    return panel, weekday_eight


def test_impute_no_missing_is_identity():
    panel = make_panel(np.random.default_rng(0).normal(size=(10, 2, 2)))
    out = impute(panel, "temporal_mean")
    assert np.array_equal(out.values, panel.values)


def test_impute_temporal_mean_slot_statistic():
    panel, weekday_eight = _three_week_panel()
    missing_tick = int(weekday_eight[2])  # an 08:00 Wednesday holding 60.0
    panel.mask[missing_tick, 0, 0] = True
    panel.values[missing_tick, 0, 0] = np.nan
    # observed slot values: 7 sixties and 7 seventies -> mean 65
    out = impute(panel, "temporal_mean")
    assert not out.mask.any()
    assert out.values[missing_tick, 0, 0] == pytest.approx(65.0)


def test_impute_temporal_median_and_weekend_separation():
    panel, weekday_eight = _three_week_panel()
    missing_tick = int(weekday_eight[10])  # holds 70 before masking
    panel.mask[missing_tick, 0, 0] = True
    panel.values[missing_tick, 0, 0] = np.nan
    out = impute(panel, "temporal_median")
    # pool is 8x60 and 6x70 -> median 60; weekend 20s must not leak in
    assert out.values[missing_tick, 0, 0] == pytest.approx(60.0)
    weekend_eight = np.flatnonzero((panel.time_of_day_slot() == 96) & (panel.weekday() >= 5))
    wk_tick = int(weekend_eight[1])
    panel.mask[wk_tick, 0, 0] = True
    panel.values[wk_tick, 0, 0] = np.nan
    out2 = impute(panel, "temporal_median")
    assert out2.values[wk_tick, 0, 0] == pytest.approx(20.0)


def test_impute_linear_interpolation_examples():
    values = np.zeros((5, 1, 2))
    values[:, 0, 0] = [10.0, np.nan, 30.0, np.nan, np.nan]
    values[:, 0, 1] = [np.nan, 5.0, np.nan, np.nan, 9.0]
    mask = np.isnan(values)
    panel = make_panel(values, mask=mask)
    out = impute(panel, "linear_interpolation")
    assert out.values[1, 0, 0] == pytest.approx(20.0)  # midpoint of the gap
    assert out.values[3, 0, 0] == 30.0 and out.values[4, 0, 0] == 30.0  # edge extension
    assert out.values[0, 0, 1] == 5.0
    assert out.values[2, 0, 1] == pytest.approx(5.0 + 4.0 / 3.0)


def test_impute_fallbacks_and_errors():
    values = np.full((12, 2, 2), 10.0)
    values[:, 1, 0] = np.nan  # node 1 speed never observed
    mask = np.isnan(values)
    panel = make_panel(values, mask=mask)
    out = impute(panel, "temporal_mean")
    assert out.values[:, 1, 0] == pytest.approx(10.0)  # global feature mean fallback

    all_missing = np.full((6, 1, 2), np.nan)
    all_missing[:, 0, 1] = 1.0
    panel2 = make_panel(all_missing, mask=np.isnan(all_missing))
    with pytest.raises(DataError, match="feature entirely missing"):
        impute(panel2, "temporal_mean")
    with pytest.raises(DataError):
        impute(panel, "nearest")


def test_impute_stats_can_be_restricted_to_training_ticks():
    panel, weekday_eight = _three_week_panel()
    target = int(weekday_eight[1])
    panel.mask[target, 0, 0] = True
    panel.values[target, 0, 0] = np.nan
    cutoff = 7 * 288  # first week only: remaining observed 08:00 weekdays all read 60
    out = impute(panel, "temporal_mean", stats_through=cutoff)
    assert out.values[target, 0, 0] == pytest.approx(60.0)


# ----------------------------------------------------------------------
# split and scaler
# ----------------------------------------------------------------------


def test_split_floor_rule():
    for t, want in ((100, (70, 10, 20)), (101, (70, 10, 21))):
        panel = make_panel(np.zeros((t, 1, 2)))
        parts = split(panel)
        assert tuple(p.n_ticks for p in parts) == want
    with pytest.raises(DataError):
        split(make_panel(np.zeros((10, 1, 2))), min_length=24)
    with pytest.raises(DataError):
        split(make_panel(np.zeros((100, 1, 2))), fractions=(0.5, 0.2, 0.2))


def test_scaler_population_moments():
    values = np.array([10.0, 20.0, 30.0]).reshape(3, 1, 1)
    panel = make_panel(values, features=("speed",))
    scaler = fit_scaler(panel)
    assert scaler.means[0] == pytest.approx(20.0)
    assert scaler.stds[0] == pytest.approx(8.16496580927726, abs=1e-12)
    z = transform(panel, scaler)
    assert z.values[:, 0, 0] == pytest.approx([-1.224744871391589, 0.0, 1.224744871391589])
    back = inverse_transform(z.values, scaler)
    assert np.abs(back - values).max() <= 1e-9


def test_scaler_is_identity_on_standardized_data():
    rng = np.random.default_rng(8)
    raw = rng.normal(size=(50, 3, 2))
    raw -= raw.mean(axis=(0, 1))
    raw /= np.sqrt((raw ** 2).mean(axis=(0, 1)))
    panel = make_panel(raw)
    z = transform(panel, fit_scaler(panel))
    assert np.abs(z.values - raw).max() <= 1e-12


def test_scaler_errors_and_leakage():
    constant = make_panel(np.full((10, 1, 2), 3.0))
    with pytest.raises(NumericalError, match="degenerate feature scale"):
        fit_scaler(constant)

    rng = np.random.default_rng(1)
    values = rng.normal(size=(100, 2, 2))
    panel = make_panel(values)
    train, _, _ = split(panel)
    scaler = fit_scaler(train)
    values2 = values.copy()
    values2[80:] += 1000.0  # perturb only test ticks
    train2, _, _ = split(make_panel(values2))
    scaler2 = fit_scaler(train2)
    assert np.array_equal(scaler.means, scaler2.means)
    assert np.array_equal(scaler.stds, scaler2.stds)


def test_transform_values_feature_subset():
    rng = np.random.default_rng(2)
    panel = make_panel(rng.normal(size=(20, 2, 2)) * 5 + 30)
    scaler = fit_scaler(panel)
    speeds = panel.values[:, :, :1]
    z = transform_values(speeds, scaler, ("speed",))
    assert np.allclose(inverse_transform(z, scaler, ("speed",)), speeds)


# ----------------------------------------------------------------------
# windowing and partition slicing
# ----------------------------------------------------------------------


def test_window_counts_and_contents():
    panel = make_panel(np.arange(48, dtype=float).reshape(48, 1, 1).repeat(2, axis=2))
    ds = make_windows(panel, 12, 12)
    assert ds.n_samples == 25  # 48 - 24 + 1
    assert make_windows(make_panel(np.zeros((24, 1, 2))), 12, 12).n_samples == 1
    strided = make_windows(panel, 12, 12, stride=12)
    assert strided.starts.tolist() == [0, 12, 24]
    assert np.array_equal(ds.x[3, :, 0, 0], np.arange(3, 15, dtype=float))
    assert np.array_equal(ds.y[3, :, 0, 0], np.arange(15, 27, dtype=float))
    with pytest.raises(DataError):
        make_windows(make_panel(np.zeros((20, 1, 2))), 12, 12)
    masked = make_panel(np.zeros((30, 1, 2)), mask=np.ones((30, 1, 2), bool))
    with pytest.raises(DataError, match="impute"):
        make_windows(masked, 2, 2)


def test_window_feature_selection():
    rng = np.random.default_rng(3)
    panel = make_panel(rng.normal(size=(30, 2, 2)))
    ds = make_windows(panel, 4, 2, input_features=("speed", "flow"),
                      output_features=("flow",))
    assert ds.x.shape[-1] == 2 and ds.y.shape[-1] == 1
    assert np.array_equal(ds.y[0, :, :, 0], panel.values[4:6, :, 1])


def test_windows_are_read_only_views_equal_to_stacked_copies():
    panel = make_panel(np.random.default_rng(7).normal(size=(30, 3, 2)))
    for inputs, outputs, stride, shares in ((None, None, 1, True), (("speed",), ("flow",), 3, True),
                                            (("flow", "speed"), ("speed",), 2, False)):
        ds = make_windows(panel, 4, 2, stride=stride, input_features=inputs,
                          output_features=outputs)
        in_idx = [FEATURES.index(f) for f in ds.input_features]
        out_idx = [FEATURES.index(f) for f in ds.output_features]
        assert np.array_equal(ds.x, np.stack([panel.values[s:s + 4][:, :, in_idx]
                                              for s in ds.starts]))
        assert np.array_equal(ds.y, np.stack([panel.values[s + 4:s + 6][:, :, out_idx]
                                              for s in ds.starts]))
        assert not ds.x.flags.writeable and not ds.y.flags.writeable
        assert np.shares_memory(ds.y, panel.values)
        assert np.shares_memory(ds.x, panel.values) == shares  # a reversed pick is one copy


def _bundle_for(node_ids, order):
    n = len(node_ids)
    graph = SensorGraph([node_ids[i] for i in order],
                        CsrMatrix.from_triples(len(order), len(order), [], [], []))
    return extract_subgraphs(graph, PartitionAssignment(np.zeros(len(order), int), 1))[0]


def test_slice_for_partition_reorders_columns():
    rng = np.random.default_rng(5)
    panel = make_panel(rng.normal(size=(12, 4, 2)))
    bundle = _bundle_for(panel.node_ids, [1, 3])
    local = slice_for_partition(panel, bundle)
    assert local.node_ids == [panel.node_ids[1], panel.node_ids[3]]
    assert np.array_equal(local.values[:, 0], panel.values[:, 1])
    assert np.array_equal(local.values[:, 1], panel.values[:, 3])
    missing = _bundle_for(["S9999", panel.node_ids[0]], [0, 1])
    with pytest.raises(DataError, match="missing node"):
        slice_for_partition(panel, missing)


def test_windows_commute_with_partition_slicing():
    rng = np.random.default_rng(6)
    panel = make_panel(rng.normal(size=(30, 4, 2)))
    bundle = _bundle_for(panel.node_ids, [2, 0])
    a = make_windows(slice_for_partition(panel, bundle), 4, 2)
    b = make_windows(panel, 4, 2)
    assert np.array_equal(a.x, b.x[:, :, [2, 0]])
    assert np.array_equal(a.y, b.y[:, :, [2, 0]])


# ----------------------------------------------------------------------
# synthetic generator
# ----------------------------------------------------------------------


def test_synthetic_free_flow_is_constant_without_congestion():
    sc = SyntheticScenario(n_nodes=4, days=3, congestion_windows=(), noise=0.0)
    _, panel = generate_synthetic(sc)
    assert np.array_equal(panel.values[:, :, 0], np.full((3 * 288, 4), sc.free_flow_mph))
    assert (panel.values[:, :, 1] > 0).all()


def test_synthetic_is_seed_deterministic():
    sc = SyntheticScenario(n_nodes=6, days=2, noise=0.1, seed=42)
    _, a = generate_synthetic(sc)
    _, b = generate_synthetic(sc)
    assert np.array_equal(a.values, b.values)
    _, c = generate_synthetic(SyntheticScenario(n_nodes=6, days=2, noise=0.1, seed=43))
    assert not np.array_equal(a.values, c.values)


def test_synthetic_congestion_lowers_weekday_speed():
    sc = SyntheticScenario(n_nodes=4, days=7, noise=0.0)
    _, panel = generate_synthetic(sc)
    weekday = panel.weekday() < 5
    tod = panel.time_of_day_slot()
    in_window = (tod >= 7 * 12) & (tod <= 9 * 12)
    congested_speed = panel.values[weekday & in_window, :, 0].mean()
    assert congested_speed < sc.free_flow_mph - 5.0


def test_synthetic_follows_triangular_relation_in_core():
    sc = SyntheticScenario(n_nodes=5, days=7, noise=0.0)
    _, panel = generate_synthetic(sc)
    core = congested_core_ticks(sc, panel)
    assert core.sum() > 50
    speed = panel.values[core, :, 0]
    flow = panel.values[core, :, 1]
    assert (speed < sc.free_flow_mph).all()
    assert np.abs(flow - sc.congested_flow_for_speed(speed)).max() <= 1e-9


@pytest.mark.parametrize("nodes, clusters, days, metadata_sha, series_sha", [
    (12, 2, 2, "02675a8197e2539c450c099bf101b91c8a8602ad0a8e3c8d5c259e6e120572f1",
     "657b54ee5c01f2425386dbf2a8ac32c08ca1767cbe08e6c91acace7265fbaef3"),
    (59, 59, 1, "286e05fb9dc3cba78bb3653f15a8f57c01423e0836da7feed4f0bff91309e7a1",
     "ea09f67ca61dfd629c525b38f26037ed8aabe87b01dcc2f78eb7a9a9cb5b3030"),
])
def test_synthetic_scenarios_keep_their_bytes(tmp_path, nodes, clusters, days, metadata_sha,
                                              series_sha):
    """Up to 59 clusters, the lattice that wraps clusters into columns places
    every sensor where the single-column generator did."""
    meta, panel = generate_synthetic(SyntheticScenario(n_nodes=nodes, clusters=clusters,
                                                       days=days))
    write_metadata_csv(tmp_path / "sensors.csv", meta)
    write_timeseries_csv(tmp_path / "timeseries.csv", panel)
    assert hashlib.sha256((tmp_path / "sensors.csv").read_bytes()).hexdigest() == metadata_sha
    assert hashlib.sha256((tmp_path / "timeseries.csv").read_bytes()).hexdigest() == series_sha


def test_synthetic_clusters_are_far_apart():
    sc = SyntheticScenario(n_nodes=8, days=1, clusters=2)
    meta, _ = generate_synthetic(sc)
    lats = {m.latitude for m in meta}
    assert len(lats) == 2
    assert max(lats) - min(lats) == pytest.approx(sc.cluster_spacing_deg)
    assert {m.district for m in meta} == {"D7", "D4"}
