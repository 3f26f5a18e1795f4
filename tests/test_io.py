import builtins
import json
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose, assert_array_equal

import waveclust as wc
from waveclust import io


@pytest.fixture
def dataset():
    ds, _ = wc.gen_benchmark(seed=3, n_per_cluster=3, length=64)
    return ds


def test_dataset_round_trip(tmp_path, dataset):
    path = tmp_path / "curves.csv"
    io.write_dataset(path, dataset)
    back = io.read_dataset(path)
    assert_array_equal(back.curves, dataset.curves)
    assert back.segment_length == 64


def test_dataset_reader_skips_header_and_comments(tmp_path):
    path = tmp_path / "curves.csv"
    path.write_text("# a comment line\nt0,t1,t2,t3\n1.0,2.0,3.0,4.0\n"
                    "5.0,6.0,7.0,8.0\n")
    back = io.read_dataset(path)
    assert_array_equal(back.curves, [[1, 2, 3, 4], [5, 6, 7, 8]])


def test_signal_reader_flattens(tmp_path):
    path = tmp_path / "signal.csv"
    path.write_text("1.5\n2.5\n3.5\n")
    signal = io.read_signal(path)
    assert_array_equal(signal.values, [1.5, 2.5, 3.5])
    assert signal.sampling_step == 1.0


@pytest.mark.parametrize("text", [
    "100.5\n-0.0\n5e-324\n1e+300\n",
    "1.5,-2.5,0.1,1e-300\n",
    "# ragged\nt\n1.0,2.0,3.0\n\n4.0\n5.0,6.0\n",
], ids=["one-column", "one-row", "ragged-rows"])
def test_signal_reader_matches_a_row_by_row_reader(tmp_path, text):
    path = tmp_path / "signal.csv"
    path.write_text(text)
    rows = [np.asarray([float(f) for f in ln.split(",")])
            for ln in io._data_lines(path)[1]]
    expected = np.concatenate(rows)
    values = io.read_signal(path).values
    assert values.dtype == np.float64
    assert_array_equal(values.view(np.int64), expected.view(np.int64))


def test_labels_round_trip(tmp_path):
    path = tmp_path / "labels.csv"
    labels = np.array([0, 0, 1, 2, 2])
    io.write_labels(path, labels)
    assert_array_equal(io.read_labels(path), labels)


@pytest.mark.parametrize("labels, error", [
    ([0.5, 1.7, 2.2, 1.0], "labels must be integers, got 0.5"),
    ([0, np.nan, 1, 1], "labels must be integers, got nan"),
    ([0, -1, 1, 1], "labels must be nonnegative integers, got -1"),
], ids=["fractional", "nan", "negative"])
def test_label_writers_follow_the_label_rule(tmp_path, labels, error):
    rng = np.random.default_rng(3)
    features = np.vstack([rng.normal(size=(2, 2)),
                          rng.normal(size=(2, 2)) + 8.0])
    graph = wc.neighborhood_graph(features, wc.kmeans(features, 2, seed=3))
    for write in (io.write_labels,
                  lambda path, labels: io.write_graph_csv(path, graph,
                                                          labels)):
        path = tmp_path / "labels.csv"
        with pytest.raises(ValueError) as info:
            write(path, labels)
        assert str(info.value) == error
        assert not path.exists()
    io.write_labels(path, [2.0, 0.0, 1.0, 1.0])
    assert path.read_text() == "2\n0\n1\n1\n"


def test_labels_reader_rejects_non_integral_values(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("0\n2.0\n1\n")
    assert_array_equal(io.read_labels(path), [0, 2, 1])
    path.write_text("0\n1.5\n1\n")
    with pytest.raises(ValueError) as info:
        io.read_labels(path)
    assert str(info.value) == f"{path}: labels must be integers, got 1.5"


@pytest.mark.parametrize("reader, text", [
    (io.read_dataset, "1.0,2.0\n3.0\n"),
    (io.read_features, "# kind=logitRC wavelet=symmlet6\n0.1,0.2\n0.3\n"),
    (io.read_dissimilarity, "# measure=WER\n0.0,1.0\n1.0\n"),
])
def test_ragged_matrix_files_name_the_path(tmp_path, reader, text):
    path = tmp_path / "ragged.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        reader(path)
    last = text.count("\n")
    assert str(info.value) == (f"{path}: line {last}: expected 2 values, "
                               "got 1")


@pytest.mark.parametrize("reader, text, line, error", [
    (io.read_dataset, "1.0,2.0\n3.0,x\n", 2,
     "could not convert string to float: 'x'"),
    (io.read_dataset, "# c\nt0,t1\n1.0,2.0\n\n3.0,y\n", 5,
     "could not convert string to float: 'y'"),
    (io.read_features, "# kind=logitRC wavelet=symmlet6\ns0_L2,s1_L1\n"
     "0.1,0.2\nx,0.4\n", 4, "could not convert string to float: 'x'"),
    (io.read_dissimilarity, "# measure=WER\n0.0,1.0\n1.0,\n", 3,
     "could not convert string to float: ''"),
    (io.read_signal, "1.0\n\n# note\n2.0,x\n", 4,
     "could not convert string to float: 'x'"),
    (io.read_labels, "0\n1,2\n", 2, "expected 1 values, got 2"),
    (io.read_partition, "observation,label,distance\n0,1,0.5\n1,2\n", 3,
     "expected 3 values, got 2"),
    # A label that parses but breaks the label rule has no line to name.
    (io.read_partition, "0,1,0.5\n1,1.5,0.5\n", None,
     "labels must be integers, got 1.5"),
    (io.read_partition, "0,1,0.5\nx,1,0.5\n", 2,
     "could not convert string to float: 'x'"),
    # A leading row is a header only when none of its cells parses.
    (io.read_dataset, "x,0.2\n0.3,0.4\n0.5,0.6\n", 1,
     "could not convert string to float: 'x'"),
    (io.read_features, "# kind=logitRC wavelet=symmlet6\n\ns0_L2,0.1\n"
     "0.1,0.2\n", 3, "could not convert string to float: 's0_L2'"),
], ids=["dataset", "dataset-after-header", "features", "dissimilarity",
        "signal", "labels", "partition-fields", "partition-label",
        "partition-observation", "partly-numeric-first-row",
        "partly-numeric-header"])
def test_unreadable_cells_name_the_path_and_line(tmp_path, reader, text,
                                                 line, error):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        reader(path)
    where = f"{path}:" if line is None else f"{path}: line {line}:"
    assert str(info.value) == f"{where} {error}"


#: Each reader, a file with one cell to fill in, where that cell's value
#: lands, and (for the readers of real values) the owner's error for inf.
CELL_PLACES = {
    "dataset": (io.read_dataset, "{},2.0\n3.0,4.0\n",
                lambda back: back.curves[0, 0],
                "curve values must all be finite"),
    "signal": (io.read_signal, "{}\n2.0\n", lambda back: back.values[0],
               "signal values must all be finite"),
    "features": (io.read_features, "# kind=AC wavelet=haar\n{},0.2\n",
                 lambda back: back.values[0, 0],
                 "feature values must be finite (found nan or inf)"),
    "dissimilarity": (io.read_dissimilarity, "0.0,{0}\n{0},0.0\n",
                      lambda back: back.values[0, 1],
                      "dissimilarities must be finite (found nan or inf)"),
    "labels": (io.read_labels, "{}\n0\n", lambda back: back[0], None),
    "partition": (io.read_partition, "0,{},0.5\n1,0,0.5\n",
                  lambda back: back[0][0], None),
}


@pytest.mark.parametrize("cell", ["1", "1.", ".5", "-0", "+1.5", "1E-3",
                                  " 2.5", "5e-324", "1e999"])
@pytest.mark.parametrize("place", CELL_PLACES)
def test_hand_typed_cells_read_as_float_reads_them(tmp_path, place, cell):
    reader, template, value_of, not_finite = CELL_PLACES[place]
    path = tmp_path / "cells.csv"
    path.write_text(template.format(cell))
    expected = float(cell)
    if not_finite is None:
        # A label reader keeps an integral value and names any other.
        if expected.is_integer() and expected >= 0:
            assert value_of(reader(path)) == int(expected)
        else:
            with pytest.raises(ValueError) as info:
                reader(path)
            assert str(info.value) == (f"{path}: labels must be integers, "
                                       f"got {expected!r}")
    elif np.isfinite(expected):
        value = value_of(reader(path))
        assert np.float64(value).view(np.int64) == \
            np.float64(expected).view(np.int64)
    else:
        with pytest.raises(ValueError) as info:
            reader(path)
        assert str(info.value) == f"{path}: {not_finite}"


@pytest.mark.parametrize("place, cell", [
    (place, cell) for place in CELL_PLACES
    for cell in ["1_0", "\u0661\u0662", "1.0\x1f"]
    # A one-column line is stripped of its trailing separator.
    if not (cell == "1.0\x1f" and place in ("signal", "labels"))
] + [("signal", "1.0\x1f,2.0")])
def test_cells_float_takes_but_the_grammar_refuses_name_their_line(
        tmp_path, place, cell):
    """``float`` takes underscores and non-ASCII digits, NumPy's reader a
    trailing ASCII separator; the readers take none of them."""
    reader, template, _, _ = CELL_PLACES[place]
    # A one-column file's unparsable first row would be its header.
    text = "0\n" * (place in ("signal", "labels")) + template.format(cell)
    path = tmp_path / "cells.csv"
    path.write_text(text)
    bad = cell.split(",")[0]
    line = next(number for number, row in enumerate(text.split("\n"), 1)
                if bad in row.strip())
    with pytest.raises(ValueError) as info:
        reader(path)
    assert str(info.value) == (f"{path}: line {line}: could not convert "
                               f"string to float: {bad!r}")


@pytest.mark.parametrize("reader, text, error", [
    (io.read_signal, "1.0\ninf\n", "signal values must all be finite"),
    (io.read_dataset, "1.0,nan\n3.0,4.0\n",
     "curve values must all be finite"),
    (io.read_dataset, "1.0\n3.0\n", "curves need at least two samples"),
    (io.read_features, "# kind=AC wavelet=haar\n0.1,nan\n",
     "feature values must be finite (found nan or inf)"),
    (io.read_features, "# kind=XY wavelet=haar\n0.1,0.2\n",
     "unknown feature kind: 'XY'"),
    (io.read_dissimilarity, "0.0,1.0\n2.0,0.0\n",
     "dissimilarity matrix must be symmetric"),
    (io.read_dissimilarity, "0.0,1.0,2.0\n1.0,0.0,2.0\n",
     "dissimilarity matrix must be square"),
    (io.read_labels, "0\n-1\n", "labels must be nonnegative integers, got -1"),
    (io.read_partition, "0,-2,0.5\n1,0,0.5\n",
     "labels must be nonnegative integers, got -2"),
    (io.read_partition, "0,0,nan\n1,1,-2.5\n",
     "distances must be finite and nonnegative, got nan"),
    (io.read_partition, "0,0,0.5\n1,1,-2.5\n",
     "distances must be finite and nonnegative, got -2.5"),
    (io.read_partition, "0,0,inf\n1,1,0.5\n",
     "distances must be finite and nonnegative, got inf"),
], ids=["signal", "dataset", "dataset-width", "features", "features-kind",
        "dissimilarity", "dissimilarity-shape", "labels", "partition",
        "partition-nan-distance", "partition-negative-distance",
        "partition-inf-distance"])
def test_owner_errors_name_the_path(tmp_path, reader, text, error):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        reader(path)
    assert str(info.value) == f"{path}: {error}"


def test_partition_labels_follow_the_label_rule(tmp_path):
    path = tmp_path / "partition.csv"
    path.write_text("observation,label,distance\n0,1.0,0.5\n1,0,0.25\n")
    labels, distances = io.read_partition(path)
    assert labels.dtype == np.int64
    assert_array_equal(labels, [1, 0])
    assert_array_equal(distances, [0.5, 0.25])


@pytest.mark.parametrize("reader, good, bad", [
    (io.read_dataset, "1.0,2.0\n3.0,4.0\n", "1.0,2.0\n3.0,x\n"),
    (io.read_signal, "1.0\n2.0\n", "1.0\nx\n"),
    (io.read_labels, "0\n1\n", "0\nx\n"),
    (io.read_features, "# kind=AC wavelet=haar\n0.1,0.2\n0.3,0.4\n",
     "# kind=AC wavelet=haar\n0.1,0.2\nx,0.4\n"),
    (io.read_dissimilarity, "# measure=MCA\n0.0,1.0\n1.0,0.0\n",
     "# measure=MCA\n0.0,1.0\n1.0,x\n"),
    (io.read_partition, "0,0,0.5\n1,1,0.25\n", "0,0,0.5\n1,x,0.25\n"),
], ids=["dataset", "signal", "labels", "features", "dissimilarity",
        "partition"])
@pytest.mark.parametrize("valid", [True, False], ids=["good", "bad-cell"])
def test_each_reader_opens_its_file_once(tmp_path, monkeypatch, reader,
                                         good, bad, valid):
    """One read gives a reader its fields, its rows and, for a cell that
    does not parse, the line to name."""
    path = tmp_path / "file.csv"
    path.write_text(good if valid else bad)
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    if valid:
        reader(path)
    else:
        with pytest.raises(ValueError, match=re.escape(f"{path}: line ")):
            reader(path)
    assert opened == [path]


def reference_rows(rows):
    """The CSV text of ``rows``, one ``repr`` per value."""
    return "".join(",".join(repr(float(v)) for v in row) + "\n"
                   for row in rows)


BYTES = settings(max_examples=60, deadline=None, derandomize=True,
                 database=None)

#: Finite nonnegative doubles, subnormals and extreme magnitudes among
#: them.
distances = st.one_of(
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-300,
                     1e300, 1.7976931348623157e308]))


@st.composite
def dissimilarity_matrices(draw):
    """Exactly symmetric n x n matrices, n = 1..12, with optionally one
    mirror pair 1e-12 apart and one 0.0 facing a -0.0."""
    n = draw(st.integers(1, 12))
    upper = draw(arrays(float, (n, n), elements=distances))
    values = np.where(np.triu(np.ones((n, n), dtype=bool)), upper, upper.T)
    np.fill_diagonal(values, 0.0)
    if n > 1:
        i, j = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2,
                                    max_size=2, unique=True)))
        if draw(st.booleans()):
            values[j, i] = values[i, j] + 1e-12
        if draw(st.booleans()):
            values[i, j], values[j, i] = 0.0, -0.0
    return wc.DissimilarityMatrix(values=values, measure="WER")


@BYTES
@given(dissimilarity_matrices())
def test_dissimilarity_writer_matches_one_repr_per_value(matrix):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dissim.csv"
        io.write_dissimilarity(path, matrix)
        text = path.read_text()
        back = io.read_dissimilarity(path)
    assert text == "# measure=WER\n" + reference_rows(matrix.values)
    assert_array_equal(back.values.view(np.int64),
                       matrix.values.view(np.int64))


finite = st.floats(allow_nan=False, allow_infinity=False)


@BYTES
@given(st.integers(1, 12).flatmap(
    lambda n: arrays(float, st.tuples(st.just(n), st.integers(2, 12)),
                     elements=finite)))
def test_row_writers_match_one_repr_per_value(values):
    dataset = wc.FunctionalDataset(curves=values)
    features = wc.FeatureMatrix(values=values, kind="logitRC",
                                wavelet="symmlet6")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        io.write_dataset(tmp / "curves.csv", dataset)
        io.write_features(tmp / "features.csv", features)
        curves_text = (tmp / "curves.csv").read_text()
        features_text = (tmp / "features.csv").read_text()
        curves_back = io.read_dataset(tmp / "curves.csv").curves
        features_back = io.read_features(tmp / "features.csv").values
    assert curves_text == reference_rows(values)
    header = ("# kind=logitRC wavelet=symmlet6\n"
              + ",".join(features.column_names()) + "\n")
    assert features_text == header + reference_rows(values)
    assert_array_equal(curves_back.view(np.int64), values.view(np.int64))
    assert_array_equal(features_back.view(np.int64), values.view(np.int64))


def test_row_writer_prints_integers_as_floats(tmp_path):
    path = tmp_path / "features.csv"
    io.write_features(path, wc.FeatureMatrix(
        values=np.array([[3, -1], [0, 2]]), kind="AC", wavelet="haar"))
    assert path.read_text().splitlines()[2:] == ["3.0,-1.0", "0.0,2.0"]


def test_dissimilarity_writer_peak_memory_at_a_year(tmp_path):
    days = np.random.default_rng(4).normal(size=(365, 48)).cumsum(axis=1)
    matrix = wc.build_dissimilarity_matrix(
        wc.FunctionalDataset(curves=days), measure="euclid-raw")
    path = tmp_path / "dissim.csv"
    tracemalloc.start()
    try:
        io.write_dissimilarity(path, matrix)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20
    assert path.read_text() == ("# measure=euclid-raw\n"
                                + reference_rows(matrix.values))


@pytest.mark.parametrize("write, owner, read", [
    (io.write_dataset, lambda values: wc.FunctionalDataset(curves=values),
     lambda path: io.read_dataset(path).curves),
    (io.write_features, lambda values: wc.FeatureMatrix(
        values=values, kind="logitRC", wavelet="symmlet6"),
     lambda path: io.read_features(path).values),
], ids=["dataset", "features"])
def test_row_writers_peak_memory_at_4096_rows(tmp_path, write, owner, read):
    # The 4096 x 256 values as Python floats at once would take 32 MB.
    values = np.random.default_rng(5).normal(size=(4096, 256))
    artifact = owner(values)
    path = tmp_path / "rows.csv"
    tracemalloc.start()
    try:
        write(path, artifact)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert_array_equal(read(path).view(np.int64), values.view(np.int64))


def test_dissimilarity_reader_peak_memory_at_a_year(tmp_path):
    # The matrix's checks must not run while the file's text is held.
    days = np.random.default_rng(4).normal(size=(365, 48)).cumsum(axis=1)
    matrix = wc.build_dissimilarity_matrix(
        wc.FunctionalDataset(curves=days), measure="euclid-raw")
    path = tmp_path / "dissim.csv"
    io.write_dissimilarity(path, matrix)
    tracemalloc.start()
    try:
        back = io.read_dissimilarity(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20
    assert_array_equal(back.values.view(np.int64),
                       matrix.values.view(np.int64))


def test_features_round_trip_keeps_metadata(tmp_path, dataset):
    fm = wc.feature_matrix(dataset, kind="logitRC")
    path = tmp_path / "features.csv"
    io.write_features(path, fm)
    back = io.read_features(path)
    assert_array_equal(back.values, fm.values)
    assert back.kind == "logitRC"
    assert back.wavelet == "symmlet6"
    header = path.read_text().splitlines()
    assert header[0].startswith("#")
    assert "kind=logitRC" in header[0]


def test_dissimilarity_round_trip(tmp_path, dataset):
    mat = wc.build_dissimilarity_matrix(dataset, measure="euclid-raw")
    path = tmp_path / "dissim.csv"
    io.write_dissimilarity(path, mat)
    back = io.read_dissimilarity(path)
    assert_array_equal(back.values, mat.values)
    assert back.measure == "euclid-raw"


def test_partition_round_trip(tmp_path, dataset):
    fm = wc.feature_matrix(dataset)
    part = wc.kmeans(fm, 3, restarts=5, seed=0)
    dists = np.linalg.norm(fm.values - part.centers[part.labels], axis=1)
    path = tmp_path / "partition.csv"
    io.write_partition(path, part, dists)
    labels, back = io.read_partition(path)
    assert_array_equal(labels, part.labels)
    assert_array_equal(back, dists)


def test_distortion_csv_headers(tmp_path, dataset):
    fm = wc.feature_matrix(dataset)
    _, curve = wc.choose_k_by_jump(fm, 5, restarts=3, seed=0)
    path = tmp_path / "distortion.csv"
    io.write_distortion(path, curve)
    lines = path.read_text().splitlines()
    assert f"jump_k={curve.jump_k}" in lines[0]
    assert lines[1] == "k,distortion,transformed"
    assert len(lines) == 2 + len(curve.k_values)


def test_selection_json(tmp_path):
    X = np.random.default_rng(2).normal(size=(150, 4))
    X[75:, 0] += 4.0
    report = wc.select_features(X, 2, seed=2)
    path = tmp_path / "selection.json"
    io.write_selection(path, report)
    payload = json.loads(path.read_text())
    assert payload["selected"] == list(report.selected)
    assert str(len(report.selected)) in payload["best_by_size"] or \
        payload["best_by_size"] == {}


def test_validation_json(tmp_path):
    report = wc.validation_report([0, 0, 1, 1], [0, 1, 1, 1])
    path = tmp_path / "validation.json"
    io.write_validation(path, report)
    payload = json.loads(path.read_text())
    assert payload["misclassified"] == 1
    assert_allclose(payload["rate"], 0.25)


def test_graph_exports(tmp_path):
    rng = np.random.default_rng(3)
    features = np.vstack([rng.normal(size=(10, 2)),
                          rng.normal(size=(10, 2)) + 8.0])
    part = wc.kmeans(features, 2, restarts=5, seed=3)
    graph = wc.neighborhood_graph(features, part)
    dot = tmp_path / "graph.dot"
    csv = tmp_path / "graph.csv"
    io.write_graph_dot(dot, graph)
    io.write_graph_csv(csv, graph, part.labels)
    text = dot.read_text()
    assert text.startswith("graph neighborhood {")
    assert "c0 -- c1" in text
    lines = csv.read_text().splitlines()
    assert lines[0] == "observation,cluster,x,y,inner_hull,outer_hull"
    assert len(lines) == 21


def _json_text(payload):
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _partition_text(partition, distances):
    return "observation,label,distance\n" + "".join(
        f"{i},{int(label)},{float(dist)!r}\n"
        for i, (label, dist) in enumerate(zip(partition.labels, distances)))


def _shadows_text(shadows):
    return "observation,shadow\n" + "".join(
        f"{i},{float(s)!r}\n" for i, s in enumerate(shadows))


def _distortion_text(curve):
    return (f"# jump_k={curve.jump_k} p={curve.p} capped={curve.capped}\n"
            "k,distortion,transformed\n" + "".join(
                f"{int(k)},{float(d)!r},{float(y)!r}\n" for k, d, y in zip(
                    curve.k_values, curve.distortions, curve.transformed)))


def _graph_dot_text(graph):
    return ("graph neighborhood {\n" + "".join(
        f'  c{k} [pos="{float(x)!r},{float(y)!r}"];\n'
        for k, (x, y) in enumerate(graph.center_coords)) + "".join(
        f"  c{k} -- c{l} [weight={float(graph.edges[(k, l)])!r}];\n"
        for k, l in sorted(graph.edges)) + "}\n")


def _graph_csv_text(graph, labels):
    return "observation,cluster,x,y,inner_hull,outer_hull\n" + "".join(
        f"{i},{int(label)},{float(x)!r},{float(y)!r},"
        f"{int(i in graph.inner_hull.get(int(label), ()))},"
        f"{int(i in graph.outer_hull.get(int(label), ()))}\n"
        for i, ((x, y), label) in enumerate(zip(graph.point_coords, labels)))


@pytest.fixture(scope="module")
def artifacts():
    """One of each object the text and JSON writers take."""
    rng = np.random.default_rng(3)
    features = np.vstack([rng.normal(size=(10, 3)),
                          rng.normal(size=(10, 3)) + 8.0])
    part = wc.kmeans(features, 2, restarts=5, seed=3)
    # Extreme magnitudes, a subnormal and a signed zero among them.
    distances = np.linalg.norm(features - part.centers[part.labels], axis=1)
    distances[:4] = [0.0, 5e-324, 1e300, 0.1]
    report = wc.select_features(features, 2, seed=2)
    final, reports = wc.select_features_stable(features, 3, seed=2)
    return {
        "partition": part, "distances": distances,
        "shadows": np.append(wc.shadow_values(features, part), -0.0),
        "curve": wc.choose_k_by_jump(features, 4, restarts=3, seed=0)[1],
        "graph": wc.neighborhood_graph(features, part),
        "labels": part.labels, "report": report, "final": final,
        "reports": reports,
        "validation": wc.validation_report(part.labels,
                                           [0] * 9 + [1] * 11),
        "manifest": {"command": "diagnose", "seed": None,
                     "inputs": {"features": "ab" * 32},
                     "config": {"penalty": 0.05, "k": 3}},
    }


#: Each writer beside a reference rendering of its full text.
WRITERS = {
    "partition": (lambda path, a: io.write_partition(
        path, a["partition"], a["distances"]),
        lambda a: _partition_text(a["partition"], a["distances"])),
    "shadows": (lambda path, a: io.write_shadows(path, a["shadows"]),
                lambda a: _shadows_text(a["shadows"])),
    "distortion": (lambda path, a: io.write_distortion(path, a["curve"]),
                   lambda a: _distortion_text(a["curve"])),
    "graph-dot": (lambda path, a: io.write_graph_dot(path, a["graph"]),
                  lambda a: _graph_dot_text(a["graph"])),
    "graph-csv": (lambda path, a: io.write_graph_csv(path, a["graph"],
                                                     a["labels"]),
                  lambda a: _graph_csv_text(a["graph"], a["labels"])),
    "labels": (lambda path, a: io.write_labels(path, a["labels"]),
               lambda a: "".join(f"{int(v)}\n" for v in a["labels"])),
    "selection": (lambda path, a: io.write_selection(path, a["report"]),
                  lambda a: _json_text(io.selection_payload(a["report"]))),
    "selection-stable": (
        lambda path, a: io.write_selection_stable(path, a["final"],
                                                  a["reports"]),
        lambda a: _json_text({"final": list(a["final"]), "per_k": {
            str(k): io.selection_payload(r)
            for k, r in a["reports"].items()}})),
    "validation": (
        lambda path, a: io.write_validation(path, a["validation"]),
        lambda a: _json_text({
            "misclassified": int(a["validation"].misclassified),
            "rate": float(a["validation"].rate),
            "contingency": a["validation"].contingency.tolist(),
            "rand": float(a["validation"].rand),
            "adjusted_rand": float(a["validation"].adjusted_rand),
            "matching": [list(p) for p in a["validation"].matching]})),
    "manifest": (lambda path, a: io.write_manifest(path, a["manifest"]),
                 lambda a: _json_text(a["manifest"])),
}


@pytest.mark.parametrize("name", WRITERS)
def test_writers_render_the_reference_bytes(tmp_path, artifacts, name):
    write, reference = WRITERS[name]
    path = tmp_path / "artifact"
    write(path, artifacts)
    assert path.read_bytes() == reference(artifacts).encode("utf-8")


def test_file_digest_stable(tmp_path):
    path = tmp_path / "blob.bin"
    path.write_bytes(b"abc")
    expected = ("ba7816bf8f01cfea414140de5dae2223"
                "b00361a396177a9cb410ff61f20015ad")
    assert io.file_digest(path) == expected


@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   -float("inf")])
def test_json_refuses_a_non_finite_value_and_writes_nothing(tmp_path,
                                                             value):
    path = tmp_path / "manifest.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        io.write_manifest(path, {"config": {"penalty": value}})
    assert not path.exists()


def test_manifest_json_is_sorted_and_round_trips(tmp_path):
    path = tmp_path / "manifest.json"
    io.write_manifest(path, {"command": "features", "seed": 7,
                             "inputs": {"data": "ab" * 32}})
    text = path.read_text()
    payload = json.loads(text)
    assert payload["command"] == "features"
    assert payload["seed"] == 7
    # canonical form: sorted keys, trailing newline
    assert text.index('"command"') < text.index('"inputs"') < \
        text.index('"seed"')
    assert text.endswith("\n")
