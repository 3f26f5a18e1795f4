"""File formats for every artifact the toolkit reads or writes.

Text artifacts are CSV with '\\n' line endings and floats rendered by
``repr`` (the shortest string that round-trips the exact double), so a
rerun with the same inputs produces byte-identical files. JSON
artifacts are written with sorted keys for the same reason. Each
distinct value is rendered by ``repr`` once: a dissimilarity matrix's
mirrored entries share their text, but only when their bits are equal.

Every writer takes one path. It checks its input and turns each column
into Python ints and floats (``tolist``) before any file is opened; a
matrix turns one row at a time, as its line is made. A CSV line is the
``repr`` of each cell joined by commas, and a JSON artifact is one
line. ``_write_lines`` alone opens a file for writing: UTF-8, each line
ended by '\\n'.

Readers open a file once and hand its data lines to NumPy's C reader,
``np.loadtxt``. It converts each cell with the ``PyOS_string_to_double``
that ``float`` calls, so a value keeps ``float``'s bits, but it makes no
Python float per cell. Readers differ only in the shape they require and
the owner their values go to. The cell grammar is NumPy's: ``float``'s
less underscores (``1_0``) and non-ASCII digits. A cell holding one of
the ASCII separators ``\\x1c``-``\\x1f``, which NumPy strips like
whitespace and ``float`` refuses, is refused too. A cell that does not
parse, or a row of the wrong width, is a ``ValueError`` naming the file
and the line; an owner's error, or a file that is not UTF-8 text, names
the file. A leading row is a header only when none of its cells parses.
"""

import hashlib
import json
from itertools import chain, count

import numpy as np

from .clustering import _feature_rows, _label_array
from .data import FunctionalDataset, SampledSignal
from .dissimilarity import DissimilarityMatrix
from .dwt import FeatureMatrix, canonical_kind


def _write_lines(path, lines):
    """Write ``lines`` to ``path`` in UTF-8, each ended by '\\n': the one
    place the toolkit opens a file for writing. A writer checks and
    converts its values before it calls this, so a refused input leaves
    no file; ``lines`` may be a generator, which only formats them."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for line in lines:
            handle.write(line)
            handle.write("\n")


def _cells(row):
    """A CSV line: one ``repr`` per Python int or float of ``row``."""
    return ",".join(map(repr, row))


def _column(values, dtype=float):
    """``values`` as a list of Python numbers of ``dtype``."""
    return np.asarray(values, dtype=dtype).tolist()


def _rows(matrix):
    """The CSV lines of a 2-D array, a row's Python floats made only when
    its line is, so no more than one row of them is alive."""
    return (_cells(row.tolist()) for row in np.asarray(matrix, dtype=float))


def _table(header, *columns):
    """``header``, then one CSV line per row of the column lists."""
    return chain([header], map(_cells, zip(*columns)))


#: ASCII separators: NumPy's reader strips them from a cell like
#: whitespace, ``float`` refuses them, and so do the readers.
_SEPARATORS = "\x1c\x1d\x1e\x1f"


def _floats(lines):
    """The cells of nonempty ``lines`` as one row per line, by NumPy's C
    reader; a ``ValueError`` for a cell outside the grammar or for rows of
    unequal width."""
    if any(mark in line for line in lines for mark in _SEPARATORS):
        raise ValueError("a cell holds an ASCII separator")
    return np.loadtxt(lines, delimiter=",", comments=None, dtype=float,
                      ndmin=2)


def _parses(text):
    """Whether every comma-separated cell of ``text`` parses. An empty
    cell is no number, though NumPy would skip it as an empty line."""
    if not text:
        return False
    try:
        _floats([text])
    except ValueError:
        return False
    return True


def _data_lines(path):
    """One read of ``path``: the key=value fields of its leading '#'
    comment lines, its data lines and all its lines, stripped. A leading
    row none of whose cells parses is a header, not data; one where some
    cells parse is data, whose bad cell the reader names. So a
    one-column file's unparsable first row is taken for a header. A file
    that is not UTF-8 text is a ``ValueError`` naming it."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = list(map(str.strip, handle))
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    fields = {}
    for line in text:
        if not line.startswith("#"):
            break
        for token in line.lstrip("# \t").split():
            if "=" in token:
                key, value = token.split("=", 1)
                fields[key] = value
    lines = [line for line in text if line and not line.startswith("#")]
    if not lines:
        raise ValueError(f"{path}: no data rows")
    if not any(map(_parses, lines[0].split(","))):
        lines = lines[1:]
    if not lines:
        raise ValueError(f"{path}: no data rows after the header")
    return fields, lines, text


def _raise_at_line(path, lines, text, width=None):
    """Raise the error of the first data line with other than ``width``
    values (when given) or a cell that does not parse, naming ``path``
    and the line's 1-based number in ``text``. A reader calls this only
    once its parse has failed, so lines are numbered on that path alone."""
    for index, line in enumerate(lines):
        cells = line.split(",")
        if width is not None and len(cells) != width:
            message = f"expected {width} values, got {len(cells)}"
            break
        if not _parses(line):
            cell = next(cell for cell in cells if not _parses(cell))
            message = f"could not convert string to float: {cell!r}"
            break
    numbers = [number for number, line in enumerate(text, 1)
               if line and not line.startswith("#")]
    # ``lines`` are the file's data lines less a skipped header.
    number = numbers[len(numbers) - len(lines) + index]
    raise ValueError(f"{path}: line {number}: {message}")


def _read(path, width, owner):
    """``owner(fields, values)`` of ``path``'s comment fields and cells,
    parsed by NumPy's C reader in the module's grammar: flat when
    ``width`` is None (the lines, of any lengths, joined into one row),
    else one row of ``width`` values per data line (-1, as in
    ``reshape``, takes the first line's count). The owner's error names
    the file."""
    fields, lines, text = _data_lines(path)
    width = lines[0].count(",") + 1 if width == -1 else width
    try:
        values = _floats([",".join(lines)] if width is None else lines)
    except ValueError:
        values = None
    if values is None or width and values.shape[1] != width:
        _raise_at_line(path, lines, text, width)
    del lines, text  # free the text before the owner's checks allocate
    try:
        return owner(fields, values.reshape(-1) if width is None else values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def write_dataset(path, dataset):
    """One curve per row."""
    _write_lines(path, _rows(dataset.curves))


def read_dataset(path):
    return _read(path, -1, lambda _, rows: FunctionalDataset(curves=rows))


def read_signal(path):
    """A long signal: its values in reading order, in rows of any length."""
    return _read(path, None, lambda _, values: SampledSignal(values))


def write_labels(path, labels):
    """One label per row, by the label rule, checked before the file is
    opened."""
    _write_lines(path, map(repr, _label_array(labels).tolist()))


def read_labels(path):
    """One label per row, by the label rule: ``2.0`` is 2, ``1.5`` fails."""
    return _read(path, 1, lambda _, rows: _label_array(rows[:, 0]))


def write_features(path, features):
    """Feature CSV: a comment naming kind and wavelet, then labeled
    columns (scale index counted from the coarsest side, resolution
    level from the finest), then one row per curve."""
    _write_lines(path, chain(
        [f"# kind={features.kind} wavelet={features.wavelet}",
         ",".join(features.column_names())], _rows(features.values)))


def read_features(path):
    return _read(path, -1, lambda fields, rows: FeatureMatrix(
        kind=canonical_kind(fields.get("kind", "logitRC")),
        wavelet=fields.get("wavelet", "symmlet6"),
        values=_feature_rows(rows)))


def write_dissimilarity(path, matrix):
    """A comment naming the measure, then one row per observation.

    Each value is rendered by ``repr`` once: row i formats its entries
    from the diagonal on, and each later row j takes its column-i text
    from row i's entry (i, j), unless the two entries' bits differ (a
    ``-0.0`` facing ``0.0``, or the slight asymmetry a matrix may have),
    when it formats its own. Row i's unused text is kept reversed and
    popped as it is written, so about n²/4 strings are alive at most.
    """
    bits = matrix.values.view(np.int64)
    _write_lines(path, chain([f"# measure={matrix.measure}"],
                             _mirrored_rows(matrix.values, bits != bits.T)))


def _mirrored_rows(values, unmirrored):
    """``write_dissimilarity``'s data lines."""
    pending = []
    for i, row in enumerate(values):
        texts = list(map(list.pop, pending))
        for k in np.flatnonzero(unmirrored[i, :i]).tolist():
            texts[k] = repr(float(row[k]))
        tail = list(map(repr, row[i:].tolist()))
        texts += tail
        yield ",".join(texts)
        tail.reverse()
        tail.pop()
        pending.append(tail)


def read_dissimilarity(path):
    return _read(path, -1, lambda fields, rows: DissimilarityMatrix(
        values=rows, measure=fields.get("measure", "WER")))


def write_partition(path, partition, distances):
    """CSV of (observation, label, distance to its center or medoid)."""
    _write_lines(path, _table("observation,label,distance", count(),
                              _column(partition.labels, int),
                              _column(distances)))


def _distance_column(distances):
    """A partition's distances to its centers or medoids, each finite and
    nonnegative, as the matrix entries and norms ``write_partition``
    writes are."""
    bad = distances[~(np.isfinite(distances) & (distances >= 0))]
    if bad.size:
        raise ValueError(f"distances must be finite and nonnegative, got "
                         f"{float(bad[0])!r}")
    return distances


def read_partition(path):
    """A partition file's labels, under the label rule, and distances."""
    return _read(path, 3, lambda _, rows: (_label_array(rows[:, 1]),
                                           _distance_column(rows[:, 2])))


def write_shadows(path, shadows):
    """CSV of (observation, shadow value)."""
    _write_lines(path, _table("observation,shadow", count(),
                              _column(shadows)))


def write_distortion(path, curve):
    _write_lines(path, chain(
        [f"# jump_k={curve.jump_k} p={curve.p} capped={curve.capped}"],
        _table("k,distortion,transformed", _column(curve.k_values, int),
               _column(curve.distortions), _column(curve.transformed))))


def _json_dump(path, payload):
    """``payload`` as JSON. A non-finite float raises ``ValueError``
    before the file is opened, so no artifact holds ``NaN`` or
    ``Infinity``, which JSON does not define."""
    _write_lines(path, [json.dumps(payload, sort_keys=True, indent=2,
                                   allow_nan=False)])


def _json_safe(value):
    if isinstance(value, float) and not np.isfinite(value):
        return None
    return value


def selection_payload(report):
    """A SelectionReport as plain JSON-ready data."""
    return {
        "index": [float(v) for v in report.index],
        "threshold": float(report.threshold),
        "screened_in": list(report.screened_in),
        "best_by_size": {
            str(size): {"subset": list(subset), "sse": _json_safe(float(sse))}
            for size, (subset, sse) in sorted(report.best_by_size.items())
        },
        "selected": list(report.selected),
        "selected_sse": _json_safe(float(report.selected_sse)),
        "k": int(report.k),
        "penalty": float(report.penalty),
        "screen_quantile": float(report.screen_quantile),
        "seed": int(report.seed),
        "no_structure": bool(report.no_structure),
    }


def write_selection(path, report):
    _json_dump(path, selection_payload(report))


def write_selection_stable(path, final, reports):
    """Per-K selection reports plus the modal final subset."""
    _json_dump(path, {
        "final": list(final),
        "per_k": {str(k): selection_payload(r) for k, r in reports.items()},
    })


def write_validation(path, report):
    payload = {
        "misclassified": int(report.misclassified),
        "rate": float(report.rate),
        "contingency": report.contingency.tolist(),
        "rand": float(report.rand),
        "adjusted_rand": float(report.adjusted_rand),
        "matching": [list(pair) for pair in report.matching],
    }
    _json_dump(path, payload)


def write_graph_dot(path, graph):
    """The center graph in DOT form: positioned nodes, weighted edges."""
    edges = sorted(graph.edges)
    weights = _column([graph.edges[edge] for edge in edges])
    _write_lines(path, chain(
        ["graph neighborhood {"],
        (f'  c{k} [pos="{_cells(xy)}"];'
         for k, xy in enumerate(_column(graph.center_coords))),
        (f"  c{k} -- c{l} [weight={weight!r}];"
         for (k, l), weight in zip(edges, weights)),
        ["}"]))


def write_graph_csv(path, graph, labels):
    """Projected observation coordinates with hull-vertex memberships;
    the labels follow the label rule."""
    labels = _label_array(labels).tolist()
    inner = [int(i in graph.inner_hull.get(label, ()))
             for i, label in enumerate(labels)]
    outer = [int(i in graph.outer_hull.get(label, ()))
             for i, label in enumerate(labels)]
    _write_lines(path, _table(
        "observation,cluster,x,y,inner_hull,outer_hull", count(), labels,
        _column(graph.point_coords[:, 0]), _column(graph.point_coords[:, 1]),
        inner, outer))


def file_digest(path):
    """SHA-256 of a file's bytes, as a hex string."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(path, manifest):
    _json_dump(path, manifest)
