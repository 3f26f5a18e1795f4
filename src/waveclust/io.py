"""File formats for every artifact the toolkit reads or writes.

Text artifacts are CSV with '\\n' line endings and floats rendered by
``repr`` (the shortest string that round-trips the exact double), so a
rerun with the same inputs produces byte-identical files. JSON
artifacts are written with sorted keys for the same reason. Each
distinct value is rendered by ``repr`` once: a dissimilarity matrix's
mirrored entries share their text, but only when their bits are equal.

Readers open a file once: one read gives the leading comments'
key=value fields and the stripped lines. They parse a whole file at
once; a cell that does not parse is a ``ValueError`` naming the file and
the cell's 1-based line number. A leading row is a header only when
none of its cells parses.
"""

import hashlib
import json

import numpy as np

from .data import FunctionalDataset, SampledSignal
from .dissimilarity import DissimilarityMatrix
from .dwt import FeatureMatrix, canonical_kind


def _fmt(value):
    return repr(float(value))


def _write_rows(handle, rows):
    for row in rows:
        values = np.asarray(row, dtype=float).tolist()
        handle.write(",".join(map(repr, values)))
        handle.write("\n")


def _parses(cell):
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _data_lines(path):
    """One read of ``path``: the key=value fields of its leading '#'
    comment lines, its data lines and all its lines, stripped. A leading
    row none of whose cells parses as a float is a header, not data; one
    where some cells parse and some do not is a cell error naming the
    file and line. So a one-column file's unparsable first row is still
    taken for a header."""
    with open(path, "r", encoding="utf-8") as handle:
        text = list(map(str.strip, handle))
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
    try:
        list(map(float, lines[0].split(",")))
    except ValueError:
        if any(map(_parses, lines[0].split(","))):
            _raise_at_line(path, lines, text, _float_row)
        lines = lines[1:]
    if not lines:
        raise ValueError(f"{path}: no data rows after the header")
    return fields, lines, text


def _raise_at_line(path, lines, text, parse):
    """Raise the error ``parse`` meets on the first data line it cannot
    read, naming ``path`` and the line's 1-based number in ``text``.
    Readers parse a whole file at once and call this only once that has
    failed, so lines are numbered on the error path alone."""
    for index, line in enumerate(lines):
        try:
            parse(line)
        except ValueError as exc:
            message = str(exc)
            break
    numbers = [number for number, line in enumerate(text, 1)
               if line and not line.startswith("#")]
    # ``lines`` are the file's data lines less a skipped header.
    number = numbers[len(numbers) - len(lines) + index]
    raise ValueError(f"{path}: line {number}: {message}")


def _parse_lines(path, parse):
    """``path``'s comment fields and ``parse`` of each data line; a line
    it cannot read is an error that names the file and the line."""
    fields, lines, text = _data_lines(path)
    try:
        return fields, list(map(parse, lines))
    except ValueError:
        _raise_at_line(path, lines, text, parse)


def _float_row(line):
    return np.array(list(map(float, line.split(","))))


def _read_matrix(path):
    """A CSV file's comment fields and data rows, the rows as one float
    matrix of equal widths. Each row becomes an array as it is parsed,
    so at most one row's values are held as Python floats."""
    fields, rows = _parse_lines(path, _float_row)
    widths = {r.size for r in rows}
    if len(widths) != 1:
        raise ValueError(f"{path}: rows have differing lengths {widths}")
    return fields, np.vstack(rows)


def write_dataset(path, dataset):
    """One curve per row."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        _write_rows(handle, dataset.curves)


def read_dataset(path):
    return FunctionalDataset(curves=_read_matrix(path)[1])


def read_signal(path, sampling_step=1.0):
    """A long signal: one value per row, or one row of values."""
    _, lines, text = _data_lines(path)
    try:
        values = list(map(float, ",".join(lines).split(",")))
    except ValueError:
        _raise_at_line(path, lines, text, _float_row)
    return SampledSignal(values=np.array(values, dtype=float),
                         sampling_step=sampling_step)


def write_labels(path, labels):
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for label in np.asarray(labels, dtype=int):
            handle.write(f"{int(label)}\n")


def read_labels(path):
    """One integer label per row; ``2.0`` reads as 2, ``1.5`` is an
    error."""
    values = _parse_lines(path, float)[1]
    for value in values:
        if not value.is_integer():
            raise ValueError(f"{path}: label {value!r} is not an integer")
    return np.array(values, dtype=int)


def write_features(path, features):
    """Feature CSV: a comment naming kind and wavelet, then labeled
    columns (scale index counted from the coarsest side, resolution
    level from the finest), then one row per curve."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(f"# kind={features.kind} wavelet={features.wavelet}\n")
        handle.write(",".join(features.column_names()) + "\n")
        _write_rows(handle, features.values)


def read_features(path):
    fields, values = _read_matrix(path)
    kind = canonical_kind(fields.get("kind", "logitRC"))
    wavelet = fields.get("wavelet", "symmlet6")
    if not np.isfinite(values).all():
        raise ValueError(f"{path}: feature values must be finite "
                         "(found nan or inf)")
    return FeatureMatrix(values=values, kind=kind, wavelet=wavelet)


def write_dissimilarity(path, matrix):
    """A comment naming the measure, then one row per observation.

    Each value is rendered by ``repr`` once: row i formats its entries
    from the diagonal on, and each later row j takes its column-i text
    from row i's entry (i, j), unless the two entries' bits differ (a
    ``-0.0`` facing ``0.0``, or the slight asymmetry a matrix may have),
    when it formats its own. Row i's unused text is kept reversed and
    popped as it is written, so about n²/4 strings are alive at most.
    """
    values = matrix.values
    bits = values.view(np.int64)
    unmirrored = bits != bits.T
    pending = []
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(f"# measure={matrix.measure}\n")
        for i, row in enumerate(values):
            texts = list(map(list.pop, pending))
            for k in np.flatnonzero(unmirrored[i, :i]).tolist():
                texts[k] = repr(float(row[k]))
            tail = list(map(repr, row[i:].tolist()))
            texts += tail
            handle.write(",".join(texts))
            handle.write("\n")
            tail.reverse()
            tail.pop()
            pending.append(tail)


def read_dissimilarity(path):
    fields, values = _read_matrix(path)
    return DissimilarityMatrix(values=values,
                               measure=fields.get("measure", "WER"))


def write_partition(path, partition, distances):
    """CSV of (observation, label, distance to its center or medoid)."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("observation,label,distance\n")
        for i, (label, dist) in enumerate(zip(partition.labels, distances)):
            handle.write(f"{i},{int(label)},{_fmt(dist)}\n")


def _partition_row(line):
    _, label, dist = line.split(",")
    return int(label), float(dist)


def read_partition(path):
    rows = _parse_lines(path, _partition_row)[1]
    return (np.array([label for label, _ in rows], dtype=int),
            np.array([dist for _, dist in rows], dtype=float))


def write_shadows(path, shadows):
    """CSV of (observation, shadow value)."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("observation,shadow\n")
        handle.writelines(f"{i},{_fmt(s)}\n" for i, s in enumerate(shadows))


def write_distortion(path, curve):
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(f"# jump_k={curve.jump_k} p={curve.p} "
                     f"capped={curve.capped}\n")
        handle.write("k,distortion,transformed\n")
        for k, d, y in zip(curve.k_values, curve.distortions,
                           curve.transformed):
            handle.write(f"{int(k)},{_fmt(d)},{_fmt(y)}\n")


def _json_dump(path, payload):
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(payload, handle, sort_keys=True, indent=2)
        handle.write("\n")


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
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("graph neighborhood {\n")
        for k, (x, y) in enumerate(graph.center_coords):
            handle.write(f'  c{k} [pos="{_fmt(x)},{_fmt(y)}"];\n')
        for (k, l) in sorted(graph.edges):
            weight = graph.edges[(k, l)]
            handle.write(f"  c{k} -- c{l} [weight={_fmt(weight)}];\n")
        handle.write("}\n")


def write_graph_csv(path, graph, labels):
    """Projected observation coordinates with hull-vertex memberships."""
    labels = np.asarray(labels, dtype=int)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("observation,cluster,x,y,inner_hull,outer_hull\n")
        for i, ((x, y), label) in enumerate(zip(graph.point_coords, labels)):
            inner = int(i in graph.inner_hull.get(int(label), ()))
            outer = int(i in graph.outer_hull.get(int(label), ()))
            handle.write(f"{i},{int(label)},{_fmt(x)},{_fmt(y)},"
                         f"{inner},{outer}\n")


def file_digest(path):
    """SHA-256 of a file's bytes, as a hex string."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(path, manifest):
    _json_dump(path, manifest)
