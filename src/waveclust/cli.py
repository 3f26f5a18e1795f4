"""Command-line front end.

Every subcommand's settings are declared once, in ``_COMMANDS``: each
setting ``a_b`` is the flag ``--a-b`` and the config-file key ``a_b``,
with its type, its choices and its default (or ``REQUIRED``). The
parser, the config-file check and the manifest all read that table; a
run takes, defaults and records only the settings it uses (``_unused``).

``main`` resolves a subcommand's settings from flags, optionally
underlaid by a JSON config file (flags win). Before any data is read,
it refuses a run that would write over a file it reads or write one
file twice (``_check_written``). The subcommand writes its artifacts
and returns its input and output paths, and ``main`` drops a manifest
next to the primary output recording the resolved
configuration, the seed, and SHA-256 digests of all inputs and outputs.
Manifests contain no timestamps and the math is deterministic for a
fixed seed, so identical invocations produce byte-identical artifacts
regardless of the number of threads or CPUs they run on.

Exit codes: 0 success, 1 usage error (unknown flags, bad values),
2 data error (missing or malformed files, inconsistent configuration).
"""

import argparse
import json
import os
import sys

import numpy as np
import scipy

from . import __version__
from . import io
from .clustering import Partition, choose_k_by_jump, kmeans, pam
from .cwt import make_scale_grid
from .data import resample_dataset, slice_series
from .dissimilarity import MEASURES, build_dissimilarity_matrix
from .dwt import feature_matrix
from .evaluation import neighborhood_graph, shadow_values, validation_report
from .feature_selection import select_features, select_features_stable
from .simulation import FarModel, gen_benchmark, gen_far, gen_sinus


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits with status 1 on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"usage error: {message}", file=sys.stderr)
        raise SystemExit(1)


#: The default of a setting that has none and must be given.
REQUIRED = object()


def _check_config_value(path, key, value, setting):
    """Reject a config value its flag would not accept: the setting's
    type (``int`` takes no ``bool``, ``float`` also takes ``int``) and
    its choices."""
    kind, choices, _ = setting
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ValueError(f"config file {path}: field {key!r} must be "
                         f"{kind.__name__}, got {value!r}")
    if choices is not None and value not in choices:
        raise ValueError(f"config file {path}: field {key!r} must be one "
                         f"of {list(choices)}, got {value!r}")


def _resolve_config(args):
    """Merge the command's table defaults, the optional JSON config file,
    and flags, less the settings the run leaves unused (``_unused``).

    Flags beat the config file, which beats defaults. A config value of
    null counts as not given; any other value must be one its flag would
    accept. A config that is not a JSON object, unknown or ill-typed
    config keys, missing required settings and given unused ones are
    data errors."""
    settings = _COMMANDS[args.command][2]
    given = {}
    path = args.config
    if path:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                loaded = json.load(handle)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"config file {path}: invalid JSON ({exc})")
        if not isinstance(loaded, dict):
            raise ValueError(f"config file {path}: top level must be a "
                             f"JSON object, got {type(loaded).__name__}")
        for key, value in loaded.items():
            if key not in settings:
                raise ValueError(f"config file {path}: unknown field {key!r}")
            if value is not None:
                _check_config_value(path, key, value, settings[key])
                given[key] = value
    given.update((key, getattr(args, key)) for key in settings
                 if getattr(args, key) is not None)
    config = {key: given.get(key, None if default is REQUIRED else default)
              for key, (_, _, default) in settings.items()}
    for key, (_, _, default) in settings.items():
        if default is REQUIRED and config[key] is None:
            raise ValueError(f"missing required setting {key!r}")
    for key, reason in _unused(args.command, config).items():
        if key in given:
            raise ValueError(f"field {key!r} {reason}")
        del config[key]
    return config


def _manifest(command, config, inputs, outputs):
    drop = {"threads"}  # execution detail; results do not depend on it
    recorded = {k: v for k, v in config.items() if k not in drop}
    return {
        "command": command,
        "config": recorded,
        "seed": config.get("seed"),
        "inputs": {name: io.file_digest(path)
                   for name, path in inputs.items()},
        "outputs": {name: io.file_digest(path)
                    for name, path in outputs.items()},
        "versions": {
            "waveclust": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }


def cmd_slice(config):
    signal = io.read_signal(config["input"])
    dataset = slice_series(signal, config["delta"])
    io.write_dataset(config["output"], dataset)
    print(f"sliced {dataset.n_curves} curves of length "
          f"{dataset.n_samples} (remainder {dataset.remainder})")
    return {"signal": config["input"]}, {"dataset": config["output"]}


def cmd_features(config):
    dataset = io.read_dataset(config["input"])
    if config["resample_j"] is not None:
        dataset = resample_dataset(dataset, config["resample_j"])
    features = feature_matrix(dataset, kind=config["features"],
                              wavelet=config["wavelet"])
    io.write_features(config["output"], features)
    print(f"wrote {features.n_curves} x {features.n_scales} "
          f"{features.kind} features")
    return {"dataset": config["input"]}, {"features": config["output"]}


def cmd_select(config):
    features = io.read_features(config["input"])
    shared = {key: config[key] for key in ("screen_quantile", "penalty",
                                           "restarts", "seed")}
    if config["kmax"] is not None:
        final, reports = select_features_stable(features, config["kmax"],
                                                **shared)
        io.write_selection_stable(config["output"], final, reports)
        print(f"selected features (mode over K=2..{config['kmax']}): "
              f"{list(final)}")
    else:
        report = select_features(features, config["k"], **shared)
        io.write_selection(config["output"], report)
        if report.no_structure:
            print("no structure: every feature was screened out")
        else:
            print(f"selected features: {list(report.selected)}")
    return {"features": config["input"]}, {"selection": config["output"]}


def cmd_choose_k(config):
    features = io.read_features(config["input"])
    k_star, curve = choose_k_by_jump(features, config["kmax"],
                                     restarts=config["restarts"],
                                     seed=config["seed"])
    io.write_distortion(config["output"], curve)
    print(f"jump method selects K = {k_star}")
    return {"features": config["input"]}, {"distortion": config["output"]}


#: The ``--measure`` choices, by the name the library knows them.
_MEASURE_NAMES = {m.lower(): m for m in MEASURES}


def _spectral_matrix(config, dataset):
    """The dissimilarity matrix the resolved spectral settings ask for;
    a setting the measure leaves unused is not in ``config``."""
    options = {key: config[key] for key in ("omega0", "normalization",
                                            "theta") if key in config}
    if "omin" in config:
        options["grid"] = make_scale_grid(config["omin"], config["omax"],
                                          config["voices"])
    return build_dissimilarity_matrix(
        dataset, measure=_MEASURE_NAMES[config["measure"]],
        threads=config["threads"], **options)


def cmd_dissim(config):
    matrix = _spectral_matrix(config, io.read_dataset(config["input"]))
    io.write_dissimilarity(config["output"], matrix)
    print(f"wrote {matrix.n} x {matrix.n} {matrix.measure} dissimilarities")
    return {"dataset": config["input"]}, {"dissimilarity": config["output"]}


def cmd_cluster(config):
    if config["pipeline"] == "features":
        features = io.read_features(config["input"])
        part = kmeans(features, config["k"], restarts=config["restarts"],
                      seed=config["seed"])
        diffs = features.values - part.centers[part.labels]
        distances = np.sqrt((diffs ** 2).sum(axis=1))
        inputs = {"features": config["input"]}
    else:
        if config["dissim_input"]:
            matrix = io.read_dissimilarity(config["dissim_input"])
            inputs = {"dissimilarity": config["dissim_input"]}
        else:
            matrix = _spectral_matrix(config, io.read_dataset(config["input"]))
            inputs = {"dataset": config["input"]}
        part = pam(matrix, config["k"])
        distances = matrix.values[np.arange(matrix.n),
                                  part.medoids[part.labels]]
    io.write_partition(config["output"], part, distances)
    sizes = np.bincount(part.labels, minlength=part.k).tolist()
    print(f"{part.method} cost {part.cost:.6g}, cluster sizes {sizes}")
    return inputs, {"partition": config["output"]}


def _partition_from_labels(values, labels):
    """The k-means partition a label vector induces on feature rows, checked
    first, then given the cluster means as centers and their SSE as cost."""
    part = Partition(labels=labels, k=int(labels.max()) + 1, cost=0.0)
    part.centers = np.vstack([values[labels == j].mean(axis=0)
                              for j in range(part.k)])
    part.cost = float(((values - part.centers[labels]) ** 2).sum())
    return part


def _diagnose_outputs(config):
    """The files ``diagnose`` writes, by name."""
    prefix = config["output_prefix"]
    outputs = {"shadows": prefix + ".shadows.csv",
               "graph_dot": prefix + ".graph.dot",
               "graph_csv": prefix + ".graph.csv"}
    if config["truth"]:
        outputs["validation"] = prefix + ".validation.json"
    return outputs


def cmd_diagnose(config):
    features = io.read_features(config["input"])
    labels, _ = io.read_partition(config["partition"])
    if labels.size != features.n_curves:
        raise ValueError("partition length does not match the feature rows")
    inputs = {"features": config["input"],
              "partition": config["partition"]}
    report = None
    if config["truth"]:
        # Before the first write, so a bad truth file leaves no artifact.
        report = validation_report(labels, io.read_labels(config["truth"]))
        inputs["truth"] = config["truth"]
    part = _partition_from_labels(features.values, labels)
    shadows = shadow_values(features.values, part)
    graph = neighborhood_graph(features.values, part)
    outputs = _diagnose_outputs(config)
    io.write_shadows(outputs["shadows"], shadows)
    io.write_graph_dot(outputs["graph_dot"], graph)
    io.write_graph_csv(outputs["graph_csv"], graph, labels)
    if report is None:
        print(f"mean shadow {float(np.mean(shadows)):.4f} over "
              f"{labels.size} observations")
    else:
        io.write_validation(outputs["validation"], report)
        print(f"misclassified {report.misclassified} "
              f"(rate {report.rate:.4f}), ARI {report.adjusted_rand:.4f}")
    return inputs, outputs


def cmd_simulate(config):
    """``simulate`` and ``benchmark``; the latter has no ``model``."""
    model = config.setdefault("model", "benchmark")
    if model == "benchmark":
        dataset, labels = gen_benchmark(
            seed=config["seed"], n_per_cluster=config["n"],
            length=config["length"], rho=config["rho"],
            sigma=config["sigma"])
    elif model == "sinus":
        dataset, labels = gen_sinus(config["n"], length=config["length"],
                                    sigma=config["sigma"],
                                    seed=config["seed"])
    else:
        far = FarModel(kernel=model.split("-", 1)[1], rho=config["rho"],
                       m=config["length"], sigma=config["sigma"])
        dataset, labels = gen_far(config["n"], length=config["length"],
                                  model=far, seed=config["seed"])
    io.write_dataset(config["output"], dataset)
    outputs = {"dataset": config["output"]}
    if config["labels_output"]:
        io.write_labels(config["labels_output"], labels)
        outputs["labels"] = config["labels_output"]
    print(f"generated {dataset.n_curves} curves of length "
          f"{dataset.n_samples} ({model})")
    return {}, outputs


# The settings table: setting name -> (type, choices, default).
_IO = {"input": (str, None, REQUIRED), "output": (str, None, REQUIRED)}

#: The settings that compute a dissimilarity matrix, shared by ``dissim``
#: and ``cluster --pipeline spectrum``.
_SPECTRAL = {"measure": (str, tuple(_MEASURE_NAMES), "wer"),
             "omin": (int, None, 1), "omax": (int, None, 6),
             "voices": (int, None, 8), "omega0": (float, None, 6.0),
             "normalization": (str, ("L1", "L2"), "L1"),
             "theta": (float, None, 0.95), "threads": (int, None, 1)}

_OUTPUTS = {"output": (str, None, REQUIRED),
            "labels_output": (str, None, None)}
_SIMULATION = {"n": (int, None, 25), "length": (int, None, 1024),
               "sigma": (float, None, 1.0), "rho": (float, None, 0.8),
               "seed": (int, None, 0)}

#: Each command's function, help line and settings.
_COMMANDS = {
    "slice": (cmd_slice, "cut a long signal into fixed-length curves",
              {**_IO, "delta": (int, None, REQUIRED)}),
    "features": (cmd_features, "scale-energy features per curve", {
        **_IO, "features": (str, ("ac", "rc", "logit-rc"), "logit-rc"),
        "wavelet": (str, ("symmlet6", "haar"), "symmlet6"),
        "resample_j": (int, None, None)}),
    "select": (cmd_select, "screen and pick feature subsets", {
        **_IO, "k": (int, None, 3), "kmax": (int, None, None),
        "screen_quantile": (float, None, 0.5),
        "penalty": (float, None, 0.05), "restarts": (int, None, 6),
        "seed": (int, None, 0)}),
    "choose-k": (cmd_choose_k, "distortion-jump cluster count", {
        **_IO, "kmax": (int, None, 10), "restarts": (int, None, 10),
        "seed": (int, None, 0)}),
    "cluster": (cmd_cluster,
                "k-means on features or PAM on spectral dissimilarities", {
        **_IO, "pipeline": (str, ("features", "spectrum"), "features"),
        "k": (int, None, REQUIRED), "restarts": (int, None, 20),
        "seed": (int, None, 0), "dissim_input": (str, None, None),
        **_SPECTRAL}),
    "dissim": (cmd_dissim, "all-pairs dissimilarity matrix",
               {**_IO, **_SPECTRAL}),
    "diagnose": (cmd_diagnose,
                 "shadow values, neighborhood graph, optional validation", {
        "input": (str, None, REQUIRED), "partition": (str, None, REQUIRED),
        "truth": (str, None, None),
        "output_prefix": (str, None, REQUIRED)}),
    "simulate": (cmd_simulate, "generate model curves", {
        **_OUTPUTS, "model": (str, ("benchmark", "sinus", "far-diagonal",
                                    "far-full"), "benchmark"),
        **_SIMULATION}),
    "benchmark": (cmd_simulate, "generate the 3-cluster benchmark",
                  {**_OUTPUTS, **_SIMULATION}),
}


#: The settings of the continuous wavelet transform, which every
#: measure but euclid-raw takes.
_CWT = ("omin", "omax", "voices", "omega0", "normalization")


def _measure_unused(measure):
    """The spectral settings a matrix of ``measure`` leaves unused: why."""
    unused = {}
    if measure != "mca":
        unused["theta"] = "applies only to measure='mca'"
    if measure == "euclid-raw":
        unused.update(dict.fromkeys(
            _CWT, "does not apply with measure='euclid-raw': no transform "
                  "is taken"))
    return unused


def _unused(command, config):
    """Each setting a run with the merged ``config`` leaves unused: why."""
    if command == "cluster" and config["pipeline"] == "features":
        return dict.fromkeys(["dissim_input", *_SPECTRAL],
                             "applies only to pipeline='spectrum'")
    if command == "cluster":
        unused = dict.fromkeys(["restarts", "seed"],
                               "applies only to pipeline='features'")
        if config["dissim_input"]:
            unused.update(dict.fromkeys(
                _SPECTRAL, "does not apply with dissim_input: no matrix "
                           "is computed"))
        else:
            unused.update(_measure_unused(config["measure"]))
        return unused
    if command == "dissim":
        return _measure_unused(config["measure"])
    if command == "select" and config["kmax"] is not None:
        return {"k": "does not apply with kmax: the search covers K = 2..kmax"}
    if command == "simulate" and config["model"] == "sinus":
        return {"rho": "does not apply with model='sinus'"}
    return {}


#: The settings that name a file a run reads.
_READS = ("input", "partition", "truth", "dissim_input")


def _written(command, config):
    """The files a run writes: its artifacts, the primary one first, and
    then its manifest."""
    if command == "diagnose":
        paths = list(_diagnose_outputs(config).values())
    else:
        paths = [config["output"]]
        if config.get("labels_output"):
            paths.append(config["labels_output"])
    return paths + [paths[0] + ".manifest.json"]


def _check_written(written, config, config_path):
    """Refuse a run that would write over a file it reads, its config
    file included, or write one file twice. Paths are compared once
    resolved, so ``./a.csv`` and a link to it are ``a.csv``."""
    read = {os.path.realpath(path)
            for path in [config_path, *map(config.get, _READS)] if path}
    seen = set()
    for path in written:
        real = os.path.realpath(path)
        if real in read:
            raise ValueError(f"{path} is both read and written by this run")
        if real in seen:
            raise ValueError(f"{path} would be written twice by this run")
        seen.add(real)


def build_parser():
    parser = _Parser(prog="waveclust",
                     description="Wavelet-based clustering of sampled "
                                 "functional time series")
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, settings) in _COMMANDS.items():
        sub = commands.add_parser(command, help=help_text)
        for key, (kind, choices, _) in settings.items():
            sub.add_argument("--" + key.replace("_", "-"), type=kind,
                             choices=choices)
        sub.add_argument("--config", help="JSON config file; flags "
                                          "override it")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code or 0
    try:
        config = _resolve_config(args)
        written = _written(args.command, config)
        _check_written(written, config, args.config)
        inputs, outputs = _COMMANDS[args.command][0](config)
        io.write_manifest(written[-1],
                          _manifest(args.command, config, inputs, outputs))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
