"""Command-line front end.

Every subcommand reads its settings from flags, optionally underlaid by
a JSON config file (flags win), writes its declared artifacts, and
drops a manifest next to the primary output recording the resolved
configuration, the seed, and SHA-256 digests of all inputs and outputs.
Manifests contain no timestamps and the math is deterministic for a
fixed seed, so identical invocations produce byte-identical artifacts
regardless of the worker-pool size.

Exit codes: 0 success, 1 usage error (unknown flags, bad values),
2 data error (missing or malformed files, inconsistent configuration).
"""

import argparse
import json
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
from .errors import DegenerateInputError
from .evaluation import neighborhood_graph, shadow_values, validation_report
from .feature_selection import select_features, select_features_stable
from .simulation import FarModel, gen_benchmark, gen_far, gen_sinus


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits with status 1 on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"usage error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _check_config_value(path, key, value, action):
    """Reject a config value its flag would not accept: the flag's type
    (``int`` takes no ``bool``, ``float`` also takes ``int``) and its
    choices."""
    kind = action.type or str
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ValueError(f"config file {path}: field {key!r} must be "
                         f"{kind.__name__}, got {value!r}")
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"config file {path}: field {key!r} must be one "
                         f"of {list(action.choices)}, got {value!r}")


def _resolve_config(args, defaults, required=()):
    """Merge defaults, the optional JSON config file, and flags.

    Flags beat the config file, which beats defaults. A config value of
    null leaves the default in place; any other value must be one its
    flag would accept. A config that is not a JSON object, unknown or
    ill-typed config keys, and missing required settings are data errors.
    """
    config = dict(defaults)
    path = getattr(args, "config", None)
    if path:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                loaded = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config file {path}: invalid JSON ({exc})")
        if not isinstance(loaded, dict):
            raise ValueError(f"config file {path}: top level must be a "
                             f"JSON object, got {type(loaded).__name__}")
        for key, value in loaded.items():
            if key not in config:
                raise ValueError(f"config file {path}: unknown field {key!r}")
            if value is None:
                continue
            if key in args.flags:
                _check_config_value(path, key, value, args.flags[key])
            config[key] = value
    for key in config:
        flag = getattr(args, key, None)
        if flag is not None:
            config[key] = flag
    for key in required:
        if config.get(key) is None:
            raise ValueError(f"missing required setting {key!r}")
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


def _finish(command, config, inputs, outputs):
    manifest_path = outputs[next(iter(outputs))] + ".manifest.json"
    io.write_manifest(manifest_path,
                      _manifest(command, config, inputs, outputs))
    return 0


def cmd_slice(args):
    config = _resolve_config(args, {"input": None, "output": None,
                                    "delta": None},
                             required=("input", "output", "delta"))
    signal = io.read_signal(config["input"])
    dataset = slice_series(signal, config["delta"])
    io.write_dataset(config["output"], dataset)
    print(f"sliced {dataset.n_curves} curves of length "
          f"{dataset.n_samples} (remainder {dataset.remainder})")
    return _finish("slice", config, {"signal": config["input"]},
                   {"dataset": config["output"]})


def cmd_features(args):
    config = _resolve_config(
        args,
        {"input": None, "output": None, "features": "logit-rc",
         "wavelet": "symmlet6", "resample_j": None},
        required=("input", "output"),
    )
    dataset = io.read_dataset(config["input"])
    if config["resample_j"] is not None:
        dataset = resample_dataset(dataset, config["resample_j"])
    features = feature_matrix(dataset, kind=config["features"],
                              wavelet=config["wavelet"])
    io.write_features(config["output"], features)
    print(f"wrote {features.n_curves} x {features.n_scales} "
          f"{features.kind} features")
    return _finish("features", config, {"dataset": config["input"]},
                   {"features": config["output"]})


def cmd_select(args):
    config = _resolve_config(
        args,
        {"input": None, "output": None, "k": 3, "kmax": None,
         "screen_quantile": 0.5, "penalty": 0.05, "restarts": 6, "seed": 0},
        required=("input", "output"),
    )
    features = io.read_features(config["input"])
    if config["kmax"] is not None:
        final, reports = select_features_stable(
            features, config["kmax"],
            screen_quantile=config["screen_quantile"],
            penalty=config["penalty"], restarts=config["restarts"],
            seed=config["seed"])
        io.write_selection_stable(config["output"], final, reports)
        print(f"selected features (mode over K=2..{config['kmax']}): "
              f"{list(final)}")
    else:
        report = select_features(
            features, config["k"],
            screen_quantile=config["screen_quantile"],
            penalty=config["penalty"], restarts=config["restarts"],
            seed=config["seed"])
        io.write_selection(config["output"], report)
        if report.no_structure:
            print("no structure: every feature was screened out")
        else:
            print(f"selected features: {list(report.selected)}")
    return _finish("select", config, {"features": config["input"]},
                   {"selection": config["output"]})


def cmd_choose_k(args):
    config = _resolve_config(
        args,
        {"input": None, "output": None, "kmax": 10, "restarts": 10,
         "seed": 0},
        required=("input", "output"),
    )
    features = io.read_features(config["input"])
    k_star, curve = choose_k_by_jump(features, config["kmax"],
                                     restarts=config["restarts"],
                                     seed=config["seed"])
    io.write_distortion(config["output"], curve)
    print(f"jump method selects K = {k_star}")
    return _finish("choose-k", config, {"features": config["input"]},
                   {"distortion": config["output"]})


#: Settings shared by ``dissim`` and ``cluster --pipeline spectrum``.
_SPECTRAL_DEFAULTS = {"omin": 1, "omax": 6, "voices": 8, "omega0": 6.0,
                      "normalization": "L1", "theta": 0.95, "threads": None}


#: The ``--measure`` choices, by the name the library knows them.
_MEASURE_NAMES = {m.lower(): m for m in MEASURES}


def _spectral_matrix(config, dataset):
    """The dissimilarity matrix the resolved spectral settings ask for."""
    return build_dissimilarity_matrix(
        dataset, measure=_MEASURE_NAMES[config["measure"] or "wer"],
        grid=make_scale_grid(config["omin"], config["omax"],
                             config["voices"]),
        omega0=config["omega0"], normalization=config["normalization"],
        theta=config["theta"], threads=config["threads"] or 1)


def cmd_dissim(args):
    config = _resolve_config(
        args,
        {"input": None, "output": None, "measure": "wer",
         **_SPECTRAL_DEFAULTS},
        required=("input", "output"),
    )
    matrix = _spectral_matrix(config, io.read_dataset(config["input"]))
    io.write_dissimilarity(config["output"], matrix)
    print(f"wrote {matrix.n} x {matrix.n} {matrix.measure} dissimilarities")
    return _finish("dissim", config, {"dataset": config["input"]},
                   {"dissimilarity": config["output"]})


def cmd_cluster(args):
    # The spectrum-only settings default to None here, so that the
    # features pipeline can tell a setting it would ignore from a default.
    spectral = ("measure", "dissim_input", *_SPECTRAL_DEFAULTS)
    config = _resolve_config(
        args,
        {"input": None, "output": None, "pipeline": "features", "k": None,
         "restarts": 20, "seed": 0, **dict.fromkeys(spectral)},
        required=("input", "output", "k"),
    )
    if config["pipeline"] == "features":
        for key in spectral:
            if config.pop(key) is not None:
                raise ValueError(f"field {key!r} applies only to "
                                 "pipeline='spectrum'")
        features = io.read_features(config["input"])
        part = kmeans(features, config["k"], restarts=config["restarts"],
                      seed=config["seed"])
        diffs = features.values - part.centers[part.labels]
        distances = np.sqrt((diffs ** 2).sum(axis=1))
        inputs = {"features": config["input"]}
    elif config["pipeline"] == "spectrum":
        for key, value in _SPECTRAL_DEFAULTS.items():
            if config[key] is None:
                config[key] = value
        if config["dissim_input"]:
            matrix = io.read_dissimilarity(config["dissim_input"])
            inputs = {"dissimilarity": config["dissim_input"]}
        else:
            matrix = _spectral_matrix(config,
                                      io.read_dataset(config["input"]))
            inputs = {"dataset": config["input"]}
        part = pam(matrix, config["k"], seed=config["seed"])
        distances = matrix.values[np.arange(matrix.n),
                                  part.medoids[part.labels]]
    else:
        raise ValueError("field 'pipeline' must be 'features' or 'spectrum'")
    io.write_partition(config["output"], part, distances)
    sizes = np.bincount(part.labels, minlength=part.k).tolist()
    print(f"{part.method} cost {part.cost:.6g}, cluster sizes {sizes}")
    return _finish("cluster", config, inputs,
                   {"partition": config["output"]})


def _partition_from_labels(values, labels):
    """The k-means partition a label vector induces on feature rows: the
    cluster means as centers, their within-cluster SSE as cost."""
    k = int(labels.max()) + 1
    centers = np.vstack([values[labels == j].mean(axis=0) for j in range(k)])
    cost = float(((values - centers[labels]) ** 2).sum())
    return Partition(labels=labels, k=k, cost=cost, centers=centers,
                     method="kmeans")


def cmd_diagnose(args):
    config = _resolve_config(
        args,
        {"input": None, "partition": None, "truth": None,
         "output_prefix": None},
        required=("input", "partition", "output_prefix"),
    )
    features = io.read_features(config["input"])
    labels, _ = io.read_partition(config["partition"])
    if labels.size != features.n_curves:
        raise ValueError("partition length does not match the feature rows")
    part = _partition_from_labels(features.values, labels)
    shadows = shadow_values(features.values, part)
    graph = neighborhood_graph(features.values, part)
    prefix = config["output_prefix"]
    shadow_path = prefix + ".shadows.csv"
    with open(shadow_path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("observation,shadow\n")
        for i, s in enumerate(shadows):
            handle.write(f"{i},{repr(float(s))}\n")
    dot_path, csv_path = prefix + ".graph.dot", prefix + ".graph.csv"
    io.write_graph_dot(dot_path, graph)
    io.write_graph_csv(csv_path, graph, labels)
    inputs = {"features": config["input"],
              "partition": config["partition"]}
    outputs = {"shadows": shadow_path, "graph_dot": dot_path,
               "graph_csv": csv_path}
    if config["truth"]:
        truth = io.read_labels(config["truth"])
        report = validation_report(labels, truth)
        validation_path = prefix + ".validation.json"
        io.write_validation(validation_path, report)
        inputs["truth"] = config["truth"]
        outputs["validation"] = validation_path
        print(f"misclassified {report.misclassified} "
              f"(rate {report.rate:.4f}), ARI {report.adjusted_rand:.4f}")
    else:
        print(f"mean shadow {float(np.mean(shadows)):.4f} over "
              f"{labels.size} observations")
    return _finish("diagnose", config, inputs, outputs)


def _run_simulation(command, args):
    config = _resolve_config(
        args,
        {"output": None, "labels_output": None, "model": "benchmark",
         "n": 25, "length": 1024, "sigma": 1.0, "rho": 0.8, "seed": 0},
        required=("output",),
    )
    model = "benchmark" if command == "benchmark" else config["model"]
    if model == "benchmark":
        dataset, labels = gen_benchmark(
            seed=config["seed"], n_per_cluster=config["n"],
            length=config["length"], rho=config["rho"],
            sigma=config["sigma"])
    elif model == "sinus":
        dataset, labels = gen_sinus(config["n"], length=config["length"],
                                    sigma=config["sigma"],
                                    seed=config["seed"])
    elif model in ("far-diagonal", "far-full"):
        far = FarModel(kernel=model.split("-", 1)[1], rho=config["rho"],
                       m=config["length"], sigma=config["sigma"])
        dataset, labels = gen_far(config["n"], length=config["length"],
                                  model=far, seed=config["seed"])
    else:
        raise ValueError("field 'model' must be benchmark, sinus, "
                         "far-diagonal or far-full")
    config["model"] = model
    io.write_dataset(config["output"], dataset)
    outputs = {"dataset": config["output"]}
    if config["labels_output"]:
        io.write_labels(config["labels_output"], labels)
        outputs["labels"] = config["labels_output"]
    print(f"generated {dataset.n_curves} curves of length "
          f"{dataset.n_samples} ({model})")
    return _finish(command, config, {}, outputs)


def cmd_simulate(args):
    return _run_simulation("simulate", args)


def cmd_benchmark(args):
    return _run_simulation("benchmark", args)


def _add_common(sub):
    sub.add_argument("--config", help="JSON config file; flags override it")
    sub.add_argument("--seed", type=int)


def build_parser():
    parser = _Parser(prog="waveclust",
                     description="Wavelet-based clustering of sampled "
                                 "functional time series")
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("slice",
                            help="cut a long signal into fixed-length curves")
    p.add_argument("--input")
    p.add_argument("--output")
    p.add_argument("--delta", type=int)
    p.add_argument("--config")
    p.set_defaults(func=cmd_slice)

    p = commands.add_parser("features", help="scale-energy features per curve")
    p.add_argument("--input")
    p.add_argument("--output")
    p.add_argument("--features", choices=["ac", "rc", "logit-rc"])
    p.add_argument("--wavelet", choices=["symmlet6", "haar"])
    p.add_argument("--resample-j", dest="resample_j", type=int)
    p.add_argument("--config")
    p.set_defaults(func=cmd_features)

    p = commands.add_parser("select", help="screen and pick feature subsets")
    p.add_argument("--input")
    p.add_argument("--output")
    p.add_argument("--k", type=int)
    p.add_argument("--kmax", type=int)
    p.add_argument("--screen-quantile", dest="screen_quantile", type=float)
    p.add_argument("--penalty", type=float)
    p.add_argument("--restarts", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_select)

    p = commands.add_parser("choose-k", help="distortion-jump cluster count")
    p.add_argument("--input")
    p.add_argument("--output")
    p.add_argument("--kmax", type=int)
    p.add_argument("--restarts", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_choose_k)

    def add_spectral_flags(sub):
        sub.add_argument("--measure", choices=list(_MEASURE_NAMES))
        sub.add_argument("--omin", type=int)
        sub.add_argument("--omax", type=int)
        sub.add_argument("--voices", type=int)
        sub.add_argument("--omega0", type=float)
        sub.add_argument("--normalization", choices=["L1", "L2"])
        sub.add_argument("--theta", type=float)
        sub.add_argument("--threads", type=int)

    p = commands.add_parser("cluster", help="k-means on features or PAM on "
                            "spectral dissimilarities")
    p.add_argument("--input")
    p.add_argument("--output")
    p.add_argument("--pipeline", choices=["features", "spectrum"])
    p.add_argument("--k", type=int)
    p.add_argument("--restarts", type=int)
    p.add_argument("--dissim-input", dest="dissim_input")
    add_spectral_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_cluster)

    p = commands.add_parser("dissim", help="all-pairs dissimilarity matrix")
    p.add_argument("--input")
    p.add_argument("--output")
    add_spectral_flags(p)
    p.add_argument("--config")
    p.set_defaults(func=cmd_dissim)

    p = commands.add_parser("diagnose", help="shadow values, neighborhood "
                            "graph, optional validation")
    p.add_argument("--input")
    p.add_argument("--partition")
    p.add_argument("--truth")
    p.add_argument("--output-prefix", dest="output_prefix")
    p.add_argument("--config")
    p.set_defaults(func=cmd_diagnose)

    for name, fn, help_text in (
        ("simulate", cmd_simulate, "generate model curves"),
        ("benchmark", cmd_benchmark, "generate the 3-cluster benchmark"),
    ):
        p = commands.add_parser(name, help=help_text)
        p.add_argument("--output")
        p.add_argument("--labels-output", dest="labels_output")
        if name == "simulate":
            p.add_argument("--model", choices=["benchmark", "sinus",
                                               "far-diagonal", "far-full"])
        p.add_argument("--n", type=int)
        p.add_argument("--length", type=int)
        p.add_argument("--sigma", type=float)
        p.add_argument("--rho", type=float)
        _add_common(p)
        p.set_defaults(func=fn)
    for sub in commands.choices.values():
        sub.set_defaults(flags={action.dest: action
                                for action in sub._actions})
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code or 0
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError, DegenerateInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
