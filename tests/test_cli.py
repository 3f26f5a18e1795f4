import inspect
import json
import os
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from test_imports import run_fresh
import waveclust as wc
from waveclust import io
from waveclust.cli import REQUIRED, _COMMANDS, _partition_from_labels, main
from waveclust.dwt import canonical_kind


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def bench(tmp_path):
    """A small simulated dataset with its labels, via the CLI itself."""
    data = tmp_path / "bench.csv"
    labels = tmp_path / "labels.csv"
    code = run("simulate", "--model", "benchmark", "--seed", 5, "--n", 5,
               "--length", 128, "--output", data, "--labels-output", labels)
    assert code == 0
    return data, labels


def test_slice_command(tmp_path):
    signal = tmp_path / "signal.csv"
    signal.write_text("\n".join(str(float(v)) for v in range(100)) + "\n")
    out = tmp_path / "curves.csv"
    assert run("slice", "--input", signal, "--delta", 10,
               "--output", out) == 0
    assert io.read_dataset(out).curves.shape == (10, 10)


def test_features_365x64_gives_365x6(tmp_path):
    data = tmp_path / "days.csv"
    rng = np.random.default_rng(0)
    io.write_dataset(data, wc.FunctionalDataset(rng.normal(size=(365, 64))))
    out = tmp_path / "features.csv"
    assert run("features", "--input", data, "--features", "logit-rc",
               "--output", out) == 0
    fm = io.read_features(out)
    assert fm.values.shape == (365, 6)


def test_features_resamples_non_dyadic(tmp_path):
    data = tmp_path / "days.csv"
    io.write_dataset(data, wc.FunctionalDataset(
        np.random.default_rng(1).normal(size=(10, 48))))
    out = tmp_path / "features.csv"
    assert run("features", "--input", data, "--resample-j", 6,
               "--output", out) == 0
    assert io.read_features(out).values.shape == (10, 6)


def test_select_and_choose_k_and_cluster(bench, tmp_path):
    data, _ = bench
    feats = tmp_path / "features.csv"
    assert run("features", "--input", data, "--output", feats) == 0

    selection = tmp_path / "selection.json"
    assert run("select", "--input", feats, "--k", 3,
               "--output", selection) == 0
    payload = json.loads(selection.read_text())
    assert set(payload["selected"]) <= set(range(7))

    distortion = tmp_path / "distortion.csv"
    assert run("choose-k", "--input", feats, "--kmax", 6, "--restarts", 5,
               "--seed", 1, "--output", distortion) == 0
    assert distortion.read_text().startswith("# jump_k=")

    partition = tmp_path / "partition.csv"
    assert run("cluster", "--pipeline", "features", "--input", feats,
               "--k", 3, "--restarts", 10, "--seed", 2,
               "--output", partition) == 0
    labels, dists = io.read_partition(partition)
    assert len(labels) == 15
    assert (dists >= 0).all()


def test_select_stability_mode(bench, tmp_path):
    data, _ = bench
    feats = tmp_path / "features.csv"
    run("features", "--input", data, "--output", feats)
    selection = tmp_path / "selection.json"
    assert run("select", "--input", feats, "--kmax", 4,
               "--output", selection) == 0
    payload = json.loads(selection.read_text())
    assert "final" in payload
    assert sorted(payload["per_k"]) == ["2", "3", "4"]


def test_spectrum_pipeline_k_nonempty_clusters(bench, tmp_path):
    data, _ = bench
    partition = tmp_path / "partition.csv"
    assert run("cluster", "--pipeline", "spectrum", "--measure", "wer",
               "--input", data, "--k", 3, "--omin", 1, "--omax", 4,
               "--voices", 4, "--output", partition) == 0
    labels, _ = io.read_partition(partition)
    assert_array_equal(np.unique(labels), [0, 1, 2])


def test_dissim_reuse_and_thread_invariance(bench, tmp_path):
    data, _ = bench
    d1 = tmp_path / "d1.csv"
    d8 = tmp_path / "d8.csv"
    for out, threads in ((d1, 1), (d8, 8)):
        assert run("dissim", "--input", data, "--measure", "wer",
                   "--omin", 1, "--omax", 4, "--voices", 4,
                   "--threads", threads, "--output", out) == 0
    assert d1.read_bytes() == d8.read_bytes()

    partition = tmp_path / "partition.csv"
    assert run("cluster", "--pipeline", "spectrum", "--input", data,
               "--dissim-input", d1, "--k", 3,
               "--output", partition) == 0
    labels, _ = io.read_partition(partition)
    assert len(np.unique(labels)) == 3


#: Nine two-sample curves; the last is a copy of the first. Swapping
#: one copy for the other moves the total by one rounding unit, which a
#: swap priced by its cost change saw as a gain both ways, forever.
DUPLICATED_CURVE = [(-133.7, 268.8), (2072.1, -377.5), (-373.9, 1688.5),
                    (-221.6, -882.3), (-122.2, 862.9), (-96.8, -871.8),
                    (10.5, -283.7), (658.6, 748.0), (-133.7, 268.8)]


@pytest.mark.parametrize("matrix", ["computed", "read"])
def test_pam_on_a_duplicated_curve_ends(tmp_path, matrix):
    curves = tmp_path / "curves.csv"
    curves.write_text("".join(f"{a!r},{b!r}\n" for a, b in DUPLICATED_CURVE))
    partition = tmp_path / "partition.csv"
    argv = ["cluster", "--pipeline", "spectrum", "--input", str(curves),
            "--k", "2", "--output", str(partition)]
    if matrix == "read":
        dissim = tmp_path / "dissim.csv"
        assert run("dissim", "--measure", "euclid-raw", "--input", curves,
                   "--output", dissim) == 0
        argv += ["--dissim-input", str(dissim)]
    else:
        argv += ["--measure", "euclid-raw"]
    # In a fresh process, so a SWAP that never ends fails the test.
    run_fresh(f"from waveclust.cli import main\n"
              f"raise SystemExit(main({argv!r}))", timeout=60)
    labels, _ = io.read_partition(partition)
    assert labels[0] == labels[8]
    assert np.bincount(labels).tolist() == [8, 1]


KMEANS_RUN = """
import hashlib, os
os.chdir({workdir!r})
{pin}
from waveclust.cli import main
for argv in (
        ["benchmark", "--seed", "1", "--output", "b.csv"],
        ["features", "--input", "b.csv", "--output", "f.csv"],
        ["select", "--input", "f.csv", "--kmax", "20", "--output", "s.json"],
        ["choose-k", "--input", "f.csv", "--kmax", "10", "--output", "d.csv"],
        ["cluster", "--input", "f.csv", "--k", "3", "--output", "p.csv"],
        ["cluster", "--input", "b.csv", "--k", "3", "--output", "r.csv"]):
    assert main(argv) == 0, argv
digest = hashlib.sha256()
for name in sorted(os.listdir()):
    with open(name, "rb") as handle:
        digest.update(name.encode() + b"\\0" + handle.read())
print(digest.hexdigest())
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="needs CPU affinity")
def test_kmeans_commands_give_one_set_of_bytes_on_any_cpu_count(tmp_path):
    """The k-means center update is a BLAS product, and seed 1's search
    (63 subsets x 19 K) forks one child per other usable CPU. Neither the
    BLAS thread count nor the CPUs a run may use change a byte of any
    artifact or manifest of the k-means commands, the features `cluster`
    on the 75 x 1024 raw curves included. BLAS reads its thread count
    when it loads, so each run is a fresh interpreter."""
    def blas(threads):
        return dict(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                    MKL_NUM_THREADS=threads)

    cpu = min(os.sched_getaffinity(0))
    cases = {"blas-1": (blas("1"), ""), "blas-2": (blas("2"), ""),
             "one-cpu": ({}, f"os.sched_setaffinity(0, {{{cpu}}})")}
    digests = set()
    for case, (env, pin) in cases.items():
        workdir = tmp_path / case
        workdir.mkdir()
        code = KMEANS_RUN.format(workdir=str(workdir), pin=pin)
        digests.add(run_fresh(code, **env).splitlines()[-1])
    assert len(digests) == 1, digests


def test_a_penalty_that_overflows_every_score_selects_one_feature(tmp_path):
    # At 1e308 every SSE * (1 + penalty * size) is inf. The selection is
    # then the best single feature, as at 1e300, whose scores are finite.
    data, features = tmp_path / "bench.csv", tmp_path / "features.csv"
    assert run("benchmark", "--seed", 1, "--output", data) == 0
    assert run("features", "--input", data, "--output", features) == 0
    reports = {}
    for penalty in ("1e300", "1e308"):
        out = tmp_path / f"selection-{penalty}.json"
        assert run("select", "--input", features, "--k", 3, "--penalty",
                   penalty, "--output", out) == 0
        reports[penalty] = json.loads(out.read_text())
    report = reports["1e308"]
    assert report["screened_in"] == [1, 2, 6, 7, 8, 9]
    assert report["selected"] == reports["1e300"]["selected"] == [1]
    assert report["selected"] == report["best_by_size"]["1"]["subset"]
    assert report["selected_sse"] == report["best_by_size"]["1"]["sse"]
    assert report["no_structure"] is False


@pytest.mark.parametrize("command, flag, value", [
    ("features", "wavelet", "haar"),
    ("select", "screen_quantile", 0.3),
    ("select", "penalty", 0.2),
    ("dissim", "omega0", 5.0),
    ("dissim", "normalization", "L2"),
    ("benchmark", "sigma", 0.5),
    ("benchmark", "rho", 0.5),
], ids=str)
def test_flags_reach_their_library_calls(tmp_path, command, flag, value):
    """The artifact a flag gives equals the one the library call with that
    value writes, and differs from the one with the default value."""
    curves, _ = wc.gen_benchmark(seed=2, n_per_cluster=4, length=64)
    data, feats = tmp_path / "curves.csv", tmp_path / "features.csv"
    io.write_dataset(data, curves)
    io.write_features(feats, wc.feature_matrix(curves))
    argv = {"features": ("--input", data),
            "select": ("--input", feats, "--k", 2),
            "dissim": ("--input", data),
            "benchmark": ("--n", 2, "--length", 64)}[command]
    out = tmp_path / "out"
    assert run(command, *argv, "--" + flag.replace("_", "-"), value,
               "--output", out) == 0

    def library(path, **setting):
        if command == "features":
            io.write_features(path, wc.feature_matrix(curves, **setting))
        elif command == "select":
            io.write_selection(path, wc.select_features(
                io.read_features(feats), 2, **setting))
        elif command == "dissim":
            io.write_dissimilarity(path, wc.build_dissimilarity_matrix(
                curves, **setting))
        else:
            io.write_dataset(path, wc.gen_benchmark(
                n_per_cluster=2, length=64, **setting)[0])
        return path.read_bytes()

    assert out.read_bytes() == library(tmp_path / "ref", **{flag: value})
    assert out.read_bytes() != library(tmp_path / "default")


def test_a_negative_seed_exits_two(tmp_path, capsys):
    out = tmp_path / "b.csv"
    assert run("benchmark", "--seed", -1, "--n", 2, "--length", 64,
               "--output", out) == 2
    err = capsys.readouterr().err
    assert err == "error: seed must be nonnegative, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("threads", [0, -2])
def test_spectral_commands_reject_threads_below_one(bench, tmp_path, capsys,
                                                    threads):
    data, _ = bench
    out = tmp_path / "out.csv"
    for command in (("dissim", "--measure", "mca"),
                    ("cluster", "--pipeline", "spectrum", "--k", 2)):
        assert run(*command, "--input", data, "--omin", 1, "--omax", 4,
                   "--voices", 4, "--threads", threads,
                   "--output", out) == 2
        err = capsys.readouterr().err
        assert err == f"error: threads must be at least 1, got {threads}\n"
        assert not out.exists()


def test_diagnose_artifacts(bench, tmp_path):
    data, truth = bench
    feats = tmp_path / "features.csv"
    partition = tmp_path / "partition.csv"
    run("features", "--input", data, "--output", feats)
    run("cluster", "--pipeline", "features", "--input", feats, "--k", 3,
        "--output", partition)
    prefix = tmp_path / "diag"
    assert run("diagnose", "--input", feats, "--partition", partition,
               "--truth", truth, "--output-prefix", prefix) == 0
    assert (tmp_path / "diag.shadows.csv").exists()
    assert (tmp_path / "diag.graph.dot").exists()
    assert (tmp_path / "diag.graph.csv").exists()
    validation = json.loads((tmp_path / "diag.validation.json").read_text())
    assert 0 <= validation["rate"] <= 1


def test_diagnose_partition_reports_its_within_cluster_sse():
    values = np.array([[0.0, 1.0], [2.0, 1.0], [10.0, 0.0], [14.0, 2.0]])
    part = _partition_from_labels(values, np.array([0, 0, 1, 1]))
    assert_array_equal(part.centers, [[1.0, 1.0], [12.0, 1.0]])
    assert part.cost == 1.0 + 1.0 + 5.0 + 5.0
    rng = np.random.default_rng(4)
    rows = np.vstack([rng.normal(c, 0.3, size=(20, 3)) for c in (0, 4, 8)])
    fitted = wc.kmeans(rows, 3, restarts=4, seed=4)
    again = _partition_from_labels(rows, fitted.labels)
    assert_allclose(again.cost, fitted.cost, rtol=1e-12)


@pytest.mark.parametrize("labels, message", [
    ([0, 0, 0, 0, 2, 2, 2, 2], "every cluster must be non-empty"),
    ([0, 0, 0, 0, -1, -1, 1, 1],
     "labels must be nonnegative integers, got -1"),
])
def test_diagnose_rejects_a_bad_partition_with_one_line(tmp_path, capsys,
                                                        recwarn, labels,
                                                        message):
    # An empty cluster's mean used to be taken first, so two NumPy
    # warnings came ahead of the error line.
    feats = tmp_path / "features.csv"
    values = np.random.default_rng(6).normal(size=(8, 3))
    io.write_features(feats, wc.FeatureMatrix(values=values, kind="logitRC",
                                              wavelet="symmlet6"))
    partition = tmp_path / "partition.csv"
    partition.write_text("observation,label,distance\n" + "".join(
        f"{i},{label},0.0\n" for i, label in enumerate(labels)))
    assert run("diagnose", "--input", feats, "--partition", partition,
               "--output-prefix", tmp_path / "d") == 2
    # The reader applies the label rule, and its errors name the file.
    where = f"{partition}: " if message.startswith("labels") else ""
    assert capsys.readouterr().err == f"error: {where}{message}\n"
    assert [str(w.message) for w in recwarn] == []
    assert not (tmp_path / "d.shadows.csv").exists()


def test_manifest_written_with_digests(bench, tmp_path):
    data, _ = bench
    with open(str(data) + ".manifest.json") as handle:
        manifest = json.load(handle)
    assert manifest["command"] == "simulate"
    assert manifest["seed"] == 5
    assert manifest["outputs"]["dataset"] == io.file_digest(data)
    assert manifest["versions"]["waveclust"] == wc.__version__


def test_simulate_and_benchmark_same_seed_same_digests(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run("simulate", "--seed", 7, "--n", 4, "--length", 128,
               "--output", a) == 0
    assert run("benchmark", "--seed", 7, "--n", 4, "--length", 128,
               "--output", b) == 0
    with open(str(a) + ".manifest.json") as handle:
        ma = json.load(handle)
    with open(str(b) + ".manifest.json") as handle:
        mb = json.load(handle)
    assert ma["outputs"] == mb["outputs"]
    assert a.read_bytes() == b.read_bytes()


def test_rerun_is_bitwise_identical(bench, tmp_path):
    data, _ = bench
    feats1 = tmp_path / "f1.csv"
    feats2 = tmp_path / "f2.csv"
    run("features", "--input", data, "--output", feats1)
    run("features", "--input", data, "--output", feats2)
    assert feats1.read_bytes() == feats2.read_bytes()


def test_config_file_with_flag_override(bench, tmp_path):
    data, _ = bench
    feats = tmp_path / "features.csv"
    run("features", "--input", data, "--output", feats)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"k": 2, "restarts": 4}))
    partition = tmp_path / "partition.csv"
    assert run("cluster", "--pipeline", "features", "--input", feats,
               "--config", config, "--k", 3, "--seed", 0,
               "--output", partition) == 0
    labels, _ = io.read_partition(partition)
    assert len(np.unique(labels)) == 3  # the flag wins over the file


def test_usage_errors_exit_one():
    assert run("bogus-command") == 1
    assert run("features", "--no-such-flag") == 1


def test_data_errors_exit_two(tmp_path):
    out = tmp_path / "out.csv"
    assert run("features", "--input", tmp_path / "missing.csv",
               "--output", out) == 2

    feats = tmp_path / "features.csv"
    feats.write_text("# kind=logitRC wavelet=symmlet6\n0.1,0.2\n0.3,0.4\n")
    assert run("cluster", "--pipeline", "features", "--input", feats,
               "--measure", "wer", "--k", 2, "--output", out) == 2

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"unknown_field": 1}))
    assert run("cluster", "--pipeline", "features", "--input", feats,
               "--config", bad, "--k", 2, "--output", out) == 2


def test_a_program_error_is_not_a_data_error(tmp_path, monkeypatch):
    """No data path raises ``KeyError``; one is a bug, not exit 2."""
    def broken(path):
        raise KeyError("x")

    monkeypatch.setattr(io, "read_features", broken)
    with pytest.raises(KeyError):
        run("choose-k", "--input", tmp_path / "features.csv",
            "--output", tmp_path / "distortion.csv")


def test_constant_curves_exit_two_with_one_line(tmp_path, capsys):
    curves = tmp_path / "constant.csv"
    curves.write_text("\n".join([",".join(["1.0"] * 64)] * 6) + "\n")
    out = tmp_path / "features.csv"
    assert run("features", "--input", curves, "--output", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: curve 0 is constant")
    assert err.count("\n") == 1
    assert not out.exists()


def test_features_pipeline_rejects_threads(tmp_path, capsys):
    feats = tmp_path / "features.csv"
    feats.write_text("# kind=logitRC wavelet=symmlet6\n0.1,0.2\n0.3,0.4\n")
    out = tmp_path / "partition.csv"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"threads": 2}))
    for extra in (("--threads", 1), ("--config", config)):
        assert run("cluster", "--pipeline", "features", "--input", feats,
                   "--k", 2, "--output", out, *extra) == 2
        err = capsys.readouterr().err
        assert err == ("error: field 'threads' applies only to "
                       "pipeline='spectrum'\n")
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("omin", 3), ("omax", 5), ("voices", 4), ("omega0", 5.0),
    ("normalization", "L2"), ("theta", 0.5),
    ("dissim_input", "nonexistent.csv"),
])
def test_features_pipeline_rejects_spectral_settings(tmp_path, capsys, key,
                                                     value):
    feats = tmp_path / "features.csv"
    feats.write_text("# kind=logitRC wavelet=symmlet6\n0.1,0.2\n0.3,0.4\n")
    out = tmp_path / "partition.csv"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value}))
    flag = "--" + key.replace("_", "-")
    for extra in ((flag, value), ("--config", config)):
        assert run("cluster", "--pipeline", "features", "--input", feats,
                   "--k", 2, "--output", out, *extra) == 2
        err = capsys.readouterr().err
        assert err == (f"error: field {key!r} applies only to "
                       "pipeline='spectrum'\n")
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("measure", "mca"), ("omin", 9), ("omax", 5), ("voices", 4),
    ("omega0", 5.0), ("normalization", "L2"), ("theta", 0.5), ("threads", 2),
])
def test_dissim_input_rejects_spectral_settings(tmp_path, capsys, key,
                                                value):
    curves = tmp_path / "curves.csv"
    curves.write_text("0.0,1.0\n1.0,0.0\n2.0,2.0\n")
    assert run("dissim", "--measure", "euclid-raw", "--input", curves,
               "--output", tmp_path / "dissim.csv") == 0
    out = tmp_path / "partition.csv"
    command = ("cluster", "--pipeline", "spectrum", "--input", curves,
               "--dissim-input", tmp_path / "dissim.csv", "--k", 2,
               "--output", out)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value}))
    flag = "--" + key.replace("_", "-")
    for extra in ((flag, value), ("--config", config)):
        assert run(*command, *extra) == 2
        err = capsys.readouterr().err
        assert err == (f"error: field {key!r} does not apply with "
                       "dissim_input: no matrix is computed\n")
        assert not out.exists()
    config.write_text(json.dumps({key: None}))
    assert run(*command, "--config", config) == 0


@pytest.mark.parametrize("command, loaded, outcome", [
    # null leaves the default in place: the run equals one without the key.
    (["dissim"], {"omin": None}, []),
    (["dissim"], {"theta": 1, "measure": "mca"},
     ["--theta", 1.0, "--measure", "mca"]),
    (["dissim"], [1, 2], "top level must be a JSON object, got list"),
    (["dissim"], {"measure": "WER"}, "field 'measure' must be one of "
     "['wer', 'mca', 'euclid-features', 'euclid-raw'], got 'WER'"),
    (["dissim"], {"omega0": "6"}, "field 'omega0' must be float, got '6'"),
    (["cluster", "--pipeline", "spectrum"], {"k": "x"},
     "field 'k' must be int, got 'x'"),
    (["cluster", "--pipeline", "spectrum"], {"k": True},
     "field 'k' must be int, got True"),
    (["cluster", "--pipeline", "spectrum"], {"k": 2.0},
     "field 'k' must be int, got 2.0"),
])
def test_config_values_are_checked_like_flags(tmp_path, capsys, command,
                                              loaded, outcome):
    curves = tmp_path / "curves.csv"
    io.write_dataset(curves, wc.FunctionalDataset(
        np.random.default_rng(4).normal(size=(6, 32))))
    config = tmp_path / "config.json"
    config.write_text(json.dumps(loaded))
    out = tmp_path / "out.csv"
    code = run(*command, "--input", curves, "--output", out,
               "--config", config)
    err = capsys.readouterr().err
    if isinstance(outcome, str):
        assert code == 2
        assert err == f"error: config file {config}: {outcome}\n"
        assert not out.exists()
    else:
        assert code == 0 and err == ""
        ref = tmp_path / "ref.csv"
        assert run(*command, "--input", curves, "--output", ref,
                   *outcome) == 0
        assert out.read_bytes() == ref.read_bytes()


def test_choose_k_names_k_max_above_row_count(tmp_path, capsys):
    feats = tmp_path / "features.csv"
    rows = np.random.default_rng(3).normal(size=(6, 2))
    feats.write_text("".join(f"{a},{b}\n" for a, b in rows.tolist()))
    assert run("choose-k", "--input", feats, "--kmax", 9,
               "--output", tmp_path / "scan.csv") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: k_max must be in 2..6")
    assert err.count("\n") == 1


@pytest.mark.parametrize("structured", [True, False],
                         ids=["structured", "screened-out"])
@pytest.mark.parametrize("command", [
    ("select", "--k", 2, "--output", "selection.json"),
    ("select", "--kmax", 3, "--output", "selection.json"),
    ("choose-k", "--kmax", 3, "--output", "scan.csv"),
    ("cluster", "--pipeline", "features", "--k", 2, "--output", "part.csv"),
], ids=["select-k", "select-kmax", "choose-k", "cluster"])
def test_zero_restarts_exit_two_and_write_nothing(tmp_path, capsys,
                                                  monkeypatch, command,
                                                  structured):
    monkeypatch.chdir(tmp_path)
    _write_blob_features(structured)
    before = sorted(p.name for p in tmp_path.iterdir())
    capsys.readouterr()
    assert run(command[0], "--input", "features.csv", *command[1:],
               "--restarts", 0) == 2
    assert capsys.readouterr().err == "error: restarts must be at least 1\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def _write_blob_features(structured):
    """features.csv in the working directory. Two tight blobs screen
    every column in; noise screens them all out, so a search would run
    no k-means."""
    rows = np.random.default_rng(0).normal(size=(40, 3))
    rows *= 0.1 if structured else 1.0
    if structured:
        rows[20:] += 5.0
    Path("features.csv").write_text(
        "# kind=logitRC wavelet=symmlet6\n"
        + "".join(",".join(map(repr, row)) + "\n" for row in rows.tolist()))
    screened = wc.select_features(rows, 2).screened_in
    assert len(screened) == (3 if structured else 0)


@pytest.mark.parametrize("structured", [True, False],
                         ids=["structured", "screened-out"])
@pytest.mark.parametrize("penalty", ["nan", "inf", "-5"])
@pytest.mark.parametrize("search", [("--k", 3), ("--kmax", 3)],
                         ids=["k", "kmax"])
def test_a_bad_penalty_exits_two_and_writes_nothing(tmp_path, capsys,
                                                    monkeypatch, search,
                                                    penalty, structured):
    monkeypatch.chdir(tmp_path)
    _write_blob_features(structured)
    before = sorted(p.name for p in tmp_path.iterdir())
    capsys.readouterr()
    assert run("select", "--input", "features.csv", *search, "--penalty",
               penalty, "--output", "selection.json") == 2
    assert capsys.readouterr().err == (
        f"error: penalty must be finite and nonnegative, got "
        f"{float(penalty)!r}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == before


@pytest.mark.parametrize("omega0, message", [
    ("0", "omega0 must be finite and positive, got 0.0"),
    ("-6", "omega0 must be finite and positive, got -6.0"),
    ("1e308", "omega0 = 1e+308 overflows the Morlet kernel on 64 samples"),
])
@pytest.mark.parametrize("command", [
    ("dissim", "--measure", "wer"),
    ("dissim", "--measure", "mca"),
    ("cluster", "--pipeline", "spectrum", "--k", 2),
], ids=["dissim-wer", "dissim-mca", "cluster"])
def test_an_omega0_outside_its_domain_exits_two_and_writes_nothing(
        tmp_path, capsys, monkeypatch, command, omega0, message):
    monkeypatch.chdir(tmp_path)
    io.write_dataset("curves.csv", wc.FunctionalDataset(
        np.random.default_rng(2).normal(size=(4, 64))))
    before = sorted(p.name for p in tmp_path.iterdir())
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(*command, "--input", "curves.csv", "--omin", 1, "--omax",
                   4, "--voices", 4, "--omega0", omega0, "--output",
                   "out.csv") == 2
    assert caught == []
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_a_resample_j_above_its_bound_exits_two_and_writes_nothing(
        tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    io.write_dataset("days.csv", wc.FunctionalDataset(
        np.random.default_rng(1).normal(size=(10, 48))))
    before = sorted(p.name for p in tmp_path.iterdir())
    capsys.readouterr()
    for j in (11, 40):
        assert run("features", "--input", "days.csv", "--resample-j", j,
                   "--output", "features.csv") == 2
        assert capsys.readouterr().err == (
            f"error: J must be at most 10 for curves of 48 samples, "
            f"got {j}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == before


@pytest.mark.parametrize("bad", ["nan", "inf"])
@pytest.mark.parametrize("command", [
    ("select", "--kmax", 3, "--output", "selection.json"),
    ("choose-k", "--kmax", 3, "--output", "scan.csv"),
    ("cluster", "--pipeline", "features", "--k", 2, "--output", "part.csv"),
    ("diagnose", "--partition", "partition.csv", "--output-prefix", "d"),
], ids=lambda command: command[0])
def test_non_finite_features_exit_two_with_one_line(tmp_path, capsys,
                                                    monkeypatch, command,
                                                    bad):
    monkeypatch.chdir(tmp_path)
    rows = [",".join(map(repr, row)) for row in
            np.random.default_rng(8).normal(size=(8, 3)).tolist()]
    rows[1] = f"{bad},0.5,0.5"
    Path("features.csv").write_text("# kind=logitRC wavelet=symmlet6\n"
                                    + "\n".join(rows) + "\n")
    Path("partition.csv").write_text("observation,label,distance\n" + "".join(
        f"{i},{i % 2},0.0\n" for i in range(8)))
    assert run(command[0], "--input", "features.csv", *command[1:]) == 2
    assert capsys.readouterr().err == ("error: features.csv: feature values "
                                       "must be finite (found nan or inf)\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["features.csv",
                                                          "partition.csv"]


def test_non_finite_dissimilarity_exits_two_with_one_line(tmp_path, capsys):
    dissim = tmp_path / "dissim.csv"
    dissim.write_text("# measure=WER\n0.0,nan,1.0\nnan,0.0,2.0\n"
                      "1.0,2.0,0.0\n")
    out = tmp_path / "partition.csv"
    assert run("cluster", "--pipeline", "spectrum", "--input", dissim,
               "--dissim-input", dissim, "--k", 2, "--output", out) == 2
    assert capsys.readouterr().err == (f"error: {dissim}: dissimilarities "
                                       "must be finite (found nan or inf)\n")
    assert not out.exists()


def test_simulate_names_a_curve_count_below_one(tmp_path, capsys):
    out = tmp_path / "far.csv"
    assert run("simulate", "--model", "far-full", "--n", 0,
               "--output", out) == 2
    assert capsys.readouterr().err == ("error: n_curves must be at least 1, "
                                       "got 0\n")
    assert not out.exists()


@pytest.mark.parametrize("model", ["far-full", "sinus", "benchmark"])
@pytest.mark.parametrize("n", [0, -1])
def test_every_model_names_a_curve_count_below_one(tmp_path, capsys, model,
                                                   n):
    out = tmp_path / "curves.csv"
    assert run("simulate", "--model", model, "--n", n, "--length", 64,
               "--output", out) == 2
    assert capsys.readouterr().err == ("error: n_curves must be at least 1, "
                                       f"got {n}\n")
    assert not out.exists()


@pytest.mark.parametrize("model", ["far-diagonal", "sinus", "benchmark"])
@pytest.mark.parametrize("sigma", ["-1", "nan", "inf"])
def test_simulate_names_a_noise_scale_out_of_its_domain(tmp_path, capsys,
                                                        model, sigma):
    out = tmp_path / "curves.csv"
    assert run("simulate", "--model", model, "--sigma", sigma, "--length",
               64, "--output", out) == 2
    assert capsys.readouterr().err == (
        f"error: sigma must be finite and nonnegative, got {float(sigma)!r}\n")
    assert not out.exists()


def test_missing_required_field_exits_two(tmp_path):
    assert run("features", "--output", tmp_path / "out.csv") == 2


def test_benchmark_rejects_a_model_key(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": "sinus"}))
    out = tmp_path / "bench.csv"
    assert run("benchmark", "--n", 2, "--length", 64, "--output", out,
               "--config", config) == 2
    err = capsys.readouterr().err
    assert err == f"error: config file {config}: unknown field 'model'\n"
    assert not out.exists()


#: Every command's flags. Their spellings are the interface: scripts and
#: config files use them, so the table must not rename one.
_FLAGS = {
    "slice": "input output delta",
    "features": "input output features wavelet resample-j",
    "select": "input output k kmax screen-quantile penalty restarts seed",
    "choose-k": "input output kmax restarts seed",
    "cluster": "input output pipeline k restarts seed measure dissim-input "
               "omin omax voices omega0 normalization theta threads",
    "dissim": "input output measure omin omax voices omega0 normalization "
              "theta threads",
    "diagnose": "input partition truth output-prefix",
    "simulate": "output labels-output model n length sigma rho seed",
    "benchmark": "output labels-output n length sigma rho seed",
}


@pytest.mark.parametrize("command", sorted(_FLAGS))
def test_each_parser_has_its_table_settings_plus_config(command, capsys):
    assert run(command, "--help") == 0
    shown = set(re.findall(r"--[a-z0-9][a-z0-9-]*", capsys.readouterr().out))
    table = {"--" + key.replace("_", "-") for key in _COMMANDS[command][2]}
    expected = {"--" + flag for flag in _FLAGS[command].split()}
    assert table == expected
    assert shown == expected | {"--config", "--help"}


def _default(function, name):
    return inspect.signature(function).parameters[name].default


def test_table_defaults_mirror_the_library():
    defaults = {command: {key: default for key, (_, _, default)
                          in settings.items() if default is not REQUIRED}
                for command, (_, _, settings) in _COMMANDS.items()}
    features = defaults["features"]
    assert canonical_kind(features["features"]) == \
        canonical_kind(_default(wc.feature_matrix, "kind"))
    assert features["wavelet"] == _default(wc.feature_matrix, "wavelet")
    for key in ("screen_quantile", "penalty", "restarts", "seed"):
        assert defaults["select"][key] == _default(wc.select_features, key)
    for key in ("restarts", "seed"):
        assert defaults["choose-k"][key] == _default(wc.choose_k_by_jump, key)
        assert defaults["cluster"][key] == _default(wc.kmeans, key)
    grid = wc.ScaleGrid()
    dissim = defaults["dissim"]
    assert (dissim["omin"], dissim["omax"], dissim["voices"]) == \
        (grid.octave_min, grid.octave_max, grid.voices)
    for key in ("omega0", "normalization", "theta"):
        assert dissim[key] == _default(wc.build_dissimilarity_matrix, key)
    for command in ("simulate", "benchmark"):
        for key, name in (("n", "n_per_cluster"), ("length", "length"),
                          ("sigma", "sigma"), ("rho", "rho"),
                          ("seed", "seed")):
            assert defaults[command][key] == _default(wc.gen_benchmark, name)
    assert defaults["simulate"]["model"] == "benchmark"


_SPECTRAL_CONFIG = {"normalization": "L1", "omax": 6, "omega0": 6.0,
                    "omin": 1, "voices": 8}
_SIMULATION_CONFIG = {"labels_output": None, "length": 1024,
                      "model": "benchmark", "n": 25, "rho": 0.8, "seed": 0,
                      "sigma": 1.0}


#: Each command with only its required flags, and the manifest ``config``
#: it records. These are the defaults manifests held before the settings
#: table existed; keeping them keeps manifests byte-identical. The
#: exceptions are the spectrum ``cluster`` run, whose unset ``measure`` was
#: recorded as null and is now recorded as the ``"wer"`` it computes, and
#: the ``theta`` of the two WER runs, which only MCA reads and which is no
#: longer recorded.
_REQUIRED_ONLY = [
    (["slice", "--input", "signal.csv", "--output", "sliced.csv",
      "--delta", 32], "sliced.csv",
     {"delta": 32, "input": "signal.csv", "output": "sliced.csv"}),
    (["features", "--input", "curves.csv", "--output", "features.csv"],
     "features.csv",
     {"features": "logit-rc", "input": "curves.csv", "output": "features.csv",
      "resample_j": None, "wavelet": "symmlet6"}),
    (["select", "--input", "features.csv", "--output", "selection.json"],
     "selection.json",
     {"input": "features.csv", "k": 3, "kmax": None,
      "output": "selection.json", "penalty": 0.05, "restarts": 6,
      "screen_quantile": 0.5, "seed": 0}),
    (["choose-k", "--input", "features.csv", "--output", "distortion.csv"],
     "distortion.csv",
     {"input": "features.csv", "kmax": 10, "output": "distortion.csv",
      "restarts": 10, "seed": 0}),
    (["cluster", "--input", "features.csv", "--output", "partition.csv",
      "--k", 3], "partition.csv",
     {"input": "features.csv", "k": 3, "output": "partition.csv",
      "pipeline": "features", "restarts": 20, "seed": 0}),
    (["cluster", "--input", "curves.csv", "--output", "medoids.csv",
      "--k", 3, "--pipeline", "spectrum"], "medoids.csv",
     {"dissim_input": None, "input": "curves.csv", "k": 3, "measure": "wer",
      "output": "medoids.csv", "pipeline": "spectrum", **_SPECTRAL_CONFIG}),
    (["dissim", "--input", "curves.csv", "--output", "dissim.csv"],
     "dissim.csv",
     {"input": "curves.csv", "measure": "wer", "output": "dissim.csv",
      **_SPECTRAL_CONFIG}),
    (["diagnose", "--input", "features.csv", "--partition", "partition.csv",
      "--output-prefix", "diag"], "diag.shadows.csv",
     {"input": "features.csv", "output_prefix": "diag",
      "partition": "partition.csv", "truth": None}),
    (["simulate", "--output", "simulated.csv"], "simulated.csv",
     {"output": "simulated.csv", **_SIMULATION_CONFIG}),
    (["benchmark", "--output", "benchmark.csv"], "benchmark.csv",
     {"output": "benchmark.csv", **_SIMULATION_CONFIG}),
]


def test_required_only_runs_record_the_same_config(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    signal = np.random.default_rng(0).normal(size=256)
    (tmp_path / "signal.csv").write_text(
        "".join(f"{v!r}\n" for v in signal.tolist()))
    curves, _ = wc.gen_benchmark(seed=1, n_per_cluster=4, length=64)
    io.write_dataset("curves.csv", curves)
    for argv, output, expected in _REQUIRED_ONLY:
        assert run(*argv) == 0, argv
        manifest = json.loads((tmp_path / (output + ".manifest.json"))
                              .read_text())
        assert manifest["config"] == expected, argv


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    """Curves, their features and a matrix of them, in the working
    directory."""
    monkeypatch.chdir(tmp_path)
    curves, _ = wc.gen_benchmark(seed=1, n_per_cluster=4, length=64)
    io.write_dataset("curves.csv", curves)
    assert run("features", "--input", "curves.csv",
               "--output", "features.csv") == 0
    assert run("dissim", "--measure", "euclid-raw", "--input", "curves.csv",
               "--output", "dissim.csv") == 0
    return tmp_path


_SPECTRAL_KEYS = "measure omin omax voices omega0 normalization theta threads"
_CWT_KEYS = "omin omax voices omega0 normalization"

#: One run of each kind, less its output, and the table settings it
#: leaves unused.
_RUNS = {
    "cluster-features": (["cluster", "--input", "features.csv", "--k", 2],
                         "dissim_input " + _SPECTRAL_KEYS),
    "cluster-matrix": (["cluster", "--pipeline", "spectrum", "--input",
                        "curves.csv", "--k", 2, "--voices", 4],
                       "restarts seed theta"),
    "cluster-raw": (["cluster", "--pipeline", "spectrum", "--measure",
                     "euclid-raw", "--input", "curves.csv", "--k", 2],
                    "restarts seed theta " + _CWT_KEYS),
    "dissim-wer": (["dissim", "--input", "curves.csv"], "theta"),
    "dissim-mca": (["dissim", "--measure", "mca", "--input", "curves.csv",
                    "--theta", 0.9], ""),
    "dissim-features": (["dissim", "--measure", "euclid-features",
                         "--input", "curves.csv", "--omax", 4], "theta"),
    "dissim-raw": (["dissim", "--measure", "euclid-raw", "--input",
                    "curves.csv"], "theta " + _CWT_KEYS),
    "cluster-read": (["cluster", "--pipeline", "spectrum", "--dissim-input",
                      "dissim.csv", "--input", "curves.csv", "--k", 2],
                     "restarts seed " + _SPECTRAL_KEYS),
    "select-k": (["select", "--input", "features.csv", "--k", 2], ""),
    "select-kmax": (["select", "--input", "features.csv", "--kmax", 3], "k"),
    "simulate-sinus": (["simulate", "--model", "sinus", "--n", 4,
                        "--length", 64], "rho"),
    "simulate-benchmark": (["simulate", "--model", "benchmark", "--n", 2,
                            "--length", 64], ""),
}


@pytest.mark.parametrize("kind", sorted(_RUNS))
def test_manifest_records_exactly_the_settings_its_run_uses(inputs, kind):
    argv, unused = _RUNS[kind]
    assert run(*argv, "--output", "out") == 0
    manifest = json.loads((inputs / "out.manifest.json").read_text())
    table = set(_COMMANDS[argv[0]][2])
    assert set(manifest["config"]) == table - set(unused.split()) - {
        "threads"}


@pytest.mark.parametrize("argv, key, value, reason", [
    (_RUNS["select-kmax"][0], "k", 2,
     "does not apply with kmax: the search covers K = 2..kmax"),
    (_RUNS["simulate-sinus"][0], "rho", 0.3,
     "does not apply with model='sinus'"),
    # PAM draws nothing and restarts nothing.
    (_RUNS["cluster-matrix"][0], "seed", 5,
     "applies only to pipeline='features'"),
    (_RUNS["cluster-read"][0], "restarts", 4,
     "applies only to pipeline='features'"),
    # Only MCA reads theta; euclid-raw takes no transform.
    (_RUNS["dissim-wer"][0], "theta", 0.5, "applies only to measure='mca'"),
    (_RUNS["cluster-matrix"][0], "theta", 0.5,
     "applies only to measure='mca'"),
    (_RUNS["dissim-raw"][0], "omin", 2,
     "does not apply with measure='euclid-raw': no transform is taken"),
    (_RUNS["dissim-raw"][0], "normalization", "L2",
     "does not apply with measure='euclid-raw': no transform is taken"),
    (_RUNS["cluster-raw"][0], "omega0", 5.0,
     "does not apply with measure='euclid-raw': no transform is taken"),
], ids=["select-k-with-kmax", "simulate-rho-with-sinus",
        "spectrum-seed", "spectrum-restarts-with-dissim-input",
        "dissim-theta-with-wer", "spectrum-theta-with-wer",
        "dissim-omin-with-euclid-raw",
        "dissim-normalization-with-euclid-raw",
        "spectrum-omega0-with-euclid-raw"])
def test_a_given_unused_setting_exits_two(inputs, capsys, argv, key, value,
                                          reason):
    config = inputs / "config.json"
    config.write_text(json.dumps({key: value}))
    for extra in (("--" + key, value), ("--config", config)):
        assert run(*argv, "--output", "out", *extra) == 2
        assert capsys.readouterr().err == f"error: field {key!r} {reason}\n"
        assert not (inputs / "out").exists()
    config.write_text(json.dumps({key: None}))
    assert run(*argv, "--output", "out", "--config", config) == 0


def test_diagnose_rejects_bad_truth_labels(bench, tmp_path, capsys):
    data, truth = bench
    feats = tmp_path / "features.csv"
    partition = tmp_path / "partition.csv"
    run("features", "--input", data, "--output", feats)
    run("cluster", "--input", feats, "--k", 3, "--output", partition)
    labels = io.read_labels(truth)
    shifted = tmp_path / "shifted.csv"
    shifted.write_text("".join(f"{v - 1}\n" for v in labels))
    halves = tmp_path / "halves.csv"
    halves.write_text("".join(f"{v + 0.5}\n" for v in labels))
    capsys.readouterr()
    for bad, message in (
            (shifted, f"{shifted}: labels must be nonnegative integers, "
                      "got -1"),
            (halves, f"{halves}: labels must be integers, got 0.5")):
        assert run("diagnose", "--input", feats, "--partition", partition,
                   "--truth", bad, "--output-prefix", tmp_path / "d") == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "d.validation.json").exists()


@pytest.mark.parametrize("case", ["missing", "malformed", "short"])
def test_diagnose_checks_its_truth_before_writing(bench, tmp_path, capsys,
                                                  case):
    data, truth = bench
    feats = tmp_path / "features.csv"
    partition = tmp_path / "partition.csv"
    run("features", "--input", data, "--output", feats)
    run("cluster", "--input", feats, "--k", 3, "--output", partition)
    labels = truth.read_text().splitlines()
    bad = tmp_path / "truth.csv"
    if case == "malformed":
        bad.write_text("\n".join(labels[:2] + ["x"] + labels[3:]) + "\n")
    elif case == "short":
        bad.write_text("\n".join(labels[:-1]) + "\n")
    capsys.readouterr()
    assert run("diagnose", "--input", feats, "--partition", partition,
               "--truth", bad, "--output-prefix", tmp_path / "P") == 2
    message = {"missing": "No such file or directory",
               "malformed": f"{bad}: line 3: could not convert",
               "short": "prediction and truth must have equal length"}[case]
    assert message in capsys.readouterr().err
    assert list(tmp_path.glob("P.*")) == []


@pytest.mark.parametrize("argv, collision", [
    (["features", "--input", "e.csv", "--output", "e.csv"], "read"),
    (["features", "--input", "e.csv", "--output", "./e.csv"], "read"),
    (["features", "--input", "e.csv", "--output", "f.csv",
      "--config", "f.csv.manifest.json"], "read"),
    (["benchmark", "--n", "2", "--length", "64", "--output", "X",
      "--labels-output", "X"], "twice"),
    (["simulate", "--n", "2", "--length", "64", "--output", "X",
      "--labels-output", "X.manifest.json"], "twice"),
    (["diagnose", "--input", "e.csv", "--partition", "e.csv.graph.csv",
      "--output-prefix", "e.csv"], "read"),
], ids=["input", "spelled-apart", "config", "labels", "labels-manifest",
        "diagnose"])
def test_a_run_never_writes_over_its_own_files(tmp_path, monkeypatch, capsys,
                                               argv, collision):
    monkeypatch.chdir(tmp_path)
    io.write_dataset("e.csv", wc.FunctionalDataset(
        np.random.default_rng(3).normal(size=(4, 64))))
    Path("f.csv.manifest.json").write_text("{}")
    before = {path: path.read_bytes() for path in tmp_path.iterdir()}
    assert run(*argv) == 2
    reason = {"read": "is both read and written by this run",
              "twice": "would be written twice by this run"}[collision]
    assert reason in capsys.readouterr().err
    assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before


@pytest.mark.parametrize("flag", ["--input", "--config"])
def test_a_file_that_is_not_utf8_is_named(tmp_path, capsys, flag):
    good = tmp_path / "curves.csv"
    io.write_dataset(good, wc.FunctionalDataset(
        np.random.default_rng(2).normal(size=(4, 64))))
    bad = tmp_path / "bad"
    bad.write_bytes(b"\xff" + good.read_bytes())
    argv = (["--input", bad] if flag == "--input"
            else ["--input", good, "--config", bad])
    assert run("features", *argv, "--output", tmp_path / "out.csv") == 2
    where = f"{bad}: " if flag == "--input" else f"config file {bad}: "
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where}")
    assert "'utf-8' codec can't decode byte 0xff" in err
    assert not (tmp_path / "out.csv").exists()
