"""Self-test of the reference checks: each must pass the program's real
output and reject a planted wrong one.

    python3 bench/selfcheck.py

Run it from the root of a source checkout. It prints one line per case
and exits nonzero if a check rejects a correct result or accepts a
planted wrong one. Scratch files go to ``bench/_work/selfcheck/``.
"""

import contextlib
import io as textio
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"})
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
from waveclust import (cli, clustering, data, dissimilarity, dwt,  # noqa: E402
                       evaluation, feature_selection, simulation)
from waveclust.cwt import make_scale_grid  # noqa: E402
from workloads import GRID  # noqa: E402


def expect(results, label, fn, *args, planted):
    """Record whether ``fn(*args)`` behaved: pass on real output, raise
    CheckError on a planted wrong one."""
    try:
        fn(*args)
        ok, outcome = not planted, "accepted"
    except checks.CheckError as exc:
        ok, outcome = planted, f"rejected ({exc})"
    results.append(ok)
    kind = "planted" if planted else "real"
    print(f"{'ok  ' if ok else 'FAIL'} {kind:7} {label}: {outcome}")


def spectral_cases(results):
    record, _ = inputs.demand_record(5, 14)
    curves = data.resample_dataset(
        data.slice_series(data.SampledSignal(record), inputs.DAY), 6)
    grid = make_scale_grid(*GRID)
    direct = checks.DirectSpectra(curves.n_samples, *GRID)
    spectra = direct.cwt(curves.curves)
    i, j = checks.sample_pairs(curves.n_curves)[2]
    for label, measure, reference in (
            ("WER", "WER", checks.check_wer_pairs),
            ("MCA", "MCA", checks.check_mca_pairs),
            ("euclid-features", "euclid-features",
             checks.check_euclid_features)):
        values = dissimilarity.build_dissimilarity_matrix(
            curves, measure=measure, grid=grid).values
        expect(results, f"{label} matrix vs direct sums", reference,
               values, direct, spectra, planted=False)
        wrong = values.copy()
        wrong[i, j] = wrong[j, i] = values[i, j] * (1 + 1e-4)
        expect(results, f"{label} matrix, entry ({i}, {j}) perturbed",
               reference, wrong, direct, spectra, planted=True)
    expect(results, "euclid-features matrix properties",
           checks.check_dissimilarity,
           values, "euclid-features", None, planted=False)
    wrong = values.copy()
    wrong[i, j] += 1e-3
    expect(results, "matrix with one asymmetric entry",
           checks.check_dissimilarity, wrong, "euclid-features", None,
           planted=True)

    part = clustering.pam(values, 3)
    expect(results, "PAM medoids", checks.check_pam, values, part.medoids,
           part.labels, part.cost, planted=False)
    # Keep the first medoid, move the others to the points farthest from
    # it: a valid assignment, but not swap-optimal.
    far = [int(m) for m in np.argsort(values[part.medoids[0]])[-2:]]
    medoids = np.array([int(part.medoids[0])] + far)
    labels = np.argmin(values[:, medoids], axis=1)
    cost = float(values[np.arange(values.shape[0]), medoids[labels]].sum())
    expect(results, f"non-optimal medoid set {medoids.tolist()}",
           checks.check_pam, values, medoids, labels, cost, planted=True)


def feature_cases(results):
    dataset, truth = simulation.gen_benchmark(seed=3, n_per_cluster=10,
                                              length=256)
    features = dwt.feature_matrix(dataset, kind="logitRC")
    part = clustering.kmeans(features, 3, restarts=5, seed=3)
    rows = features.values
    expect(results, "k-means partition", checks.check_lloyd_fixed_point,
           rows, part.labels, part.centers, part.cost, 3, planted=False)
    # Move one point to another cluster, keep the centers: it is no longer
    # nearest its own center.
    labels = part.labels.copy()
    labels[0] = (labels[0] + 1) % 3
    expect(results, "relabelled point, centers kept",
           checks.check_lloyd_fixed_point, rows, labels, part.centers,
           part.cost, 3, planted=True)
    # Same relabelling with the centers moved to the new means: the
    # centers are means, but some row is nearer another center.
    centers = np.vstack([rows[labels == j].mean(axis=0) for j in range(3)])
    cost = float(((rows - centers[labels]) ** 2).sum())
    expect(results, "relabelled point, centers recomputed",
           checks.check_lloyd_fixed_point, rows, labels, centers, cost, 3,
           planted=True)

    mis = evaluation.misclassification(part.labels, truth)[0]
    ari = evaluation.rand_indices(part.labels, truth)[1]
    expect(results, "scores", checks.check_scores, part.labels, truth, mis,
           ari, planted=False)
    expect(results, "misclassified count off by one", checks.check_scores,
           part.labels, truth, mis + 1, ari, planted=True)
    expect(results, "ARI off by 1e-6", checks.check_scores, part.labels,
           truth, mis, ari + 1e-6, planted=True)

    final, reports = feature_selection.select_features_stable(features, 5,
                                                              seed=3)
    as_dicts = {k: checks.report_as_dict(r) for k, r in reports.items()}
    expect(results, "stable selection", checks.check_selection, rows, final,
           as_dicts, planted=False)
    others = [s for s in {r.selected for r in reports.values()}
              if s != final] or [final[:-1]]
    expect(results, f"final subset swapped for {others[0]}",
           checks.check_selection, rows, others[0], as_dicts, planted=True)
    bent = {k: dict(r) for k, r in as_dicts.items()}
    bent[2]["index"] = np.array(bent[2]["index"]) + 1e-6
    expect(results, "clusterability index off by 1e-6",
           checks.check_selection, rows, final, bent, planted=True)


def artifact_cases(results, workdir):
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    record, _ = inputs.demand_record(5, 21, start_day=0)
    signal, days = workdir / "record.csv", workdir / "days.csv"
    inputs.write_column(signal, record)
    with contextlib.redirect_stdout(textio.StringIO()):
        code = cli.main(["slice", "--input", str(signal), "--output",
                         str(days), "--delta", "48"])
    results.append(code == 0)
    manifest = str(days) + ".manifest.json"
    roles = ({"signal": str(signal)}, {"dataset": str(days)})
    expect(results, "slice manifest", checks.check_manifest, manifest,
           *roles, planted=False)
    curves = data.slice_series(data.SampledSignal(record), 48).curves
    expect(results, "days.csv vs in-memory slice", checks.check_bitwise,
           "days.csv", checks.load_csv_matrix(days), curves, planted=False)
    raw = bytearray(days.read_bytes())
    at = raw.index(b".") + 1
    raw[at] = ord("0") + (raw[at] - ord("0") + 1) % 10
    days.write_bytes(bytes(raw))
    expect(results, "days.csv with one altered byte, manifest",
           checks.check_manifest, manifest, *roles, planted=True)
    expect(results, "days.csv with one altered byte, values",
           checks.check_bitwise, "days.csv", checks.load_csv_matrix(days),
           curves, planted=True)
    expect(results, "manifest lacking an input it should list",
           checks.check_manifest, manifest,
           {**roles[0], "labels": str(signal)}, roles[1], planted=True)


def main():
    results = []
    spectral_cases(results)
    feature_cases(results)
    artifact_cases(results, HERE / "_work" / "selfcheck")
    failed = results.count(False)
    print(f"{len(results) - failed}/{len(results)} cases behaved")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
