"""Whole-system acceptance checks.

Thirteen numbered criteria cover the statistical behaviour of the
benchmark pipeline, the analytic identities of both transforms, the metric
and decomposition properties of the dissimilarities, the optimality of the
clustering algorithms, bitwise reproducibility of the command-line
pipelines, and day-type recovery by the spectral route.  Each test prints one ``ACCEPTANCE NN <label>: PASS|FAIL`` line
so a verbose run doubles as a checklist; the assertions enforce exactly
what the printed line reports, with all thresholds fixed in this file.

The 100-replicate benchmark study is computed once (module-scoped fixture)
and shared by criteria 1 and 2; its wall-clock cost is charged against
criterion 1's runtime budget, criterion 2 pays only for its own counting.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import test_clustering
import test_dissimilarity
import test_dwt
import test_evaluation

import waveclust
from waveclust.clustering import choose_k_by_jump, kmeans, pam
from waveclust.cwt import cwt_morlet, make_scale_grid
from waveclust.dissimilarity import (
    DissimilarityMatrix,
    build_dissimilarity_matrix,
    mca_analysis,
    mca_distance,
    wavelet_coherence,
    wer_distance,
)
from waveclust.dwt import (
    dwt_forward,
    energy_contributions,
    feature_matrix,
    get_filter,
)
from waveclust.evaluation import misclassification, rand_indices
from waveclust.feature_selection import select_features_stable
from waveclust.simulation import gen_benchmark

N_REPLICATES = 100
SELECTION_K_MAX = 20  # selection votes over K = 2..20, final set is the mode


def _report(capsys, number, label, ok, detail=""):
    """Print the criterion's scoreboard line, then enforce it."""
    suffix = f"  [{detail}]" if detail else ""
    with capsys.disabled():
        print(f"\nACCEPTANCE {number:02d} {label}: "
              f"{'PASS' if ok else 'FAIL'}{suffix}", flush=True)
    assert ok, f"criterion {number:02d} ({label}) failed: {detail}"


# ---------------------------------------------------------------------------
# Criteria 1-2: benchmark replicates (shared fixture)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def benchmark_runs():
    """Cluster each replicate on selected logit-RC features and raw curves."""
    start = time.perf_counter()
    runs = []
    for seed in range(N_REPLICATES):
        dataset, truth = gen_benchmark(seed=seed)
        features = feature_matrix(dataset, kind="logitRC")
        selected, _ = select_features_stable(features, SELECTION_K_MAX,
                                             seed=seed)
        cols = list(selected) if selected else list(
            range(features.values.shape[1]))
        sel_part = kmeans(features.values[:, cols], 3, restarts=20, seed=seed)
        raw_part = kmeans(dataset.curves, 3, restarts=20, seed=seed)
        runs.append({
            "selected": tuple(selected),
            "sel_mis": misclassification(sel_part.labels, truth)[0],
            "raw_mis": misclassification(raw_part.labels, truth)[0],
            "sel_ari": rand_indices(sel_part.labels, truth)[1],
            "raw_ari": rand_indices(raw_part.labels, truth)[1],
        })
    return runs, time.perf_counter() - start


def test_01_benchmark_feature_vs_raw_ordering(benchmark_runs, capsys):
    runs, elapsed = benchmark_runs
    sel_mis = np.array([r["sel_mis"] for r in runs], dtype=float)
    raw_mis = np.array([r["raw_mis"] for r in runs], dtype=float)
    sel_ari = np.array([r["sel_ari"] for r in runs])
    raw_ari = np.array([r["raw_ari"] for r in runs])
    p_mis = stats.ttest_rel(sel_mis, raw_mis, alternative="less").pvalue
    p_ari = stats.ttest_rel(sel_ari, raw_ari, alternative="greater").pvalue
    checks = {
        "selected mean in [10, 40]": 10.0 <= sel_mis.mean() <= 40.0,
        "raw mean in [10, 40]": 10.0 <= raw_mis.mean() <= 40.0,
        "misclassified p < 0.01": p_mis < 0.01,
        "ARI p < 0.01": p_ari < 0.01,
        "runtime < 300 s": elapsed < 300.0,
    }
    detail = (f"misclassified {sel_mis.mean():.2f} vs {raw_mis.mean():.2f} "
              f"(p={p_mis:.2e}), ARI {sel_ari.mean():.3f} vs "
              f"{raw_ari.mean():.3f} (p={p_ari:.2e}), {elapsed:.0f} s")
    failed = [name for name, good in checks.items() if not good]
    _report(capsys, 1, "benchmark feature-vs-raw ordering",
            not failed, detail + (f"; failed: {failed}" if failed else ""))


def test_02_coarse_scale_feature_retention(benchmark_runs, capsys):
    runs, _ = benchmark_runs
    start = time.perf_counter()
    coarsest = {0, 1, 2}  # column j is detail scale j, 0 = coarsest
    hits = sum(1 for r in runs
               if len(coarsest.intersection(r["selected"])) >= 2)
    elapsed = time.perf_counter() - start
    ok = hits >= 80 and elapsed < 180.0
    _report(capsys, 2, "coarse-scale feature retention", ok,
            f"{hits}/{N_REPLICATES} replicates kept >= 2 of the 3 coarsest")


# ---------------------------------------------------------------------------
# Criteria 3-5: discrete transform identities
# ---------------------------------------------------------------------------

def test_03_parseval_energy_identity(capsys):
    rng = np.random.default_rng(1003)
    curves = rng.normal(size=(1000, 1024))
    coeffs = dwt_forward(curves, wavelet="symmlet6").coefficient_vector()
    energy_in = np.einsum("ij,ij->i", curves, curves)
    energy_out = np.einsum("ij,ij->i", coeffs, coeffs)
    worst = float(np.max(np.abs(energy_out - energy_in) / energy_in))
    _report(capsys, 3, "Parseval energy identity", worst <= 1e-10,
            f"max relative error {worst:.2e} over 1000 curves, N=1024")


def test_04_pyramid_matches_matrix_oracle(capsys):
    worst_orth = 0.0
    worst_match = 0.0
    for wavelet in ("haar", "symmlet6"):
        filt = get_filter(wavelet)
        for n in (8, 16, 32, 64):
            w = test_dwt.transform_matrix(filt, n)
            worst_orth = max(worst_orth,
                             float(np.max(np.abs(w.T @ w - np.eye(n)))))
            curves = np.random.default_rng(1004 + n).normal(size=(7, n))
            pyramid = dwt_forward(curves, wavelet=wavelet).coefficient_vector()
            worst_match = max(worst_match,
                              float(np.max(np.abs(pyramid - curves @ w.T))))
    ok = worst_orth <= 1e-10 and worst_match <= 1e-10
    _report(capsys, 4, "pyramid matches matrix oracle", ok,
            f"orthonormality {worst_orth:.2e}, agreement {worst_match:.2e}")


def test_05_affine_coefficient_law(capsys):
    rng = np.random.default_rng(1005)
    z = rng.normal(size=(100, 256))
    a = 4.0 * rng.normal(size=(100, 1))
    b = rng.uniform(0.5, 3.0, size=(100, 1)) * rng.choice([-1.0, 1.0],
                                                          size=(100, 1))
    base = dwt_forward(z)
    affine = dwt_forward(a + b * z)
    worst_detail = max(
        float(np.max(np.abs(d_aff - b * d_base)))
        for d_base, d_aff in zip(base.details, affine.details))
    ac = energy_contributions(base)
    ac_shift = energy_contributions(dwt_forward(a + z))
    worst_shift = float(np.max(np.abs(ac_shift - ac) / np.maximum(1.0, ac)))
    ac_scale = energy_contributions(dwt_forward(b * z))
    worst_scale = float(np.max(np.abs(ac_scale - b ** 2 * ac)
                               / np.maximum(1.0, b ** 2 * ac)))
    logit = feature_matrix(z, kind="logitRC").values
    logit_affine = feature_matrix(a + b * z, kind="logitRC").values
    worst_logit = float(np.max(np.abs(logit_affine - logit)))
    checks = {
        "details scale by b (1e-10)": worst_detail <= 1e-10,
        "AC shift-invariant (1e-9)": worst_shift <= 1e-9,
        "AC scales by b^2 (1e-9)": worst_scale <= 1e-9,
        "logit-RC affine-invariant (1e-8)": worst_logit <= 1e-8,
    }
    failed = [name for name, good in checks.items() if not good]
    _report(capsys, 5, "affine coefficient law", not failed,
            f"details {worst_detail:.2e}, shift {worst_shift:.2e}, "
            f"scale {worst_scale:.2e}, logit {worst_logit:.2e}"
            + (f"; failed: {failed}" if failed else ""))


# ---------------------------------------------------------------------------
# Criteria 6-8: continuous transform and dissimilarities (shared spectra)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def spectra_pairs():
    rng = np.random.default_rng(1006)
    grid = make_scale_grid(1, 6, 8)
    pairs = []
    for _ in range(100):
        z = rng.normal(size=512)
        x = rng.normal(size=512)
        pairs.append((cwt_morlet(z, grid=grid), cwt_morlet(x, grid=grid)))
    return grid, pairs


def test_06_coherence_bounds(spectra_pairs, capsys):
    _, pairs = spectra_pairs
    lowest = np.inf
    highest = -np.inf
    worst_self = 0.0
    for wz, wx in pairs:
        field = wavelet_coherence(wz, wx).values
        lowest = min(lowest, float(field.min()))
        highest = max(highest, float(field.max()))
        worst_self = max(worst_self, float(
            np.max(np.abs(wavelet_coherence(wz, wz).values - 1.0))))
    ok = lowest >= 0.0 and highest <= 1.0 + 1e-9 and worst_self <= 1e-9
    _report(capsys, 6, "coherence bounds", ok,
            f"range [{lowest:.3e}, {highest:.9f}], "
            f"self-coherence off by {worst_self:.2e}, 100 pairs")


def test_07_wer_metric_properties(spectra_pairs, capsys):
    grid, pairs = spectra_pairs
    bound = math.sqrt(len(grid.scales) * 512)
    worst_self = 0.0
    worst_asym = 0.0
    low = np.inf
    high = -np.inf
    for wz, wx in pairs:
        worst_self = max(worst_self, wer_distance(wz, wz))
        forward = wer_distance(wz, wx)
        backward = wer_distance(wx, wz)
        worst_asym = max(worst_asym, abs(forward - backward))
        low = min(low, forward)
        high = max(high, forward)
    checks = {
        "self-distance <= 1e-6": worst_self <= 1e-6,
        "symmetry <= 1e-12": worst_asym <= 1e-12,
        "0 <= d <= sqrt(J_s N)": low >= 0.0 and high <= bound,
    }
    failed = [name for name, good in checks.items() if not good]
    _report(capsys, 7, "WER metric properties", not failed,
            f"self {worst_self:.2e}, asymmetry {worst_asym:.2e}, "
            f"range [{low:.2f}, {high:.2f}] of {bound:.2f}"
            + (f"; failed: {failed}" if failed else ""))


def test_08_mca_decomposition_properties(capsys):
    rng = np.random.default_rng(1008)
    grid = make_scale_grid(1, 5, 6)
    worst_frobenius = 0.0
    worst_order = -np.inf
    worst_self = 0.0
    bitwise = True
    for _ in range(25):
        wz = cwt_morlet(rng.normal(size=256), grid=grid)
        wx = cwt_morlet(rng.normal(size=256), grid=grid)
        result = mca_analysis(wz, wx)
        q = wz.matrix @ np.conj(wx.matrix.T)
        frobenius2 = float(np.sum(np.abs(q) ** 2))
        worst_frobenius = max(
            worst_frobenius,
            abs(float(np.sum(result.lam ** 2)) - frobenius2) / frobenius2)
        worst_order = max(worst_order, float(np.max(np.diff(result.lam))))
        worst_self = max(worst_self, mca_distance(wz, wz))
        again = mca_analysis(wz, wx)
        bitwise = bitwise and all((
            np.array_equal(result.lam, again.lam),
            np.array_equal(result.u, again.u),
            np.array_equal(result.v, again.v),
            result.retained == again.retained,
            np.array_equal(result.pattern_z, again.pattern_z),
            np.array_equal(result.pattern_x, again.pattern_x),
        ))
    checks = {
        "sum lam^2 = ||Q||_F^2 (1e-8 rel)": worst_frobenius <= 1e-8,
        "lam nonincreasing": worst_order <= 0.0,
        "self-distance <= 1e-6": worst_self <= 1e-6,
        "two runs bitwise equal": bitwise,
    }
    failed = [name for name, good in checks.items() if not good]
    _report(capsys, 8, "MCA decomposition properties", not failed,
            f"Frobenius {worst_frobenius:.2e}, self {worst_self:.2e}, "
            f"25 pairs" + (f"; failed: {failed}" if failed else ""))


# ---------------------------------------------------------------------------
# Criteria 9-11: clustering algorithms and indices
# ---------------------------------------------------------------------------

def test_09_pam_swap_optimality(capsys):
    rng = np.random.default_rng(1009)
    all_swap_optimal = True
    for i in range(50):
        values = rng.uniform(0.1, 10.0, size=(60, 60))
        values = (values + values.T) / 2.0
        np.fill_diagonal(values, 0.0)
        part = pam(DissimilarityMatrix(values, "euclid-raw"), 2 + i % 5)
        all_swap_optimal = all_swap_optimal and test_clustering.swap_is_optimal(
            values, part.medoids, part.labels)
    blocks_exact = True
    for sizes in ((20, 15, 25), (30, 30), (12, 24, 24)):
        truth = np.repeat(np.arange(len(sizes)), sizes)
        part = pam(test_clustering.block_matrix(list(sizes)), len(sizes))
        blocks_exact = blocks_exact and (
            rand_indices(part.labels, truth)[1] == 1.0)
    ok = all_swap_optimal and blocks_exact
    _report(capsys, 9, "PAM swap optimality", ok,
            f"50 random 60x60 matrices swap-optimal: {all_swap_optimal}, "
            f"block recovery exact: {blocks_exact}")


def test_10_jump_method_cluster_count(capsys):
    centers = 4.0 * np.eye(10)[:3]
    hits = 0
    for seed in range(100):
        points, _ = test_clustering.blobs(seed, centers, 60, sd=0.5)
        k_star, _ = choose_k_by_jump(points, 10, restarts=5, seed=seed)
        hits += int(k_star == 3)
    _report(capsys, 10, "jump method cluster count", hits >= 90,
            f"K*=3 on {hits}/100 seeds (3 blobs in 10 dimensions)")


def test_11_rand_and_ari_correctness(capsys):
    rand, ari = rand_indices([0, 0, 1, 1], [0, 1, 0, 1])
    hand_ok = abs(rand - 1.0 / 3.0) <= 1e-12 and abs(ari + 0.5) <= 1e-12
    rng = np.random.default_rng(1011)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(5, 31))
        a = rng.integers(0, int(rng.integers(2, 6)), size=n)
        b = rng.integers(0, int(rng.integers(2, 6)), size=n)
        got = rand_indices(a, b)
        want = test_evaluation.brute_force_rand(a, b)
        worst = max(worst, abs(got[0] - want[0]), abs(got[1] - want[1]))
    ok = hand_ok and worst <= 1e-12
    _report(capsys, 11, "Rand and ARI correctness", ok,
            f"hand-enumerated case exact: {hand_ok}, "
            f"max deviation from pair-counting oracle {worst:.2e}")


# ---------------------------------------------------------------------------
# Criterion 12: command-line pipelines are bitwise reproducible
# ---------------------------------------------------------------------------

_CLI = "import sys; from waveclust.cli import main; sys.exit(main(sys.argv[1:]))"


def _child_env():
    """Environment whose ``PYTHONPATH`` starts at the imported package's tree.

    A relative entry such as ``src`` does not resolve in the children's
    working directories, and an installed copy could be found instead.
    """
    source_root = str(Path(waveclust.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    path = source_root + os.pathsep + inherited if inherited else source_root
    return {**os.environ, "PYTHONPATH": path}


def _run_cli(workdir, args, failures):
    # cwd stays per run: manifests record the relative file names as given.
    proc = subprocess.run([sys.executable, "-c", _CLI, *args],
                          cwd=workdir, env=_child_env(),
                          capture_output=True, text=True)
    if proc.returncode != 0:
        # The tail of a traceback names the error; its head only the frames.
        failures.append(f"{' '.join(args)} -> exit {proc.returncode}: "
                        f"{proc.stderr.strip()[-200:]}")


def _run_pipelines(workdir, threads, failures):
    workdir.mkdir()
    run = lambda *args: _run_cli(workdir, list(args), failures)
    run("benchmark", "--seed", "3", "--output", "bench.csv",
        "--labels-output", "bench-labels.csv")
    run("features", "--input", "bench.csv", "--output", "feat.csv",
        "--features", "logit-rc")
    run("cluster", "--input", "feat.csv", "--output", "feat-part.csv",
        "--pipeline", "features", "--k", "3", "--restarts", "10",
        "--seed", "5")
    run("simulate", "--model", "sinus", "--n", "12", "--length", "128",
        "--seed", "9", "--output", "sinus.csv")
    run("cluster", "--input", "sinus.csv", "--output", "spec-part.csv",
        "--pipeline", "spectrum", "--measure", "wer", "--k", "2",
        "--omin", "1", "--omax", "4", "--voices", "4",
        "--threads", str(threads))


def test_12_end_to_end_determinism(tmp_path, capsys):
    failures = []
    artifacts = {}
    for name, threads in (("threads-1", 1), ("threads-8", 8),
                          ("threads-1-again", 1)):
        directory = tmp_path / name
        _run_pipelines(directory, threads, failures)
        artifacts[name] = {path.name: path.read_bytes()
                           for path in sorted(directory.iterdir())}
    reference = artifacts["threads-1"]
    same_names = all(run.keys() == reference.keys()
                     for run in artifacts.values())
    mismatched = sorted(
        name for name in reference
        if any(run.get(name) != reference[name] for run in artifacts.values())
    ) if same_names else sorted(reference)
    ok = not failures and same_names and not mismatched
    detail = (f"{len(reference)} artifacts per run, "
              f"threads 1 vs 8 vs rerun all byte-identical")
    if failures:
        detail = f"command failures: {failures}"
    elif mismatched:
        detail = f"mismatched artifacts: {mismatched}"
    _report(capsys, 12, "end-to-end determinism", ok, detail)


# ---------------------------------------------------------------------------
# Criterion 13: the spectral route recovers day type
# ---------------------------------------------------------------------------

def test_13_spectral_route_recovers_day_type(capsys):
    """PAM at K = 2 on WER and euclid-features matrices of 20 records of
    49 demand-like days (seeds 0-19) recovers weekday/weekend. At 64
    samples, octaves 1-5 at 8 voices give 33 scales and no
    cone-of-influence row. MCA's ARI is printed, not gated."""
    grid = make_scale_grid(1, 5, 8)
    truth = (np.arange(49) % 7 >= 5).astype(int)
    aris = {"WER": [], "MCA": [], "euclid-features": []}
    for seed in range(20):
        curves = test_dissimilarity.day_curves(seed, n=49)
        for measure, scores in aris.items():
            matrix = build_dissimilarity_matrix(curves, measure=measure,
                                                grid=grid)
            scores.append(rand_indices(pam(matrix, 2).labels, truth)[1])
    gated = {measure: min(aris[measure]) for measure in ("WER",
                                                         "euclid-features")}
    # Fixed from the first run: every record's partition is exact.
    ok = all(worst == 1.0 for worst in gated.values())
    _report(capsys, 13, "spectral route recovers day type", ok,
            ", ".join(f"{measure} min ARI {worst:.3f}"
                      for measure, worst in gated.items())
            + f"; MCA (not gated) min {min(aris['MCA']):.3f}, "
              f"mean {np.mean(aris['MCA']):.3f} over 20 records")
