"""The three workloads: what each one runs, times and checks.

A workload is run as rounds. Each round attempts the same operations, so
the share of failed operations does not depend on how many rounds fit in
the run. Untraced units are timed by ``speed.SpeedProbe`` and reported at
its reference speed. An operation fails if it raises, if a CLI command exits nonzero,
or if its output fails a reference check; a failed check also makes the
run incorrect. Checks run outside the timed spans.

In a traced run every round is run twice on the same inputs, first
untraced and then traced; the per-layer metrics come from the traced
passes and the ratio of the two passes' times is the tracing overhead.
"""

import contextlib
import io as textio
import json
import shutil
import statistics
import time
import tracemalloc
import traceback
from pathlib import Path

import numpy as np

import checks
import inputs
import speed
from tracing import LAYERS, Tracer, maybe_span

from waveclust import (cli, clustering, data, dissimilarity, dwt, evaluation,
                       feature_selection, simulation)
from waveclust.cwt import make_scale_grid

#: Replicates of the simulation study per pass.
REPLICATES = 12
#: Days in the daily-spectra record (seven whole weeks).
SEASON_DAYS = 49
#: Days in the cli-pipeline record.
YEAR_DAYS = 365
#: The first two weeks of the year go through the threaded WER command.
FORTNIGHT = 14
#: Scale grid of the spectral routes: octaves 1..5, 8 voices, 33 scales.
GRID = (1, 5, 8)


class Tally:
    """Attempted and failed operations, and whether the checks held."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems = []

    def fail(self, what, check_failed):
        self.failed += 1
        if check_failed:
            self.correct = False
        if len(self.problems) < 20:
            self.problems.append(what)

    def check(self, name, fn, *args):
        """Run one check; record a failure against operation ``name``."""
        try:
            fn(*args)
            return True
        except checks.CheckError as exc:
            self.fail(f"{name}: {exc}", check_failed=True)
        except Exception:  # a check that crashes counts as failing
            self.fail(f"{name}: check raised {traceback.format_exc(limit=2)}",
                      check_failed=True)
        return False


def run_rounds(seconds, do_round):
    """Call ``do_round(i)`` for i = 0, 1, ... while the next round is
    expected to end within ``seconds``; always at least one round."""
    start = time.perf_counter()
    longest = 0.0
    i = 0
    while True:
        began = time.perf_counter()
        do_round(i)
        longest = max(longest, time.perf_counter() - began)
        i += 1
        if time.perf_counter() - start + longest > seconds:
            return i


class Workload:
    """Shared run loop; subclasses define ``round`` and the checks."""

    name = ""
    #: Calls that fill the program's lazy caches, run once in set-up.
    warm_code = ""

    def __init__(self, seed, workdir):
        """Make the workload's inputs from ``seed``; ``workdir`` holds any
        files it writes."""
        self.seed = int(seed)
        self.tally = Tally()
        self.result_times = []  # at the reference speed
        self.raw_times = []
        self.ari = None
        self.tracer = None
        self.traced_rounds = 0
        self.pass_times = {False: [], True: []}
        self.clock = speed.WallClock()

    def warm(self):
        exec(self.warm_code, {})

    def run(self, seconds, trace):
        self.trace = trace
        if trace:
            self.tracer = Tracer()
            run_rounds(seconds, self._paired_round)
        else:
            with speed.SpeedProbe() as self.clock:
                run_rounds(seconds, lambda i: self.round(i, None))
        return self

    def record(self, mark):
        raw, scaled = self.clock.stop(mark)
        self.raw_times.append(raw)
        self.result_times.append(scaled)

    def _paired_round(self, i):
        began = time.perf_counter()
        self.round(i, None)
        self.pass_times[False].append(time.perf_counter() - began)
        with self.tracer.installed():
            began = time.perf_counter()
            self.round(i, self.tracer)
            self.pass_times[True].append(time.perf_counter() - began)
        self.traced_rounds += 1

    def op(self, name, fn):
        """Attempt one operation; ``None`` if it raised."""
        self.tally.attempted += 1
        try:
            return fn()
        except Exception as exc:
            self.tally.fail(f"{name}: {type(exc).__name__}: {exc}",
                            check_failed=False)
            return None

    # -- metrics ----------------------------------------------------------

    def end_to_end(self):
        samples = self.clock.samples
        return {"result_s": statistics.median(self.result_times),
                "ari": self.ari,
                "raw_result_s": statistics.median(self.raw_times),
                "probe_ms": 1e3 * statistics.fmean(samples)}

    def per_layer(self, names):
        """Every per-layer metric, averaged over the traced rounds."""
        tracer, rounds = self.tracer, max(self.traced_rounds, 1)
        calls, total, own = tracer.summary()
        values = dict.fromkeys(names, 0.0)
        for layer in LAYERS:
            prefix = layer + "."
            values[f"{layer}.self_s"] = sum(
                v for k, v in own.items() if k.startswith(prefix)) / rounds
            values[f"{layer}.calls"] = sum(
                v for k, v in calls.items() if k.startswith(prefix)) / rounds
        for metric, span in STEP_SPANS.items():
            values[metric] = total.get(span, 0.0) / rounds
        for metric, (prefix, field) in FUNCTION_TOTALS.items():
            table = calls if field == "calls" else total
            values[metric] = sum(v for k, v in table.items()
                                 if k.startswith(prefix)) / rounds
        pairs = calls.get("dissimilarity.wer_distance", 0) \
            + calls.get("dissimilarity.mca_distance", 0)
        values["dissimilarity.pairs"] = pairs / rounds
        wer_calls = calls.get("dissimilarity.wer_distance", 0)
        if wer_calls:
            values["dissimilarity.wer_pair_ms"] = \
                1e3 * own["dissimilarity.wer_distance"] / wer_calls
        mca_calls = calls.get("dissimilarity.mca_distance", 0)
        if mca_calls:
            values["dissimilarity.mca_pair_ms"] = 1e3 * (
                own["dissimilarity.mca_distance"]
                + own.get("dissimilarity.mca_analysis", 0.0)) / mca_calls
        values["io.bytes_written"] = tracer.bytes_written / rounds
        values["trace.spans"] = len(tracer.spans) / rounds
        untraced = sum(self.pass_times[False])
        values["trace.overhead_pct"] = 100.0 * (
            sum(self.pass_times[True]) / untraced - 1.0)
        return values


#: Per-layer metrics read from the benchmark's own step spans.
STEP_SPANS = {
    "simulation.gen_benchmark_s": "step.simulate",
    "dwt.feature_matrix_s": "step.features",
    "feature_selection.select_stable_s": "step.select",
    "clustering.kmeans_selected_s": "step.kmeans_selected",
    "clustering.kmeans_raw_s": "step.kmeans_raw",
    "evaluation.score_s": "step.score",
    "route.wer_s": "step.wer",
    "route.mca_s": "step.mca",
    "route.euclid_s": "step.euclid",
    "dissimilarity.euclid_build_s": "step.euclid.build",
    **{f"cli.{name}_s": f"step.cli.{name}" for name in (
        "slice", "features", "select", "choose_k", "cluster_features",
        "diagnose", "dissim", "cluster_spectrum", "cluster_wer_threads2")},
}

#: Per-layer metrics summed over the spans of the named functions.
FUNCTION_TOTALS = {
    "cwt.smooth_spectrum_s": ("cwt.smooth_spectrum", "total"),
    "cwt.smooth_spectrum_calls": ("cwt.smooth_spectrum", "calls"),
    "cwt.cwt_morlet_s": ("cwt.cwt_morlet", "total"),
    "cwt.cwt_morlet_calls": ("cwt.cwt_morlet", "calls"),
    "data.slice_series_s": ("data.slice_series", "total"),
    "data.resample_dataset_s": ("data.resample_dataset", "total"),
    "clustering.pam_s": ("clustering.pam", "total"),
    "clustering.choose_k_by_jump_s": ("clustering.choose_k_by_jump", "total"),
    "io.read_s": ("io.read_", "total"),
    "io.write_s": ("io.write_", "total"),
    "io.digest_s": ("io.file_digest", "total"),
}


# ---------------------------------------------------------------------------
# sim-study
# ---------------------------------------------------------------------------

class SimStudy(Workload):
    """Replicates of the three-population simulation study."""

    name = "sim-study"
    warm_code = ("import waveclust\n"
                 "waveclust.screening_threshold(75)\n"
                 "waveclust.far_operator(waveclust.FarModel("
                 "kernel='full', m=1024))\n")

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        state = np.random.SeedSequence([self.seed, 1]).generate_state(
            REPLICATES)
        self.replicate_seeds = [int(s) for s in state]
        self.aris = {}
        self.subsets = []

    def round(self, i, tracer):
        if self.trace:
            self.replicate(self.replicate_seeds[i % REPLICATES], tracer)
        else:
            for seed in self.replicate_seeds:
                self.replicate(seed, None)
        if not self.trace or i == 0:
            self.ari = float(np.mean(list(self.aris.values())))

    def replicate(self, seed, tracer):
        out = {}

        def work():
            with maybe_span(tracer, "step.simulate"):
                dataset, truth = simulation.gen_benchmark(seed=seed)
            with maybe_span(tracer, "step.features"):
                features = dwt.feature_matrix(dataset, kind="logitRC")
            with maybe_span(tracer, "step.select"):
                final, reports = feature_selection.select_features_stable(
                    features, 20, seed=seed)
            cols = list(final) if final else list(
                range(features.values.shape[1]))
            with maybe_span(tracer, "step.kmeans_selected"):
                sel = clustering.kmeans(features.values[:, cols], 3,
                                        restarts=20, seed=seed)
            with maybe_span(tracer, "step.kmeans_raw"):
                raw = clustering.kmeans(dataset.curves, 3, restarts=20,
                                        seed=seed)
            with maybe_span(tracer, "step.score"):
                scores = [(evaluation.misclassification(p.labels, truth)[0],
                           evaluation.rand_indices(p.labels, truth)[1])
                          for p in (sel, raw)]
            out.update(dataset=dataset, truth=truth, features=features,
                       cols=cols, final=final, reports=reports, sel=sel,
                       raw=raw, scores=scores)
            return True

        mark = self.clock.start()
        if self.op(f"replicate {seed}", work) is None:
            return
        if tracer is None:
            self.record(mark)
        else:
            self.subsets.append(sum(2 ** len(r.screened_in) - 1
                                    for r in out["reports"].values()))
        self.check_replicate(seed, out)

    def check_replicate(self, seed, out):
        name = f"replicate {seed}"
        truth, sel, raw = out["truth"], out["sel"], out["raw"]
        values = out["features"].values
        ok = all([
            self.tally.check(name, checks.check_scores, sel.labels, truth,
                             *out["scores"][0]),
            self.tally.check(name, checks.check_scores, raw.labels, truth,
                             *out["scores"][1]),
            self.tally.check(name, checks.check_lloyd_fixed_point,
                             values[:, out["cols"]], sel.labels, sel.centers,
                             sel.cost, 3),
            self.tally.check(name, checks.check_lloyd_fixed_point,
                             out["dataset"].curves, raw.labels, raw.centers,
                             raw.cost, 3),
            self.tally.check(name, checks.check_selection, values,
                             out["final"],
                             {k: checks.report_as_dict(r)
                              for k, r in out["reports"].items()}),
        ])
        ari = out["scores"][0][1]
        if ok and seed in self.aris and self.aris[seed] != ari:
            self.tally.fail(f"{name}: ARI {ari!r} differs from the earlier "
                            f"run of the same replicate", check_failed=True)
        self.aris.setdefault(seed, ari)

    def per_layer(self, names):
        values = super().per_layer(names)
        rounds = max(self.traced_rounds, 1)
        subsets = sum(self.subsets) / rounds
        values["feature_selection.subsets_searched"] = subsets
        values["feature_selection.subset_ms"] = (
            1e3 * values["feature_selection.select_stable_s"] / subsets
            if subsets else 0.0)
        return values


# ---------------------------------------------------------------------------
# daily-spectra
# ---------------------------------------------------------------------------

class DailySpectra(Workload):
    """Seven weeks of half-hourly demand through three spectral routes."""

    name = "daily-spectra"
    warm_code = "import waveclust\n"
    routes = (("wer", "WER"), ("mca", "MCA"), ("euclid", "euclid-features"))

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        record, self.truth = inputs.demand_record(self.seed, SEASON_DAYS)
        self.signal = data.SampledSignal(record, sampling_step=0.5)
        self.grid = make_scale_grid(*GRID)
        self.first = {}
        # Fill FFT plans and the like on a small input, untimed.
        small = data.resample_dataset(data.slice_series(
            data.SampledSignal(record[:3 * inputs.DAY]), inputs.DAY), 6)
        for _, measure in self.routes:
            clustering.pam(dissimilarity.build_dissimilarity_matrix(
                small, measure=measure, grid=self.grid), 2)

    def route(self, measure, tracer, label):
        with maybe_span(tracer, f"step.{label}"):
            with maybe_span(tracer, f"step.{label}.slice"):
                days = data.slice_series(self.signal, inputs.DAY)
            with maybe_span(tracer, f"step.{label}.resample"):
                curves = data.resample_dataset(days, 6)
            with maybe_span(tracer, f"step.{label}.build"):
                matrix = dissimilarity.build_dissimilarity_matrix(
                    curves, measure=measure, grid=self.grid, threads=1)
            with maybe_span(tracer, f"step.{label}.pam"):
                part = clustering.pam(matrix, 2)
        return curves, matrix, part

    def round(self, i, tracer):
        outputs = {}
        mark = self.clock.start()
        for label, measure in self.routes:
            result = self.op(f"{label} route", lambda: self.route(
                measure, tracer, label))
            if result is not None:
                outputs[label] = result
        if tracer is None:
            self.record(mark)
        for label, result in outputs.items():
            self.check_route(label, *result)
        if self.ari is None and "wer" in outputs:
            self.ari = checks.pair_count_ari(outputs["wer"][2].labels,
                                             self.truth)

    def check_route(self, label, curves, matrix, part):
        name = f"{label} route"
        values = matrix.values
        if label in self.first:
            before_values, before_labels = self.first[label]
            self.tally.check(name, checks.require,
                             np.array_equal(values, before_values)
                             and np.array_equal(part.labels, before_labels),
                             "output differs from the first round's")
            return
        direct = checks.DirectSpectra(curves.n_samples, *GRID)
        spectra = direct.cwt(curves.curves)
        upper = np.sqrt(direct.scales.size * curves.n_samples) \
            if label == "wer" else None
        reference = {"wer": checks.check_wer_pairs,
                     "mca": checks.check_mca_pairs,
                     "euclid": checks.check_euclid_features}[label]
        ok = all([
            self.tally.check(name, checks.check_dissimilarity, values, label,
                             upper),
            self.tally.check(name, reference, values, direct, spectra),
            self.tally.check(name, checks.check_pam, values, part.medoids,
                             part.labels, part.cost),
        ])
        if ok:
            self.first[label] = (values.copy(), part.labels.copy())

    def per_layer(self, names):
        values = super().per_layer(names)
        # The allocation peak of one more euclid-features build, untimed:
        # tracemalloc slows every allocation while it runs.
        curves = data.resample_dataset(
            data.slice_series(self.signal, inputs.DAY), 6)
        tracemalloc.start()
        try:
            dissimilarity.build_dissimilarity_matrix(
                curves, measure="euclid-features", grid=self.grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        values["dissimilarity.euclid_peak_alloc_mb"] = peak / 2 ** 20
        return values


# ---------------------------------------------------------------------------
# cli-pipeline
# ---------------------------------------------------------------------------

class CliPipeline(Workload):
    """A year of half-hourly demand through the waveclust executable."""

    name = "cli-pipeline"
    warm_code = "import waveclust\nwaveclust.screening_threshold(365)\n"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        w = {name: str(workdir / name) for name in (
            "record.csv", "truth.csv", "fortnight.csv", "days.csv",
            "features.csv", "selection.json", "distortion.csv",
            "partition.csv", "dissim.csv", "medoids.csv",
            "fortnight_part.csv")}
        w["diag"] = str(workdir / "diag")
        self.files = w
        record, self.truth = inputs.demand_record(self.seed, YEAR_DAYS,
                                                  start_day=0)
        inputs.write_column(w["record.csv"], record)
        inputs.write_column(w["truth.csv"], self.truth)
        days = data.slice_series(data.SampledSignal(record), inputs.DAY)
        inputs.write_rows(w["fortnight.csv"], days.curves[:FORTNIGHT])
        s = str(self.seed)
        self.commands = [
            ("slice", ["slice", "--input", w["record.csv"], "--output",
                       w["days.csv"], "--delta", "48"],
             {"signal": w["record.csv"]}, {"dataset": w["days.csv"]}),
            ("features", ["features", "--input", w["days.csv"], "--output",
                          w["features.csv"], "--resample-j", "6"],
             {"dataset": w["days.csv"]}, {"features": w["features.csv"]}),
            ("select", ["select", "--input", w["features.csv"], "--output",
                        w["selection.json"], "--kmax", "4", "--seed", s],
             {"features": w["features.csv"]},
             {"selection": w["selection.json"]}),
            ("choose_k", ["choose-k", "--input", w["features.csv"],
                          "--output", w["distortion.csv"], "--kmax", "6",
                          "--seed", s],
             {"features": w["features.csv"]},
             {"distortion": w["distortion.csv"]}),
            ("cluster_features", ["cluster", "--pipeline", "features",
                                  "--input", w["features.csv"], "--output",
                                  w["partition.csv"], "--k", "2",
                                  "--seed", s],
             {"features": w["features.csv"]},
             {"partition": w["partition.csv"]}),
            ("diagnose", ["diagnose", "--input", w["features.csv"],
                          "--partition", w["partition.csv"], "--truth",
                          w["truth.csv"], "--output-prefix", w["diag"]],
             {"features": w["features.csv"],
              "partition": w["partition.csv"], "truth": w["truth.csv"]},
             {"shadows": w["diag"] + ".shadows.csv",
              "graph_dot": w["diag"] + ".graph.dot",
              "graph_csv": w["diag"] + ".graph.csv",
              "validation": w["diag"] + ".validation.json"}),
            ("dissim", ["dissim", "--measure", "euclid-raw", "--input",
                        w["days.csv"], "--output", w["dissim.csv"]],
             {"dataset": w["days.csv"]},
             {"dissimilarity": w["dissim.csv"]}),
            ("cluster_spectrum", ["cluster", "--pipeline", "spectrum",
                                  "--dissim-input", w["dissim.csv"],
                                  "--input", w["days.csv"], "--output",
                                  w["medoids.csv"], "--k", "2"],
             {"dissimilarity": w["dissim.csv"]},
             {"partition": w["medoids.csv"]}),
            ("cluster_wer_threads2", [
                "cluster", "--pipeline", "spectrum", "--measure", "wer",
                "--threads", "2", "--omin", str(GRID[0]), "--omax",
                str(GRID[1]), "--voices", str(GRID[2]), "--input",
                w["fortnight.csv"], "--output", w["fortnight_part.csv"],
                "--k", "2"],
             {"dataset": w["fortnight.csv"]},
             {"partition": w["fortnight_part.csv"]}),
        ]
        # In-memory results the artifacts must reproduce, untimed.
        self.days = days
        self.features = dwt.feature_matrix(data.resample_dataset(days, 6),
                                           kind="logitRC")
        self.dissim = dissimilarity.build_dissimilarity_matrix(
            days, measure="euclid-raw")
        began = time.perf_counter()
        self.fortnight_wer = dissimilarity.build_dissimilarity_matrix(
            days.curves[:FORTNIGHT], measure="WER",
            grid=make_scale_grid(*GRID), threads=1)
        self.serial_wer_s = time.perf_counter() - began
        direct = checks.DirectSpectra(inputs.DAY, *GRID)
        spectra = direct.cwt(days.curves[:FORTNIGHT])
        n = FORTNIGHT
        self.fortnight_reference = np.zeros((n, n))
        for a in range(n):
            for b in range(a + 1, n):
                self.fortnight_reference[a, b] = \
                    self.fortnight_reference[b, a] = \
                    direct.wer(spectra[a], spectra[b])
        self.digests = None

    def round(self, i, tracer):
        done = set()
        mark = self.clock.start()
        for name, argv, _, _ in self.commands:
            stdout, stderr = textio.StringIO(), textio.StringIO()

            def command():
                with contextlib.redirect_stdout(stdout), \
                        contextlib.redirect_stderr(stderr), \
                        maybe_span(tracer, f"step.cli.{name}"):
                    code = cli.main(argv)
                if code != 0:
                    raise RuntimeError(f"exit {code}: "
                                       f"{stderr.getvalue().strip()[-200:]}")
                return code

            if self.op(f"cli {name}", command) == 0:
                done.add(name)
        if tracer is None:
            self.record(mark)
        self.check_round(done)

    def check_round(self, done):
        artifacts = {}
        for name, _, ins, outs in self.commands:
            if name not in done:
                continue
            manifest = next(iter(outs.values())) + ".manifest.json"
            ok = self.tally.check(f"cli {name}", checks.check_manifest,
                                  manifest, ins, outs)
            if ok:
                artifacts[name] = {path: checks.sha256_file(path)
                                   for path in [*outs.values(), manifest]}
        if self.digests is None:
            self.digests = {}
            for name in artifacts:
                if self.tally.check(f"cli {name}", self.check_artifacts,
                                    name):
                    self.digests[name] = artifacts[name]
            return
        for name, digests in artifacts.items():
            if name in self.digests:
                self.tally.check(f"cli {name}", checks.require,
                                 digests == self.digests[name],
                                 "artifacts differ from the first round's")

    def check_artifacts(self, name):
        """Full checks of one command's outputs (first round only)."""
        f = self.files
        if name == "slice":
            checks.check_bitwise("days.csv", checks.load_csv_matrix(
                f["days.csv"]), self.days.curves)
        elif name == "features":
            checks.check_bitwise("features.csv", checks.load_csv_matrix(
                f["features.csv"]), self.features.values)
        elif name == "select":
            payload = json.loads(Path(f["selection.json"]).read_text())
            checks.check_selection(
                self.features.values, payload["final"],
                {int(k): checks.payload_as_dict(r)
                 for k, r in payload["per_k"].items()})
        elif name == "choose_k":
            with open(f["distortion.csv"], encoding="utf-8") as handle:
                header = handle.readline()
            table = checks.load_csv_matrix(f["distortion.csv"])
            jumps = np.diff(np.concatenate(([0.0], table[:, 2])))
            jump_k = int(np.argmax(jumps)) + 1
            checks.require(f"jump_k={jump_k} " in header,
                           f"distortion header {header.strip()!r}, the "
                           f"largest jump is at K={jump_k}")
        elif name == "cluster_features":
            table = checks.load_csv_matrix(f["partition.csv"])
            labels = table[:, 1].astype(int)
            rows = self.features.values
            k = int(labels.max()) + 1
            centers = np.vstack([rows[labels == j].mean(axis=0)
                                 for j in range(k)])
            dist = np.sqrt(((rows - centers[labels]) ** 2).sum(axis=1))
            checks.require(np.allclose(table[:, 2], dist, rtol=1e-9,
                                       atol=1e-12),
                           "partition distances are not distances to the "
                           "cluster means")
            checks.check_lloyd_fixed_point(rows, labels, centers,
                                           float(np.sum(dist ** 2)), k)
        elif name == "diagnose":
            labels = checks.load_csv_matrix(f["partition.csv"])[:, 1]
            report = json.loads(Path(f["diag"] + ".validation.json")
                                .read_text())
            checks.check_scores(labels.astype(int), self.truth,
                                report["misclassified"],
                                report["adjusted_rand"])
            self.ari = float(report["adjusted_rand"])
        elif name == "dissim":
            loaded = checks.load_csv_matrix(f["dissim.csv"])
            checks.check_bitwise("dissim.csv", loaded, self.dissim.values)
            checks.check_dissimilarity(loaded, "euclid-raw")
            checks.check_euclid_raw(loaded, self.days.curves)
        elif name == "cluster_spectrum":
            self._check_medoids(f["medoids.csv"], self.dissim.values)
        elif name == "cluster_wer_threads2":
            table = self._check_medoids(f["fortnight_part.csv"],
                                        self.fortnight_reference)
            serial = self.fortnight_wer.values
            medoids = self._medoids(table)
            labels = table[:, 1].astype(int)
            checks.check_bitwise(
                "fortnight partition distances", table[:, 2],
                serial[np.arange(labels.size), medoids[labels]])

    @staticmethod
    def _medoids(table):
        labels, dist = table[:, 1].astype(int), table[:, 2]
        return np.array([int(np.flatnonzero((labels == j) & (dist == 0))[0])
                         for j in range(int(labels.max()) + 1)])

    def _check_medoids(self, path, d):
        table = checks.load_csv_matrix(path)
        medoids = self._medoids(table)
        labels = table[:, 1].astype(int)
        checks.check_pam(d, medoids, labels, float(table[:, 2].sum()))
        return table

    def per_layer(self, names):
        values = super().per_layer(names)
        values["dissimilarity.threaded_wer_s"] = self.tracer.total_under(
            "dissimilarity.build_dissimilarity_matrix",
            "step.cli.cluster_wer_threads2") / max(self.traced_rounds, 1)
        values["dissimilarity.serial_wer_s"] = self.serial_wer_s
        return values


WORKLOADS = {w.name: w for w in (SimStudy, DailySpectra, CliPipeline)}
