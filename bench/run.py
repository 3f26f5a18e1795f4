"""Benchmark of waveclust: one command for every workload and metric.

    python3 bench/run.py --workload sim-study --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; the package is imported from
``src/``. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` they are its per-layer metrics, and the spans of the
traced rounds are written under ``bench/_work/traces/``. See README.md.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
WORK = HERE / "_work"

#: One BLAS thread: each workload is a single thread of load, and the
#: program's own pools add at most ``nproc`` threads.
THREAD_ENV = {name: "1" for name in ("OPENBLAS_NUM_THREADS",
                                     "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
#: Fresh processes timed for ``setup_s``; the median is reported.
SETUP_SAMPLES = 3
#: Probe runs taken before and after each of them.
SETUP_PROBES = 10

SETUP_PROBE = """\
import time
began = time.perf_counter()
{warm}print(repr(time.perf_counter() - began))
"""


def child_env():
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = str(SOURCE)
    return env


def measure_setup(warm_code):
    """Median seconds a fresh interpreter spends importing waveclust and
    filling the lazy caches the workload's operations would otherwise
    fill on first use, unscaled and at the reference speed.

    Each interpreter's time is scaled by the probe runs taken just before
    and just after it.
    """
    import speed
    probe = speed.SpeedProbe()
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        first = len(probe.samples)
        probe.sample(SETUP_PROBES)
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE.format(warm=warm_code)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=120, check=True)
        probe.sample(SETUP_PROBES)
        around = probe.samples[first:]
        raw.append(float(done.stdout.strip().splitlines()[-1]))
        scaled.append(raw[-1] * speed.REFERENCE_S * len(around) / sum(around))
    return statistics.median(raw), statistics.median(scaled)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SOURCE))
    import waveclust
    if Path(waveclust.__file__).resolve().parent.parent != SOURCE:
        raise SystemExit(f"waveclust was imported from {waveclust.__file__}, "
                         f"not from {SOURCE}")
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; pick from "
                         f"{sorted(WORKLOADS)}")
    cls = WORKLOADS[args.workload]
    if not args.trace:
        raw_setup_s, setup_s = measure_setup(cls.warm_code)
    workload = cls(args.seed, WORK / args.workload)
    workload.warm()
    workload.run(args.seconds, bool(args.trace))

    if args.trace:
        declared = spec["per_layer"]
        values = workload.per_layer([m["name"] for m in declared])
        path = WORK / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
        workload.tracer.write(path, {"workload": args.workload,
                                     "seed": args.seed,
                                     "traced_rounds": workload.traced_rounds})
    else:
        declared = spec["end_to_end"]
        values = workload.end_to_end()
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not args.trace:
        print(f"raw_result_s={values['raw_result_s']!r} "
              f"raw_setup_s={raw_setup_s!r} "
              f"probe_ms={values['probe_ms']!r}", file=sys.stderr)
    tally = workload.tally
    for problem in tally.problems:
        print(f"problem: {problem}", file=sys.stderr)
    missing = [m["name"] for m in declared if values.get(m["name"]) is None]
    if missing:
        raise SystemExit(f"no value measured for {missing}")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": float(values[m["name"]]),
                                "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
