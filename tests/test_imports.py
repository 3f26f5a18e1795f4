"""The import graph: the scale-energy and spectral routes run on NumPy
alone, and the functions that need SciPy import it when first called.

Every check runs in a fresh interpreter, so no earlier test can have
loaded SciPy already.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import waveclust

SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def run_fresh(code, timeout=None, **env):
    """Run ``code`` in a new interpreter that imports this package's tree,
    with ``env`` added to the environment; return its standard output.
    A run still going after ``timeout`` seconds is killed, and the test
    fails with ``subprocess.TimeoutExpired``."""
    source_root = str(Path(waveclust.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    path = source_root + os.pathsep + inherited if inherited else source_root
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=timeout,
                          env={**os.environ, **env, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_loads_no_scipy():
    assert run_fresh(f"import sys, waveclust; print({SCIPY_MODULES})") == "[]"


def test_import_loads_no_multiprocessing():
    # The split forks with os.fork; nothing in the package imports it.
    code = "import sys, waveclust; print('multiprocessing' in sys.modules)"
    assert run_fresh(code) == "False"


def test_import_loads_no_thread_pool():
    # The package runs no thread pool: its loops split over forked
    # processes (waveclust.parallel).
    code = ("import sys, waveclust\n"
            "print('concurrent.futures' in sys.modules)")
    assert run_fresh(code) == "False"


def test_screening_threshold_loads_no_numpy_ma():
    # NumPy's quantile imports numpy.ma on its first call; the threshold
    # takes the same rule in plain floats.
    code = ("import sys, waveclust\n"
            "waveclust.screening_threshold(365)\n"
            "print('numpy.ma' in sys.modules)")
    assert run_fresh(code) == "False"


def test_threaded_wer_build_works_first_in_a_fresh_process():
    # With no pair gate, two workers split the rows over a forked child,
    # which imports neither multiprocessing nor SciPy.
    code = f"""
import sys
import numpy as np
import waveclust as wc
from waveclust import dissimilarity, parallel
dissimilarity._PARALLEL_MIN_PAIRS = dict.fromkeys(dissimilarity.MEASURES, 0)
parallel.usable_cpus = lambda: 2
curves = np.random.default_rng(0).normal(size=(5, 32)).cumsum(axis=1)
grid = wc.make_scale_grid(1, 3, 4)
split = wc.build_dissimilarity_matrix(curves, measure="WER", grid=grid,
                                      threads=2)
serial = wc.build_dissimilarity_matrix(curves, measure="WER", grid=grid)
assert split.values.tobytes() == serial.values.tobytes()
print('multiprocessing' in sys.modules, {SCIPY_MODULES})
"""
    assert run_fresh(code) == "False []"


def test_spectral_route_loads_no_scipy():
    code = f"""
import sys
import numpy as np
import waveclust as wc
record = np.random.default_rng(0).normal(size=6 * 48).cumsum()
days = wc.slice_series(wc.SampledSignal(record), 48)
curves = wc.resample_dataset(days, 6)
grid = wc.make_scale_grid(1, 3, 4)
for measure in ("WER", "MCA", "euclid-features", "euclid-raw"):
    matrix = wc.build_dissimilarity_matrix(curves, measure=measure, grid=grid)
    assert wc.pam(matrix, 2).labels.shape == (6,)
print({SCIPY_MODULES})
"""
    assert run_fresh(code) == "[]"


def test_simulation_loads_no_scipy():
    code = f"""
import sys
import waveclust as wc
assert wc.gen_benchmark(seed=1, n_per_cluster=3, length=64)[1].size == 9
print({SCIPY_MODULES})
"""
    assert run_fresh(code) == "[]"


_SETUP = """
import sys
import numpy as np
import waveclust as wc
rng = np.random.default_rng(1)
rows = np.vstack([rng.normal(c, 0.1, size=(10, 3)) for c in (0.0, 1.0, 2.0)])
truth = np.repeat(np.arange(3), 10)
"""


@pytest.mark.parametrize("call", [
    "assert wc.kmeans(rows, 3, restarts=4).k == 3",
    "assert wc.choose_k_by_jump(rows, 5, restarts=4)[0] == 3",
    "assert wc.select_features_stable(rows, 3, restarts=2)[0]",
    "assert wc.validation_report(truth, truth).misclassified == 0",
    "assert wc.misclassification(truth, truth)[0] == 0",
    "part = wc.kmeans(rows, 3, restarts=4)\n"
    "assert wc.neighborhood_graph(rows, part).inner_hull",
], ids=["kmeans", "choose_k_by_jump", "select_features_stable",
        "validation_report", "misclassification", "neighborhood_graph"])
def test_scipy_backed_functions_work_first_in_a_fresh_process(call):
    out = run_fresh(f"{_SETUP}{call}\nprint({SCIPY_MODULES})")
    assert out != "[]"  # SciPy was imported on demand
