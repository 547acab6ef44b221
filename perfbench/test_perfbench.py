"""Tests of the benchmark's own arithmetic and failure accounting.

Run from the repository root: python3 -m pytest perfbench
"""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from child import attempt, measure  # noqa: E402
from inputs import CORPUS_SEEDS, random_solvable_structure  # noqa: E402
from stats import tail_percentile  # noqa: E402
from tracing import ROOT_SPAN, Tracer, self_times  # noqa: E402
from workloads import CorpusBuild, FiliformEval, Library  # noqa: E402


@pytest.mark.parametrize(
    "n, percentile, beyond",
    [(20, 50.0, 10), (39, 50.0, 19), (40, 75.0, 10), (99, 75.0, 24), (100, 90.0, 10),
     (200, 95.0, 10), (999, 95.0, 49), (1000, 99.0, 10), (10000, 99.9, 10)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, percentile, beyond):
    values = list(range(n, 0, -1))
    pct, value, got_beyond = tail_percentile(values)
    assert (pct, got_beyond) == (percentile, beyond)
    assert value == n - beyond
    assert sum(v > value for v in values) == beyond


@pytest.mark.parametrize("n", [0, 1, 10, 19])
def test_tail_percentile_omitted_with_too_few_samples(n):
    assert tail_percentile([1.0] * n) is None


def test_self_time_subtracts_nested_children():
    spans = [
        (1, None, "op", 0, 100),
        (2, 1, "a", 10, 40),
        (3, 2, "b", 20, 30),
        (4, 1, "c", 50, 60),
    ]
    assert self_times(spans) == {1: 60, 2: 20, 3: 10, 4: 10}


def test_self_time_counts_overlapping_children_once():
    spans = [
        (1, None, "op", 0, 100),
        (2, 1, "a", 10, 50),
        (3, 1, "b", 30, 70),
        (4, 1, "c", 90, 120),
    ]
    assert self_times(spans)[1] == 100 - 60 - 10


def test_tracer_spans_share_an_operation_id_and_nest():
    def inner(x):
        return x + 1

    def outer(x):
        return traced_inner(x) * 2

    tracer = Tracer()
    traced_inner = tracer.wrap(inner, "m.inner")
    traced_outer = tracer.wrap(outer, "m.outer")
    with tracer.operation("k"):
        assert traced_outer(1) == 4
    by_name = {s[3]: s for s in tracer.spans}
    assert {s[0] for s in tracer.spans} == {by_name[ROOT_SPAN][1]}
    assert by_name["m.inner"][2] == by_name["m.outer"][1]
    assert by_name["m.outer"][2] == by_name[ROOT_SPAN][1]
    (summary,) = tracer.operation_summaries()
    assert set(summary["layers_ms"]) == {"m.inner_ms", "m.outer_ms"}


@pytest.fixture(scope="module")
def lib():
    return Library()


def test_corpus_seed_2_is_one_failed_operation_not_a_crash(lib):
    workload = CorpusBuild(lib, seed=0)
    workload.cycle = [2, 0]
    samples = measure(workload, seconds=0.0)
    assert [(s[0], s[2]) for s in samples] == [(2, "raised"), (0, "ok")]
    assert all(s[4] > 0 for s in samples)


def test_traced_counts_repeat_for_the_same_input(lib):
    workload = CorpusBuild(lib, seed=0)
    tracer = Tracer()
    tracer.install()
    try:
        for _ in range(2):
            attempt(workload, 4, tracer)
    finally:
        tracer.uninstall()
    assert lib.algebra.nilradical.__module__ == "solvhull.algebra"
    first, second = tracer.operation_summaries()
    assert first["counts"] == second["counts"]
    assert first["counts"]["size.r"] == 41


def test_filiform_eval_checks_chain_sums(lib):
    workload = FiliformEval(lib, seed=0)
    full, series, chains = workload.run(0)
    assert workload.check(0, (full, series, chains)) is None
    assert len(chains) == workload.form.r == 96
    chains[3] += 1e-3
    assert "chain sum" in workload.check(0, (full, series, chains))


def test_corpus_generator_matches_test_fixture():
    conftest = ROOT / "tests" / "conftest.py"
    if not conftest.is_file():
        pytest.skip("test fixtures not present")
    spec = importlib.util.spec_from_file_location("solvhull_test_conftest", conftest)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for seed in CORPUS_SEEDS:
        np.testing.assert_array_equal(
            random_solvable_structure(seed), module.random_solvable_structure(seed)
        )


def test_count_drift_flags_changed_counts(tmp_path, monkeypatch):
    import run

    monkeypatch.setattr(run, "OUT", tmp_path)
    same = [{"key": 1, "counts": {"x_calls": 3}}]
    changed = [{"key": 1, "counts": {"x_calls": 4}}]
    assert run.count_drift("w", 0, same, "code") == []
    assert run.count_drift("w", 0, same, "code") == []
    assert len(run.count_drift("w", 0, changed, "code")) == 1
    assert run.count_drift("w", 0, changed, "other code") == []
    assert len(run.count_drift("w", 0, same + changed, "third code")) == 1


def test_reference_clock_weights_each_stretch_by_its_kernel_times(monkeypatch):
    import child

    clock = child.ReferenceClock.__new__(child.ReferenceClock)
    # one operation: 1 s between kernel times 10 and 30 ms, then 3 s
    # between 30 ms and the final kernel time, 20 ms
    clock._refs = [10.0, 30.0]
    clock._ops = [[(1.0, 0), (3.0, 1)]]
    monkeypatch.setattr(child, "reference_now", lambda: 20.0)
    (ref_ms,) = clock.references()
    assert ref_ms == pytest.approx(4 / (1 / 20 + 3 / 25))


def test_scaled_metrics_use_each_sample_reference_time():
    import run
    from reference import NOMINAL_MS

    # (key, ms, status, reason, reference kernel ms)
    samples = [
        ("a", 100.0, "ok", None, NOMINAL_MS),
        ("b", 300.0, "raised", "boom", NOMINAL_MS),
        ("a", 200.0, "ok", None, 2 * NOMINAL_MS),
        ("b", 400.0, "ok", None, 2 * NOMINAL_MS),
    ]
    assert run.latencies(samples, scale=True) == [100.0, float("inf"), 100.0, 200.0]
    assert run.p50(samples) == 300.0
    assert run.p50(samples, scale=True) == 150.0
    # 3 ok operations in 1000 ms raw, 700 ms scaled; the failed one's time counts
    assert run.ops_per_s(samples) == 3.0
    assert run.ops_per_s(samples, scale=True) == 3e3 / 700
    setups = [(1.0, NOMINAL_MS), (3.0, 2 * NOMINAL_MS), (2.0, 4 * NOMINAL_MS)]
    assert run.setup_seconds(setups) == 2.0
    assert run.setup_seconds(setups, scale=True) == 1.0


def test_run_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus-build", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
