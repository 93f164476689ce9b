"""Tests of the benchmark itself.  Run with: python3 -m pytest perfbench/tests"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import hostclock  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

worker.import_program()

from fairmarket import Instance, check_hall  # noqa: E402
from fairmarket.oracles import DEFAULT_BRUTE_CAP  # noqa: E402

TINY = [
    [[3, 1, 2], [1, 2, 3]],
    [[5, 0, 1, 2], [0, 4, 4, 1], [2, 2, 0, 6]],
]


def benchmark_spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny_items(workload: str, tmp_path: Path) -> list:
    return worker.prepare(workload, TINY, tmp_path)


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_generator_is_deterministic(workload):
    first = corpus.build_corpus(workload, 7)
    assert first == corpus.build_corpus(workload, 7)
    assert first != corpus.build_corpus(workload, 8)
    spec = corpus.WORKLOADS[workload]
    assert len(first) == len(spec.cells) * spec.per_cell


def test_generated_instances_have_a_planted_matching():
    for values in corpus.build_corpus("crowd", 3):
        assert all(0 <= v <= 1000 for row in values for v in row)
        assert check_hall(Instance.from_values(values))


def test_audit_padding_stays_under_the_brute_force_cap():
    assert corpus.BRUTE_STATE_CAP == DEFAULT_BRUTE_CAP
    cells = set(corpus.WORKLOADS["audit"].cells)
    padded = 0
    for seed in range(5):
        for values in corpus.build_corpus("audit", seed):
            n, m = len(values), len(values[0])
            assert n**m <= DEFAULT_BRUTE_CAP
            padded += (n, m) not in cells
    assert padded > 0


def test_audit_pads_a_quarter_of_each_cell():
    spec = corpus.WORKLOADS["audit"]
    values_list = corpus.build_corpus("audit", 4)
    for c, cell in enumerate(spec.cells):
        shapes = [(len(v), len(v[0])) for v in values_list[c :: len(spec.cells)]]
        assert sum(shape != cell for shape in shapes) == round(spec.per_cell * corpus.PAD_SHARE)


def test_host_clock_scales_each_instance_by_its_surrounding_probes():
    clock = hostclock.HostClock()
    nominal = hostclock.KERNEL_NOMINAL_S
    clock.probes = [2 * nominal, 4 * nominal, nominal]
    clock.samples = [(0, 0.3), (1, 0.5)]  # probe means 3x and 2.5x nominal
    assert clock.corrected() == pytest.approx([0.1, 0.2])


def test_quantile_weighs_every_order_statistic():
    assert worker.quantile([0.25], 0.9) == 0.25
    assert worker.quantile([1.0, 3.0], 0.5) == pytest.approx(2.0)
    assert worker.quantile(list(range(101)), 0.5) == pytest.approx(50.0)
    # unlike the sample quantile, the estimate moves with the values beyond it
    low, high = [1.0] * 10 + [2.0] * 10, [1.0] * 10 + [2.0] * 9 + [9.0]
    assert worker.quantile(low, 0.5) < worker.quantile(high, 0.5)


def test_untraced_run_has_no_wrappers_installed(tmp_path):
    seen = []

    def runner(item):
        seen.append(spans.installed())
        return worker.run_crowd(item)

    items = tiny_items("crowd", tmp_path)
    checker = worker.Checker(len(items), None)
    worker.measure(items, runner, 0, checker)
    assert seen and all(found == [] for found in seen)
    assert checker.clean


def test_traced_run_removes_its_wrappers(tmp_path):
    originals = {
        (module, path): getattr(*spans._owner(module, path)) for module, path, _ in spans.TARGETS
    }
    with spans.Tracer():
        assert len(spans.installed()) == len(spans.TARGETS)
    assert spans.installed() == []
    for (module, path), fn in originals.items():
        assert getattr(*spans._owner(module, path)) == fn


def test_self_time_excludes_child_spans():
    tracer = spans.Tracer()
    inner = tracer.span("inner", lambda: sum(range(200_000)))
    outer = tracer.span("outer", lambda: inner() + inner())
    outer()
    calls, self_ns, total_ns = tracer.stats["outer"]
    assert calls == 1
    assert self_ns == total_ns - tracer.stats["inner"][2]


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_metric_names_match_benchmark_json(workload, tmp_path):
    spec = benchmark_spec()
    runner = worker.RUNNERS[workload]
    items = tiny_items(workload, tmp_path)
    e2e, _ = worker.measure(items, runner, 0, worker.Checker(len(items), None))
    e2e_units = {name: worker.END_TO_END_UNITS[name] for name in e2e} | {"setup_s": "s"}
    assert e2e_units == {m["name"]: m["unit"] for m in spec["end_to_end"]}

    checker = worker.Checker(len(items), None)
    layers, detail = worker.measure_traced(items, runner, checker)
    assert checker.clean and not detail["missing_spans"]
    assert {name: worker.PER_LAYER_UNITS[name] for name in layers} == {
        m["name"]: m["unit"] for m in spec["per_layer"]
    }


def test_counters_match_between_traced_and_untraced_runs(tmp_path):
    items = tiny_items("audit", tmp_path)
    plain = worker.Checker(len(items), None)
    worker.measure(items, worker.run_audit, 0, plain)
    traced = worker.Checker(len(items), None)
    layers, _ = worker.measure_traced(items, worker.run_audit, traced)
    assert traced.nondeterministic == 0
    assert plain.counters() == traced.counters()
    assert layers["engine.iterations"] == plain.counters()["iterations"]


def test_missing_wrap_target_is_reported_absent(tmp_path, monkeypatch):
    renamed = tuple(
        (module, "no_such_function" if name == "market.reach" else path, name)
        for module, path, name in spans.TARGETS
    )
    monkeypatch.setattr(spans, "TARGETS", renamed)
    items = tiny_items("crowd", tmp_path)
    layers, detail = worker.measure_traced(items, worker.run_crowd, worker.Checker(len(items), None))
    assert detail["missing_spans"] == ["market.reach"]
    assert "market.reach_s" not in layers and "market.reach_agents_mean" not in layers
    assert "market.path_s" in layers


def test_a_failing_instance_is_counted_and_the_run_goes_on(tmp_path):
    items = tiny_items("crowd", tmp_path)

    def runner(item):
        if item is items[0]:
            raise RecursionError("maximum recursion depth exceeded")
        return worker.run_crowd(item)

    checker = worker.Checker(len(items), None)
    metrics, detail = worker.measure(items, runner, 0, checker)
    assert checker.failed == 1 and checker.attempted == 2 and not checker.clean
    assert detail["failed_frac"] == 0.5
    assert metrics["latency_ms.p50"] > 0


def test_golden_mismatch_is_detected(tmp_path):
    items = tiny_items("crowd", tmp_path)
    checker = worker.Checker(len(items), [("0" * 64, "0" * 64)] * len(items))
    worker.measure(items, worker.run_crowd, 0, checker)
    assert checker.golden_mismatches == len(items) and not checker.clean


def test_certifier_rejects_a_broken_solution():
    values = [[3, 1], [1, 3]]
    good = {"bundles": [[0], [1]], "prices": ["3", "3"]}
    assert worker.certify.problems(values, good) == []
    unfair = {"bundles": [[], [0, 1]], "prices": ["3", "3"]}
    assert worker.certify.problems(values, unfair)
