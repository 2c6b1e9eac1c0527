"""Metrics registry: primitives, merging, harvest determinism, and the
serial-vs-parallel aggregation equality the journal relies on."""

from __future__ import annotations

import json

import pytest

from repro.config import MachineConfig
from repro.experiments.runner import BatchRunner, RunPolicy, run_experiment
from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    harvest_cell_metrics,
    metric_key,
)
from repro.queue import CellSpec, run_queue_sweep
from repro.workloads.spec import build_program
from repro.workloads.suite import by_name

SCALE = 0.1


class TestPrimitives:
    def test_metric_key_sorts_labels(self):
        assert metric_key("sim.hits", thread=1, core=0) == (
            "sim.hits{core=0,thread=1}"
        )
        assert metric_key("sim.cells") == "sim.cells"

    def test_counter_monotonic(self):
        counter = Counter()
        counter.inc()
        counter.inc(5)
        assert counter.value == 6
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_set(self):
        gauge = Gauge()
        gauge.set(3.5)
        assert gauge.value == 3.5

    def test_histogram_buckets_and_mean(self):
        histogram = Histogram(bounds=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0):
            histogram.observe(value)
        assert histogram.counts == [1, 1, 1]
        assert histogram.count == 3
        assert histogram.mean == pytest.approx(55.5 / 3)

    def test_histogram_merge_requires_same_bounds(self):
        a, b = Histogram(bounds=(1.0,)), Histogram(bounds=(2.0,))
        with pytest.raises(ValueError):
            a.merge(b)


class TestRegistry:
    def test_get_or_create_is_stable(self):
        registry = MetricsRegistry()
        assert registry.counter("a", core=0) is registry.counter("a", core=0)

    def test_absorb_sums_flat_dicts(self):
        registry = MetricsRegistry()
        registry.absorb({"sim.x": 2, "sim.y": 1})
        registry.absorb({"sim.x": 3})
        assert registry.counters["sim.x"].value == 5
        assert registry.subset("sim.") == {"sim.x": 5, "sim.y": 1}

    def test_merge_is_commutative(self):
        def build(values):
            registry = MetricsRegistry()
            for key, v in values:
                registry.counter(key).inc(v)
            registry.gauge("g").set(max(v for _, v in values))
            for _, v in values:
                registry.histogram("h").observe(v)
            return registry.to_dict()

        doc_a = build([("c", 1), ("c", 2)])
        doc_b = build([("c", 10), ("d", 4)])
        ab, ba = MetricsRegistry(), MetricsRegistry()
        ab.merge(doc_a)
        ab.merge(doc_b)
        ba.merge(doc_b)
        ba.merge(doc_a)
        assert ab.to_dict() == ba.to_dict()

    def test_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("sim.cells").inc(3)
        registry.gauge("runtime.peak").set(7.0)
        registry.histogram("runtime.wall_s").observe(0.25)
        doc = registry.to_dict()
        assert MetricsRegistry.from_dict(doc).to_dict() == doc

    def test_write_is_deterministic_json(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.counter("a").inc()
        path_1, path_2 = tmp_path / "m1.json", tmp_path / "m2.json"
        registry.write(str(path_1))
        registry.write(str(path_2))
        assert path_1.read_bytes() == path_2.read_bytes()
        assert json.loads(path_1.read_text())["counters"] == {"a": 1, "b": 1}


class TestHarvest:
    def _cell(self, name="cholesky", n_threads=2):
        spec = by_name(name)
        machine = MachineConfig(n_cores=n_threads)
        return run_experiment(
            spec.full_name, machine,
            build_program(spec, n_threads, scale=SCALE),
            build_program(spec, 1, scale=SCALE),
        )

    def test_harvest_is_deterministic(self):
        flat_1 = harvest_cell_metrics(self._cell())
        flat_2 = harvest_cell_metrics(self._cell())
        assert flat_1 == flat_2
        assert list(flat_1) == list(flat_2)  # insertion order too

    def test_harvest_matches_ground_truth(self):
        result = self._cell()
        flat = harvest_cell_metrics(result)
        assert flat["sim.cells"] == 1
        assert flat["sim.total_cycles"] == result.mt_result.total_cycles
        for thread in result.mt_result.threads:
            key = metric_key("sim.spin_cycles", thread=thread.tid)
            assert flat[key] == thread.gt_spin_cycles
        for raw in result.report.cores:
            key = metric_key(
                "sim.memory_interference_stall", core=raw.core_id
            )
            assert flat[key] == raw.memory_interference_stall


class TestSerialParallelEquality:
    CELLS = [("cholesky", 2), ("fft", 2)]

    def test_sim_metrics_equal_serial_vs_jobs_2(self):
        policy = RunPolicy()
        serial = MetricsRegistry()
        runner = BatchRunner(policy=policy, scale=SCALE, metrics=serial)
        for name, n_threads in self.CELLS:
            runner.run_cell(by_name(name), n_threads)

        parallel = MetricsRegistry()
        run_queue_sweep(
            [CellSpec(by_name(name), n, scale=SCALE)
             for name, n in self.CELLS],
            workers=2, policy=policy, metrics=parallel,
        )

        assert serial.subset("sim.") == parallel.subset("sim.")
        assert serial.subset("sim.")["sim.cells"] == len(self.CELLS)
        # runtime.* metrics exist on both sides but are host-dependent
        assert parallel.counters["runtime.cells_ok"].value == len(self.CELLS)
