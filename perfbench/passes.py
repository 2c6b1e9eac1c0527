"""One measured pass of a workload, in a fresh process.

    python3 perfbench/passes.py setup  WORKLOAD SEED
    python3 perfbench/passes.py api    WORKLOAD SEED [--inject LAYER:SECONDS]
    python3 perfbench/passes.py traced WORKLOAD SEED [--journal PATH]
                                       [--inject LAYER:SECONDS]
    python3 perfbench/passes.py cli    WORKLOAD JOURNAL [--spans PATH]
                                       [--jobs N]

``run.py`` starts every pass as its own process, so an
in-process memo (the ST reference memo, or any later warm-state memo)
helps only within one pass, as in one user invocation.  Each pass prints
one JSON object as the last line of its standard output.

``setup`` stops right before the first cell call.  ``api`` runs the
untraced public-API protocol.  ``traced`` repeats the cell protocol
through the public calls in ``BatchRunner``'s order, with
``BatchRunner``'s ST-memo key, and records a span around each call.
``cli`` runs ``repro sweep`` through ``repro.cli.main``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workloads import (  # noqa: E402
    REF_PROBE_S,
    WORKLOADS,
    cell_key,
    resolve_cells,
    speed_probe,
    stack_digest,
    sweep_argv,
    use_checkout_sources,
)


class Spans:
    """Spans the benchmark records around its own calls into a layer."""

    def __init__(self) -> None:
        self.rows: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        row = {
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "t0": time.perf_counter(),
        }
        self.rows.append(row)
        self._open.append(len(self.rows) - 1)
        try:
            yield
        finally:
            row["t1"] = time.perf_counter()
            self._open.pop()

    def layers(self) -> dict[str, dict]:
        """Calls, total and self time per span name.  Self time is the
        span's duration minus the part its child spans cover."""
        child_time = [0.0] * len(self.rows)
        for row in self.rows:
            if row["parent"] is not None:
                child_time[row["parent"]] += row["t1"] - row["t0"]
        out: dict[str, dict] = {}
        for row, children in zip(self.rows, child_time):
            dur = row["t1"] - row["t0"]
            entry = out.setdefault(
                row["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            entry["calls"] += 1
            entry["total_s"] += dur
            entry["self_s"] += dur - children
        return out


def span_cost_s(samples: int = 20000) -> float:
    """Seconds one span costs, measured on an empty span."""
    spans = Spans()
    t = time.perf_counter()
    for _ in range(samples):
        with spans.span("probe"):
            pass
    return (time.perf_counter() - t) / samples


def _delayed(fn, seconds: float):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        time.sleep(seconds)
        return fn(*args, **kwargs)
    return wrapper


#: layers whose public call the self-check may delay, and the module
#: attribute through which both protocols reach that call
INJECTABLE = {"st.reference": "run_reference"}


def inject_delay(spec: str | None) -> None:
    """Delay one layer's public call by ``SECONDS`` per call."""
    if spec is None:
        return
    layer, _, seconds = spec.partition(":")
    if layer not in INJECTABLE:
        raise SystemExit(f"--inject: layer must be one of {sorted(INJECTABLE)}")
    import repro.experiments.runner as runner

    attr = INJECTABLE[layer]
    setattr(runner, attr, _delayed(getattr(runner, attr), float(seconds)))


def _cell_record(spec, n_threads, stack, mt_result) -> dict:
    consistent = True
    try:
        stack.validate_consistency()
    except AssertionError:
        consistent = False
    target = spec.target_speedup_16
    paper_err = (
        abs(stack.actual_speedup - target) / n_threads
        if n_threads == 16 and target and stack.actual_speedup is not None
        else None
    )
    return {
        "key": cell_key(spec, n_threads),
        "digest": stack_digest(stack, mt_result.total_cycles),
        "truncated": bool(mt_result.truncated),
        "consistent": consistent,
        "mt_cycles": mt_result.total_cycles,
        "est_err": (
            abs(stack.estimation_error)
            if stack.estimation_error is not None else None
        ),
        "paper_err": paper_err,
    }


def _sim_counts(results, counts: dict | None = None) -> dict:
    """Add the exact simulated counts of ``results`` to ``counts``."""
    if counts is None:
        counts = dict.fromkeys(
            ("instrs", "cycles", "llc_accesses", "llc_misses",
             "dram_accesses"), 0
        )
    for result in results:
        counts["instrs"] += result.total_instrs
        counts["cycles"] += result.total_cycles
        for stats in result.chip.stats:
            counts["llc_accesses"] += stats.llc_hits + stats.llc_misses
            counts["llc_misses"] += stats.llc_misses
            counts["dram_accesses"] += stats.dram_accesses
    return counts


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def pass_setup(workload, seed) -> dict:
    if workload.kind == "cli":
        from repro.cli import build_parser

        build_parser().parse_args(sweep_argv(workload, "journal.json"))
    else:
        import repro  # noqa: F401
    resolve_cells(workload, seed)
    return {"ready": time.time()}


def pass_api(workload, seed) -> dict:
    """Untraced: one ``run_experiment`` per cell, as a user calls it."""
    from repro import MachineConfig, build_program
    import repro.experiments.runner as runner

    cells = resolve_cells(workload, seed)
    records = []
    instrs = 0
    wall = ref_wall = 0.0
    # host speed before the first cell and after each, outside the
    # timing; a cell is scaled by the mean of the probes either side
    probes = [speed_probe()]
    for spec, n in cells:
        t0 = time.perf_counter()
        result = runner.run_experiment(
            spec.full_name, MachineConfig(n_cores=n),
            build_program(spec, n, scale=workload.scale),
            build_program(spec, 1, scale=workload.scale),
            max_cycles=workload.max_cycles,
        )
        records.append(_cell_record(spec, n, result.stack, result.mt_result))
        instrs += result.mt_result.total_instrs + result.st_result.total_instrs
        seconds = time.perf_counter() - t0
        probes.append(speed_probe())
        wall += seconds
        ref_wall += seconds * REF_PROBE_S / statistics.fmean(probes[-2:])
    return {
        "wall_s": wall,
        "ref_wall_s": ref_wall,
        "probe_s": statistics.median(probes),
        "cells": records,
        "instrs": instrs,
        "maxrss_kb": _maxrss_kb(),
    }


def _unaccounted_loop(spec, n_threads, workload) -> float:
    """Loop seconds of the cell's program without the accounting
    hardware.  Run right after the accounted cell, outside the timed
    protocol, so that both loops see the same host speed."""
    from repro import MachineConfig, build_program
    from repro.session.kernel import SimulationKernel

    kernel = SimulationKernel(
        MachineConfig(n_cores=n_threads),
        build_program(spec, n_threads, scale=workload.scale),
        accounted=False, max_cycles=workload.max_cycles,
        on_timeout="truncate",
    )
    kernel.step(-1)
    t = time.perf_counter()
    kernel.finish()
    return time.perf_counter() - t


def pass_traced(workload, seed, journal_path) -> dict:
    """The cell protocol through its public calls, one span per call."""
    from repro import MachineConfig, build_program
    from repro.robustness.journal import SweepJournal
    from repro.session.kernel import SimulationKernel
    import repro.experiments.runner as runner

    cells = resolve_cells(workload, seed)
    spans = Spans()
    journal = SweepJournal(journal_path) if journal_path else None
    max_cycles = workload.max_cycles
    st_memo: dict = {}
    records = []
    # counts accumulate per cell so no finished run is kept alive
    counts = _sim_counts([])
    mt_instrs = st_runs = warm_lines = 0
    spin = yield_ = 0
    cell_time = wall = accounting_overhead = 0.0
    for spec, n in cells:
        t_cell = time.perf_counter()
        with spans.span("cell"):
            machine = MachineConfig(n_cores=n)
            with spans.span("workloads.build"):
                mt_program = build_program(spec, n, scale=workload.scale)
            # BatchRunner's ST-memo key: spec, scale, single-core
            # machine, watchdog limits
            key = (spec, workload.scale, machine.with_cores(1), max_cycles,
                   None)
            st_result = st_memo.get(key)
            if st_result is None:
                with spans.span("st.reference"):
                    with spans.span("workloads.build"):
                        st_program = build_program(
                            spec, 1, scale=workload.scale
                        )
                    st_result = runner.run_reference(
                        machine, st_program,
                        max_cycles=max_cycles, on_timeout="truncate",
                    )
                st_memo[key] = st_result
                st_runs += 1
                _sim_counts([st_result], counts)
            ts = None if st_result.truncated else st_result.total_cycles
            with spans.span("sim.warm"):
                kernel = SimulationKernel(
                    machine, mt_program, accounted=True,
                    max_cycles=max_cycles, on_timeout="truncate",
                )
                # a pause target before cycle 0 returns right after the
                # untimed cache warmup, before the first scheduling step
                kernel.step(-1)
            t_loop = time.perf_counter()
            with spans.span("sim.loop"):
                mt_result = kernel.finish()
            accounted_loop = time.perf_counter() - t_loop
            with spans.span("accounting.report"):
                report = kernel.report()
            with spans.span("core.stack"):
                stack = runner.build_stack(spec.full_name, report, ts_cycles=ts)
        cell_time += time.perf_counter() - t_cell
        if journal is not None:
            with spans.span("journal.write"):
                journal.record_ok(
                    spec.full_name, n, attempts=1,
                    total_cycles=mt_result.total_cycles,
                    truncated=mt_result.truncated,
                )
        wall += time.perf_counter() - t_cell
        accounting_overhead += accounted_loop - _unaccounted_loop(
            spec, n, workload
        )
        snapshot = kernel.accountant.snapshot()
        spin += sum(snapshot["spin"])
        yield_ += sum(snapshot["yield"].values())
        warm_lines += sum(len(lines) for lines in mt_program.warmup or ())
        records.append(_cell_record(spec, n, stack, mt_result))
        _sim_counts([mt_result], counts)
        mt_instrs += mt_result.total_instrs
    maxrss = _maxrss_kb()
    layers = spans.layers()
    out = {
        "wall_s": wall,
        "cell_s": cell_time,
        "cells": records,
        "layers": layers,
        "counts": counts,
        "mt_instrs": mt_instrs,
        "warm_lines": warm_lines,
        "spin_cycles": spin,
        "yield_cycles": yield_,
        "st_runs": st_runs,
        "accounting_overhead_s": accounting_overhead,
        "span_overhead_s": len(spans.rows) * span_cost_s(),
        "maxrss_kb": maxrss,
    }
    if journal_path:
        out.update(_journal_facts(journal_path))
    return out


def _journal_facts(path: str) -> dict:
    with open(path, "rb") as handle:
        data = handle.read()
    cells = json.loads(data)["cells"]
    return {
        "journal_md5": hashlib.md5(data).hexdigest(),
        "journal_bytes": len(data),
        "journal_cells": {
            key: [entry["status"], entry.get("total_cycles"),
                  entry.get("truncated")]
            for key, entry in cells.items()
        },
    }


def pass_cli(workload, journal_path, spans_path, jobs) -> dict:
    """``repro sweep`` through the CLI entry point, timed around main()."""
    from repro.cli import main

    argv = sweep_argv(workload, journal_path, jobs)
    if spans_path:
        argv += ["--emit-spans", spans_path]
    stdout = io.StringIO()
    probe_before = speed_probe()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(stdout):
        rc = main(argv)
    wall = time.perf_counter() - t0
    lines = stdout.getvalue().strip().splitlines()
    probe = (probe_before + speed_probe()) / 2
    out = {
        "wall_s": wall,
        "ref_wall_s": wall * REF_PROBE_S / probe,
        "probe_s": probe,
        "rc": rc,
        "summary": lines[-1] if lines else "",
        "maxrss_kb": _maxrss_kb(),
    }
    if os.path.exists(journal_path):
        out.update(_journal_facts(journal_path))
    if spans_path:
        out["executor"] = _executor_facts(spans_path)
    return out


def _executor_facts(spans_path: str) -> dict:
    """Σ cell time and the CLI's own phase totals from ``--emit-spans``."""
    with open(spans_path) as handle:
        doc = json.load(handle)
    cell_s = 0.0
    phases: dict[str, float] = {}
    for row in doc["spans"]:
        seconds = row["dur_us"] / 1e6
        if row["cat"] == "cell" and ":" in row["name"]:
            cell_s += seconds
        else:
            phases[row["name"]] = phases.get(row["name"], 0.0) + seconds
    return {
        "jobs": doc["metadata"]["jobs"],
        "cell_s": cell_s,
        "phases": phases,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "api", "traced", "cli"))
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("arg", help="seed, or the journal path for cli")
    parser.add_argument("--journal", default=None)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--inject", default=None, metavar="LAYER:SECONDS")
    args = parser.parse_args(argv)
    use_checkout_sources()
    workload = WORKLOADS[args.workload]
    if args.mode == "cli":
        out = pass_cli(workload, args.arg, args.spans, args.jobs)
    else:
        seed = int(args.arg)
        if args.mode == "setup":
            out = pass_setup(workload, seed)
        else:
            inject_delay(args.inject)
            if args.mode == "api":
                out = pass_api(workload, seed)
            else:
                out = pass_traced(workload, seed, args.journal)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
