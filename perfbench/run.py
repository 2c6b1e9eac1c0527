"""The repository benchmark: end-to-end metrics, a per-layer table, compare.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--out RESULTS.jsonl]
    python3 perfbench/run.py --compare OLD.jsonl NEW.jsonl
    python3 perfbench/run.py --self-check
    python3 perfbench/run.py --record-expected

A run prints every metric by name with its unit, then one JSON object as
the last line of standard output.  With ``--trace 0`` it reports the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` it reports
the per-layer metrics and prints the per-layer self-time table.  Every
pass runs in a fresh process (``passes.py``).

The end-to-end times are scaled to a reference host speed: each is
multiplied by ``REF_PROBE_S / speed_probe()``, with the probe timed beside
it (``workloads.speed_probe``), because a shared host can change speed by
40-60% within minutes.  The probe is no code of the program, so a change
to the program moves them in full.  The raw times are printed too.

``--out`` appends the result, stamped with a host fingerprint, to a
JSON-lines file that ``--compare`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workloads import (  # noqa: E402
    EXECUTOR_JOBS, REF_PROBE_S, ROOT, TMP, WORKLOADS, has_sources,
    speed_probe,
)

HERE = os.path.dirname(os.path.abspath(__file__))
PASSES = os.path.join(HERE, "passes.py")
EXPECTED = os.path.join(HERE, "expected.json")
BENCHMARK = ROOT / "BENCHMARK.json"

#: a run must end within this many seconds of its start
RUN_LIMIT_S = 170.0
SETUP_PROBES = 7
#: String hashing is randomised per process by default, which gives every
#: pass its own layout of string-keyed dicts; a fixed hash seed removes
#: that one source of run-to-run variation.
PASS_ENV = dict(os.environ, PYTHONHASHSEED="0")

DESCRIPTIONS = {
    "setup_s": "process start to the first cell call: interpreter, "
               "import, config and cell list (median of fresh probes; "
               "reference-speed seconds)",
    "wall_s": "first cell call to the last stack or journal write "
              "(reference-speed seconds)",
    "sim_kinstr_per_s": "simulated MT+ST instructions per reference-speed "
                        "host second",
    "peak_rss_mb": "sum of per-process peak RSS over the workload's "
                   "process and its workers",
    "workloads.build_s": "build_program calls (MT and ST programs)",
    "workloads.warm_lines": "entries in Program.warmup of the MT programs",
    "sim.warm_s": "SimulationKernel construction + step to cycle 0 "
                  "(cache warmup), MT runs",
    "sim.warm_ns_per_line": "sim.warm_s per warmed line",
    "sim.loop_s": "finish() after warmup, MT runs",
    "sim.loop_ns_per_instr": "sim.loop_s per simulated MT instruction",
    "sim.instrs": "instructions retired, MT and ST runs",
    "sim.cycles": "simulated cycles, MT and ST runs",
    "sim.llc_accesses": "LLC hits + misses, MT and ST runs",
    "sim.llc_misses": "LLC misses, MT and ST runs",
    "sim.dram_accesses": "DRAM accesses, MT and ST runs",
    "accounting.overhead_s": "accounted MT loop minus the same loop "
                             "with accounted=False",
    "accounting.report_s": "kernel.report() calls",
    "accounting.spin_cycles": "spin cycles from the accountant snapshot",
    "accounting.yield_cycles": "yield cycles from the accountant snapshot",
    "st.reference_s": "run_reference self time (memo misses)",
    "st.reference_runs": "ST reference runs executed",
    "st.memo_hit_ratio": "1 - ST runs / cells",
    "core.stack_s": "build_stack calls",
    "core.est_error_abs": "mean |(S_est - S)/N| over the cells (Eq. 6)",
    "journal.write_s": "SweepJournal.record_ok calls (0: no journal)",
    "journal.bytes": "final journal size (0: no journal)",
    "parallel.busy_ratio": "sum of cell time / (jobs x wall)",
    "parallel.overhead_s": "wall - sum of cell time / jobs",
    "trace.overhead_pct": "measured cost of the spans recorded, as a "
                          "share of the traced protocol's time",
}

#: span name -> the module whose public call the span wraps
LAYER_MODULES = {
    "workloads.build": "workloads (build_program)",
    "sim.warm": "sim (SimulationKernel warmup)",
    "sim.loop": "sim (SimulationKernel.finish)",
    "accounting.report": "accounting (kernel.report)",
    "core.stack": "core (build_stack)",
    "st.reference": "experiments.runner (run_reference)",
    "cell": "benchmark glue inside a cell",
    "journal.write": "robustness.journal (record_ok)",
}


# ----------------------------------------------------------------------
# processes
# ----------------------------------------------------------------------

def _descendants(pid: int) -> list[int]:
    found, todo = [], [pid]
    while todo:
        current = todo.pop()
        try:
            tasks = os.listdir(f"/proc/{current}/task")
        except OSError:
            continue
        for task in tasks:
            try:
                with open(f"/proc/{current}/task/{task}/children") as fh:
                    children = [int(c) for c in fh.read().split()]
            except OSError:
                continue
            found += children
            todo += children
    return found


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class PassError(RuntimeError):
    pass


def run_pass(args: list[str], deadline: float) -> dict:
    """Run ``passes.py ARGS`` in a fresh process and parse its result.

    While it runs, the peak RSS of each of its worker processes is
    sampled from ``/proc``; the pass reports its own peak itself.
    """
    TMP.mkdir(exist_ok=True)
    with tempfile.TemporaryFile(dir=TMP) as out, \
            tempfile.TemporaryFile(dir=TMP) as err:
        t_spawn = time.time()
        proc = subprocess.Popen(
            [sys.executable, PASSES, *args],
            cwd=ROOT, stdout=out, stderr=err, start_new_session=True,
            env=PASS_ENV,
        )
        worker_hwm: dict[int, int] = {}
        try:
            while proc.poll() is None:
                time.sleep(0.2)
                if time.monotonic() > deadline:
                    raise PassError(f"pass {args} ran past the time limit")
                for pid in _descendants(proc.pid):
                    worker_hwm[pid] = max(
                        worker_hwm.get(pid, 0), _vm_hwm_kb(pid)
                    )
        finally:
            # the pass leads its own process group: kill what is left of
            # it, pool workers included
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        out.seek(0)
        err.seek(0)
        lines = out.read().decode(errors="replace").strip().splitlines()
        if proc.returncode != 0 or not lines:
            stderr = err.read().decode(errors="replace")
            raise PassError(
                f"pass {args} exited {proc.returncode}:\n{stderr[-3000:]}"
            )
    result = json.loads(lines[-1])
    result["t_spawn"] = t_spawn
    result["worker_rss_kb"] = sum(worker_hwm.values())
    return result


# ----------------------------------------------------------------------
# correctness
# ----------------------------------------------------------------------

def load_expected() -> dict:
    with open(EXPECTED) as handle:
        return json.load(handle)


def _expected_for(workload) -> dict:
    return load_expected()["sweep" if workload.kind == "cli" else
                           workload.name]


def check_cells(workload, seed: int, records: list[dict]) -> list[str]:
    """Problems with the stacks of one api pass (empty when correct).

    Seed 0 must reproduce the recorded digests; other seeds run renamed
    specs, so they are checked against Eq. 4 closure instead.
    """
    problems = []
    expected = _expected_for(workload)["cells"] if seed == 0 else {}
    for rec in records:
        key = rec["key"]
        if rec["truncated"]:
            problems.append(f"{key}: truncated")
        elif not rec["consistent"]:
            problems.append(f"{key}: segments do not sum to N")
        elif seed == 0 and rec["digest"] != expected[key]["digest"]:
            problems.append(
                f"{key}: stack digest {rec['digest']} != "
                f"{expected[key]['digest']}"
            )
    return problems


def check_journal(workload, facts: dict) -> list[str]:
    expected = _expected_for(workload)
    problems = []
    cells = facts.get("journal_cells", {})
    for key, exp in expected["cells"].items():
        got = cells.get(key)
        if got is None:
            problems.append(f"{key}: missing from the journal")
        elif got != ["ok", exp["mt_cycles"], False]:
            problems.append(f"{key}: journal entry {got}")
    if not problems and facts.get("journal_md5") != expected["journal_md5"]:
        problems.append(
            f"journal md5 {facts.get('journal_md5')} != "
            f"{expected['journal_md5']}"
        )
    return problems


def _failed_cells(problems: list[str]) -> int:
    return len({p.split(": ")[0] for p in problems})


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------

def host_fingerprint() -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT,
            capture_output=True, text=True,
        )
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "commit": commit,
    }


def measure_setup(workload, seed: int, deadline: float) -> tuple:
    """Median set-up seconds of fresh processes: scaled to reference
    speed by a probe taken right before each, and raw."""
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        factor = REF_PROBE_S / speed_probe()
        res = run_pass(["setup", workload.name, str(seed)], deadline)
        raw.append(res["ready"] - res["t_spawn"])
        scaled.append(raw[-1] * factor)
    return statistics.median(scaled), statistics.median(raw)


def untraced_pass(workload, seed, tmpdir, deadline, inject=None) -> dict:
    """One untraced pass with its correctness problems and work count."""
    if workload.kind == "cli":
        journal = os.path.join(tmpdir, f"journal-{time.monotonic_ns()}.json")
        res = run_pass(["cli", workload.name, journal], deadline)
        problems = check_journal(workload, res)
        if res["rc"] != 0:
            problems.append(f"sweep: exit code {res['rc']} ({res['summary']})")
        res["instrs"] = _expected_for(workload)["work_instrs"]
        res["n_cells"] = len(_expected_for(workload)["cells"])
    else:
        args = ["api", workload.name, str(seed)]
        if inject:
            args += ["--inject", inject]
        res = run_pass(args, deadline)
        problems = check_cells(workload, seed, res["cells"])
        res["n_cells"] = len(res["cells"])
    res["problems"] = problems
    return res


def traced_pass(workload, seed, tmpdir, deadline, inject=None) -> dict:
    args = ["traced", workload.name, str(seed)]
    if workload.kind == "cli":
        args += ["--journal", os.path.join(tmpdir, "traced-journal.json")]
    if inject:
        args += ["--inject", inject]
    res = run_pass(args, deadline)
    problems = check_cells(workload, seed, res["cells"])
    if workload.kind == "cli":
        problems += check_journal(workload, res)
    res["problems"] = problems
    return res


def run_untraced(workload, seed, seconds, deadline, tmpdir, inject=None):
    setup_s, raw_setup_s = measure_setup(workload, seed, deadline)
    passes = []
    t_start = time.monotonic()
    while True:
        passes.append(untraced_pass(workload, seed, tmpdir, deadline, inject))
        # stop at the pass boundary nearest to --seconds; a pass is
        # never cut, so a run measures at least one whole pass
        elapsed = time.monotonic() - t_start
        typical = statistics.median(p["wall_s"] for p in passes)
        if elapsed + typical / 2 >= seconds:
            break
    walls = [p["wall_s"] for p in passes]
    ref_walls = [p["ref_wall_s"] for p in passes]
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(ref_walls), "s"),
        "sim_kinstr_per_s": (
            statistics.median(
                p["instrs"] / wall / 1e3 for p, wall in zip(passes, ref_walls)
            ),
            "kinstr/s",
        ),
        "peak_rss_mb": (
            statistics.median(
                (p["maxrss_kb"] + p["worker_rss_kb"]) / 1024 for p in passes
            ),
            "MB",
        ),
    }
    problems = [q for p in passes for q in p["problems"]]
    failed = sum(_failed_cells(p["problems"]) for p in passes)
    info = {
        "passes": len(passes), "walls": walls, "ref_walls": ref_walls,
        "probes": [p["probe_s"] for p in passes],
        "raw_setup_s": raw_setup_s,
    }
    if workload.kind == "api":
        cells = passes[0]["cells"]
        info["est_error_abs"] = statistics.fmean(c["est_err"] for c in cells)
        paper = [c["paper_err"] for c in cells if c["paper_err"] is not None]
        if paper:
            info["paper_speedup_error"] = statistics.fmean(paper)
        # every pass must produce the same stacks
        digests = {tuple(c["digest"] for c in p["cells"]) for p in passes}
        if len(digests) > 1:
            problems.append("stacks: passes of one run disagree")
            failed += 1
    attempted = sum(p["n_cells"] for p in passes)
    return metrics, problems, attempted, min(failed, attempted), info


def run_traced(workload, seed, deadline, tmpdir, inject=None):
    """The per-layer metrics from the traced protocol; for the sweep also
    the executor's, from ``repro sweep -j 2 --emit-spans``.

    At seed 0 the traced stacks and journal must match the digests and
    hash the untraced runs are held to, so the trace reproduces them.
    """
    traced = traced_pass(workload, seed, tmpdir, deadline, inject)
    problems = traced["problems"]
    layers = traced["layers"]

    def total(name):
        return layers.get(name, {}).get("total_s", 0.0)

    def self_time(name):
        return layers.get(name, {}).get("self_s", 0.0)

    n_cells = len(traced["cells"])
    counts = traced["counts"]
    jobs, cell_s, exec_wall = 1, traced["cell_s"], traced["wall_s"]
    executor = None
    if workload.kind == "cli":
        # the executor only works inside repro sweep -j N
        cli = run_pass(
            ["cli", workload.name, os.path.join(tmpdir, "j-journal.json"),
             "--spans", os.path.join(tmpdir, "cli-spans.json"),
             "--jobs", str(EXECUTOR_JOBS)],
            deadline,
        )
        problems += check_journal(workload, cli)
        executor = cli["executor"]
        executor["wall_s"] = cli["wall_s"]
        jobs, cell_s, exec_wall = executor["jobs"], executor["cell_s"], \
            cli["wall_s"]
    metrics = {
        "workloads.build_s": (total("workloads.build"), "s"),
        "workloads.warm_lines": (traced["warm_lines"], "count"),
        "sim.warm_s": (self_time("sim.warm"), "s"),
        "sim.warm_ns_per_line": (
            self_time("sim.warm") / max(traced["warm_lines"], 1) * 1e9, "ns"
        ),
        "sim.loop_s": (self_time("sim.loop"), "s"),
        "sim.loop_ns_per_instr": (
            self_time("sim.loop") / max(traced["mt_instrs"], 1) * 1e9, "ns"
        ),
        "sim.instrs": (counts["instrs"], "count"),
        "sim.cycles": (counts["cycles"], "count"),
        "sim.llc_accesses": (counts["llc_accesses"], "count"),
        "sim.llc_misses": (counts["llc_misses"], "count"),
        "sim.dram_accesses": (counts["dram_accesses"], "count"),
        "accounting.overhead_s": (traced["accounting_overhead_s"], "s"),
        "accounting.report_s": (self_time("accounting.report"), "s"),
        "accounting.spin_cycles": (traced["spin_cycles"], "count"),
        "accounting.yield_cycles": (traced["yield_cycles"], "count"),
        "st.reference_s": (self_time("st.reference"), "s"),
        "st.reference_runs": (traced["st_runs"], "count"),
        "st.memo_hit_ratio": (1 - traced["st_runs"] / n_cells, "ratio"),
        "core.stack_s": (self_time("core.stack"), "s"),
        "core.est_error_abs": (
            statistics.fmean(c["est_err"] for c in traced["cells"]), "ratio"
        ),
        "journal.write_s": (self_time("journal.write"), "s"),
        "journal.bytes": (traced.get("journal_bytes", 0), "bytes"),
        "parallel.busy_ratio": (cell_s / (jobs * exec_wall), "ratio"),
        "parallel.overhead_s": (exec_wall - cell_s / jobs, "s"),
        # the spans' own cost: a paired difference of two whole runs
        # would drown it in the host's run-to-run noise
        "trace.overhead_pct": (
            traced["span_overhead_s"] / traced["wall_s"] * 100, "%"
        ),
    }
    info = {
        "protocol_wall_s": traced["wall_s"],
        "layers": layers,
        "executor": executor,
        "jobs": jobs,
    }
    attempted = n_cells
    failed = min(attempted, _failed_cells(problems)) if problems else 0
    return metrics, problems, attempted, failed, info


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------

def render_metrics(metrics: dict) -> list[str]:
    lines = [f"{'metric':<26} {'value':>18} {'unit':<9} meaning"]
    for name, (value, unit) in metrics.items():
        lines.append(
            f"{name:<26} {value:>18.6g} {unit:<9} {DESCRIPTIONS[name]}"
        )
    return lines


def render_layers(info: dict) -> list[str]:
    layers = info["layers"]
    wall = info["protocol_wall_s"]
    rows = sorted(layers.items(), key=lambda kv: -kv[1]["self_s"])
    lines = [
        "per-layer self time (traced protocol, one span per public call; "
        "self = span minus its child spans)",
        f"  {'span':<18} {'module':<36} {'calls':>6} {'total s':>9} "
        f"{'self s':>9} {'% wall':>7}",
    ]
    for name, row in rows:
        lines.append(
            f"  {name:<18} {LAYER_MODULES.get(name, ''):<36} "
            f"{row['calls']:>6} {row['total_s']:>9.3f} {row['self_s']:>9.3f} "
            f"{100 * row['self_s'] / wall:>6.1f}%"
        )
    covered = sum(row["self_s"] for row in layers.values())
    lines.append(
        f"  {'(outside spans)':<18} {'':<36} {'':>6} {'':>9} "
        f"{wall - covered:>9.3f} {100 * (wall - covered) / wall:>6.1f}%"
    )
    lines.append(f"  traced protocol wall {wall:.3f} s")
    executor = info.get("executor")
    if executor:
        lines.append(
            f"executor: repro sweep -j {executor['jobs']} --emit-spans took "
            f"{executor['wall_s']:.3f} s for {executor['cell_s']:.3f} s of "
            "cell time; its own spans:"
        )
        for name, seconds in sorted(executor["phases"].items(),
                                    key=lambda kv: -kv[1]):
            lines.append(f"  {name:<18} {seconds:>9.3f} s (summed over "
                         "processes)")
    return lines


def design_checks(workload, metrics: dict, info: dict) -> list[str]:
    """The workload-design claims a traced run can confirm."""
    layers = info["layers"]
    out = []
    if workload.name == "warm16":
        top = max(layers, key=lambda name: layers[name]["self_s"])
        out.append(f"sim.warm is the largest self time: "
                   f"{'yes' if top == 'sim.warm' else 'NO (' + top + ')'}")
    if workload.name == "loop16":
        share = metrics["sim.warm_s"][0] / info["protocol_wall_s"]
        out.append(f"sim.warm_s is {100 * share:.1f}% of wall "
                   f"({'under' if share < 0.05 else 'NOT under'} 5%)")
    if info["jobs"] == 1:
        out.append("parallel.* describe the serial one-caller loop (jobs=1)")
    else:
        out.append(f"parallel.* come from repro sweep -j {info['jobs']}")
    return out


def declared_metrics(trace: int) -> list[str]:
    with open(BENCHMARK) as handle:
        doc = json.load(handle)
    return [m["name"] for m in doc["per_layer" if trace else "end_to_end"]]


# ----------------------------------------------------------------------
# compare and self-check
# ----------------------------------------------------------------------

def _load_results(path: str) -> dict:
    groups: dict = {}
    with open(path) as handle:
        for line in handle:
            if line.strip():
                rec = json.loads(line)
                key = (rec["workload"], rec["trace"])
                groups.setdefault(key, []).append(rec)
    return groups


def _spread(values: list[float]) -> float:
    if len(values) >= 4:
        q = statistics.quantiles(values, n=4)
        return q[2] - q[0]
    return max(values) - min(values)


def compare(old_path: str, new_path: str, out=sys.stdout) -> list[tuple]:
    """Per-metric deltas of two result files against the runs' spread.

    A metric is flagged when its median moved by more than twice the
    larger spread of either side and by more than its bound (end-to-end
    metrics) or 25% (per-layer timings).  A per-layer time must also
    have moved by 5% of the traced protocol's wall, enough to show end to
    end.  Counts are exact and flagged on any change.  Returns the
    flagged (workload, metric, direction).
    """
    with open(BENCHMARK) as handle:
        doc = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    better = {m["name"]: m["better"]
              for m in doc["end_to_end"] + doc["per_layer"]}
    old, new = _load_results(old_path), _load_results(new_path)
    flagged = []
    for key in sorted(set(old) & set(new)):
        workload, trace = key
        print(f"\n{workload} trace={trace}: {len(old[key])} old run(s), "
              f"{len(new[key])} new run(s)", file=out)
        print(f"  {'metric':<26} {'old':>12} {'new':>12} {'delta':>8} "
              f"{'spread':>8}  flag", file=out)
        floor = 0.0
        if trace:
            floor = 0.05 * statistics.median(
                r["info"]["protocol_wall_s"] for r in old[key]
            )
        for name in old[key][0]["result"]["metrics"]:
            a = [r["result"]["metrics"][name]["value"] for r in old[key]]
            b = [r["result"]["metrics"][name]["value"] for r in new[key]
                 if name in r["result"]["metrics"]]
            if not b:
                continue
            unit = old[key][0]["result"]["metrics"][name]["unit"]
            ma, mb = statistics.median(a), statistics.median(b)
            delta = mb - ma
            rel = delta / abs(ma) if ma else (0.0 if not delta else 1.0)
            spread = max(_spread(a), _spread(b))
            exact = unit in ("count", "bytes")
            if exact:
                moved = delta != 0
            elif name == "trace.overhead_pct":
                moved = False  # the instrumentation's own cost, for reading
            else:
                limit = bounds.get(name, 0.25)
                moved = abs(delta) > 2 * spread and abs(rel) > limit
                if trace and unit == "s":
                    moved = moved and abs(delta) > floor
            flag = ""
            if moved:
                worse = (delta > 0) == (better.get(name, "lower") == "lower")
                flag = "CHANGED" if exact else "WORSE" if worse else "better"
                flagged.append((workload, name, flag))
            print(f"  {name:<26} {ma:>12.5g} {mb:>12.5g} {100 * rel:>7.1f}% "
                  f"{spread:>8.3g}  {flag}", file=out)
    for workload in sorted({w for w, _ in new}):
        if (workload, 0) in new and (workload, 1) in new:
            # both raw: the traced run does not scale its times
            untraced = statistics.median(
                statistics.median(r["info"]["walls"])
                for r in new[(workload, 0)]
            )
            traced = statistics.median(
                r["info"]["protocol_wall_s"] for r in new[(workload, 1)]
            )
            print(f"\n{workload}: traced protocol {traced:.3f} s against the "
                  f"untraced raw wall median {untraced:.3f} s "
                  f"({100 * (traced / untraced - 1):+.1f}%; for cli "
                  "workloads this includes the CLI's own path)", file=out)
    return flagged


def self_check() -> int:
    """An injected delay is attributed to its layer and shows in wall_s;
    two clean result sets are not flagged.

    The three result sets are interleaved in time, so that the host's
    drift lands in every set's spread instead of between sets.
    """
    workload, layer, delay = "loop16", "st.reference", "2.0"
    TMP.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(dir=TMP, prefix="self-check-")
    try:
        paths = {k: os.path.join(tmpdir, f"{k}.jsonl")
                 for k in ("base", "clean", "slow")}
        for _ in range(2):
            for name in ("base", "clean", "slow"):
                for trace in (0, 1):
                    cmd = [sys.executable, os.path.abspath(__file__),
                           "--workload", workload, "--seed", "0",
                           "--seconds", "1", "--trace", str(trace),
                           "--out", paths[name]]
                    if name == "slow":
                        cmd += ["--inject", f"{layer}:{delay}"]
                    print("self-check:", " ".join(cmd[2:]), flush=True)
                    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                          text=True)
                    if proc.returncode != 0:
                        print(proc.stdout[-2000:], proc.stderr[-2000:])
                        return 1
        print("\nclean against clean:")
        clean_flags = compare(paths["base"], paths["clean"])
        print(f"\ndelay of {delay} s per {layer} call injected:")
        slow_flags = compare(paths["base"], paths["slow"])
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    ok_clean = not clean_flags
    slow_names = {name for _, name, flag in slow_flags if flag == "WORSE"}
    layer_metric = f"{layer}_s"
    ok_layer = layer_metric in slow_names and not (
        slow_names - {layer_metric, "wall_s", "sim_kinstr_per_s"}
    )
    ok_wall = "wall_s" in slow_names
    print(f"\nclean runs not flagged: {ok_clean} {clean_flags or ''}")
    print(f"delay attributed to {layer_metric} alone: {ok_layer} "
          f"{sorted(slow_names)}")
    print(f"delay shows in wall_s: {ok_wall}")
    return 0 if ok_clean and ok_layer and ok_wall else 1


def record_expected() -> int:
    """Write expected.json from seed-0 traced runs of the current tree."""
    deadline = time.monotonic() + 900
    TMP.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(dir=TMP, prefix="record-")
    doc = {}
    try:
        for name in ("warm16", "loop16", "sweep"):
            workload = WORKLOADS[name]
            args = ["traced", name, "0"]
            if workload.kind == "cli":
                args += ["--journal", os.path.join(tmpdir, "journal.json")]
            res = run_pass(args, deadline)
            entry = {"cells": {
                c["key"]: {"digest": c["digest"], "mt_cycles": c["mt_cycles"]}
                for c in res["cells"]
            }}
            if workload.kind == "cli":
                cli = run_pass(
                    ["cli", name, os.path.join(tmpdir, "cli.json")], deadline
                )
                if cli["journal_md5"] != res["journal_md5"]:
                    print("CLI journal differs from the traced protocol's")
                    return 1
                entry["journal_md5"] = res["journal_md5"]
                entry["work_instrs"] = res["counts"]["instrs"]
            doc[name] = entry
            print(f"recorded {name}: {len(entry['cells'])} cells", flush=True)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    with open(EXPECTED, "w") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


# ----------------------------------------------------------------------
# main
# ----------------------------------------------------------------------

def run(args) -> int:
    workload = WORKLOADS[args.workload]
    t0 = time.monotonic()
    deadline = t0 + RUN_LIMIT_S
    if workload.kind == "cli" and args.inject:
        print("perfbench: --inject applies to api workloads only",
              file=sys.stderr)
        return 2
    TMP.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(dir=TMP, prefix=f"{workload.name}-")
    try:
        if args.trace:
            metrics, problems, attempted, failed, info = run_traced(
                workload, args.seed, deadline, tmpdir, args.inject
            )
        else:
            metrics, problems, attempted, failed, info = run_untraced(
                workload, args.seed, args.seconds, deadline, tmpdir,
                args.inject,
            )
    except PassError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    host = host_fingerprint()
    names = declared_metrics(args.trace)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name][0], "unit": metrics[name][1]}
            for name in names
        },
    }
    print(f"perfbench {workload.name} ({workload.kind}, "
          f"{'traced' if args.trace else 'untraced'}) seed={args.seed} "
          f"run {time.monotonic() - t0:.1f} s")
    print("host: " + " ".join(f"{k}={v}" for k, v in host.items()))
    if workload.kind == "cli":
        print("note: repro sweep takes suite names only, so this workload "
              "runs the suite specs (seed 0) whatever --seed says")
    elif args.seed:
        print(f"note: seed {args.seed} runs renamed spec copies (new RNG "
              "streams); stacks are checked by Eq. 4 closure, not digests")
    if not args.trace:
        print(f"passes: {info['passes']} (fresh process each), raw walls "
              + ", ".join(f"{w:.3f}" for w in info["walls"])
              + " s; speed probe "
              + ", ".join(f"{1e3 * p:.2f}" for p in info["probes"])
              + f" ms against {1e3 * REF_PROBE_S:.0f} ms; raw setup "
              f"{info['raw_setup_s']:.4f} s")
    print("\n".join(render_metrics(metrics)))
    print(f"error_rate {failed}/{attempted} cells (failed, truncated or "
          "mismatched their digest)")
    if "est_error_abs" in info:
        print(f"est_error_abs {info['est_error_abs']:.6f} "
              "(mean |(S_est - S)/N|, Eq. 6)")
    if "paper_speedup_error" in info:
        print(f"paper_speedup_error {info['paper_speedup_error']:.6f} "
              "(mean |S - Fig. 6 target|/16; a calibration residual on the "
              "hand-calibrated specs, not held-out validation)")
    if args.trace:
        print("\n".join(render_layers(info)))
        print("\n".join("design check: " + line
                        for line in design_checks(workload, metrics, info)))
    for problem in problems:
        print(f"INCORRECT: {problem}")
    if args.out:
        with open(args.out, "a") as handle:
            handle.write(json.dumps({
                "workload": workload.name, "seed": args.seed,
                "trace": args.trace, "inject": args.inject, "host": host,
                "result": result, "info": info,
            }) + "\n")
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="repro benchmark: end-to-end and per-layer metrics"
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, metavar="RESULTS.jsonl",
                        help="append the stamped result to this file")
    parser.add_argument("--inject", default=None, metavar="LAYER:SECONDS",
                        help="delay one layer's public call (self-check)")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--record-expected", action="store_true")
    args = parser.parse_args(argv)
    # on SIGTERM, unwind through run_pass so it kills the running pass
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not has_sources() or not BENCHMARK.is_file():
        print(f"perfbench: {ROOT} is not a full checkout (no src/repro)",
              file=sys.stderr)
        return 2
    if args.compare:
        compare(*args.compare)
        return 0
    if args.self_check:
        return self_check()
    if args.record_expected:
        return record_expected()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
