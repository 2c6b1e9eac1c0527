"""Workload definitions and helpers shared by ``run.py`` and its passes.

Every workload is a closed loop with one caller and the reference
engine.  ``api`` workloads call the public Python API once per cell
(``run_experiment``: ST reference, accounted MT run, ``build_stack``);
``cli`` workloads run ``repro sweep`` through ``repro.cli.main`` with a
journal, exactly as a user types it.

Seeds: seed 0 runs the suite specs unchanged.  Any other seed makes the
``api`` workloads run renamed copies of each spec; a copy keeps every
knob but draws new RNG streams, because ``seed_for(full_name, tid)``
keys the thread generators by name.  ``repro sweep`` accepts suite
names only, so the ``cli`` workloads always run seed 0.
"""

from __future__ import annotations

import dataclasses
import hashlib
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: temporary journals and span files; kept inside the checkout
TMP = ROOT / ".perfbench_tmp"
#: seconds ``speed_probe`` takes on the host the benchmark was defined on
#: (2 vCPUs, Python 3.11, in its fast state); it only sets the scale of
#: the end-to-end times, which read as seconds on a host of that speed
REF_PROBE_S = 0.020


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "api" or "cli"
    #: (full benchmark name, threads) of an ``api`` workload
    cells: tuple[tuple[str, int], ...] | None
    scale: float
    #: ``cli`` workloads: the ``--benchmarks`` x ``-n`` cells
    benchmarks: tuple[str, ...] = ()
    threads: tuple[int, ...] = ()
    max_cycles: int | None = None


WORKLOADS = {
    # Cache warmup is ~85% of host time: the workload on which a warmup
    # change must show.
    "warm16": Workload(
        "warm16", "api",
        (("fft", 16), ("canneal_medium", 16)),
        scale=0.25,
    ),
    # Lock- and yield-heavy cells with ~2% warmup: the bypass for any
    # warmup change; the main workload for loop, accounting and ST.
    "loop16": Workload(
        "loop16", "api",
        (("ferret_medium", 16), ("dedup_medium", 16),
         ("swaptions_small", 16), ("water-nsquared", 16)),
        scale=1.0,
    ),
    # Ten of the 28 benchmarks of the `repro bench` cell set x N=2,4, in
    # suite order, through the serial sweep: many small cells make
    # per-cell fixed costs count.  The ten are every third benchmark of
    # the suite, with bfs in place of canneal_medium, whose warmup
    # warm16 already measures.  The whole 56-cell set takes 28-35 s on a
    # 2-vCPU host, too long to repeat within one run; the 20 cells take
    # ~10 s, so a run holds three passes and reports their median.  Its
    # traced run also times the same cells through `repro sweep -j 2`,
    # the only place the executor layer does work.
    "sweep": Workload(
        "sweep", "cli", None, scale=0.25,
        benchmarks=(
            "blackscholes_medium", "swaptions_medium", "cholesky",
            "fluidanimate_medium", "facesim_medium", "bfs", "ferret_medium",
            "freqmine_small", "dedup_small", "needle",
        ),
        threads=(2, 4), max_cycles=20_000_000,
    ),
}

#: ``repro sweep -j`` of the executor measurement in the sweep's trace
EXECUTOR_JOBS = 2


def has_sources() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def use_checkout_sources() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    if not has_sources():
        raise SystemExit(
            f"perfbench: no repro sources under {SRC}; run from the root "
            "of a full checkout"
        )
    sys.path.insert(0, str(SRC))


def sweep_argv(workload: Workload, journal: str, jobs: int = 1) -> list[str]:
    argv = [
        "sweep", "--benchmarks", ",".join(workload.benchmarks),
        "-n", ",".join(map(str, workload.threads)),
        "--scale", str(workload.scale),
        "--max-cycles", str(workload.max_cycles),
        "--journal", journal,
    ]
    if jobs > 1:
        argv += ["-j", str(jobs)]
    return argv


def resolve_cells(workload: Workload, seed: int) -> list:
    """The (spec, threads) cells of one run, in the order they execute.

    ``cli`` workloads resolve the list ``repro sweep`` builds; the seed
    does not apply to them.
    """
    from repro.workloads.suite import by_name, sweep_cells

    if workload.cells is None:
        return sweep_cells(workload.benchmarks, workload.threads)
    cells = []
    for name, n_threads in workload.cells:
        spec = by_name(name)
        if seed:
            spec = dataclasses.replace(spec, name=f"{spec.name}-seed{seed}")
        cells.append((spec, n_threads))
    return cells


def cell_key(spec, n_threads: int) -> str:
    return f"{spec.full_name}:{n_threads}"


def stack_digest(stack, mt_total_cycles: int) -> str:
    """Digest of every stack component, Tp/Ts and MT total cycles.

    Floats enter as ``repr`` so the digest changes with the last bit of
    any component.
    """
    fields = [
        stack.name, stack.n_threads, stack.tp_cycles, stack.ts_cycles,
        mt_total_cycles, stack.truncated, stack.actual_speedup,
    ]
    fields += [repr(value) for value in stack.segments().values()]
    fields += [
        repr(stack.negative_llc), repr(stack.estimated_speedup),
    ]
    text = "|".join(str(f) for f in fields)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def speed_probe() -> float:
    """Seconds a fixed pure-Python loop takes now (median of five).

    The loop is no code of the program, so a change to the program
    cannot move it; only the host's speed does.  On a shared host whose
    speed swings by 40-60% within minutes, an end-to-end time multiplied
    by ``REF_PROBE_S / speed_probe()`` taken beside it keeps a change to
    the program in full and cancels most of the swing.
    """
    samples = []
    for _ in range(5):
        t = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i % 7
        samples.append(time.perf_counter() - t)
    return statistics.median(samples)
