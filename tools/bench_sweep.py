#!/usr/bin/env python
"""Measure sweep wall-clock (serial + parallel) and write BENCH_sweep.json.

Thin wrapper over :mod:`repro.experiments.bench`; run from the repo
root::

    PYTHONPATH=src python tools/bench_sweep.py --jobs-list 1,2,4

The default jobs list is ``1,<cpu_count>``.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
)

from repro.experiments.bench import (  # noqa: E402
    DEFAULT_MAX_CYCLES,
    DEFAULT_SCALE,
    DEFAULT_THREADS,
    render_bench,
    run_bench,
    write_bench,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--benchmarks", default=None,
                        help="comma-separated full names (default: suite)")
    parser.add_argument("-n", "--threads",
                        default=",".join(str(n) for n in DEFAULT_THREADS),
                        help="comma-separated thread counts")
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    parser.add_argument("--jobs-list", default=None,
                        help="comma-separated --jobs levels to time "
                             "(default: 1,<cpu_count>)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="repetitions per configuration (best-of)")
    parser.add_argument("--max-cycles", type=int, default=DEFAULT_MAX_CYCLES)
    parser.add_argument("--out", default="BENCH_sweep.json",
                        help="output JSON path (default: BENCH_sweep.json)")
    parser.add_argument("--profile", action="store_true",
                        help="profile one serial cell with the "
                             "deterministic profiler (adds a `profile` "
                             "section and a collapsed-stack file)")
    parser.add_argument("--profile-out", default=None, metavar="PATH",
                        help="collapsed-stack output path (default "
                             "profile_collapsed.txt; implies --profile)")
    parser.add_argument("--max-observability-overhead", type=float,
                        default=None, metavar="PCT",
                        help="fail (exit 1) when enabled-instrumentation "
                             "overhead exceeds this percentage")
    parser.add_argument("--max-checkpoint-overhead", type=float,
                        default=None, metavar="PCT",
                        help="fail (exit 1) when periodic-checkpointing "
                             "overhead exceeds this percentage")
    parser.add_argument("--min-warm-speedup", action="append", default=[],
                        metavar="JOBS:FACTOR",
                        help="fail (exit 1) when the --jobs JOBS sweep "
                             "speedup vs serial is below FACTOR; skipped "
                             "with a note when the host has fewer than "
                             "JOBS CPUs (repeatable)")
    args = parser.parse_args(argv)
    warm_gates = []
    for raw in args.min_warm_speedup:
        try:
            jobs_s, factor_s = raw.split(":", 1)
            warm_gates.append((int(jobs_s), float(factor_s)))
        except ValueError:
            parser.error(
                f"--min-warm-speedup expects JOBS:FACTOR, got {raw!r}"
            )

    if args.jobs_list:
        jobs_list = tuple(int(j) for j in args.jobs_list.split(","))
    else:
        jobs_list = (1, os.cpu_count() or 1)
    benchmarks = (
        tuple(args.benchmarks.split(",")) if args.benchmarks else None
    )
    profile = args.profile or args.profile_out is not None
    doc = run_bench(
        benchmarks=benchmarks,
        thread_counts=tuple(int(n) for n in args.threads.split(",")),
        scale=args.scale,
        jobs_list=jobs_list,
        repeats=args.repeats,
        max_cycles=args.max_cycles,
        profile=profile,
    )
    if profile:
        collapsed = doc["profile"].pop("collapsed")
        profile_out = args.profile_out or "profile_collapsed.txt"
        with open(profile_out, "w") as handle:
            handle.write("\n".join(collapsed) + "\n")
    write_bench(doc, args.out)
    print(render_bench(doc))
    if profile:
        print(f"collapsed stacks written to {profile_out}")
    print(f"written to {args.out}")
    if args.max_observability_overhead is not None:
        overhead = doc["observability"]["overhead_pct"]
        if overhead > args.max_observability_overhead:
            print(
                f"FAIL: instrumentation overhead {overhead:.1f}% exceeds "
                f"the {args.max_observability_overhead:.1f}% budget",
                file=sys.stderr,
            )
            return 1
    if args.max_checkpoint_overhead is not None:
        overhead = doc["checkpoint"]["overhead_pct"]
        if overhead > args.max_checkpoint_overhead:
            print(
                f"FAIL: checkpoint overhead {overhead:.1f}% exceeds "
                f"the {args.max_checkpoint_overhead:.1f}% budget",
                file=sys.stderr,
            )
            return 1
    cpu_count = os.cpu_count() or 1
    speedups = {
        run["jobs"]: run["speedup_vs_serial"] for run in doc["sweep"]
    }
    for jobs, factor in warm_gates:
        if cpu_count < jobs:
            # a host without the cores cannot show the speedup; this is
            # "can't tell", not "failed" — note it and move on
            print(
                f"note: skipping --min-warm-speedup {jobs}:{factor:g} "
                f"(host has {cpu_count} CPU(s), needs >= {jobs})"
            )
            continue
        speedup = speedups.get(jobs)
        if speedup is None:
            print(
                f"FAIL: --min-warm-speedup {jobs}:{factor:g} but "
                f"--jobs {jobs} was not in the jobs list",
                file=sys.stderr,
            )
            return 1
        if speedup < factor:
            print(
                f"FAIL: --jobs {jobs} speedup {speedup:.2f}x vs serial "
                f"is below the {factor:g}x gate",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
