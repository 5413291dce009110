"""abmc benchmark: one workload, one seed, one process, one thread.

    python3 perfbench/run.py --workload qf-model --seed 0 --seconds 25 --trace 0

Run from the repository root; abmc is imported from ``src/``.  The run times
the cold import and the workload's set-up (preset structure, catalog,
samplers, inputs), then repeats the workload's batch in rounds until
``--seconds`` have passed.  Every round starts from the state a fresh process
has after set-up: the abmc caches are cleared and the set-up is replayed and
timed, apart from the batch.  Every output of every round is checked
independently.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from time import perf_counter

PROCESS_START = perf_counter()

import argparse
import gc
import json
import os
import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _single_threaded():
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def clear_caches(caches):
    """Empty every abmc cache, so the next set-up starts from a fresh process's state."""
    for c in caches:
        c.cache_clear()
    sys.modules["abmc.homology"]._RESOLUTIONS.clear()


def find_caches():
    """Every lru_cache bound at module level in abmc, found before tracing wraps them."""
    seen = {}
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] != "abmc" or mod is None:
            continue
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear") and hasattr(obj, "cache_info"):
                seen[id(obj)] = obj
    return list(seen.values())


def run_batch(ops):
    """Run every op once; returns (batch seconds, op seconds, outputs, failures),
    failures mapping op index to message."""
    durations, outputs, failures = [], [], {}
    t_batch = perf_counter()
    for op in ops:
        t0 = perf_counter()
        try:
            out = op.run()
        except Exception as e:  # a failed operation is counted, not fatal
            out = None
            failures[len(outputs)] = f"{op.kind}: {type(e).__name__}: {e}"
        durations.append(perf_counter() - t0)
        outputs.append(out)
    return perf_counter() - t_batch, durations, outputs, failures


def check_batch(ops, outputs, failed) -> list[str]:
    problems = []
    by_op = dict(zip(ops, outputs))
    for k, (op, out) in enumerate(zip(ops, outputs)):
        if k in failed:
            continue
        try:
            found = op.check(out, by_op)
        except Exception as e:  # a checker that cannot read the output rejects it
            found = [f"check raised {type(e).__name__}: {e}"]
        problems += [f"op {k} ({op.kind}): {p}" for p in found]
    return problems


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "abmc" / "__init__.py").is_file():
        print(f"abmc sources not found under {SRC}", file=sys.stderr)
        return 2
    _single_threaded()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    import abmc  # noqa: F401  (the import is part of the timed set-up)
    import workloads
    import layertrace

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    import_s = perf_counter() - PROCESS_START
    caches = find_caches()
    tracer = layertrace.Tracer()
    if args.trace:
        tracer.install()
        tracer.active = True

    t0 = perf_counter()
    ops = workloads.build(args.workload, args.seed)
    build_times = [perf_counter() - t0]
    tracer.active = False
    setup_trace = tracer.snapshot() if args.trace else None
    binding = tracer.binding_problems() if args.trace else []

    rounds = []  # (batch seconds, op seconds, per-layer snapshot)
    failures = []
    problems = []
    t_run = perf_counter()
    while not rounds or perf_counter() - t_run < args.seconds:
        if rounds:
            clear_caches(caches)
            gc.collect()
            t0 = perf_counter()
            ops = workloads.build(args.workload, args.seed)
            build_times.append(perf_counter() - t0)
        gc.collect()
        tracer.reset()
        tracer.active = bool(args.trace)
        wall, op_times, outputs, failed = run_batch(ops)
        tracer.active = False
        rounds.append((wall, op_times, tracer.snapshot() if args.trace else None))
        if args.trace:
            binding += tracer.binding_problems()
        failures += failed.values()
        problems += check_batch(ops, outputs, failed)

    for line in (failures + problems + binding)[:20]:
        print(line, file=sys.stderr)

    # Interference from other processes only ever slows an operation down, and
    # every round repeats the same operations, so each operation's fastest run
    # is its steady time; the batch time is their sum.  Set-up likewise: the
    # import happens once, cold, but every round's build starts from emptied
    # caches and repeats the first build's work, so the fastest build counts.
    best_op = [min(times) for times in zip(*(r[1] for r in rounds))]
    if args.trace:
        metrics = per_layer(setup_trace, min(rounds, key=lambda r: r[0])[2])
        metrics["trace.wall_s"] = {"value": sum(best_op), "unit": "s"}
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "wall_s": {"value": sum(best_op), "unit": "s"},
            "op_p50_ms": {"value": 1000 * statistics.median(best_op), "unit": "ms"},
            "setup_s": {"value": import_s + min(build_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
        }
    result = {
        "correct": not problems and not binding,
        "attempted": len(ops) * len(rounds),
        "failed": len(failures),
        "metrics": metrics,
    }
    print(f"{args.workload}: import {import_s:.3f} s, builds "
          + " ".join(f"{b:.3f}" for b in build_times), file=sys.stderr)
    print(f"{args.workload}: {len(rounds)} rounds of {len(ops)} operations, batch seconds "
          + " ".join(f"{r[0]:.3f}" for r in rounds), file=sys.stderr)
    print(json.dumps(result))
    return 0


def per_layer(setup: dict, batch: dict) -> dict:
    """One cold set-up plus the fastest traced batch; sizes take the larger."""
    out = {}
    for name, base in setup.items():
        unit = "s" if name.endswith("_s") else "cells" if "cells" in name else "count"
        value = max(base, batch[name]) if ".max_" in name else base + batch[name]
        out[name] = {"value": value, "unit": unit}
    return out


if __name__ == "__main__":
    sys.exit(main())
