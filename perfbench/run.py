"""flowcast benchmark: one run of one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout: the program is imported from ./src. The
metric names and units come from ./BENCHMARK.json. Stdout carries the run's
setting, then the workload's metrics under its own names, then as its last
line one JSON object {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.

Scratch files go to ./.perfbench/ (the trace's spans to
./.perfbench/trace-<workload>-seed<n>.jsonl).
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP threads before numpy loads: two training workers each
# starting one BLAS thread per core would oversubscribe a small machine.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

# setup_s is the median set-up of two batches, one before and one after the
# timed operations, each of at least this many set-ups spanning this long. On a
# shared virtual machine the CPU speed shifts for seconds at a time; a batch at
# each end of the run keeps one such shift from deciding the median.
SETUP_MIN_REPEATS, SETUP_MIN_SECONDS = 3, 1.5
ROOT = Path.cwd()


def import_flowcast():
    src = ROOT / "src"
    if not (src / "flowcast" / "__init__.py").is_file():
        sys.exit(f"perfbench: no flowcast sources under {src}; run from a checkout root")
    sys.path.insert(0, str(src))
    from flowcast import (autodiff, cli, data, graph, model, optim, partition,
                          sparse, training)
    return SimpleNamespace(autodiff=autodiff, cli=cli, data=data, graph=graph, model=model,
                           optim=optim, partition=partition, sparse=sparse,
                           training=training)


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without starting a process (a
    child process would count in peak_rss_mb); None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def setting() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src" / "flowcast").glob("*.py")))
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {v: os.environ[v] for v in THREAD_ENV},
            "git_commit": git_commit(), "src_lines": src_lines}


def time_setups(workload) -> list[float]:
    times = []
    while len(times) < SETUP_MIN_REPEATS or sum(times) < SETUP_MIN_SECONDS:
        t0 = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - t0)
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    fc = import_flowcast()
    import tracer as tr
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(wl.WORKLOADS)}")
    print(json.dumps({"setting": setting()}))

    scratch = ROOT / ".perfbench"
    workdir = scratch / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = wl.WORKLOADS[args.workload](fc, workdir, args.seed)
    try:
        setup_times = time_setups(workload)
        if args.trace:
            tracer = tr.Tracer()
            values = workload.trace(tracer, args.seconds)
            tracer.dump(scratch / f"trace-{args.workload}-seed{args.seed}.jsonl")
            wanted = spec["per_layer"]
            named = {}
        else:
            values, named = workload.measure(args.seconds)
            wanted = spec["end_to_end"]
        setup_times += time_setups(workload)
    except wl.CheckFailed as exc:
        print(json.dumps({"workload": args.workload, "seed": args.seed,
                          "check_failed": str(exc)}))
        print(json.dumps({"correct": False, "attempted": max(workload.attempted, 1),
                          "failed": workload.failed, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # this process's peak plus the largest peak of its reaped children (the
    # training workers, which the process pool forks and joins)
    peak_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    setup_s = statistics.median(setup_times)
    values = dict(values, setup_s=setup_s, peak_rss_mb=peak_kb / 1024)
    named = dict(named, setup_s=(setup_s, "s"), peak_rss_mb=(peak_kb / 1024, "MB"))
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
                      "setup_repeats": len(setup_times)}))
    # a module a workload never runs reports zero on its per-layer metrics
    default = 0.0 if args.trace else None
    metrics = {m["name"]: {"value": float(values.get(m["name"], default)), "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": True, "attempted": workload.attempted,
                      "failed": workload.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
