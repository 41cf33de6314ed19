"""Benchmark for pairrank: one workload per process.

    python3 perfbench/run.py --workload {train-short,train-long,serve} \\
        --seed N --seconds S --trace {0,1}

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
The same object, with run details, is written to ``BENCH_<workload>.json``
(``BENCH_<workload>_trace.json`` with the spans, for a traced run) at the
root of the checkout. See README.md in this directory.
"""

import os

# BLAS and OpenMP thread pools are fixed before numpy is imported: one
# thread, so a run neither competes with itself nor depends on how many
# idle cores the machine has at the moment.
THREADS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                  "MKL_NUM_THREADS")}
os.environ.update(THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAMES = ("train-short", "train-long", "serve")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pairrank" / "__init__.py").is_file():
        print(f"error: no pairrank sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        bench = workloads.Bench(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
        values = bench.run()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    result = {
        "correct": bench.global_ok,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()},
    }
    suffix = "_trace" if args.trace else ""
    details = {**result, "workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "threads": THREADS, **bench.info}
    (ROOT / f"BENCH_{args.workload}{suffix}.json").write_text(json.dumps(details, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
