"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train64 --seed 1 --seconds 25 --trace 0

Run from anywhere; the package is imported from `src/` beside this
directory. With `--trace 0` the result holds the end-to-end metrics; with
`--trace 1` it holds the per-layer metrics of a traced run, whose spans are
also written to `.bench_build/trace-<workload>.csv`. The last line of
standard output is one JSON object: `correct`, `attempted`, `failed`,
`metrics`. The exit code is 1 when any correctness check failed, and 2 when
the package cannot be found.
"""

import argparse
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
PACKAGE = SOURCE / "dualpath_cs"
OUTPUT = ROOT / ".bench_build"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("train64", "train32x4", "eval64"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package():
    """Import dualpath_cs from this checkout's src/; returns an error or None."""
    if not (PACKAGE / "__init__.py").is_file():
        return f"package source not found at {PACKAGE}"
    sys.path.insert(0, str(SOURCE))
    import dualpath_cs

    if Path(dualpath_cs.__file__).resolve().parent != PACKAGE.resolve():
        return f"imported dualpath_cs from {dualpath_cs.__file__}, not {PACKAGE}"
    return None


def finite_or_none(value):
    return value if math.isfinite(value) else None


def main(argv=None):
    args = parse_args(argv)
    import environment

    environment.single_blas_thread()  # before numpy loads
    error = import_package()
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2

    import tracing
    import workloads

    env = environment.describe(str(ROOT), str(PACKAGE))
    if env["blas_threads"] is not None and env["blas_threads"] > env["nproc"]:
        print(f"error: BLAS uses {env['blas_threads']} threads on {env['nproc']} cores", file=sys.stderr)
        return 2
    print("env " + json.dumps(env, sort_keys=True))
    print(f"run workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")

    tracer = tracing.Tracer() if args.trace else None
    bench = workloads.Bench(workloads.SPECS[args.workload], args.seed, args.seconds, OUTPUT, tracer)
    result = bench.run()
    if tracer is not None:
        tracer.dump(OUTPUT / f"trace-{args.workload}.csv")

    failed = len(result.failures)
    for message in result.failures:
        print(f"check failed: {message}", file=sys.stderr)
    for note in result.notes:
        print(f"note {note}")
    for name, (value, unit) in result.metrics.items():
        print(f"metric {name} {value!r} {unit}")
    print(f"metric error_rate {failed / result.attempted!r} ratio ({failed} of {result.attempted} operations)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result.attempted,
        "failed": failed,
        "metrics": {name: {"value": finite_or_none(value), "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
