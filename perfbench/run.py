"""Ensemble-throughput benchmark for readout-rebalance.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload ensemble_ibu --seed 1 --seconds 30 --trace 0

It imports the package from ``src/`` of that checkout, sets it up several
times, runs one warm-up harness pass whose outputs go through the
correctness gates, then repeats identical passes for ``--seconds`` seconds.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` spends half the
time untraced and half traced and reports the per-layer metrics.

Times and rates are reported at reference speed: each is divided by the
host slowdown that short fixed probes measure while it runs (see
``reference.py``).  The wall-clock figures are in the report line.

The second-to-last line of standard output is a JSON report (environment,
workload parameters, wall-clock figures, output hashes, gate failures,
absent spans); the last line is the result ``{"correct", "attempted",
"failed", "metrics"}``, where ``failed / attempted`` is the share of cells
that raised or failed a gate.  The exit code is 0 only when no cell failed
and every pass wrote the same bytes.  Scratch files go to
``.perfbench_out/`` in the checkout and are removed at exit.
"""

import os

# BLAS and OpenMP threads are pinned before numpy loads: the spread from run
# to run on a small shared machine is far larger with free thread counts.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE_DIR = SRC / "readout_rebalance"

# metric names, units and bounds live in BENCHMARK.json next to this tree
SPEC = ROOT / "BENCHMARK.json"


def git_sha(root):
    """Commit of the checkout, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = root / ".git" / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256(package_dir):
    """Hash of the package sources, which identifies the code when git does not."""
    digest = hashlib.sha256()
    for path in sorted(package_dir.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(path.relative_to(package_dir).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(np, args):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError, ValueError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_sha": git_sha(ROOT),
        "source_sha256": source_sha256(PACKAGE_DIR),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
    }


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    return args


def main(argv=None):
    if not (PACKAGE_DIR / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    if not SPEC.is_file():
        print(f"error: {SPEC} not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import numpy as np
    import workloads

    args = parse_args(argv, workloads.WORKLOADS)
    out_dir = ROOT / ".perfbench_out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        metrics, report = workloads.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), str(out_dir)
        )
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            out_dir.parent.rmdir()
        except OSError:
            pass

    report["env"] = environment(np, args)
    listed = json.loads(SPEC.read_text())["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }
    print(json.dumps(report, sort_keys=True, default=str))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
