"""graphal benchmark: one workload per process, or all three in turn.

    python3 perfbench/run.py --workload interactive-file --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from anywhere; graphal is imported from the ``src`` directory next to
this one, never from an installed copy.  With ``--trace 0`` the result
holds the end-to-end metrics; with ``--trace 1`` the per-layer metrics of
a traced run and the tracing overhead against an untraced one.  The last
line of output is the result as one JSON object.  Generated inputs, the
accuracy CSV, spans and a full result record go under ``.perfbench/`` at
the repository root.

BLAS runs single-threaded (set before numpy loads), which keeps the
numbers steadier on a small shared machine and starts no more threads
than there are cores.  The end-to-end times are CPU time of the
benchmark process (see ``workloads.clock``), which on a shared VM leaves
out the time the host runs someone else; a rate is the queries of each
distinct round over the median time of its repeats.  numpy's huge-page
advice for large arrays is turned off: whether the kernel backs a fresh array with huge pages
depends on the machine's memory fragmentation at that moment, and with
it on, whole interactive-file sessions flipped between two speeds about
30% apart on a 2-core Xeon VM.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
NUMPY_ENV = {"NUMPY_MADVISE_HUGEPAGE": "0"}
WORKLOAD_NAMES = ("interactive-file", "batch-multiclass", "toy-grid")
CHILD_TIMEOUT_S = 900


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, required=True, help="seed of the generated inputs")
    p.add_argument("--seconds", type=float, required=True, help="time on the clock per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def machine_record() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        **{k.lower(): os.environ[k] for k in NUMPY_ENV},
    }


def run_one(args) -> int:
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    os.environ.update(NUMPY_ENV)
    sys.path.insert(0, str(SRC))
    import graphal

    if Path(graphal.__file__).resolve().parent != SRC / "graphal":
        print(f"error: graphal imported from {graphal.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    record = workloads.measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    record["machine"] = machine_record()
    (workdir / "result.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"machine {json.dumps(record['machine'])}")
    print(f"digest {args.workload} seed={args.seed} sha256={record['digest']}")
    for name, row in record.get("spans", {}).items():
        print(
            f"span {name:32s} calls/round={row['calls_per_round']:9.2f} median={row['median_ms']:10.4f} ms"
            f" self={row['self_median_ms']:10.4f} ms self/round={row['self_ms_per_round']:11.3f} ms"
        )
    for name, m in record["metrics"].items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']} (n={m['samples']})")
    failed_ratio = record["failed"] / record["attempted"]
    print(f"metric failed_ratio = {failed_ratio:.6g} fraction (n={record['attempted']})")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in record["metrics"].items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so peak RSS belongs to that workload alone."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}")
            status = 1
            continue
        for line in lines[:-1]:
            if line.startswith(("metric ", "digest ")):
                print(f"{name:17s} {line}")
        result = json.loads(lines[-1])
        print(f"{name:17s} correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        if not result["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "graphal" / "__init__.py").is_file():
        print(f"error: no graphal sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
