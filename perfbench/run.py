"""susyqm benchmark: time, memory and correctness of the CLI on seeded workloads.

    python3 perfbench/run.py --workload periodic-free --seed 1 --seconds 30 --trace 0

Runs from a plain source checkout with nothing installed: the worker puts
``src`` on the import path. Each run starts fresh worker processes (see
``worker.py``) with the OpenBLAS thread count pinned:

* one process that sets up and runs whole passes over the workload's ops for
  ``--seconds``; with ``--trace 1`` it spends the first half untraced and the
  second half traced;
* ``SETUP_SAMPLES - 1`` processes that only set up, half of them before that
  process and half after.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1``. A run record
(versions, thread count, source hash, argv of every op, every pass time) is
written to ``.perfbench/`` in the checkout, next to the spans of traced runs.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("periodic-free", "rotor-antilinear", "dirichlet-spectral")
COMMANDS = ("check", "spectrum", "partner", "scan", "eq5")
SETUP_SAMPLES = 7
# One OpenBLAS thread: on a shared 2-core host two threads made dense passes
# range over 7-11 s from run to run, one thread over 12.0-12.7 s.
BLAS_THREADS = 1
SETUP_TIMEOUT_S = 30
RUN_TIMEOUT_S = 150


def _unit(name: str) -> str:
    if name.endswith((".calls", ".errors", "_calls", ".spans")):
        return "count"
    if name == "operators.to_dense.bytes":
        return "bytes_computed"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("_frac"):
        return "fraction"
    if name.endswith("_mb"):
        return "MB"
    return "s"


def _typical_pass(op_s: list[list[float]], commands=None, command=None) -> float:
    """Sum over ops of each op's median time across passes (only ``command``'s ops if given).

    A burst of load from outside slows one op in one pass; the per-op median
    drops it where the median of whole-pass sums would not.
    """
    return sum((statistics.median(times) for i, times in enumerate(zip(*op_s))
               if command is None or commands[i] == command), 0.0)


def _worker(args, workdir: Path, env: dict, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir), *extra]
    timeout = SETUP_TIMEOUT_S if "--setup-only" in extra else RUN_TIMEOUT_S
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _source_record() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "susyqm").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    record = {"src_sha256": digest.hexdigest(), "commit": None}
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        record["commit"] = git.stdout.strip() or None
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "susyqm" / "cli.py").is_file():
        print(f"error: no susyqm sources under {SRC}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    threads = str(min(nproc, BLAS_THREADS))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
    # compile once here, so no set-up sample pays for writing bytecode
    for tree in (SRC, HERE):
        compileall.compile_dir(tree, quiet=1)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    workdir.mkdir()
    # set-up time drifts with the host's load over tens of seconds, so half the
    # samples are taken before the passes and half after
    before = (SETUP_SAMPLES - 1) // 2
    try:
        setup = [_worker(args, workdir, env, "--setup-only")["setup_s"] for _ in range(before)]
        spans = OUT / f"spans-{tag}.jsonl"
        run = _worker(args, workdir, env, *(["--spans", str(spans)] if args.trace else []))
        setup += [_worker(args, workdir, env, "--setup-only")["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1 - before)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setup.append(run["setup_s"])

    wall_s = _typical_pass(run["op_s"])
    if args.trace:
        traced_s = _typical_pass(run["traced_op_s"])
        metrics = dict(run["layers"])
        metrics.update({f"cli.{c}_s": _typical_pass(run["op_s"], run["commands"], c)
                        for c in COMMANDS})
        metrics.update({"cli.report_bytes": run["report_bytes"],
                        "trace.wall_s": traced_s, "trace.untraced_wall_s": wall_s,
                        "trace.overhead_s": traced_s - wall_s})
    else:
        metrics = {"setup_s": statistics.median(setup), "wall_s": wall_s,
                   "peak_rss_mb": run["peak_rss_mb"]}

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "nproc": nproc, **run["versions"], **_source_record(),
              "argv": run["argv"], "setup_s": setup, "op_s": run["op_s"],
              "traced_op_s": run.get("traced_op_s"), "problems": run["problems"],
              "selftest_problems": run["selftest_problems"]}
    (OUT / f"run-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    for problem in run["problems"] + run["selftest_problems"]:
        print(problem, file=sys.stderr)
    print(json.dumps({
        "correct": run["failed"] == 0 and not run["selftest_problems"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
