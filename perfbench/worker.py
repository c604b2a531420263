"""One fresh benchmark process: set up, run passes of a workload, verify, trace.

Started by ``run.py``, never by hand. The set-up clock starts before susyqm
(and with it numpy and scipy) is imported and stops after one tiny call of
each subcommand the workload uses. Each pass then calls
``susyqm.cli.main(argv)`` for every op of the workload in turn, a closed loop
with a single caller, and its reports are checked after the pass. The last
line of standard output is a JSON object for ``run.py``.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _set_up(warmups, workdir):
    import susyqm.cli
    for i, argv in enumerate(warmups):
        code = susyqm.cli.main(argv + ["--out", str(workdir / f"warmup{i}.out")])
        if code != 0:
            raise SystemExit(f"warm-up {argv} exited with {code}")
    return susyqm.cli, time.perf_counter() - _T0


def _check(op, data: bytes) -> list[str]:
    try:
        return op.check(data.decode())
    except (ValueError, TypeError, KeyError, IndexError, StopIteration) as exc:
        return [f"unreadable report: {exc!r}"]


class Runner:
    """Runs passes over the ops and checks every report they write."""

    def __init__(self, cli, ops, workdir):
        self.cli, self.ops, self.workdir = cli, ops, workdir
        self.reference: dict[int, bytes] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.op_s: list[list[float]] = []  # one row of op times per pass
        self.report_bytes: list[int] = []

    def one_pass(self) -> float:
        times, codes = [], []
        for i, op in enumerate(self.ops):
            out = self.workdir / f"op{i}.out"
            out.unlink(missing_ok=True)
            start = time.perf_counter()
            try:
                code = self.cli.main(op.argv + ["--out", str(out)])
            except Exception as exc:  # a traceback is a failed op, not a dead benchmark
                code = repr(exc)
            times.append(time.perf_counter() - start)
            codes.append(code)
        self.attempted += len(self.ops)
        self._verify(codes)
        self.op_s.append(times)
        return sum(times)

    def _verify(self, codes):
        sizes = 0
        for i, (op, code) in enumerate(zip(self.ops, codes)):
            out = self.workdir / f"op{i}.out"
            data = out.read_bytes() if out.exists() else b""
            sizes += len(data)
            problems = _check(op, data) if code == 0 else [f"exit code {code}"]
            if data != self.reference.setdefault(i, data):
                problems.append("bytes differ from the first pass")
            if problems:
                self.failed += 1
                self.problems += [f"{' '.join(op.argv)}: {p}" for p in problems]
        self.report_bytes.append(sizes)

    def self_test(self) -> list[str]:
        """The check of every op must reject a corrupted copy of its first-pass report."""
        from verify import CORRUPT
        accepted = []
        for i, op in enumerate(self.ops):
            try:
                bad = CORRUPT[op.command](self.reference[i].decode()).encode()
            except (ValueError, KeyError, IndexError, StopIteration):
                bad = self.reference[i]
            if bad == self.reference[i] or not _check(op, bad):
                accepted.append(f"{' '.join(op.argv)}: corrupted report accepted")
        return accepted

    def run_for(self, seconds: float) -> int:
        """Whole passes until the next one would overrun ``seconds`` (at least one)."""
        start, passes = time.perf_counter(), 0
        while True:
            last = self.one_pass()
            passes += 1
            if time.perf_counter() - start + last > seconds:
                return passes


def _versions(threads):
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    scipy_blas = scipy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "numpy_blas": f"{blas.get('name')} {blas.get('version')}",
            "scipy_blas": f"{scipy_blas.get('name')} {scipy_blas.get('version')}",
            "openblas_threads": threads}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import workloads
    ops, warmups = workloads.build(args.workload, args.seed)
    cli, setup_s = _set_up(warmups, args.workdir)
    result = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(result))
        return

    runner = Runner(cli, ops, args.workdir)
    budget = args.seconds / 2 if args.trace else args.seconds
    runner.run_for(budget)
    selftest = runner.self_test()
    untraced = len(runner.op_s)
    if args.trace:
        from tracing import Tracer, summarize
        tracer = Tracer()
        tracer.install()
        try:
            traced = runner.run_for(budget)
        finally:
            tracer.remove()
        result["traced_op_s"] = runner.op_s[untraced:]
        result["layers"] = summarize(tracer.spans, sum(map(sum, result["traced_op_s"])), traced)
        if args.spans is not None:
            with open(args.spans, "w", encoding="utf-8") as fh:
                fh.writelines(json.dumps(span) + "\n" for span in tracer.spans)

    result.update({
        "op_s": runner.op_s[:untraced],
        "commands": [op.command for op in ops],
        "report_bytes": statistics.median(runner.report_bytes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems[:20],
        "selftest_problems": selftest,
        "argv": [op.argv for op in ops],
        "versions": _versions(os.environ.get("OPENBLAS_NUM_THREADS")),
    })
    print(json.dumps(result))


if __name__ == "__main__":
    main()
