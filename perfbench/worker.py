"""Run one psl2ham CLI job in this fresh process and report it as JSON.

    python3 perfbench/worker.py '{"argv": ["weil-report", "--k", "61"], "trace": false}'

Imports psl2ham from the checkout's src/, calls `psl2ham.cli.run(argv)`
with stdout and stderr captured, and prints one JSON object: the
CLOCK_MONOTONIC instant `import psl2ham` returned (the runner subtracts
its spawn instant), the latency of `cli.run`, the calibration times taken
just before, during and after it, the exit code, the uncaught exception if
any, a SHA-256 of stdout, the peak RSS, and in traced mode the spans and
call counts.
"""

import gc
import hashlib
import io
import json
import resource
import signal
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
CALIBRATION_ROUNDS = 40000
SAMPLE_EVERY_S = 0.05  # calibration samples during a job, a short loop each


def calibrate(rounds: int = CALIBRATION_ROUNDS) -> float:
    """Seconds a fixed loop of the kind of work psl2ham does (tuple
    indexing, modular arithmetic, dict and set updates) takes, scaled to
    CALIBRATION_ROUNDS rounds.

    The runner divides job times by it to take out the drift in host
    speed.  The garbage collector is off meanwhile, so the heap a job
    leaves behind does not enter the time.
    """
    table, last, seen = tuple(range(97)), {}, set()
    gc.disable()
    try:
        start = time.perf_counter()
        for i in range(rounds):
            x = table[i % 97] * 31 % 97
            last[x] = (x, i & 7)
            seen.add((last[x][0], i % 5))
        return (time.perf_counter() - start) * CALIBRATION_ROUNDS / rounds
    finally:
        gc.enable()


class Sampler:
    """Calibration samples every SAMPLE_EVERY_S while a job runs, from a
    SIGALRM handler; `paused` is the time spent in the handler, which is
    not the job's."""

    def __init__(self):
        self.samples: list[float] = []
        self.paused = 0.0

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(calibrate(CALIBRATION_ROUNDS // 16))
        self.paused += time.perf_counter() - start

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def main() -> None:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, str(SRC))
    import psl2ham
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    if not Path(psl2ham.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"psl2ham was imported from {psl2ham.__file__}, not {SRC}")
    from psl2ham import cli

    before = calibrate()
    tracer = None
    if spec["trace"]:
        import spans
        tracer = spans.install()

    out, err = io.StringIO(), io.StringIO()
    sys.stdout, sys.stderr = out, err
    error = None
    with Sampler() as sampler:
        start = time.perf_counter()
        try:
            code = cli.run(spec["argv"])
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # what an installed `psl2ham` would die of
            code, error = 1, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start - sampler.paused
    sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__

    report = {
        "ready": ready,
        "latency_s": latency,
        "calibration_s": [before, *sampler.samples, calibrate()],
        "code": code,
        "error": error,
        "stdout_sha": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stdout_head": out.getvalue()[:200],
        "stderr_head": err.getvalue()[:200],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        report["spans"] = [[name, s - start, e - start, parent]
                           for name, s, e, parent in tracer.spans]
        report["counts"] = tracer.counts()
        report["missing"] = tracer.missing
    json.dump(report, sys.stdout)


if __name__ == "__main__":
    main()
