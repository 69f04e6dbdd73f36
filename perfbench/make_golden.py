"""Pin the golden output table of the benchmark.

    python3 perfbench/make_golden.py

Runs every job of jobs.golden_jobs() once, each in a fresh worker, and
writes perfbench/golden.json: job key -> SHA-256 of its stdout and of the
file it writes (null when it writes none).  The table was made at the
seed commit; remake it only at a commit whose outputs are known good,
since the benchmark fails every job whose output differs from it.
"""

import json
import shutil
import sys

import jobs as J
import run as R


def main() -> int:
    tmp = R.WORK / "golden"
    tmp.mkdir(parents=True, exist_ok=True)
    bench = R.Bench(golden={}, tmp=tmp)
    golden = {}
    try:
        for job in J.golden_jobs():  # hamilton first: verify reads its output
            out = tmp / "out"
            if job.argv[0] == "hamilton":
                k, i = int(job.argv[2]), int(job.argv[4])
                out = bench.certs[(k, i)] = tmp / f"k{k}-orbital{i}.txt"
            rep = R.run_worker(bench.argv(job, out), False, 600)
            if rep.get("error") or rep["code"] != job.expect:
                print(f"{job.key}: exit {rep['code']} {rep.get('error')}", file=sys.stderr)
                return 1
            golden[job.key] = {"stdout": rep["stdout_sha"], "out": R.sha256_file(out)}
            print(f"{rep['latency_s']:8.3f} s  {job.key}", flush=True)
            if out.name == "out":
                out.unlink(missing_ok=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    R.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
