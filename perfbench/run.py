"""Benchmark of the psl2ham command line.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 25 --trace 0

Runs the workload's jobs (perfbench/jobs.py) in a closed loop with one
client: each job is one `psl2ham` invocation, `cli.run(argv)` in a fresh
worker process (perfbench/worker.py), started only after the previous one
has exited.  Jobs run in seed-shuffled cycles: the first runs every job,
later ones rerun the jobs that still fit in --seconds.  Every job's exit
code is checked, and its output against the golden SHA-256 table
(perfbench/golden.json) where the output is pinned.

--trace 0 reports the end-to-end metrics; a job's latency is the median
over its executions:
  setup_s      median worker cold start, spawn to `import psl2ham` returned
  wall_s       sum of the job latencies (entry into cli.run to its return)
  job_p50_s    median job latency
  peak_rss_mb  largest ru_maxrss of any worker
Times are host-calibrated: each worker also times a fixed loop
(worker.calibrate) before, during and after its job, and every time it
measured is scaled by REFERENCE_CALIBRATION_S over the mean loop time.
On a shared host whose speed drifts, this keeps the host's drift out of
the figures; the uncalibrated wall_s is printed beside them.
--trace 1 runs every execution twice, untraced then traced
(perfbench/spans.py), and reports the per-layer metrics of the traced
runs plus the tracing overhead; the spans are written as JSON lines to
perfbench/.work/traces/.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  `attempted` counts the workload's jobs and `failed` those with
a failed execution, so that neither depends on how many executions fit
in --seconds.  `correct` is false when a job fails in a way other than
the known defects listed in jobs.KNOWN_DEFECTS, which still count as
failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import jobs as J

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
GOLDEN = BENCH / "golden.json"
RUN_LIMIT_S = 170  # a run must end within 180 s
# About the median time of worker.calibrate() on the host the benchmark was
# built on (2-vCPU VM, Python 3.11); it only sets the scale of the times.
REFERENCE_CALIBRATION_S = 0.015


def monotonic() -> float:
    # the clock the worker stamps `ready` with, shared across processes
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def sha256_file(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


def run_worker(argv: list[str], trace: bool, timeout: float) -> dict:
    """One CLI invocation in a fresh process; the worker's report."""
    spec = json.dumps({"argv": argv, "trace": trace})
    # a fixed hash seed makes set iteration order, and so timing, repeat
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawn = monotonic()
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), spec],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"code": None, "error": f"TimeoutExpired: after {timeout:.0f} s",
                "latency_s": monotonic() - spawn}
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        return {"code": None, "latency_s": monotonic() - spawn,
                "error": f"worker died ({proc.returncode}): "
                         f"{err.decode(errors='replace')[-300:]}"}
    report = json.loads(out)
    report["setup_s"] = report["ready"] - spawn
    return report


@dataclass
class Outcome:
    job: J.Job
    report: dict
    out_sha: str | None = None
    failure: str | None = None  # None: the job passed

    @property
    def known_defect(self) -> bool:
        mut = self.job.mutation
        err = self.report.get("error") or ""
        return (self.failure is not None and mut is not None
                and err.split(":")[0] == J.KNOWN_DEFECTS.get(mut.cls))


@dataclass
class Bench:
    """Files and golden hashes of one run."""
    golden: dict
    tmp: Path
    certs: dict = field(default_factory=dict)  # (k, i) -> path
    bad_certs: set = field(default_factory=set)
    deadline: float = field(default_factory=lambda: monotonic() + RUN_LIMIT_S)

    def argv(self, job: J.Job, out: Path) -> list[str]:
        subst = {"OUT": str(out)}
        if job.cert is not None:
            subst[job.argv[-1]] = str(self.certs[job.cert])
        if job.mutation is not None:
            subst[job.argv[-1]] = str(self.tmp / f"mut-{job.mutation.cls}.txt")
        return [subst.get(a, a) for a in job.argv]

    def run(self, job: J.Job, trace: bool) -> Outcome:
        out = self.tmp / "out"
        out.unlink(missing_ok=True)
        report = run_worker(self.argv(job, out), trace, self.deadline - monotonic())
        res = Outcome(job, report, out_sha=sha256_file(out))
        out.unlink(missing_ok=True)
        res.failure = self.check(res)
        return res

    def check(self, res: Outcome) -> str | None:
        job, rep = res.job, res.report
        if rep.get("error"):
            return f"uncaught {rep['error']}"
        if job.mutation is not None and rep["code"] == 0:
            return "accepted a mutated certificate"
        if rep["code"] != job.expect:
            return f"exit code {rep['code']}, expected {job.expect}"
        if job.golden:
            want = self.golden.get(job.key)
            if want is None:
                return "no golden hash for this job"
            if (rep["stdout_sha"], res.out_sha) != (want["stdout"], want["out"]):
                return "output differs from its golden hash"
        base = job.cert or (job.mutation and job.mutation.base)
        if base in self.bad_certs:
            return f"input certificate {base} differs from its golden hash"
        return None

    def prepare(self, work: list[J.Job]) -> None:
        """Untimed: write the certificates the verify jobs read.

        Valid certificates come from `psl2ham hamilton` of this checkout and
        are kept across runs under a digest of src/; each is checked
        against its golden hash.  Mutations are written fresh per run.
        """
        cache = WORK / f"certs-{source_digest()}"
        cache.mkdir(parents=True, exist_ok=True)
        needed = {j.cert for j in work if j.cert} | {j.mutation.base for j in work if j.mutation}
        for k, i in sorted(needed):
            path = cache / f"k{k}-orbital{i}.txt"
            if not path.exists():
                part = path.with_suffix(f".{os.getpid()}.part")
                run_worker(["hamilton", "--k", str(k), "--orbital", str(i),
                            "--out", str(part)], False, self.deadline - monotonic())
                if part.exists():
                    part.rename(path)
            want = self.golden.get(J.hamilton(k, i).key, {}).get("out")
            if sha256_file(path) != want:
                self.bad_certs.add((k, i))
            self.certs[(k, i)] = path
        for j in work:
            if j.mutation is not None and j.mutation.base not in self.bad_certs:
                text = self.certs[j.mutation.base].read_text()
                (self.tmp / f"mut-{j.mutation.cls}.txt").write_text(J.mutate(text, j.mutation))


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "psl2ham").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


# --- per-layer metrics from spans ---

# metric -> (unit, how, names); how: "calls" counts spans, "time" sums their
# durations, "self" sums their self times, "counter" reads call counters
PER_LAYER = {
    "gf.field_builds": ("count", "calls", ["gf.Field"]),
    "gf.field_build_s": ("s", "time", ["gf.Field"]),
    "gf.add_calls": ("count", "counter", ["gf.add"]),
    "gf.mul_calls": ("count", "counter", ["gf.mul"]),
    "psl2.build_s": ("s", "time", ["psl2.PSL2", "psl2.S", "psl2.H"]),
    "psl2.mul_calls": ("count", "counter", ["psl2.mul"]),
    "action.build_s": ("s", "time", ["action.CosetAction"]),
    "action.s_orbits_s": ("s", "time", ["action.s_orbits"]),
    "action.point_of_calls": ("count", "counter", ["action.point_of"]),
    "orbital.build_graph_s": ("s", "time", ["orbital.build_graph"]),
    "orbital.neighborhood_calls": ("count", "calls", ["orbital.neighborhood"]),
    "orbital.neighborhood_s": ("s", "time", ["orbital.neighborhood"]),
    "orbital.export_s": ("s", "time", ["orbital.edgelist_lines", "orbital.to_dot"]),
    "orbital.union_s": ("s", "time", ["orbital.union_neighbor_sets"]),
    "quotient.build_s": ("s", "time", ["quotient.build_quotient"]),
    "quotient.lift_s": ("s", "time", ["quotient.lift_cycle"]),
    "quotient.verify_s": ("s", "self", ["quotient.verify_certificate"]),
    "quotient.cert_text_s": ("s", "time", ["quotient.certificate_to_text"]),
    "quotient.parse_s": ("s", "time", ["quotient.parse_certificate"]),
    "diag.report_s": ("s", "time", ["diag.solvability_report"]),
    "diag.count_calls": ("count", "calls", ["diag.count_solutions", "diag.count_nonzero_x2"]),
    "diag.count_s": ("s", "time", ["diag.count_solutions", "diag.count_nonzero_x2"]),
    "cli.self_s": ("s", "self", ["cli.run", "cli.run_pipeline",
                                 "cli.full_graph_mode", "cli.build_action"]),
}


def span_table(outcomes: list[Outcome]) -> dict[str, list]:
    """Span name -> [calls, total s, self s] over the outcomes' spans."""
    table: dict[str, list] = {}
    for res in outcomes:
        spans = res.report.get("spans", [])
        child = [0.0] * len(spans)
        for name, s, e, parent in spans:
            if parent >= 0:
                child[parent] += e - s
        for (name, s, e, _), c in zip(spans, child):
            row = table.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += e - s
            row[2] += e - s - c
    return table


def layer_metrics(res: Outcome) -> dict[str, float]:
    """PER_LAYER of one traced job, times at the reference host speed."""
    table = span_table([res])
    counts = res.report.get("counts", {})
    col = {"calls": 0, "time": 1, "self": 2}
    out = {}
    for metric, (_, how, names) in PER_LAYER.items():
        if how == "counter":
            out[metric] = sum(counts.get(n, 0) for n in names)
        else:
            out[metric] = sum(table.get(n, [0, 0.0, 0.0])[col[how]] for n in names)
            if how != "calls":
                out[metric] *= host_factor(res)
    return out


# --- the run ---

Executions = dict  # job key -> one [untraced] or [untraced, traced] list per execution


def measure(bench: Bench, work: list[J.Job], rng: random.Random,
            seconds: float, trace: bool) -> Executions:
    """Run the jobs in seed-shuffled cycles, one worker at a time.

    The first cycle runs every job.  Later cycles go cheapest job first,
    so that the short jobs, which set job_p50_s, get the most executions,
    and skip a job whose last execution would no longer fit in `seconds`;
    the run ends with the first cycle that runs nothing.
    """
    execs: Executions = {job.key: [] for job in work}
    cost: dict[str, float] = {}
    t0 = monotonic()
    ran = True
    while ran:
        ran = False
        for job in sorted(rng.sample(work, len(work)), key=lambda j: cost.get(j.key, 0.0)):
            now = monotonic()
            if job.key in cost and (now - t0 + cost[job.key] > seconds
                                    or now + cost[job.key] > bench.deadline):
                continue
            ex = [bench.run(job, False)]
            if trace:
                ex.append(bench.run(job, True))
            execs[job.key].append(ex)
            cost[job.key] = monotonic() - now
            ran = True
    return execs


def job_median(exs: list[list[Outcome]], value, traced: bool = False) -> float:
    """Median of value(outcome) over one job's executions."""
    return statistics.median(value(ex[traced]) for ex in exs)


def host_factor(res: Outcome, calibrations: slice = slice(None)) -> float:
    """Reference over mean measured calibration time: scales a time
    measured in this worker to the reference host speed (1 if the worker
    died)."""
    measured = res.report.get("calibration_s", [])[calibrations]
    return REFERENCE_CALIBRATION_S / statistics.mean(measured) if measured else 1.0


def raw_latency(res: Outcome) -> float:
    return res.report["latency_s"]


def latency(res: Outcome) -> float:
    """Job latency at the reference host speed, by the calibrations taken
    before, during and after the job."""
    return res.report["latency_s"] * host_factor(res)


def end_to_end(execs: Executions) -> dict[str, tuple[float, str]]:
    """wall_s and job_p50_s are the sum and the median over the jobs of
    each job's median latency; setup_s and peak_rss_mb span all workers."""
    done = [ex[0] for exs in execs.values() for ex in exs]
    # the calibration just after `import psl2ham` is the nearest to set-up
    setups = [res.report["setup_s"] * host_factor(res, slice(1))
              for res in done if "setup_s" in res.report]
    rss = [res.report["maxrss_kb"] for res in done if "maxrss_kb" in res.report]
    lat = [job_median(exs, latency) for exs in execs.values()]
    return {
        "setup_s": (statistics.median(setups) if setups else float("nan"), "s"),
        "wall_s": (sum(lat), "s"),
        "job_p50_s": (statistics.median(lat), "s"),
        "peak_rss_mb": (max(rss) / 1024 if rss else float("nan"), "MB"),
    }


def per_layer(execs: Executions) -> dict[str, tuple[float, str]]:
    """Each layer metric summed over the jobs, per job the median over its
    traced executions; plus the traced wall time and its excess over the
    untraced one."""
    per_job = [[layer_metrics(ex[1]) for ex in exs] for exs in execs.values()]
    metrics = {name: (sum(statistics.median(m[name] for m in job) for job in per_job), unit)
               for name, (unit, _, _) in PER_LAYER.items()}
    traced = sum(job_median(exs, latency, traced=True) for exs in execs.values())
    untraced = sum(job_median(exs, latency) for exs in execs.values())
    metrics["trace.wall_s"] = (traced, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    return metrics


def print_span_table(outcomes: list[Outcome]) -> None:
    """Raw (uncalibrated) span times of the outcomes."""
    table = span_table(outcomes)
    total = sum(map(raw_latency, outcomes))
    print(f"{'span':32} {'calls':>9} {'total_s':>10} {'self_s':>10} {'self/wall':>9}")
    for name, (calls, tot, self_) in sorted(table.items(), key=lambda kv: -kv[1][2]):
        print(f"{name:32} {calls:9d} {tot:10.4f} {self_:10.4f} {self_ / total:9.1%}")


def write_trace(path: Path, outcomes: list[Outcome]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for job_id, res in enumerate(outcomes):
            fh.write(json.dumps({"job": job_id, "key": res.job.key,
                                 "counts": res.report.get("counts", {})}) + "\n")
            for n, (name, s, e, parent) in enumerate(res.report.get("spans", [])):
                fh.write(json.dumps({"job": job_id, "span": n, "name": name,
                                     "start": s, "end": e, "parent": parent}) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=J.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = monotonic()
    if not (SRC / "psl2ham" / "cli.py").is_file():
        print(f"no psl2ham sources under {SRC}", file=sys.stderr)
        return 2

    rng = random.Random(args.seed)
    work = J.workload_jobs(args.workload, rng)
    WORK.mkdir(parents=True, exist_ok=True)
    tmp = WORK / f"run-{os.getpid()}"
    tmp.mkdir(exist_ok=True)
    try:
        bench = Bench(golden=json.loads(GOLDEN.read_text()), tmp=tmp,
                      deadline=started + RUN_LIMIT_S)
        bench.prepare(work)
        execs = measure(bench, work, rng, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    done = [res for exs in execs.values() for ex in exs for res in ex]
    failed = [res for res in done if res.failure]
    failed_jobs = {res.job.key for res in failed}
    print(f"workload {args.workload}  seed {args.seed}  {len(work)} jobs  "
          f"{len(done)} runs{' (untraced + traced)' if args.trace else ''}")
    for key, exs in sorted(execs.items(), key=lambda kv: job_median(kv[1], latency)):
        print(f"  {job_median(exs, latency):10.4f} s  x{len(exs)}  {key}")
    for res in failed:
        tag = "known defect" if res.known_defect else "FAILED"
        print(f"  {tag}: {res.job.key}: {res.failure}")
    print(f"  {'failed_ratio':28} {len(failed_jobs) / len(execs):14.6f} ratio "
          f"({len(failed_jobs)} of {len(execs)} jobs; "
          f"{len(failed)} of {len(done)} runs)")
    calibrations = [c for res in done for c in res.report.get("calibration_s", [])]
    if calibrations:
        print(f"  host: median calibration {statistics.median(calibrations):.6f} s, "
              f"reference {REFERENCE_CALIBRATION_S} s; uncalibrated wall_s "
              f"{sum(job_median(exs, raw_latency) for exs in execs.values()):.6f} s")

    if args.trace:
        print_span_table([exs[0][1] for exs in execs.values()])
        missing = sorted({m for res in done for m in res.report.get("missing", [])})
        if missing:
            print(f"  not in this program, reported as 0: {', '.join(missing)}")
        metrics = per_layer(execs)
        write_trace(WORK / "traces" / f"{args.workload}-seed{args.seed}.jsonl",
                    [ex[1] for exs in execs.values() for ex in exs])
    else:
        metrics = end_to_end(execs)
    for name, (value, unit) in metrics.items():
        print(f"  {name:28} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": all(res.known_defect for res in failed),
        "attempted": len(execs),
        "failed": len(failed_jobs),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
