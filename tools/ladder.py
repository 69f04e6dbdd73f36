"""The k ladder, on Linux: per k, `python -m psl2ham hamilton` and then
`verify` of its certificate in child processes, each run 3 times (the
medians of the wall time, of the CPU time `ru_utime + ru_stime` and of
the peak RSS `ru_maxrss` from `os.wait4`, in MiB; host load moves CPU
time less than wall time), then the stages of the pipeline timed in a
child process (best of 5 below k = 10^5; `run_pipeline` is `hamilton`
past the field, quotient, lift and the record's checks; it and
`verify_text` each walk the S-orbits again, and `verify_text` builds its
own field; `weil_report` is the 375 rows of `weil-report` on the field
built first).  Runs k = 61 ...
99661, then each K named (990361 takes minutes), and writes
BENCH_<tag>.json here; PYTHONPATH picks the tree measured:

    PYTHONPATH=src python tools/ladder.py TAG [K ...] [--parent SRC]

With --parent, the src/ of a second tree, every child also runs on that
tree, and each rung records its figures under "parent"; each tree's
stages are timed by that tree's own tools/ladder.py, as the stage list
follows that tree's API.  The two trees alternate rung by rung, A B B A
A B for the child runs and A B for the stages, B first on every other
rung, so drift in host load lands on both sides.
"""

import argparse, compileall, json, os, platform, subprocess, sys, tempfile, time
from statistics import median

LADDER = [61, 81, 121, 361, 841, 2401, 4621, 17161, 28561, 99661]

# spawns argv[1:] with stdout to /dev/null:
# "status wall_s ru_maxrss_kib cpu_s"
LAUNCH = """import os, sys, time
t = time.perf_counter()
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ, file_actions=[
    (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
_, status, usage = os.wait4(pid, 0)
print(status, time.perf_counter() - t, usage.ru_maxrss,
      usage.ru_utime + usage.ru_stime)"""


def children(envs, sides, args_of):
    """Run `python -m psl2ham args_of(side)` 3 times per side, in the order
    A B, B A, A B, for the medians, from a bare `python -S` launcher: a
    child's ru_maxrss counts the peak RSS of the process that spawned it,
    which here would be this one's."""
    runs = {side: [] for side in sides}
    for side in sides + sides[::-1] + sides:
        out = subprocess.run([sys.executable, "-S", "-c", LAUNCH, sys.executable,
                              "-m", "psl2ham", *args_of(side)], env=envs[side],
                             capture_output=True, text=True, check=True).stdout
        status, wall, rss, cpu = out.split()
        if int(status):
            sys.exit(f"{side}: psl2ham {' '.join(args_of(side))}: "
                     f"exit status {status}")
        runs[side].append((float(wall), int(rss), float(cpu)))
    return {side: {"wall_s": round(median(w for w, _, _ in r), 3),
                   "cpu_s": round(median(c for _, _, c in r), 3),
                   "maxrss_mb": round(median(m for _, m, _ in r) / 1024, 1)}
            for side, r in runs.items()}


def stages(k, runs):
    from psl2ham import (Field, build_quotient, certificate_chunks,
                         lift_cycle, run_pipeline, s_orbits, verify_text)
    from psl2ham.diag import solvability_report
    from psl2ham.gf import factor_prime_power

    best = {}
    for _ in range(runs):
        t = [time.perf_counter()]

        def lap(name, value):
            t.append(time.perf_counter())
            dt = t[-1] - t[-2]
            best[name] = min(dt, best.get(name, dt))
            return value

        field = lap("field", Field(*factor_prime_power(k)))
        lap("s_orbits", s_orbits(field))
        q = lap("build_quotient", build_quotient(field, 0))
        lap("lift_cycle", lift_cycle(q))
        cert = lap("run_pipeline", run_pipeline(field, 0))
        text = lap("certificate_chunks", "".join(certificate_chunks(cert)))
        _, failure = lap("verify_text", verify_text(text))
        lap("weil_report", solvability_report(field))
        if failure:
            sys.exit(f"k = {k}: {failure}")
    return {name: round(s, 4) for name, s in best.items()}


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("tag")
    ap.add_argument("k", nargs="*", type=int, help="rungs after the ladder")
    ap.add_argument("--parent", help="src/ of a second tree, run alternately")
    args = ap.parse_args(argv)
    import psl2ham  # the tree on PYTHONPATH

    trees = {"tree": os.path.dirname(os.path.dirname(os.path.abspath(
        psl2ham.__file__)))}
    if args.parent:
        trees["parent"] = os.path.abspath(args.parent)
    envs = {side: dict(os.environ, PYTHONPATH=src) for side, src in trees.items()}
    for src in trees.values():
        compileall.compile_dir(os.path.join(src, "psl2ham"), quiet=1)
    rungs = []
    with tempfile.TemporaryDirectory() as tmp:
        for n, k in enumerate(LADDER + args.k):
            sides = list(trees) if n % 2 == 0 else list(trees)[::-1]
            cert = {side: os.path.join(tmp, f"{side}-{k}.txt") for side in sides}
            ham = children(envs, sides, lambda s: ["hamilton", "--k", str(k),
                                                   "--out", cert[s]])
            ver = children(envs, sides, lambda s: ["verify", "--cert", cert[s]])
            figures = {}
            for side in sides:
                ladder = os.path.join(os.path.dirname(trees[side]), "tools",
                                      "ladder.py")
                out = subprocess.run(
                    [sys.executable, ladder, "--stages", str(k),
                     str(5 if k < 10**5 else 1)], env=envs[side],
                    capture_output=True, text=True, check=True).stdout
                figures[side] = {"hamilton": ham[side], "verify": ver[side],
                                 "stages_s": json.loads(out)}
            rungs.append({"k": k, **figures["tree"]})
            if args.parent:
                rungs[-1]["parent"] = figures["parent"]
            print(json.dumps(rungs[-1]), file=sys.stderr)
    with open("/proc/cpuinfo") as info:
        cpu = next((ln.split(":")[1].strip() for ln in info
                    if ln.startswith("model name")), platform.machine())
    host = {"python": platform.python_version(), "cpu": cpu,
            "cpus": os.cpu_count()}
    with open(f"BENCH_{args.tag}.json", "w") as out:
        json.dump({"tag": args.tag, "host": host, "rungs": rungs}, out, indent=1)
        out.write("\n")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--stages"]:  # the stage timing child of main
        print(json.dumps(stages(int(sys.argv[2]), int(sys.argv[3]))))
    else:
        main(sys.argv[1:])
