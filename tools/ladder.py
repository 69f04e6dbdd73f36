"""The k ladder, on Linux: per k, `python -m psl2ham hamilton` and then
`verify` of its certificate in child processes, each run 3 times (the
median wall time, and the median peak RSS as `ru_maxrss` from
`os.wait4`, in MiB), then the stages of the pipeline timed in this
process (best of 5 below k = 10^5; `build_quotient` and
`verify_certificate` each walk the S-orbits again).  Runs k = 61 ...
99661, then each K named (990361 takes minutes), and writes
BENCH_<tag>.json here; PYTHONPATH picks the tree measured:

    PYTHONPATH=src python tools/ladder.py TAG [K ...]
"""

import compileall, json, os, platform, subprocess, sys, tempfile, time
from statistics import median

import psl2ham
from psl2ham import (Field, build_quotient, certificate_to_text, lift_cycle,
                     parse_certificate, s_orbits, verify_certificate)
from psl2ham.gf import factor_prime_power

LADDER = [61, 81, 121, 361, 841, 2401, 4621, 17161, 28561, 99661]

# spawns argv[1:] with stdout to /dev/null: "status wall_s ru_maxrss_kib"
LAUNCH = """import os, sys, time
t = time.perf_counter()
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ, file_actions=[
    (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
_, status, usage = os.wait4(pid, 0)
print(status, time.perf_counter() - t, usage.ru_maxrss)"""


def child(*args):
    """Run `python -m psl2ham args` 3 times, for the medians, from a bare
    `python -S` launcher: a child's ru_maxrss counts the peak RSS of the
    process that spawned it, which here would be this one's, grown by the
    stages."""
    walls, rsss = [], []
    for _ in range(3):
        out = subprocess.run([sys.executable, "-S", "-c", LAUNCH,
                              sys.executable, "-m", "psl2ham", *args],
                             capture_output=True, text=True, check=True).stdout
        status, wall, rss = out.split()
        if int(status):
            sys.exit(f"psl2ham {' '.join(args)}: exit status {status}")
        walls.append(float(wall))
        rsss.append(int(rss))
    return {"wall_s": round(median(walls), 3),
            "maxrss_mb": round(median(rsss) / 1024, 1)}


def stages(k, runs):
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
        cert = lap("lift_cycle", lift_cycle(q))
        failure = lap("verify_certificate", verify_certificate(cert))
        text = lap("certificate_to_text", certificate_to_text(cert))
        lap("parse_certificate", parse_certificate(text))
        if failure:
            sys.exit(f"k = {k}: {failure}")
    return {name: round(s, 4) for name, s in best.items()}


def main(tag, *extra):
    compileall.compile_dir(os.path.dirname(psl2ham.__file__), quiet=1)
    rungs = []
    with tempfile.TemporaryDirectory() as tmp:
        for k in LADDER + [int(x) for x in extra]:
            cert = os.path.join(tmp, f"{k}.txt")
            rungs.append({"k": k, "hamilton": child("hamilton", "--k", str(k),
                                                    "--out", cert),
                          "verify": child("verify", "--cert", cert),
                          "stages_s": stages(k, 5 if k < 10**5 else 1)})
            print(json.dumps(rungs[-1]), file=sys.stderr)
    with open("/proc/cpuinfo") as info:
        cpu = next((ln.split(":")[1].strip() for ln in info
                    if ln.startswith("model name")), platform.machine())
    host = {"python": platform.python_version(), "cpu": cpu,
            "cpus": os.cpu_count()}
    with open(f"BENCH_{tag}.json", "w") as out:
        json.dump({"tag": tag, "host": host, "rungs": rungs}, out, indent=1)
        out.write("\n")


if __name__ == "__main__":
    main(*sys.argv[1:])
