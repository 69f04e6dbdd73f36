"""Self-check of the benchmark:  python3 -m pytest perfbench/test_selfcheck.py

Runs a few small CLI jobs in workers (about 10 s in all).
"""

import json
import random

import pytest

import jobs as J
import run as R

BENCHMARK = json.loads((R.ROOT / "BENCHMARK.json").read_text())
GOLDEN = json.loads(R.GOLDEN.read_text())


def small_round(workload, rng):
    """One cheap job in place of the workload's real list."""
    return [J.weil_report(61)]


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(monkeypatch, capsys, trace, section):
    monkeypatch.setattr(J, "workload_jobs", small_round)
    assert R.main(["--workload", "weil", "--seed", "1", "--seconds", "0",
                   "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    for name, unit in want.items():
        assert any(ln.split()[:1] == [name] and ln.split()[-1] == unit
                   for ln in lines[:-1]), name


def test_golden_table_covers_every_job_a_seed_can_draw():
    drawn = set()
    for seed in range(300):
        for workload in J.WORKLOADS:
            drawn |= {job.key for job in J.workload_jobs(workload, random.Random(seed))
                      if job.golden}
    assert drawn == {job.key for job in J.golden_jobs()} == set(GOLDEN)


def test_mutation_classes_get_their_exit_codes(tmp_path):
    rng = random.Random(0)
    work = [J.verify_mutated(J.draw_mutation(rng, cls, (61, 0))) for cls in J.MUTATIONS]
    bench = R.Bench(golden=GOLDEN, tmp=tmp_path)
    bench.prepare(work)
    for job in work:
        res = bench.run(job, trace=False)
        # header-truncated crashes with IndexError at the seed (ROADMAP item 4)
        assert res.failure is None or res.known_defect, (job.key, res.failure)


def test_mutations_touch_what_they_name():
    text = "psl2ham-certificate 1\ns 61\ntotal 5\nvertices 3\ninf:0\n1:0\n2:3\n"

    def cut(cls, *pos):
        return J.mutate(text, J.Mutation(cls, (61, 0), pos)).splitlines()

    assert cut("dup-vertex", 0, 2)[4:] == ["2:3", "1:0", "2:3"]
    assert cut("drop-vertex", 1)[3:] == ["vertices 2", "inf:0", "2:3"]
    assert cut("zero-total")[2] == "total 0"
    assert cut("body-truncated", 2)[4:] == ["inf:0"]
    assert cut("bad-point", 0)[4] == "inf:7"
    assert cut("header-truncated", 2) == ["psl2ham-certificate 1", "s 61"]
