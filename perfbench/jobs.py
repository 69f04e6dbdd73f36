"""Workloads of the psl2ham benchmark: seed -> list of CLI jobs.

A job is one `psl2ham` command line.  Its key is the command line with
the placeholder `OUT` for the file the job writes and `CERT(k,orbital)` or
`MUT(class)` for the certificate it reads; the key names the job in
reports and in the golden table (golden.json).  The seed picks the job
order, the orbitals at k = 361 and 421, the base certificates of the
mutations and the positions they touch.  Nothing else is random.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

ORBITALS = range(5)
SMALL_KS = (61, 81, 121)
LARGE_KS = (361, 421)
CERT_KS = SMALL_KS + LARGE_KS
# m=1 plain %: 61 421 1201 4621; m>1 add table: 81 121 361 841;
# m>1 tuple encode/decode above k=1024: 2401 3481
WEIL_KS = (61, 81, 121, 361, 421, 841, 1201, 2401, 3481, 4621)
WORKLOADS = ("certify", "verify", "weil", "export")

# mutation class -> exit code `psl2ham verify` owes it
MUTATIONS = {
    "dup-vertex": 4,
    "drop-vertex": 4,
    "zero-total": 4,
    "body-truncated": 2,
    "bad-point": 2,
    "header-truncated": 2,
}
# Mutation classes the seed program is known to get wrong, with the
# uncaught exception it raises instead of its exit code.  Such a job still
# counts as failed; the entry only marks the failure as the known one
# (ROADMAP item 4), so that any other failure makes the run incorrect.
KNOWN_DEFECTS = {"header-truncated": "IndexError"}


@dataclass(frozen=True)
class Mutation:
    cls: str
    base: tuple[int, int]  # (k, orbital) of the valid certificate it edits
    pos: tuple[int, ...]   # seed-chosen positions, see mutate()


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    expect: int = 0
    cert: tuple[int, int] | None = None  # valid certificate read, (k, orbital)
    mutation: Mutation | None = None

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    @property
    def golden(self) -> bool:
        """Whether the job's output is pinned in the golden table."""
        return self.mutation is None


def hamilton(k: int, i: int) -> Job:
    return Job(("hamilton", "--k", str(k), "--orbital", str(i), "--out", "OUT"))


def verify(k: int, i: int) -> Job:
    return Job(("verify", "--cert", f"CERT({k},{i})"), cert=(k, i))


def verify_mutated(mut: Mutation) -> Job:
    return Job(("verify", "--cert", f"MUT({mut.cls})"),
               expect=MUTATIONS[mut.cls], mutation=mut)


def weil_report(k: int) -> Job:
    return Job(("weil-report", "--k", str(k)))


def build(k: int, i: int | None = None, fmt: str | None = None) -> Job:
    argv = ["build", "--k", str(k)]
    if i is not None:
        argv += ["--orbital", str(i)]
    if fmt is not None:
        argv += ["--format", fmt]
    return Job(tuple(argv + ["--out", "OUT"]))


def quotient(k: int) -> Job:
    return Job(("quotient", "--k", str(k), "--out", "OUT"))


def full_graph(k: int) -> Job:
    return Job(("full-graph", "--k", str(k), "--orbitals", "0,1,2,3,4",
                "--out", "OUT"))


def n_vertices(k: int) -> int:
    return 10 * ((k + 1) // 2)


def draw_mutation(rng: random.Random, cls: str, base: tuple[int, int]) -> Mutation:
    n = n_vertices(base[0])
    if cls == "dup-vertex":
        pos = tuple(rng.sample(range(n), 2))
    elif cls == "header-truncated":
        pos = (rng.randrange(1, 10),)  # keep 1..9 of the 10 header lines
    elif cls == "body-truncated":
        pos = (rng.randrange(1, n),)   # drop this many trailing vertices
    else:
        pos = (rng.randrange(n),)
    return Mutation(cls, base, pos)


def workload_jobs(workload: str, rng: random.Random) -> list[Job]:
    """The job list of one round of `workload`, in canonical order."""
    if workload == "certify":
        jobs = [hamilton(k, i) for k in SMALL_KS for i in ORBITALS]
        return jobs + [hamilton(k, rng.choice(ORBITALS)) for k in LARGE_KS]
    if workload == "verify":
        certs = [(k, i) for k in SMALL_KS for i in ORBITALS]
        certs += [(k, i) for k in LARGE_KS for i in sorted(rng.sample(ORBITALS, 2))]
        large = [c for c in certs if c[0] in LARGE_KS]
        big_slot = rng.randrange(len(MUTATIONS))  # one base has k >= 361
        muts = [draw_mutation(rng, cls, rng.choice(large if n == big_slot else certs))
                for n, cls in enumerate(MUTATIONS)]
        return [verify(k, i) for k, i in certs] + [verify_mutated(m) for m in muts]
    if workload == "weil":
        return [weil_report(k) for k in WEIL_KS]
    if workload == "export":
        return [build(361, rng.choice(ORBITALS), "edgelist"),
                build(421, rng.choice(ORBITALS), "dot"),
                build(81), build(121),
                quotient(61), quotient(81), quotient(121),
                full_graph(121)]
    raise ValueError(f"unknown workload {workload!r}")


def golden_jobs() -> list[Job]:
    """Every job with a pinned output that any seed can draw."""
    jobs = [hamilton(k, i) for k in CERT_KS for i in ORBITALS]
    jobs += [verify(k, i) for k in CERT_KS for i in ORBITALS]
    jobs += [weil_report(k) for k in WEIL_KS]
    jobs += [build(361, i, "edgelist") for i in ORBITALS]
    jobs += [build(421, i, "dot") for i in ORBITALS]
    jobs += [build(81), build(121), full_graph(121)]
    jobs += [quotient(k) for k in SMALL_KS]
    return jobs


def mutate(text: str, mut: Mutation) -> str:
    """Apply one mutation class to valid certificate text.

    The header ends with the `vertices N` line; the body follows, one
    point per line.
    """
    lines = text.splitlines()
    nhead = next(n for n, ln in enumerate(lines) if ln.startswith("vertices ")) + 1
    head, body = lines[:nhead], lines[nhead:]
    cls, pos = mut.cls, mut.pos
    if cls == "dup-vertex":
        body[pos[0]] = body[pos[1]]
    elif cls == "drop-vertex":
        del body[pos[0]]
        head[-1] = f"vertices {len(body)}"
    elif cls == "zero-total":
        head = ["total 0" if ln.startswith("total ") else ln for ln in head]
    elif cls == "body-truncated":
        body = body[:-pos[0]]
    elif cls == "bad-point":
        body[pos[0]] = body[pos[0]].rpartition(":")[0] + ":7"
    elif cls == "header-truncated":
        head, body = head[:pos[0]], []
    else:
        raise ValueError(f"unknown mutation class {cls!r}")
    return "\n".join(head + body) + "\n"
