"""Acceptance suite: one test per criterion, one PASS/FAIL line printed each.

Run with `pytest tests/test_acceptance.py -v -s`.

The quotient checks (criteria 1, 2 and 7) hold the double edges to the
single count of `psl2ham.diag`: orbits A and B are joined by
d(A,B) = N(y != 0)/10 edges, N(y != 0) the solutions with y != 0 of the
matching diagonal equation.  The lift needs one double edge on the
quotient cycle.  At k = 61 and 121 every off-diagonal pair has one.
Over GF(81) the tenth powers are exactly the nonzero elements of the
GF(9) subfield and all of those are squares in GF(81), so for the five
crossing orbit pairs per orbital graph with j - i + n = 0 (mod 5) the
equation theta*b^2 + c*y^10 = -1 has only the ten solutions with b = 0,
the position w = 0: d(A,B) = 1 there (README, "The k=81 degeneracy").
Criterion 2 derives that single-edge set from the field and asserts
d = 1 exactly on it and d >= 2 everywhere else.
"""

import random
import subprocess
import sys
import time

import pytest

from psl2ham import (DiagonalEquation, Field, build_quotient,
                     certificate_chunks, double_edge_equation, lift_cycle,
                     s_orbits, solution_profile, weil_check)
from psl2ham.diag import le_times_sqrt
from psl2ham.gf import is_prime
from reference import (PSL2, brute_count, equation_for_orbit_pair, mulclose,
                       suborbits, unroll_lift)
from util import fresh_process_env, held_graph, ten_orbits, text_verdict

PRIME_POWERS_TO_121 = [
    (2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1),
    (2, 4), (17, 1), (19, 1), (23, 1), (5, 2), (3, 3), (29, 1), (31, 1),
    (2, 5), (37, 1), (41, 1), (43, 1), (47, 1), (7, 2), (53, 1), (59, 1),
    (61, 1), (2, 6), (67, 1), (71, 1), (73, 1), (79, 1), (3, 4), (83, 1),
    (89, 1), (97, 1), (101, 1), (103, 1), (107, 1), (109, 1), (113, 1),
    (11, 2),
]

PARAMS = {61: (61, 1), 81: (3, 4), 121: (11, 2)}


def report(criterion: str, failures: list, detail: str = ""):
    status = "FAIL" if failures else "PASS"
    suffix = f" ({detail})" if detail else ""
    print(f"{status} {criterion}{suffix}")
    assert not failures, f"{criterion}: " + "; ".join(failures)


def single_edge_pairs(field: Field, i: int) -> set[tuple[int, int]]:
    """Ordered orbit pairs of Y(i) whose matching equation
    a1*x^2 + a2*y^10 = b has no solution with x != 0 and y != 0.

    Decided from the value sets of the two terms, without the counting
    code of psl2ham.diag.
    """
    q = field.order
    squares = {field.pow(x, 2) for x in range(1, q)}
    tenths = {field.pow(y, 10) for y in range(1, q)}
    out = set()
    for a in range(10):
        for b in range(10):
            if a == b:
                continue
            eq = equation_for_orbit_pair(field, i, a, b)
            assert (eq.k1, eq.k2) == (2, 10)
            first = {field.mul(eq.a1, v) for v in squares}
            if not any(field.sub(eq.b, field.mul(eq.a2, t)) in first
                       for t in tenths):
                out.add((a, b))
    return out


def structural_checks(k: int) -> tuple[list, float, Field]:
    """The shared end-to-end battery for one instance; returns failures."""
    s, m = PARAMS[k]
    p = (k + 1) // 2
    t0 = time.monotonic()
    failures = []
    field = Field(s, m)
    sizes = sorted(len(sb.points) for sb in suborbits(field))
    if sizes != [1] * 5 + [k] * 5:
        failures.append(f"suborbit profile {sizes}")

    orbits = ten_orbits(s_orbits(field))
    if len({v for o in orbits for v in o}) != 10 * p:
        failures.append("S-orbits are not ten of size (k+1)/2")

    for i in range(5):
        # build_graph raises on a wrong degree, a loop, asymmetry or
        # disconnection; test_orbital re-checks the last two on the rows
        graph = held_graph(field, i)
        if len(graph.vertices) != 5 * (k + 1):
            failures.append(f"|Omega| = {len(graph.vertices)}, expected {5 * (k + 1)}")
        degrees = {len(nb) for nb in graph.neighbors}
        if degrees != {k}:
            failures.append(f"Y({i}) degrees {sorted(degrees)}")
        quot = build_quotient(field, i)
        offdiag = [(a, b) for a in range(10) for b in range(10)
                   if a != b and quot.mult[a][b] < 1]
        if offdiag:
            failures.append(f"Y({i}) quotient is not complete: {offdiag}")
        singles = single_edge_pairs(field, i)
        # proven in the README: 10 ordered pairs per orbital at k=81, else none
        if len(singles) != (10 if k == 81 else 0):
            failures.append(f"Y({i}) derived single-edge pairs {sorted(singles)}")
        not_single = sorted(ab for ab in singles if quot.mult[ab[0]][ab[1]] != 1)
        if not_single:
            failures.append(f"Y({i}) d(A,B) = 1 fails at {not_single}")
        below2 = [(a, b) for a in range(10) for b in range(10)
                  if a != b and (a, b) not in singles and quot.mult[a][b] < 2]
        if below2:
            failures.append(
                f"Y({i}) off-diagonal d(A,B) >= 2 fails at {below2}")
        if not any(quot.mult[e][(e + 1) % 10] >= 2 for e in range(10)):
            failures.append(f"Y({i}) cycle 0..9 has no edge with d >= 2")
        cert = lift_cycle(quot)
        if len(cert.vertices) != 10 * p or text_verdict(cert) is not None:
            failures.append(f"Y({i}) certificate bad")
    return failures, time.monotonic() - t0, field


def test_criterion_1_k61_end_to_end():
    failures, elapsed, _ = structural_checks(61)
    if elapsed >= 10:
        failures.append(f"took {elapsed:.1f}s, budget 10s")
    report("criterion 1: k=61 end-to-end structural checks", failures,
           f"{elapsed:.1f}s")


@pytest.mark.parametrize("k", [81, 121])
def test_criterion_2_extension_instances(k):
    failures, elapsed, field = structural_checks(k)
    if elapsed >= 120:
        failures.append(f"took {elapsed:.1f}s, budget 120s")
    group = PSL2(field)
    expected_h = k * (k - 1) // 10
    if len(group.H) != expected_h:
        failures.append(f"|H| = {len(group.H)}, expected {expected_h}")
    if k == 81:
        l, t, u = group.generators()
        closure = mulclose([u, group.power(t, 5)], group.mul)
        if len(closure) != 72 or len(group.H) != 648:
            failures.append(
                f"literal closure demo: |<u,t^5>| = {len(closure)}, |H| = {len(group.H)}")
    report(f"criterion 2: k={k} end-to-end structural checks", failures,
           f"{elapsed:.1f}s")


def test_criterion_3_exhaustive_solvability_gf61():
    t0 = time.monotonic()
    F = Field(61, 1)
    failures = []
    for c in range(1, 61):
        eq = DiagonalEquation(a1=1, k1=2, a2=c, k2=10, b=1)
        if not solution_profile(F, eq).nonzero_x2:
            failures.append(f"c = {c} has no nonzero-y solution")
    elapsed = time.monotonic() - t0
    if elapsed >= 1:
        failures.append(f"took {elapsed:.2f}s, budget 1s")
    report("criterion 3: x^2 + c*y^10 = 1 solvable with y != 0 "
           "for all 60 nonzero c over GF(61)", failures, f"{elapsed:.2f}s")


def test_criterion_4_weil_inequality_randomized():
    rng = random.Random(0xD1A6)
    failures = []
    checked = 0
    for s, m in PRIME_POWERS_TO_121:
        F = Field(s, m)
        q = F.order
        for _ in range(5):
            eq = DiagonalEquation(
                a1=rng.randrange(1, q), k1=rng.randrange(1, 2 * q),
                a2=rng.randrange(1, q), k2=rng.randrange(1, 2 * q),
                b=rng.randrange(1, q))
            rep = weil_check(F, eq)
            if not rep.holds:
                failures.append(f"violation at q={q}, {eq}")
            checked += 1
    if checked < 200:
        failures.append(f"only {checked} equations checked")
    report("criterion 4: solution-count bound on randomized equations, "
           "all prime powers q <= 121", failures, f"{checked} equations")


def test_criterion_5_specialized_lower_bound():
    failures = []
    for k, (s, m) in PARAMS.items():
        F = Field(s, m)
        for pair_type in (1, 2, 3):
            for i in range(5):
                for j in range(5):
                    for n in range(5):
                        eq = double_edge_equation(F, pair_type, i, j, n)
                        nz = solution_profile(F, eq).nonzero_x2
                        # nz >= k - 8*sqrt(k) - 3, decided in exact arithmetic
                        if not le_times_sqrt(k - 3 - nz, 8, k):
                            failures.append(
                                f"k={k} type={pair_type} (i,j,n)=({i},{j},{n}): "
                                f"N_nonzero = {nz}")
    report("criterion 5: N_nonzero >= k - 8*sqrt(k) - 3 for all 375 "
           "equation instances at each k", failures)


def test_criterion_6_lift_dichotomy(cache):
    failures = []
    for k in PARAMS:
        q = cache.quotient(k, 0)
        p = q.p
        rng = random.Random(k * 7)
        edge_sets = [q.voltages[e][(e + 1) % 10] for e in range(10)]
        branch = {0: 0, 1: 0}
        assignments = [[rng.choice(vs) for vs in edge_sets] for _ in range(110)]
        # force zero-total assignments so both branches are exercised
        forced = 0
        for _ in range(5000):
            head = [rng.choice(vs) for vs in edge_sets[:-1]]
            need = (-sum(head)) % p
            if need in edge_sets[-1]:
                assignments.append(head + [need])
                forced += 1
                if forced == 3:
                    break
        for choices in assignments:
            total = sum(choices) % p
            comps = unroll_lift(q, choices)
            if total:
                branch[1] += 1
                if len(comps) != 1 or len(comps[0]) != 10 * p:
                    failures.append(f"k={k}: nonzero total {total} gave "
                                    f"{[len(c) for c in comps]}")
            else:
                branch[0] += 1
                if len(comps) != p or any(len(c) != 10 for c in comps):
                    failures.append(f"k={k}: zero total gave "
                                    f"{[len(c) for c in comps]}")
        if branch[0] == 0 or branch[1] == 0:
            failures.append(f"k={k}: dichotomy branches not both exercised {branch}")
        if sum(branch.values()) < 100:
            failures.append(f"k={k}: only {sum(branch.values())} assignments")
    report("criterion 6: voltage lift dichotomy over >= 100 assignments "
           "per instance", failures)


@pytest.mark.parametrize("k", [61, 81, 121])
def test_criterion_7_cross_module_consistency(k, cache, fields):
    failures = []
    F = fields[k]
    both = {}  # N(x != 0, y != 0) of each distinct equation, by brute force
    for i in range(5):
        quot = cache.quotient(k, i)
        for a in range(10):
            for b in range(10):
                if a == b:
                    continue
                d = quot.mult[a][b]
                eq = equation_for_orbit_pair(F, i, a, b)
                nonzero = solution_profile(F, eq).nonzero_x2
                if 10 * d != nonzero:
                    failures.append(f"i={i} pair ({a},{b}): d = {d} but "
                                    f"N(y != 0) = {nonzero}")
                if eq not in both:
                    both[eq] = brute_count(F, eq, True, True)
                if (both[eq] > 0) != (d >= 2):
                    failures.append(
                        f"i={i} pair ({a},{b}): d = {d} but "
                        f"N(x != 0, y != 0) = {both[eq]}")
    report(f"criterion 7: k={k} 10*d(A,B) = N(y != 0), and d(A,B) >= 2 iff "
           f"matching equation solvable with x != 0 and y != 0, all 90 "
           f"ordered pairs x 5 orbitals", failures[:6])


@pytest.mark.parametrize("k,i", [(61, 0), (61, 1), (61, 2), (61, 3), (61, 4),
                                 (81, 0), (121, 0)])
def test_criterion_8_fresh_process_verification(k, i, cache, tmp_path):
    cert = lift_cycle(cache.quotient(k, i))
    path = tmp_path / f"cert_{k}_{i}.txt"
    path.write_text("".join(certificate_chunks(cert)))
    proc = subprocess.run(
        [sys.executable, "-m", "psl2ham", "verify", "--cert", str(path)],
        capture_output=True, text=True, env=fresh_process_env())
    failures = []
    if proc.returncode != 0:
        failures.append(f"exit {proc.returncode}: {proc.stderr.strip()}")
    elif "certificate OK" not in proc.stdout:
        failures.append(f"unexpected output {proc.stdout!r}")
    report(f"criterion 8: k={k} Y({i}) certificate verifies in a fresh process",
           failures)


def test_prime_power_list_is_complete():
    # self-check of the table driving criterion 4
    found = {s**m for s, m in PRIME_POWERS_TO_121}
    expect = set()
    for q in range(2, 122):
        for s in range(2, q + 1):
            if is_prime(s):
                v = s
                while v < q:
                    v *= s
                if v == q:
                    expect.add(q)
                    break
    assert found == expect and len(found) == 41
