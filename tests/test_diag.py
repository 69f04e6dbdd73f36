"""Diagonal equation counting, the integer-exact bound, orbit-pair equations."""

import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from psl2ham import (DiagonalEquation, Field, build_quotient,
                     double_edge_equation, list_instances, m_pairs,
                     solution_profile, weil_check)
from psl2ham.diag import (PAIR_INF_INF, PAIR_INF_ZERO, PAIR_ZERO_ZERO,
                          le_times_sqrt, solvability_report)
from reference import (brute_count, equation_for_orbit_pair, minus,
                       per_row_report, value_count_profile)

PRIME_POWERS_TO_121 = [
    (2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1),
    (2, 4), (17, 1), (19, 1), (23, 1), (5, 2), (3, 3), (29, 1), (31, 1),
    (2, 5), (37, 1), (41, 1), (43, 1), (47, 1), (7, 2), (53, 1), (59, 1),
    (61, 1), (2, 6), (67, 1), (71, 1), (73, 1), (79, 1), (3, 4), (83, 1),
    (89, 1), (97, 1), (101, 1), (103, 1), (107, 1), (109, 1), (113, 1),
    (11, 2),
]


def test_circle_gf3():
    F = Field(3, 1)
    eq = DiagonalEquation(a1=1, k1=2, a2=1, k2=2, b=1)
    assert brute_count(F, eq) == 4
    assert solution_profile(F, eq).total == 4


def test_linear_equation_counts_q():
    rng = random.Random(5)
    for s, m in [(5, 1), (7, 1), (3, 2), (13, 1)]:
        F = Field(s, m)
        a1 = rng.randrange(1, F.order)
        a2 = rng.randrange(1, F.order)
        b = rng.randrange(F.order)
        eq = DiagonalEquation(a1=a1, k1=1, a2=a2, k2=1, b=b)
        assert solution_profile(F, eq).total == F.order


def test_count_matches_brute_force():
    # GF(16) and GF(32): in characteristic 2 log(-1) = 0, so the Zech reads
    # of 1 - t take no offset
    rng = random.Random(6)
    for s, m in [(3, 1), (5, 1), (7, 1), (3, 2), (2, 4), (13, 1), (61, 1),
                 (2, 5)]:
        F = Field(s, m)
        for _ in range(8):
            eq = DiagonalEquation(
                a1=rng.randrange(1, F.order), k1=rng.randrange(1, 15),
                a2=rng.randrange(1, F.order), k2=rng.randrange(1, 15),
                b=rng.randrange(F.order))
            assert solution_profile(F, eq) == (
                brute_count(F, eq), brute_count(F, eq, True))


@pytest.mark.parametrize("s,m", [(7, 1), (3, 2), (2, 4), (13, 1), (2, 5)])
def test_count_matches_brute_force_at_the_edges(s, m):
    # the closed-form value counts where they are most easily wrong: b = 0,
    # exponent 1, gcd(k, q-1) = 1 (k = q) and k a multiple of q-1 (a term
    # with one nonzero value, taken q-1 times); over GF(32), whose q - 1 is
    # prime, only k = q-1 gives a d > 1 to test log(-1) = 0 on
    F = Field(s, m)
    q = F.order
    rng = random.Random(q)
    for k1, k2 in product((1, 2, 3, q, q - 1, 2 * (q - 1)), repeat=2):
        for b in (0, 1, rng.randrange(2, q)):
            eq = DiagonalEquation(a1=rng.randrange(1, q), k1=k1,
                                  a2=rng.randrange(1, q), k2=k2, b=b)
            assert solution_profile(F, eq) == (
                brute_count(F, eq), brute_count(F, eq, True))


@pytest.mark.parametrize("s,m", [
    pytest.param(s, m, id=str(s**m))
    for s, m in list_instances(5000) + [(131, 2), (13, 4)]])
def test_report_equations_match_the_value_counts(s, m):
    # each count reads one index class of 1 - t; the value counts of the
    # two terms are the oracle, on the ten equations a report counts
    F = Field(s, m)
    for t, e in product((PAIR_INF_INF, PAIR_INF_ZERO), range(5)):
        eq = double_edge_equation(F, t, 0, 0, e)
        assert solution_profile(F, eq) == value_count_profile(F, eq)


@pytest.mark.parametrize("s,m", [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2)],
                         ids=["2", "3", "4", "8", "9"])
def test_count_matches_the_value_counts_everywhere(s, m):
    # every equation with k1, k2 in 1..q: characteristic 2 (log(-1) = 0),
    # q = 2 (the class of t != 1 is empty), b = 0 and d = q - 1
    F = Field(s, m)
    q = F.order
    for a1, a2, b, k1, k2 in product(range(1, q), range(1, q), range(q),
                                     *[range(1, q + 1)] * 2):
        eq = DiagonalEquation(a1=a1, k1=k1, a2=a2, k2=k2, b=b)
        assert solution_profile(F, eq) == value_count_profile(F, eq)


def test_double_edge_solution_on_orbit_pair_equations():
    # the k=81 degeneracy: the ten solutions with y != 0 all have x1 = 0,
    # the position w = 0 alone, so d = 1; over GF(61) the same form has
    # d >= 2 and solutions with x1 != 0
    F81 = Field(3, 4)
    degenerate = double_edge_equation(F81, PAIR_INF_ZERO, 0, 0, 0)
    assert solution_profile(F81, degenerate).nonzero_x2 == 10
    assert brute_count(F81, degenerate, True, True) == 0
    F61 = Field(61, 1)
    generic = double_edge_equation(F61, PAIR_INF_ZERO, 0, 0, 0)
    assert solution_profile(F61, generic).nonzero_x2 >= 20
    assert brute_count(F61, generic, True, True) > 0


def test_validation():
    F = Field(5, 1)
    with pytest.raises(ValueError):
        solution_profile(F, DiagonalEquation(a1=0, k1=2, a2=1, k2=2, b=1))
    with pytest.raises(ValueError):
        solution_profile(F, DiagonalEquation(a1=1, k1=0, a2=1, k2=2, b=1))
    with pytest.raises(ValueError):
        weil_check(F, DiagonalEquation(a1=1, k1=2, a2=1, k2=2, b=0))
    with pytest.raises(ValueError) as exc:
        weil_check(Field(61, 1), DiagonalEquation(1, 2, 1, 10, 61))
    assert str(exc.value) == "61 is not an element handle of GF(61)"


def test_weil_check_refuses_b_zero_before_it_counts(monkeypatch):
    def count(field, eq):
        raise AssertionError("counted")

    monkeypatch.setattr("psl2ham.diag.solution_profile", count)
    F = Field(61, 1)
    with pytest.raises(ValueError, match="requires b != 0"):
        weil_check(F, DiagonalEquation(a1=1, k1=2, a2=1, k2=10, b=0))
    # validation comes first: a bad equation is refused as such
    with pytest.raises(ValueError, match="must be nonzero"):
        weil_check(F, DiagonalEquation(a1=0, k1=2, a2=1, k2=10, b=0))


def test_m_pairs_values():
    assert m_pairs(2, 10) == 1
    assert m_pairs(1, 7) == 0
    assert m_pairs(2, 2) == 1
    with pytest.raises(ValueError):
        m_pairs(0, 3)


@given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=40))
def test_m_pairs_closed_form(d1, d2):
    # independent characterization via exact fractions
    expect = sum(
        1
        for j1 in range(1, d1)
        for j2 in range(1, d2)
        if (Fraction(j1, d1) + Fraction(j2, d2)).denominator == 1)
    assert m_pairs(d1, d2) == expect == math.gcd(d1, d2) - 1


def test_le_times_sqrt_exact():
    assert le_times_sqrt(0, 0, 7)
    assert le_times_sqrt(5, 2, 7)       # 5 <= 2*sqrt(7) = 5.29
    assert not le_times_sqrt(6, 2, 7)   # 6 > 5.29
    assert le_times_sqrt(6, 2, 9)       # 6 <= 6: equality exact
    assert le_times_sqrt(-10, -3, 9)    # -10 <= -9
    assert not le_times_sqrt(-8, -3, 9)  # -8 > -9
    assert not le_times_sqrt(1, -1, 4)


def test_weil_bound_randomized_sample():
    rng = random.Random(20240809)
    checked = 0
    for s, m in PRIME_POWERS_TO_121[:20]:
        F = Field(s, m)
        for _ in range(4):
            eq = DiagonalEquation(
                a1=rng.randrange(1, F.order), k1=rng.randrange(1, 2 * F.order),
                a2=rng.randrange(1, F.order), k2=rng.randrange(1, 2 * F.order),
                b=rng.randrange(1, F.order))
            rep = weil_check(F, eq)
            assert rep.holds, (s, m, eq, rep)
            checked += 1
    assert checked == 80


def test_weil_report_fields():
    F = Field(61, 1)
    eq = DiagonalEquation(a1=1, k1=2, a2=F.neg(F.pow(F.theta, -1)), k2=10, b=1)
    rep = weil_check(F, eq)
    d1, d2 = math.gcd(eq.k1, 60), math.gcd(eq.k2, 60)
    assert (d1, d2, m_pairs(d1, d2)) == (2, 10, 1)
    assert rep.bound == pytest.approx(8 * math.sqrt(61) + 1)
    assert rep.holds


def test_weil_circle_gf3():
    # N = 4, q = 3: |4 - 3| <= [(1)(1) - (1 - 3^-1/2)*1]*sqrt(3) = 1 exactly
    rep = weil_check(Field(3, 1), DiagonalEquation(a1=1, k1=2, a2=1, k2=2, b=1))
    assert rep.N == 4 and m_pairs(math.gcd(2, 2), math.gcd(2, 2)) == 1
    assert rep.bound == pytest.approx(1.0)
    assert rep.holds


def test_weil_linear_is_tight_zero():
    # k1 = k2 = 1 gives d1 = d2 = 1, M = 0: the bound degenerates to 0 = |N - q|
    for s, m in [(5, 1), (3, 2), (13, 1)]:
        F = Field(s, m)
        rep = weil_check(F, DiagonalEquation(a1=2, k1=1, a2=1, k2=1, b=1))
        assert rep.N == F.order and rep.bound == 0 and rep.holds


def test_gf61_all_coefficients_solvable():
    # x^2 + c*y^10 = 1 has a solution with y != 0 for every nonzero c
    F = Field(61, 1)
    for c in range(1, 61):
        prof = solution_profile(F, DiagonalEquation(a1=1, k1=2, a2=c, k2=10, b=1))
        assert prof.nonzero_x2 > 0
        assert prof.total >= 3  # beyond the two (a, 0) solutions


def test_negative_control_only_zero_y():
    # over GF(3): y^10 = 1 for y != 0, so x^2 + 2*y^10 = 1 forces x^2 = 2,
    # a non-square; the only solutions have y = 0
    F = Field(3, 1)
    eq = DiagonalEquation(a1=1, k1=2, a2=2, k2=10, b=1)
    assert solution_profile(F, eq)[:2] == (2, 0)


def test_solution_symmetry_in_first_coordinate():
    F = Field(61, 1)
    eq = DiagonalEquation(a1=1, k1=2, a2=17, k2=10, b=1)
    sols = {(x1, x2)
            for x1 in range(61) for x2 in range(61)
            if F.add(F.mul(eq.a1, F.pow(x1, 2)), F.mul(eq.a2, F.pow(x2, 10))) == 1}
    assert sols == {(F.neg(a), y) for a, y in sols}


def test_double_edge_equation_forms(field61):
    F = field61
    eq1 = double_edge_equation(F, PAIR_INF_INF, 0, 0, 0)
    assert eq1 == DiagonalEquation(a1=1, k1=2, a2=F.neg(F.pow(F.theta, -1)), k2=10, b=1)
    eq2 = double_edge_equation(F, PAIR_INF_ZERO, 0, 0, 0)
    assert eq2 == DiagonalEquation(a1=F.theta, k1=2, a2=F.neg(1), k2=10, b=F.neg(1))
    eq3 = double_edge_equation(F, PAIR_ZERO_ZERO, 2, 3, 1)
    assert eq3 == double_edge_equation(F, PAIR_INF_INF, 2, 3, 1)
    with pytest.raises(ValueError):
        double_edge_equation(F, 4, 0, 0, 0)
    with pytest.raises(ValueError):
        double_edge_equation(F, PAIR_INF_INF, 0, 5, 0)


def test_equation_for_orbit_pair_symmetry(field61):
    a, b = 2, 7
    eq_ab = equation_for_orbit_pair(field61, 1, a, b)
    eq_ba = equation_for_orbit_pair(field61, 1, b, a)
    assert eq_ab == eq_ba
    with pytest.raises(ValueError):
        equation_for_orbit_pair(field61, 0, 3, 3)


def test_solvability_matches_multiplicity(cache, fields):
    # d(A,B) >= 2 iff the matching equation has 20 or more solutions with
    # y != 0, the k=81 crossing degeneracy included; the degenerate pairs
    # have solutions with y != 0 but d = 1: all ten sit at x1 = 0, the
    # position w = 0
    from test_quotient import expected_single_edge_pairs
    for k in (61, 81, 121):
        F = fields[k]
        for i in range(5):
            q = cache.quotient(k, i)
            degenerate = expected_single_edge_pairs(i) if k == 81 else set()
            for a in range(10):
                for b in range(10):
                    if a == b:
                        continue
                    prof = solution_profile(F, equation_for_orbit_pair(F, i, a, b))
                    assert (prof.nonzero_x2 >= 20) == (q.mult[a][b] >= 2)
                    solvable = prof.nonzero_x2 > 0
                    if (a, b) in degenerate:
                        assert solvable and q.mult[a][b] == 1
                    else:
                        assert solvable == (q.mult[a][b] >= 2)


def test_k81_degenerate_solutions_all_have_zero_first_coordinate():
    F = Field(3, 4)
    eq = double_edge_equation(F, PAIR_INF_ZERO, 0, 0, 0)  # j - i + n = 0
    prof = solution_profile(F, eq)
    assert prof.nonzero_x2 == 10
    sols = [(x1, x2)
            for x1 in range(81) for x2 in range(1, 81)
            if F.add(F.mul(eq.a1, F.pow(x1, 2)),
                     F.mul(eq.a2, F.pow(x2, 10))) == eq.b]
    assert len(sols) == 10 and all(x1 == 0 for x1, _ in sols)


def brute_x1_split(field, eq):
    """(N(x1 != 0, y != 0), N(x1 = 0, y != 0)), from every pair (x1, y)."""
    t1 = [field.mul(eq.a1, field.pow(x, eq.k1)) for x in range(field.order)]
    t2 = [field.mul(eq.a2, field.pow(y, eq.k2)) for y in range(1, field.order)]
    hits = [sum(field.add(v, w) == eq.b for w in t2) for v in t1]
    return sum(hits[1:]), hits[0]


@pytest.mark.parametrize("k", [61, 81, 121])
def test_multiplicity_from_solution_counts(k, cache, fields):
    # d(A,B) = N(y != 0)/10 on every ordered pair of every orbital, counted
    # from every pair (x1, y) without solution_profile; N(x1 = 0, y != 0)
    # is 10 exactly for the inf-zero forms with e = 0 (a1 = theta, -c a
    # tenth power), the position w = 0, and 0 otherwise.  Both orbits in
    # the zero family pair orbit 5+j with j + 1
    F = fields[k]
    split = {}
    bad = []
    for i in range(5):
        q = cache.quotient(k, i)
        for a in range(10):
            for b in range(10):
                if a == b:
                    continue
                eq = equation_for_orbit_pair(F, i, a, b)
                if eq not in split:
                    split[eq] = brute_x1_split(F, eq)
                both, x1_zero = split[eq]
                w0 = eq.a1 == F.theta and F._log[F.neg(eq.a2)] % 10 == 0
                if 10 * q.mult[a][b] != both + x1_zero or x1_zero != 10 * w0:
                    bad.append((i, a, b))
    assert bad == []


@pytest.mark.parametrize("s,m", [pytest.param(s, m, id=str(s**m))
                                 for s, m in list_instances(2500)])
def test_multiplicity_is_a_tenth_of_the_nonzero_y_solutions(s, m):
    # d(A,B) = N(y != 0)/10 exactly, on every ordered pair of distinct
    # orbits of every orbital: an adjacent position w != 0 is sigma^w =
    # +-[[a, beta], [beta*theta, a]], and the pair (a, beta) gives ten
    # solutions with y != 0, the five fifth roots y for each of +-beta
    F = Field(s, m)
    bad = []
    for i in range(5):
        mult = build_quotient(F, i).mult
        for a, b in product(range(10), repeat=2):
            if a != b:
                eq = equation_for_orbit_pair(F, i, a, b)
                if 10 * mult[a][b] != solution_profile(F, eq).nonzero_x2:
                    bad.append((i, a, b))
    assert bad == []


def test_specialized_lower_bound():
    # solutions with y != 0 of x^2 + c*y^10 = 1 number at least k - 8*sqrt(k) - 3
    for s, m in [(61, 1), (3, 4), (11, 2)]:
        F = Field(s, m)
        k = F.order
        for e in range(-1, 9, 2):
            c = F.neg(F.pow(F.theta, e))
            eq = DiagonalEquation(a1=1, k1=2, a2=c, k2=10, b=1)
            n = solution_profile(F, eq).nonzero_x2
            # n >= k - 8*sqrt(k) - 3, decided exactly
            assert le_times_sqrt(k - 3 - n, 8, k)


@pytest.mark.parametrize("s,m", [pytest.param(s, m, id=str(s**m))
                                 for s, m in list_instances(2500)])
def test_the_bound_forces_a_double_edge_from_k_121_on(s, m):
    # the existence argument: every deciding equation has (d1, d2, M) =
    # (2, 10, 1), so |N - k| <= 8*sqrt(k) + 1; at most 2 solutions have
    # y = 0, so 10*d = N(y != 0) >= k - 8*sqrt(k) - 3, which exceeds 10,
    # forcing d >= 2, exactly from k = 121 on
    F = Field(s, m)
    k = F.order
    # the family and e mod 5 of each equation, e = n + j - i
    eqs = {double_edge_equation(F, pair_type, i, j, n):
           (pair_type, (n + j - i) % 5) for pair_type, i, j, n
           in product((PAIR_INF_INF, PAIR_INF_ZERO), *[range(5)] * 3)}
    assert len(eqs) == 26
    assert m_pairs(2, 10) == 1
    forced = not le_times_sqrt(k - 13, 8, k)
    assert forced == (k >= 121)
    nonzero, profiles = [], {}
    for eq in eqs:
        rep = weil_check(F, eq)
        d1, d2 = math.gcd(eq.k1, k - 1), math.gcd(eq.k2, k - 1)
        assert (d1, d2, m_pairs(d1, d2)) == (2, 10, 1) and rep.holds
        prof = rep.profile
        assert prof.total - prof.nonzero_x2 <= 2
        assert prof.nonzero_x2 % 10 == 0
        assert le_times_sqrt(k - 3 - prof.nonzero_x2, 8, k)
        nonzero.append(prof.nonzero_x2)
        profiles.setdefault(eqs[eq], set()).add(prof)
    # 26 equations, at most 10 profiles: one per (family, e mod 5)
    assert len(profiles) == 10
    assert all(len(p) == 1 for p in profiles.values())
    if forced:
        assert min(nonzero) >= 20
    elif k == 61:
        assert min(nonzero) == 20
    elif k == 81:
        assert min(nonzero) == 10  # the GF(9) degeneracy: some pair has d = 1


def test_report_rows(field61):
    rows = solvability_report(field61)
    assert rows[0].split() == ["k", "type", "i", "j", "n", "N_total",
                               "N_nonzero", "bound", "holds"]
    assert len(rows) == 1 + 3 * 125
    assert all(r.startswith("61 ") for r in rows[1:])
    assert all(r.endswith("True") for r in rows[1:])


def test_report_counts_each_distinct_equation_once(field61, monkeypatch):
    counted = []

    def count(field, eq):
        counted.append(eq)
        return solution_profile(field, eq)

    monkeypatch.setattr("psl2ham.diag.solution_profile", count)
    rows = solvability_report(field61)
    # one equation per (family, e mod 5), e = n+j-i: 10 counts, not 26
    assert len(counted) == len(set(counted)) == 10
    # rows whose own e (8, -4, 7, -2) differs from that of the counted
    # equation of their class, which has e in 0..4: their equation was
    # never counted, and the row is still its own
    for pair_type, i, j, n in ((PAIR_INF_ZERO, 0, 4, 4),
                               (PAIR_ZERO_ZERO, 4, 0, 0),
                               (PAIR_INF_INF, 0, 3, 4),
                               (PAIR_INF_ZERO, 4, 1, 1)):
        eq = double_edge_equation(field61, pair_type, i, j, n)
        assert eq not in counted
        rep = weil_check(field61, eq)
        row = (f"61 {pair_type} {i} {j} {n} {rep.N} "
               f"{solution_profile(field61, eq).nonzero_x2} {rep.bound:.4f} "
               f"{rep.holds}")
        assert rows[1 + 125 * (pair_type - 1) + 25 * i + 5 * j + n] == row


def test_report_makes_no_field_call_per_element(monkeypatch):
    # the ten counts read log(1 - t) straight off the tables, so a report's
    # Field calls are those that write its ten equations: as many at
    # k = 61 (m = 1, log[1 - t]) as at k = 3481 (m = 2, the Zech table)
    small, large = Field(61, 1), Field(59, 2)
    calls = []

    def counted(name, method):
        def call(field, *args):
            calls.append((field.order, name))
            return method(field, *args)
        return call

    for name in ("add", "mul", "neg", "pow"):
        monkeypatch.setattr(Field, name, counted(name, getattr(Field, name)))
    solvability_report(small)
    solvability_report(large)
    per_k = [sorted(n for k, n in calls if k == q) for q in (61, 3481)]
    assert per_k[0] and per_k[0] == per_k[1]


@pytest.mark.parametrize("k", [61, 81, 121])
def test_report_classes_cover_each_n_once(k, fields):
    # count J of the ten reads log(1 - theta^n) over n = J mod d2 with
    # 0 < n < k - 1: at m > 1 as zech[n + log(-1)], as 1 - theta^n =
    # 1 + theta^(n + log(-1)), at m = 1 as log[1 - theta^n].  The ten
    # classes cover every n in 1..k-2 once, and each read is log(1 - t)
    # by the digit-wise subtraction
    F = fields[k]
    log, h = F._log, F._log_neg1
    ns = []
    for t, e in product((PAIR_INF_INF, PAIR_INF_ZERO), range(5)):
        eq = double_edge_equation(F, t, 0, 0, e)
        d2 = math.gcd(eq.k2, k - 1)
        J = (log[eq.a2] - log[eq.b]) % d2
        ns += range(J or d2, k - 1, d2)
    assert sorted(ns) == list(range(1, k - 1))
    for n in ns:
        got = log[1 - F._exp[n]] if F.m == 1 else F._zech[n + h]
        assert got == log[minus(F, 1, F._exp[n])]


@pytest.mark.parametrize("s,m", [
    pytest.param(s, m, id=str(s**m)) for s, m in
    # admissible fields, then fields with 10 not dividing q - 1
    [(61, 1), (3, 4), (11, 2), (19, 2), (2, 1), (7, 1), (2, 4), (3, 3),
     (5, 2)]])
def test_report_matches_the_per_row_report(s, m):
    # one count per (family, e mod 5) is exact in every field, whatever
    # gcd(10, q - 1) is: line for line the report that checks each row
    F = Field(s, m)
    assert solvability_report(F) == per_row_report(F)


@pytest.mark.parametrize("k", [61, 81, 121])
def test_report_rows_count_the_quotient_edges(k, cache, fields):
    # N_nonzero = 10*d of the orbit pair each row counts: (n, j) for type
    # 1, (5 + n, j) for type 2, and (5 + n, 5 + (j - 1) % 5) for type 3,
    # whose j is double_edge_equation's, one orbit off the zero-family
    # orbit 5 + j.  Read as (5 + n, 5 + j), these type-3 rows would be off
    mults = [cache.quotient(k, i).mult for i in range(5)]
    pairs = {PAIR_INF_INF: lambda j, n: (n, j),
             PAIR_INF_ZERO: lambda j, n: (5 + n, j),
             PAIR_ZERO_ZERO: lambda j, n: (5 + n, 5 + (j - 1) % 5)}
    bad, literal = [], 0
    for row in solvability_report(fields[k])[1:]:
        pair_type, i, j, n, _, nonzero = map(int, row.split()[1:7])
        a, b = pairs[pair_type](j, n)
        if nonzero != 10 * mults[i][a][b]:
            bad.append(row)
        if pair_type == PAIR_ZERO_ZERO:
            literal += nonzero != 10 * mults[i][5 + n][5 + j]
    assert bad == []
    assert literal == {61: 75, 81: 0, 121: 100}[k]
