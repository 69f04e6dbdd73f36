"""Diagonal equations a1*x1^k1 + a2*x2^k2 = b over GF(q).

Solution counts are exact and computed in O(q/d1 + q/d2): as x runs over
GF(q)*, a*x^e takes each of its values exactly d = gcd(e, q-1) times.
The classical bound

    |N - q| <= [(d1-1)(d2-1) - (1 - q^{-1/2}) M(d1,d2)] * sqrt(q),

with d_i = gcd(k_i, q-1) and M counting exponent pairs (j1, j2),
1 <= j_i <= d_i - 1, with j1/d1 + j2/d2 integral, is decided entirely in
integer arithmetic: writing the right side as A*sqrt(q) + M, the test
|N - q| - M <= A*sqrt(q) squares both sides after a sign check, so no
float ever influences the verdict.

Two specialized families drive the quotient construction.  For orbits
n and j of the i-th orbital graph the deciding equations are

* both orbits in the infinity family:  x^2 + c*y^10 = 1, c = -theta^(2(j-i+n)-1)
* infinity to zero family:             theta*x^2 + c*y^10 = -1, c = -theta^(2(j-i+n))
* both in the zero family:             the first form with j + 1 for j

A solution with x1 != 0 and x2 = y != 0 yields a double edge between
the orbits, because (x1, y) and (-x1, y) map to distinct group elements.
That pairing degenerates when x1 = 0, so the exact test for d >= 2 is a
solution with x1 != 0 and x2 != 0, not one with x2 != 0.  In full,

    d(A,B) = N(x1 != 0, y != 0)/10 + [N(x1 = 0, y != 0) > 0],

checked on every ordered pair at k = 61, 81 and 121 (tests/test_diag.py),
not proven here.  The two tests differ over GF(81): the tenth powers
there are the nonzero elements of the GF(9) subfield, all of them
squares, so the crossing equations with j - i + n = 0 (mod 5) admit only
x1 = 0 solutions and the corresponding orbit pairs carry a single edge
(tests/test_quotient.py pins the pattern).
"""

from __future__ import annotations

import math
from itertools import product
from typing import NamedTuple

from .gf import Field

PAIR_INF_INF = 1
PAIR_INF_ZERO = 2
PAIR_ZERO_ZERO = 3


class DiagonalEquation(NamedTuple):
    a1: int
    k1: int
    a2: int
    k2: int
    b: int

    def validate(self, field: Field) -> None:
        if self.a1 == 0 or self.a2 == 0:
            raise ValueError("coefficients a1, a2 must be nonzero")
        if self.k1 < 1 or self.k2 < 1:
            raise ValueError("exponents must be positive")
        for v in (self.a1, self.a2, self.b):
            if not 0 <= v < field.order:
                raise ValueError(f"{v} is not an element handle of {field!r}")


def _term_values(field: Field, a: int, e: int) -> dict[int, int]:
    """The values of a*x^e over x in GF(q)*, each with its count
    d = gcd(e, q-1): theta^(log a + d*t) for t < (q-1)/d."""
    la, km1 = field.dlog(a), field.order - 1
    d = math.gcd(e, km1)
    return dict.fromkeys(field._exp[la:la + km1:d], d)


class SolutionProfile(NamedTuple):
    total: int  # N
    nonzero_x2: int  # solutions with x2 != 0
    nonzero_both: int  # solutions with x1 != 0 and x2 != 0


def solution_profile(field: Field, eq: DiagonalEquation) -> SolutionProfile:
    """The solution counts of the equation from the value counts of its
    two terms; O(q/d1 + q/d2).  A term is 0 at x = 0 alone, so the x2 = 0
    solutions are the x1 with term b, and the x1 = 0 ones the x2 != 0."""
    eq.validate(field)
    c1 = _term_values(field, eq.a1, eq.k1)
    c2 = _term_values(field, eq.a2, eq.k2)
    sub, b = field.sub, eq.b
    nonzero_x2 = sum(n * (c1.get(sub(b, v), 0) + (v == b))
                     for v, n in c2.items())
    return SolutionProfile(total=nonzero_x2 + c1.get(b, 0) + (b == 0),
                           nonzero_x2=nonzero_x2,
                           nonzero_both=nonzero_x2 - c2.get(b, 0))


def m_pairs(d1: int, d2: int) -> int:
    """Pairs (j1, j2), 1 <= j_i <= d_i - 1, with j1/d1 + j2/d2 an integer."""
    if d1 < 1 or d2 < 1:
        raise ValueError("d1, d2 must be >= 1")
    count = 0
    for j1 in range(1, d1):
        for j2 in range(1, d2):
            if (j1 * d2 + j2 * d1) % (d1 * d2) == 0:
                count += 1
    return count


class WeilReport(NamedTuple):
    profile: SolutionProfile
    d1: int
    d2: int
    M: int
    bound: float
    holds: bool

    @property
    def N(self) -> int:
        return self.profile.total


def le_times_sqrt(lhs: int, a: int, q: int) -> bool:
    """Exact decision of lhs <= a*sqrt(q) for integers lhs, a and q >= 0."""
    if lhs <= 0:
        return True if a >= 0 else lhs * lhs >= a * a * q
    if a < 0:
        return False
    return lhs * lhs <= a * a * q


def weil_check(field: Field, eq: DiagonalEquation) -> WeilReport:
    """Exact-arithmetic check of the solution-count bound; needs b != 0."""
    profile = solution_profile(field, eq)  # validates eq
    if eq.b == 0:
        raise ValueError("the bound requires b != 0")
    q = field.order
    d1, d2 = math.gcd(eq.k1, q - 1), math.gcd(eq.k2, q - 1)
    M = m_pairs(d1, d2)
    # |N - q| <= A*sqrt(q) + M with A = (d1-1)(d2-1) - M
    A = (d1 - 1) * (d2 - 1) - M
    holds = le_times_sqrt(abs(profile.total - q) - M, A, q)
    return WeilReport(profile=profile, d1=d1, d2=d2, M=M,
                      bound=A * math.sqrt(q) + M, holds=holds)


# --- the specialized equations behind the quotient's double edges ---

def double_edge_equation(field: Field, pair_type: int, i: int, j: int,
                         n: int) -> DiagonalEquation:
    """Equation deciding d >= 2 between orbits n and j of orbital graph i.

    d >= 2 holds exactly when it has a solution with x1 != 0 and x2 != 0
    (`solution_profile(...).nonzero_both > 0`); a solution with x1 = 0
    gives one edge only.

    pair_type selects which of the two orbit families each side lies in:
    PAIR_INF_INF, PAIR_INF_ZERO or PAIR_ZERO_ZERO (bases over beta = inf
    resp. beta = 0).
    """
    for v in (i, j, n):
        if not 0 <= v <= 4:
            raise ValueError(f"index {v} out of range 0..4")
    e = 2 * (j - i + n)
    if pair_type in (PAIR_INF_INF, PAIR_ZERO_ZERO):
        c = field.neg(field.pow(field.theta, e - 1))
        return DiagonalEquation(a1=1, k1=2, a2=c, k2=10, b=1)
    if pair_type == PAIR_INF_ZERO:
        c = field.neg(field.pow(field.theta, e))
        return DiagonalEquation(a1=field.theta, k1=2, a2=c, k2=10,
                                b=field.neg(1))
    raise ValueError(f"unknown pair type {pair_type}")


def solvability_report(field: Field) -> list[str]:
    """One row per (k, pair_type, i, j, n): exact counts and the bound.

    Columns: k type i j n N_total N_nonzero bound holds.  The 375 rows
    hold 26 distinct equations (e = 2(j-i+n) takes 13 values and the two
    same-family types agree), so each is counted once.
    """
    rows = ["k type i j n N_total N_nonzero bound holds"]
    counted: dict[DiagonalEquation, WeilReport] = {}
    for pair_type, i, j, n in product(
            (PAIR_INF_INF, PAIR_INF_ZERO, PAIR_ZERO_ZERO), *[range(5)] * 3):
        eq = double_edge_equation(field, pair_type, i, j, n)
        if eq not in counted:
            counted[eq] = weil_check(field, eq)
        rep = counted[eq]
        rows.append(f"{field.order} {pair_type} {i} {j} {n} {rep.N} "
                    f"{rep.profile.nonzero_x2} {rep.bound:.4f} {rep.holds}")
    return rows
