"""Diagonal equations a1*x1^k1 + a2*x2^k2 = b over GF(q).

Solution counts are exact, each read off one index class of 1 - t by
`solution_profile`.  The classical bound (Lidl and Niederreiter, Finite
Fields, ch. 6)

    |N - q| <= [(d1-1)(d2-1) - (1 - q^{-1/2}) M(d1,d2)] * sqrt(q),

with d_i = gcd(k_i, q-1) and M counting exponent pairs (j1, j2),
1 <= j_i <= d_i - 1, with j1/d1 + j2/d2 integral, is decided entirely in
integer arithmetic: writing the right side as A*sqrt(q) + M, the test
|N - q| - M <= A*sqrt(q) squares both sides after a sign check, so no
float ever influences the verdict.

Two specialized forms count the quotient's parallel edges.  For orbits
n and j of orbital graph i, with e = n + j - i:

* both orbits in the infinity family:  x^2 + c*y^10 = 1, c = -theta^(2e-1)
* infinity to zero family:             theta*x^2 + c*y^10 = -1, c = -theta^(2e)
* both in the zero family:             the first form with j + 1 for j

Then d(A,B) = N(x2 != 0)/10.  Proof: d(A,B) counts the points v of B
with `orbital.orbitals` at (base of A, v) = i, f + f' = i + chi(beta' -
beta) with chi = log mod 5, read as 0 at inf.  Position w of orbit j
(5 + j) is the label (`action`) of sigma^w (l*sigma^w), fiber raised by
j, sigma^w = +-[[x, y], [y*theta, x]], x^2 - theta*y^2 = 1.  Mod 5:

* inf-inf, base (inf, n), orbit j: y != 0 and chi(y*theta) = e.  With
  y = theta^(e-1)*u^5: x^2 - theta^(2e-1)*u^10 = 1, the first form.
* inf-zero, base (0, n), orbit j: x != 0 and chi(x) = e, which w = 0
  (x = 1, y = 0) passes iff e = 0.  With x = theta^e*u^5:
  theta*y^2 - theta^(2e)*u^10 = -1, the second form in (x1, x2) = (y, u),
  whose x1 = 0 solutions are the position w = 0.
* zero-zero, base (0, n), orbit 5 + j: y != 0 and chi(y) = e.  With
  y = theta^e*u^5: x^2 - theta^(2e+1)*u^10 = 1, the first form with j + 1.

The torus x^2 - theta*y^2 = 1 modulo +-1 is S = <sigma>, each test holds
at (x, y) iff at (-x, -y) as chi(-1) = 0, and as 5 | k-1 a fifth power
has five fifth roots u: each adjacent position gives exactly 10
solutions with x2 = u != 0.  Over GF(81) the inf-zero forms with e = 0
have N(x2 != 0) = 10, the position w = 0 alone: those pairs carry a
single edge (tests/test_quotient.py pins them).

Every pair has d >= 2 from k = 121 on: here (d1, d2, M) = (2, 10, 1), so
|N - k| <= 8*sqrt(k) + 1, and a1*x1^2 = b has at most two roots, so
10*d >= k - 8*sqrt(k) - 3 > 10 iff not le_times_sqrt(k - 13, 8, k).

The counts are one per (family, e mod 5), in any GF(q): over y != 0,
c*y^10 runs g = gcd(10, q-1) times over the coset c*<theta^g>, fixed by
log c mod g, which as g | 10 is fixed by e mod 5 (log c = 2e - 1 or 2e,
plus log(-1)).  a1, b, d1 = gcd(2, q-1) and d2 = g do not involve e, so
N, N(x2 != 0), the bound and its verdict agree across the class.  For
admissible k the ten J = log(a2/b) mod 10 of `solution_profile` are 2e - 1
and 2e, as 20 | k-1: a report reads 1 - t once for each t != 0, 1.
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


class SolutionProfile(NamedTuple):
    total: int  # N
    nonzero_x2: int  # solutions with x2 != 0


def solution_profile(field: Field, eq: DiagonalEquation) -> SolutionProfile:
    """The solution counts of the equation from one index class; O(q/d2).
    a*x^e = v != 0 has d = gcd(e, q-1) roots x if d | log(v/a), else none.
    b != 0: each t = theta^n, n = log(a2/b) mod d2, is a2*x2^k2/b for d2
    x2, and b*(1 - t) = a1*x1^k1 for x1 = 0 alone if t = 1, else for d1 x1
    iff log(1 - t) = log(a1/b) mod d1; x2 = 0 adds a1*x1^k1 = b.  b = 0:
    a1*x1^k1 = -a2*x2^k2 has (q-1)*g solutions x2 != 0 if g = gcd(d1, d2)
    divides log(-a2/a1), else none, as lcm(d1, d2) | q-1; and x1 = x2 = 0."""
    eq.validate(field)
    km1, log = field.order - 1, field._log
    d1, d2 = math.gcd(eq.k1, km1), math.gcd(eq.k2, km1)
    l1, l2, lb = log[eq.a1], log[eq.a2], log[eq.b]
    if eq.b == 0:
        g = math.gcd(d1, d2)
        nz = km1 * g * ((l2 + log[field.neg(1)] - l1) % g == 0)
        return SolutionProfile(total=nz + 1, nonzero_x2=nz)
    J, r, sub = (l2 - lb) % d2, (l1 - lb) % d1, field.sub
    logs = [log[sub(1, t)] % d1 for t in field._exp[J or d2:km1:d2]]
    nz = d2 * ((J == 0) + d1 * logs.count(r))
    return SolutionProfile(total=nz + d1 * (r == 0), nonzero_x2=nz)


def m_pairs(d1: int, d2: int) -> int:
    """Pairs (j1, j2), 1 <= j_i <= d_i - 1, with j1/d1 + j2/d2 an integer:
    gcd(d1, d2) - 1.  With g = gcd(d1, d2), d1 | j1*d2 forces (d1/g) | j1,
    so j1 is one of the g - 1 multiples of d1/g below d1, and j2 is then
    fixed: j2/d2 = 1 - j1/d1."""
    if d1 < 1 or d2 < 1:
        raise ValueError("d1, d2 must be >= 1")
    return math.gcd(d1, d2) - 1


class WeilReport(NamedTuple):
    profile: SolutionProfile
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
    eq.validate(field)
    if eq.b == 0:
        raise ValueError("the bound requires b != 0")
    profile = solution_profile(field, eq)
    q = field.order
    d1, d2 = math.gcd(eq.k1, q - 1), math.gcd(eq.k2, q - 1)
    M = m_pairs(d1, d2)
    # |N - q| <= A*sqrt(q) + M with A = (d1-1)(d2-1) - M
    A = (d1 - 1) * (d2 - 1) - M
    holds = le_times_sqrt(abs(profile.total - q) - M, A, q)
    return WeilReport(profile=profile, bound=A * math.sqrt(q) + M,
                      holds=holds)


# --- the specialized equations behind the quotient's double edges ---

def double_edge_equation(field: Field, pair_type: int, i: int, j: int,
                         n: int) -> DiagonalEquation:
    """Equation counting the edges between orbits n and j of orbital
    graph i: d = N(x2 != 0)/10 by the module docstring, so d >= 2 iff
    `solution_profile(...).nonzero_x2 >= 20`.  pair_type selects the
    orbit families of the two sides, PAIR_INF_INF, PAIR_INF_ZERO or
    PAIR_ZERO_ZERO (bases over beta = inf resp. 0); for zero-zero, orbit
    5 + j takes j + 1 here, so (PAIR_ZERO_ZERO, i, j, n) counts the edges
    between orbits 5 + n and 5 + (j - 1) % 5."""
    for v in (i, j, n):
        if not 0 <= v <= 4:
            raise ValueError(f"index {v} out of range 0..4")
    e = n + j - i
    if pair_type in (PAIR_INF_INF, PAIR_ZERO_ZERO):
        c = field.neg(field.pow(field.theta, 2 * e - 1))
        return DiagonalEquation(a1=1, k1=2, a2=c, k2=10, b=1)
    if pair_type == PAIR_INF_ZERO:
        c = field.neg(field.pow(field.theta, 2 * e))
        return DiagonalEquation(a1=field.theta, k1=2, a2=c, k2=10,
                                b=field.neg(1))
    raise ValueError(f"unknown pair type {pair_type}")


def solvability_report(field: Field) -> list[str]:
    """One row per (k, pair_type, i, j, n), columns k type i j n N_total
    N_nonzero bound holds: 10 counts, one per (family, e mod 5) by the
    module docstring, each counted and its row tail written once.
    N_nonzero/10 is d(n, j), d(5 + n, j) and, as called, d(5 + n, 5 +
    (j - 1) % 5) for types 1, 2 and 3."""
    k = field.order
    fams = [[weil_check(field, double_edge_equation(field, t, 0, 0, e))
             for e in range(5)] for t in (PAIR_INF_INF, PAIR_INF_ZERO)]
    tails = [[[f"{n} {w.N} {w.profile.nonzero_x2} {w.bound:.4f} {w.holds}"
               for n, w in enumerate(fam[r:] + fam[:r])] for r in range(5)]
             for fam in fams]
    rows = ["k type i j n N_total N_nonzero bound holds"]
    for t, i, j in product((PAIR_INF_INF, PAIR_INF_ZERO, PAIR_ZERO_ZERO),
                           range(5), range(5)):
        rows += map(f"{k} {t} {i} {j} ".__add__,
                    tails[t == PAIR_INF_ZERO][(j - i) % 5])
    return rows
