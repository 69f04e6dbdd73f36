"""Reference derivations the tests compare the package against.

The package builds no group: it needs only field arithmetic, the closed
forms of `action.rep` and `neighborhood`, and one power walk of sigma,
a generator of S, whose powers give their labels in closed form.  This
module keeps the exhaustive derivations those shortcuts are checked
against: PSL(2,k) with canonical signs and its enumerated subgroups S
and H, the right action `act` as the label of a 2x2 product, the ten
S-orbits walked point by point with it (`walked_orbits`), against which
the two walks of `s_orbits`, shifted across the fibers, are checked,
the ten H-orbits (suborbits) on the coset space, and the voltage lift
as an explicit walk over its components (`unroll_lift`), against which
the closed form `quotient.lift` is checked, and the quotient's voltages
read off the matrix-form neighborhoods of the ten orbit bases
(`base_voltages`), against which the label-rule reading of
`build_quotient` is checked.  It also keeps
the helpers that only tests call: `coeffs`, `from_coeffs`, `minus`, the
one subtraction and negation of the oracles, digit by digit, so that they
share no table of the field with the code they check, `point_of`,
`equation_for_orbit_pair`, `brute_count`, `class_table`, `edges`,
`per_row_report`, the weil-report checking each row's own equation,
against which `diag.solvability_report` is checked, and
`value_count_profile`, the solution counts from the value counts of the
two terms, against which `diag.solution_profile` is checked, and the
single-element and single-point text writers `element_str` and
`point_str`, built from `coeffs`, against which the package's text
tables are checked, and `read_certificate`, a line-by-line reader of
certificate text by `point_str`, for oracles that must not read a
certificate with the package.

A group element is a 4-tuple (a11, a12, a21, a22) of field handles with
determinant 1, stored in canonical sign form: of the two matrices g, -g
we keep the one whose first nonzero entry in reading order has discrete
log in [0, (k-1)/2), so tuples are directly usable as dict keys.

Distinguished elements and subgroups (all for 10 | k-1 where noted):

* ``l`` = [[0,-1],[1,0]], ``t`` = diag(theta, theta^-1), ``u`` = [[1,1],[0,1]]
* ``S``: the cyclic subgroup {s(a,b) = [[a,b],[b*theta,a]] : a^2 - b^2*theta = 1}
  of order (k+1)/2, enumerated as powers of a fixed generator
* ``H``: the point stabilizer U.<t^5> of order k(k-1)/10, where U is the
  full unipotent group {[[1,x],[0,1]]}
"""

from __future__ import annotations

import itertools
import math
from array import array
from dataclasses import dataclass
from functools import cached_property

from psl2ham import (Field, HamiltonCertificate, InvariantViolation,
                     QuotientMultigraph, neighborhood)
from psl2ham.action import Mat, rep, sigma
from psl2ham.diag import (PAIR_INF_INF, PAIR_INF_ZERO, PAIR_ZERO_ZERO,
                          DiagonalEquation, SolutionProfile,
                          double_edge_equation, weil_check)
from util import ALPHA, OmegaPoint, code, point, points, ten_orbits


def coeffs(field: Field, x: int) -> tuple[int, ...]:
    """The coordinates of the element with handle x, constant term first."""
    out = []
    for _ in range(field.m):
        x, c = divmod(x, field.s)
        out.append(c)
    return tuple(out)


def from_coeffs(field: Field, cs) -> int:
    """The handle of the element with coordinates cs, constant term first."""
    if len(cs) != field.m:
        raise ValueError(f"expected {field.m} coordinates, got {len(cs)}")
    return sum(c % field.s * field.s**i for i, c in enumerate(cs))


def minus(field: Field, x: int, y: int) -> int:
    """x - y, digit by digit mod s on the base-s digits of the handles,
    with no table of the field and no `Field.neg`: -y is minus(field, 0, y)."""
    s, out, place = field.s, 0, 1
    for _ in range(field.m):
        out += (x // place - y // place) % s * place
        place *= s
    return out


def element_str(field: Field, x: int) -> str:
    """The text of the element with handle x, from its coordinates: the
    residue for m = 1, else "[c0,c1,...]"."""
    if field.m == 1:
        return str(x)
    return "[" + ",".join(map(str, coeffs(field, x))) + "]"


def point_str(field: Field, v: int) -> str:
    """The text "beta:fiber" of the point with code v."""
    p = point(field, v)
    beta = "inf" if p.beta is None else element_str(field, p.beta)
    return f"{beta}:{p.fiber}"


def read_certificate(text: str) -> HamiltonCertificate:
    """The record of well-formed certificate text: the header numbers by
    int(), each vertex line looked up among the `point_str` texts of the
    5(k+1) points."""
    lines = text.splitlines()
    head = {ln.split(" ")[0]: ln.split(" ")[1:] for ln in lines[1:10]}
    (s,), (m,), (k,), (i,), (total,) = (
        map(int, head[key]) for key in ("s", "m", "k", "orbital", "total"))
    field = Field(s, m)
    codes = {point_str(field, v): v for v in range(5 * (k + 1))}
    return HamiltonCertificate(
        field, i, tuple(map(int, head["cycle"])),
        tuple(map(int, head["voltages"])), total,
        array("l", (codes[ln] for ln in lines[10:])))


def point_of(field: Field, g: Mat) -> OmegaPoint:
    """Label of the coset Hg.  Accepts either sign representative."""
    a, b, c, d = g
    if c == 0:
        return OmegaPoint(None, field._log[a] % 5)
    beta = field.mul(minus(field, 0, d), field.pow(c, -1))
    return OmegaPoint(beta, field._log[field.add(field.mul(a, beta), b)] % 5)


def product(field: Field, g: Mat, h: Mat) -> Mat:
    """The 2x2 product g * h, sign as it falls."""
    add, mul = field.add, field.mul
    a, b, c, d = g
    w, x, y, z = h
    return (add(mul(a, w), mul(b, y)), add(mul(a, x), mul(b, z)),
            add(mul(c, w), mul(d, y)), add(mul(c, x), mul(d, z)))


def act(field: Field, v: int, g: Mat) -> int:
    """The right action on codes as point_of(rep(v) * g), with a plain 2x2
    product."""
    return code(field, point_of(field, product(field, rep(field, v), g)))


def walked_orbits(field: Field) -> list[list[int]]:
    """The ten S-orbits, each walked from its base, (inf, i) for orbit i
    and (0, i) for orbit 5+i, by `act` with sigma: plain 2x2 products, no
    fiber shift and no closed form for the powers of sigma."""
    k1, g = field.order + 1, sigma(field)
    orbits = []
    for base in [i * k1 for i in range(5)] + [i * k1 + 1 for i in range(5)]:
        orb = [base]
        for _ in range(field.order // 2):
            orb.append(act(field, orb[-1], g))
        orbits.append(orb)
    return orbits


def class_table(field: Field) -> bytes:
    """The classes chi(x - beta) over beta, then x, in coordinate-lex
    order, one digit-wise `minus` each; 5 where x = beta."""
    chi = [5 if e is None else e % 5 for e in field._log]
    lex = field.elements_lex
    return bytes(chi[minus(field, x, beta)] for beta in lex for x in lex)


def edges(graph):
    """Each undirected edge of a `util.HeldGraph` once, (u, v) with u < v."""
    for u, nb in enumerate(graph.neighbors):
        for v in nb:
            if v > u:
                yield u, v


def equation_for_orbit_pair(field: Field, orbital_index: int, a: int,
                            b: int) -> DiagonalEquation:
    """Map a pair of distinct quotient orbits (0..9) to its equation.

    Orbits 0..4 form the infinity family, 5..9 the zero family; a pair
    with only the source in the zero family is flipped (the multigraph is
    undirected, so d(A,B) = d(B,A)).
    """
    if a == b:
        raise ValueError("orbit pair must be distinct")
    for v in (a, b):
        if not 0 <= v <= 9:
            raise ValueError(f"orbit index {v} out of range 0..9")
    if a < 5 and b < 5:
        return double_edge_equation(field, PAIR_INF_INF, orbital_index, b, a)
    if a < 5 <= b:
        return double_edge_equation(field, PAIR_INF_ZERO, orbital_index, b - 5, a)
    if b < 5 <= a:
        return double_edge_equation(field, PAIR_INF_ZERO, orbital_index, a - 5, b)
    return double_edge_equation(field, PAIR_ZERO_ZERO, orbital_index, (b - 4) % 5,
                                a - 5)


def brute_count(field: Field, eq: DiagonalEquation, require_nonzero_x2=False,
                require_nonzero_x1=False) -> int:
    """Solutions of eq, restricted on request to x2 != 0 and to x1 != 0:
    an O(q^2) oracle, straight from the definition."""
    n = 0
    for x1 in range(1 if require_nonzero_x1 else 0, field.order):
        t1 = field.mul(eq.a1, field.pow(x1, eq.k1))
        for x2 in range(1 if require_nonzero_x2 else 0, field.order):
            if field.add(t1, field.mul(eq.a2, field.pow(x2, eq.k2))) == eq.b:
                n += 1
    return n


def term_values(field: Field, a: int, e: int) -> dict[int, int]:
    """The values of a*x^e over x in GF(q)*, each with its count
    d = gcd(e, q-1): theta^(log a + d*t) for t < (q-1)/d."""
    la, km1 = field._log[a], field.order - 1
    d = math.gcd(e, km1)
    return dict.fromkeys(field._exp[la:la + km1:d], d)


def value_count_profile(field: Field, eq: DiagonalEquation) -> SolutionProfile:
    """The solution counts of the equation from the value counts of its
    two terms; O(q/d1 + q/d2).  A term is 0 at x = 0 alone, so x2 = 0
    solves with the x1 of term b, and x1 = 0 with the x2 != 0 of term b."""
    eq.validate(field)
    c1 = term_values(field, eq.a1, eq.k1)
    c2 = term_values(field, eq.a2, eq.k2)
    b = eq.b
    nonzero_x2 = sum(n * (c1.get(minus(field, b, v), 0) + (v == b))
                     for v, n in c2.items())
    return SolutionProfile(total=nonzero_x2 + c1.get(b, 0) + (b == 0),
                           nonzero_x2=nonzero_x2)


def per_row_report(field: Field) -> list[str]:
    """The rows of `solvability_report` with no shared count: each row's
    own equation, built and checked, whatever class it falls in."""
    rows = ["k type i j n N_total N_nonzero bound holds"]
    for pair_type, i, j, n in itertools.product(
            (PAIR_INF_INF, PAIR_INF_ZERO, PAIR_ZERO_ZERO), *[range(5)] * 3):
        eq = double_edge_equation(field, pair_type, i, j, n)
        w = weil_check(field, eq)
        rows.append(f"{field.order} {pair_type} {i} {j} {n} {w.N} "
                    f"{w.profile.nonzero_x2} {w.bound:.4f} {w.holds}")
    return rows


def unroll_lift(q: QuotientMultigraph, choices) -> list[array]:
    """Explicitly unroll a voltage assignment over the quotient cycle 0..9.

    Returns the cycles of the lift: one 10p-cycle when the voltages sum
    to a nonzero residue mod p, else p disjoint 10-cycles.  The ten orbits
    are `ten_orbits` of the two walks `q.orbits`.
    """
    p, orbits = q.p, ten_orbits(q.orbits)
    out = []
    visited = bytearray(10 * p)  # orbit j, position c at j*p + c
    for start in range(p):
        if visited[start]:
            continue
        comp, j, c = array("l"), 0, start
        while not visited[j * p + c]:
            visited[j * p + c] = 1
            comp.append(orbits[j][c])
            c = (c + choices[j]) % p
            j = (j + 1) % 10
        out.append(comp)
    return out


def base_voltages(field: Field, i: int, orbits) -> tuple:
    """The voltages of Y(i) over `orbits`, read off the matrix-form
    neighborhood of each orbit's base: voltages[a][b] holds, sorted, the
    positions in orbit b of the neighbors of orbits[a][0]."""
    pos = {v: (b, w) for b, orb in enumerate(orbits) for w, v in enumerate(orb)}
    volts = [[[] for _ in range(10)] for _ in range(10)]
    for a, orb in enumerate(orbits):
        for v in neighborhood(field, i, orb[0]):
            b, w = pos[v]
            volts[a][b].append(w)
    return tuple(tuple(tuple(sorted(ws)) for ws in row) for row in volts)


def mulclose(gens, mul, max_size: int | None = None) -> set:
    """Closure of gens under mul (breadth-first)."""
    els = set(gens)
    boundary = list(els)
    while boundary:
        new = []
        for a in gens:
            for b in boundary:
                c = mul(a, b)
                if c not in els:
                    els.add(c)
                    new.append(c)
                    if max_size and len(els) >= max_size:
                        return els
        boundary = new
    return els


class PSL2:
    """The group PSL(2,k) over a Field with odd order k."""

    def __init__(self, field: Field):
        if field.order % 2 == 0:
            raise ValueError("PSL(2,k) machinery here requires odd k")
        self.field = field
        k = field.order
        half = (k - 1) // 2
        # _pos[e]: e is the canonical representative of {e, -e}
        self._pos = [False] * k
        for e in range(1, k):
            self._pos[e] = field._log[e] < half
        # _neg[e] = -e, digit by digit: no table or method of the field
        self._neg = [minus(field, 0, e) for e in range(k)]
        self.identity: Mat = (1, 0, 0, 1)

    # --- element operations ---

    def canon(self, g: Mat) -> Mat:
        for e in g:
            if e:
                if self._pos[e]:
                    return g
                n = self._neg
                return (n[g[0]], n[g[1]], n[g[2]], n[g[3]])
        raise ValueError("zero matrix is not a group element")

    def det(self, g: Mat) -> int:
        F = self.field
        return minus(F, F.mul(g[0], g[3]), F.mul(g[1], g[2]))

    def mul(self, g: Mat, h: Mat) -> Mat:
        F = self.field
        a, b, c, d = g
        e, f, gg, hh = h
        return self.canon((
            F.add(F.mul(a, e), F.mul(b, gg)), F.add(F.mul(a, f), F.mul(b, hh)),
            F.add(F.mul(c, e), F.mul(d, gg)), F.add(F.mul(c, f), F.mul(d, hh)),
        ))

    def inv(self, g: Mat) -> Mat:
        a, b, c, d = g
        n = self._neg
        return self.canon((d, n[b], n[c], a))

    def power(self, g: Mat, e: int) -> Mat:
        if e < 0:
            return self.power(self.inv(g), -e)
        r = self.identity
        while e:
            if e & 1:
                r = self.mul(r, g)
            g = self.mul(g, g)
            e >>= 1
        return r

    def order(self, g: Mat) -> int:
        n, x = 1, g
        cap = self.group_order()
        while x != self.identity:
            x = self.mul(x, g)
            n += 1
            if n > cap:
                raise AssertionError("order computation exceeded |G|")
        return n

    def group_order(self) -> int:
        k = self.field.order
        return k * (k * k - 1) // 2

    # --- distinguished elements ---

    def generators(self) -> tuple[Mat, Mat, Mat]:
        """(l, t, u); requires k = 1 (mod 4)."""
        F = self.field
        k = F.order
        if k % 2 == 0:
            raise ValueError("k must be odd")
        if k % 4 != 1:
            raise ValueError("generators require k = 1 (mod 4)")
        l = self.canon((0, F.neg(1), 1, 0))
        t = self.canon((F.theta, 0, 0, F.pow(F.theta, -1)))
        u = self.canon((1, 1, 0, 1))
        return l, t, u

    def s_element(self, a: int, b: int) -> Mat:
        F = self.field
        g = (a, b, F.mul(b, F.theta), a)
        if self.det(g) != 1:
            raise ValueError("a^2 - b^2*theta = 1 violated")
        return self.canon(g)

    # --- subgroup enumerations ---

    @cached_property
    def S(self) -> tuple[Mat, ...]:
        """The cyclic subgroup of order (k+1)/2, listed as powers of a
        fixed generator sigma, so list position is the Z_p coordinate.
        The roots a are found by trying every element in coordinate-lex
        order, so sigma = s(a, b) has the first b != 0 with a root and the
        lex-smaller of its two roots."""
        F = self.field
        found: dict[Mat, None] = {}
        for b in F.elements_lex:
            rhs = F.add(1, F.mul(F.theta, F.mul(b, b)))  # a^2 = 1 + theta*b^2
            for a in F.elements_lex:
                if F.mul(a, a) == rhs:
                    found.setdefault(self.s_element(a, b))
        n = (F.order + 1) // 2
        if len(found) != n:
            raise AssertionError(f"expected {n} elements in S, found {len(found)}")
        sigma = next(g for g in found if g != self.identity and self.order(g) == n)
        ordered = [self.identity]
        x = sigma
        while x != self.identity:
            ordered.append(x)
            x = self.mul(x, sigma)
        if len(ordered) != n or set(ordered) != set(found):
            raise AssertionError("powers of sigma do not enumerate S")
        return tuple(ordered)

    @cached_property
    def H(self) -> tuple[Mat, ...]:
        """The point stabilizer U.<t^5>: all [[theta^{5r}, y],[0, theta^{-5r}]],
        of order k(k-1)/10."""
        F = self.field
        k = F.order
        if (k - 1) % 10:
            raise ValueError("H requires 10 | k-1")
        out = []
        for r in range((k - 1) // 10):
            d1 = F.pow(F.theta, 5 * r)
            d2 = F.pow(d1, -1)
            for y in F.elements_lex:
                out.append(self.canon((d1, y, 0, d2)))
        if len(set(out)) != k * (k - 1) // 10:
            raise AssertionError("H enumeration produced duplicates")
        return tuple(out)


# --- suborbits: the H-orbits on the coset space ---

@dataclass(frozen=True)
class Suborbit:
    kind: str  # "singleton" | "long"
    i: int
    points: frozenset  # codes


def suborbits(field: Field) -> list[Suborbit]:
    """The ten H-orbits, as sets of codes: five singletons then five of
    size k."""
    k = field.order
    subs = [Suborbit("singleton", i, frozenset({code(field, OmegaPoint(None, i))}))
            for i in range(5)]
    for i in range(5):
        pts = frozenset(neighborhood(field, i, code(field, ALPHA)))
        if len(pts) != k:
            raise InvariantViolation(
                f"long suborbit {i} has size {len(pts)}, expected {k}",
                stage="orbital")
        subs.append(Suborbit("long", i, pts))
    if len(set().union(*(sb.points for sb in subs))) != 5 * (k + 1):
        raise InvariantViolation("suborbits do not partition the point set",
                                 stage="orbital")
    return subs


def suborbits_by_h_orbits(field: Field, group: PSL2) -> list[Suborbit]:
    """Same partition computed the slow way: exhaustive H-orbits."""
    G = group
    l, t, _ = G.generators()
    remaining = {code(field, p) for p in points(field)}
    seeds = [code(field, OmegaPoint(None, i)) for i in range(5)]
    seeds += [code(field, point_of(field, G.mul(G.power(t, i), l)))
              for i in range(5)]
    subs = []
    for n, seed in enumerate(seeds):
        orb = frozenset(act(field, seed, h) for h in G.H)
        subs.append(Suborbit("singleton" if len(orb) == 1 else "long", n % 5, orb))
        remaining -= orb
    if remaining:
        raise InvariantViolation("H-orbits of the ten seeds miss points",
                                 stage="orbital")
    return subs
