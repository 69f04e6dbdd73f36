"""The right action of G = PSL(2,k) on the 5(k+1) cosets of H, from the
field alone.

Points of the coset space Omega are labeled (beta, fiber):

* beta is a point of the projective line: None for infinity, else a field
  handle.  It identifies the coset of the full upper-triangular stabilizer
  K containing Hg (k+1 possibilities).
* fiber in {0..4} locates Hg among the five H-cosets inside Kg, via the
  decomposition K = H + Ht + ... + Ht^4, t = diag(theta, theta^-1).

A group element is a 4-tuple (a11, a12, a21, a22) of field handles with
determinant 1; g and -g are the same element, and nothing here depends
on the sign.  For g = [[a,b],[c,d]] the label is computed in O(1):
beta = -d/c (infinity when c = 0), and fiber = dlog(a*beta + b) mod 5
(dlog(a) mod 5 in the infinity case).  This is well defined on cosets and
independent of the sign representative because 10 | k-1.

The representative of (beta, f) is rep = t^f * T_beta with T_inf the
identity and T_beta = [[0,1],[-1,beta]], in closed form
[[0, theta^f], [-theta^-f, theta^-f * beta]]; the right action is then
act(omega, g) = point_of(rep(omega) * g).  No group is built: the ten
S-orbits are walks of one generator sigma of S from (inf, i) and (0, i).
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from .errors import InvariantViolation
from .gf import Field

Mat = tuple[int, int, int, int]


class OmegaPoint(NamedTuple):
    beta: int | None  # None encodes the point at infinity
    fiber: int


def point_str(field: Field, p: OmegaPoint) -> str:
    b = "inf" if p.beta is None else field.element_str(p.beta)
    return f"{b}:{p.fiber}"


def parse_point(field: Field, text: str) -> OmegaPoint:
    body, _, fiber = text.rpartition(":")
    if not body:
        raise ValueError(f"malformed point {text!r}")
    f = int(fiber)
    if not 0 <= f <= 4:
        raise ValueError(f"fiber {f} out of range in {text!r}")
    beta = None if body == "inf" else field.parse_element(body)
    return OmegaPoint(beta, f)


class CosetAction:
    """Canonical labels and the right G-action on the coset space."""

    def __init__(self, field: Field):
        k = field.order
        if (k - 1) % 10:
            raise ValueError("coset space requires 10 | k-1")
        self.field = field
        self.size = 5 * (k + 1)
        self.alpha = OmegaPoint(None, 0)

    @cached_property
    def points(self) -> tuple[OmegaPoint, ...]:
        """Vertex order: fiber-major, infinity first, then coordinate-lex."""
        lex = self.field.elements_lex
        return tuple(OmegaPoint(beta, i) for i in range(5)
                     for beta in (None, *lex))

    def rep(self, p: OmegaPoint) -> Mat:
        """Coset representative t^f * T_beta: H*rep(p) has label p."""
        F = self.field
        th = F.pow(F.theta, p.fiber)
        th_inv = F.inv(th)
        if p.beta is None:
            return (th, 0, 0, th_inv)
        return (0, th, F.neg(th_inv), F.mul(th_inv, p.beta))

    def point_of(self, g: Mat) -> OmegaPoint:
        """Label of the coset Hg.  Accepts either sign representative."""
        F = self.field
        a, b, c, d = g
        if c == 0:
            return OmegaPoint(None, F._log[a] % 5)
        beta = F.mul(F._neg[d], F.inv(c))
        return OmegaPoint(beta, F._log[F.add(F.mul(a, beta), b)] % 5)

    def act(self, p: OmegaPoint, g: Mat) -> OmegaPoint:
        add, mul = self.field.add, self.field.mul
        a, b, c, d = self.rep(p)
        w, x, y, z = g
        return self.point_of((add(mul(a, w), mul(b, y)), add(mul(a, x), mul(b, z)),
                              add(mul(c, w), mul(d, y)), add(mul(c, x), mul(d, z))))

    @cached_property
    def sigma(self) -> Mat:
        """The generator s(a,b) = [[a,b],[b*theta,a]] of S, a^2 - theta*b^2 = 1,
        with the first b != 0 in coordinate-lex order for which a exists."""
        F = self.field
        for b in F.elements_lex[1:]:  # [0] is the zero element
            roots = F.sqrt_list(F.add(1, F.mul(F.theta, F.mul(b, b))))
            if roots:
                return (roots[0], b, F.mul(b, F.theta), roots[0])
        raise AssertionError("S has no element besides the identity")

    @cached_property
    def s_orbits(self) -> tuple[tuple[OmegaPoint, ...], ...]:
        """The ten orbits of the cyclic subgroup S of order p = (k+1)/2,
        each ordered by the Z_p coordinate.

        Orbit i (0..4) starts at (inf, i); orbit 5+i starts at (0, i), the
        label of t^i * l with l = [[0,-1],[1,0]].  Position w within an
        orbit is the power of sigma carrying the start there.  As p is
        prime, any element of S other than the identity generates it.
        """
        p = (self.field.order + 1) // 2
        sigma, act = self.sigma, self.act
        orbits = []
        for start in (OmegaPoint(beta, i) for beta in (None, 0) for i in range(5)):
            orb = [start]
            for _ in range(p - 1):
                orb.append(act(orb[-1], sigma))
            orbits.append(tuple(orb))
        seen: set[OmegaPoint] = set()
        for orb in orbits:
            if len(set(orb)) != p:
                raise InvariantViolation(
                    f"S-orbit has {len(set(orb))} points, expected {p}",
                    stage="action")
            seen.update(orb)
        if len(seen) != self.size:
            raise InvariantViolation(
                "S-orbits do not partition the point set", stage="action")
        return tuple(orbits)
