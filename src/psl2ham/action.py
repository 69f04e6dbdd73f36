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
[[0, theta^f], [-theta^-f, theta^-f * beta]].  The right action `act` is
the label of rep(p) * g, read off the labels.  With chi(x) = dlog(x) mod 5
and x = beta*c - a:

    (inf, f) * g  = (inf, f + chi(a)) if c = 0, else (-d/c, f - chi(c))
    (beta, f) * g = (inf, f + chi(c)) if x = 0, else ((b - beta*d)/x, f - chi(x))

since rep(p) * g has lower-left entry theta^-f * c (resp. theta^-f * x),
and a finite label of a matrix with lower-left entry c has fiber
chi(-1/c) = -chi(c) by det = 1 and chi(-1) = 0.  Every function here takes
the field alone; no group is built, and the ten S-orbits are walks of one
generator sigma of S from (inf, i) and (0, i).
"""

from __future__ import annotations

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


def rep(field: Field, p: OmegaPoint) -> Mat:
    """Coset representative t^f * T_beta: H*rep(p) has label p."""
    th = field.pow(field.theta, p.fiber)
    th_inv = field.inv(th)
    if p.beta is None:
        return (th, 0, 0, th_inv)
    return (0, th, field.neg(th_inv), field.mul(th_inv, p.beta))


def point_of(field: Field, g: Mat) -> OmegaPoint:
    """Label of the coset Hg.  Accepts either sign representative."""
    a, b, c, d = g
    if c == 0:
        return OmegaPoint(None, field._log[a] % 5)
    beta = field.mul(field._neg[d], field.inv(c))
    return OmegaPoint(beta, field._log[field.add(field.mul(a, beta), b)] % 5)


def act(field: Field, p: OmegaPoint, g: Mat) -> OmegaPoint:
    """The label of H*rep(p)*g, read off p and g with no matrix product
    by the rule in the module docstring."""
    F, log = field, field._log
    a, b, c, d = g
    f = p.fiber
    if p.beta is None:
        if c == 0:
            return OmegaPoint(None, (f + log[a]) % 5)
        return OmegaPoint(F.mul(F._neg[d], F.inv(c)), (f - log[c]) % 5)
    x = F.sub(F.mul(p.beta, c), a)
    if x == 0:
        return OmegaPoint(None, (f + log[c]) % 5)
    return OmegaPoint(F.mul(F.sub(b, F.mul(p.beta, d)), F.inv(x)),
                      (f - log[x]) % 5)


def sigma(field: Field) -> Mat:
    """The generator s(a,b) = [[a,b],[b*theta,a]] of S, a^2 - theta*b^2 = 1,
    with the first b != 0 in coordinate-lex order for which a exists."""
    F = field
    for b in F.elements_lex[1:]:  # [0] is the zero element
        roots = F.sqrt_list(F.add(1, F.mul(F.theta, F.mul(b, b))))
        if roots:
            return (roots[0], b, F.mul(b, F.theta), roots[0])
    raise AssertionError("S has no element besides the identity")


def s_orbits(field: Field) -> tuple[tuple[OmegaPoint, ...], ...]:
    """The ten orbits of the cyclic subgroup S of order p = (k+1)/2,
    each ordered by the Z_p coordinate.

    Orbit i (0..4) starts at (inf, i); orbit 5+i starts at (0, i), the
    label of t^i * l with l = [[0,-1],[1,0]].  Position w within an
    orbit is the power of sigma carrying the start there.  As p is
    prime, any element of S other than the identity generates it.
    """
    k = field.order
    if (k - 1) % 10:
        raise ValueError("coset space requires 10 | k-1")
    p = (k + 1) // 2
    g = sigma(field)
    orbits = []
    for start in (OmegaPoint(beta, i) for beta in (None, 0) for i in range(5)):
        orb = [start]
        for _ in range(p - 1):
            orb.append(act(field, orb[-1], g))
        orbits.append(tuple(orb))
    seen: set[OmegaPoint] = set()
    for orb in orbits:
        if len(set(orb)) != p:
            raise InvariantViolation(
                f"S-orbit has {len(set(orb))} points, expected {p}",
                stage="action")
        seen.update(orb)
    if len(seen) != 5 * (k + 1):
        raise InvariantViolation(
            "S-orbits do not partition the point set", stage="action")
    return tuple(orbits)
