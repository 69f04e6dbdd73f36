"""The coset space of G = PSL(2,k) on the 5(k+1) cosets of H, and the
ten orbits of its cyclic subgroup S, as two walks, from the field alone.

Points of the coset space Omega are labeled (beta, fiber):

* beta is a point of the projective line: None for infinity, else a field
  handle.  It identifies the coset of the full upper-triangular stabilizer
  K containing Hg (k+1 possibilities).
* fiber in {0..4} locates Hg among the five H-cosets inside Kg, via the
  decomposition K = H + Ht + ... + Ht^4, t = diag(theta, theta^-1).

A point is one int, its code f*(k+1) + (0 if beta is inf else beta + 1),
in 0..5(k+1)-1, so a table over the points is a flat array indexed by
code.  `beta_texts` (by code mod k+1) spells every beta for the writer,
its reader and the exports; a message names one point by `point_text`.

A group element is a 4-tuple (a11, a12, a21, a22) of field handles with
determinant 1; g and -g are the same element, and nothing here depends
on the sign.  For g = [[a,b],[c,d]] the label is computed in O(1):
beta = -d/c (infinity when c = 0), and fiber = log(a*beta + b) mod 5
(log(a) mod 5 in the infinity case).  This is well defined on cosets and
independent of the sign representative because 10 | k-1.

The representative of (beta, f) is rep = t^f * T_beta with T_inf the
identity and T_beta = [[0,1],[-1,beta]], in closed form
[[0, theta^f], [-theta^-f, theta^-f * beta]].  Every function here takes
the field alone, and no group is built: the ten S-orbits are the fiber
shifts of two walks off one power walk of a generator sigma of S, for an
admissible k alone.  Its powers are sigma^w = [[x, y], [y*theta, x]],
x^2 - theta*y^2 = 1, and w = 0, the identity, labels (inf, 0), (0, 0).
Every later power w < p has y != 0, as sigma has prime order p, and
x != 0: x = 0 needs theta*y^2 = -1, but -1 is a square as 4 | k-1 and
theta is not.  So with chi(x) = log(x) mod 5 each gives two labels:

    H*sigma^w:   (-x/(y*theta), -chi(y*theta))
    H*l*sigma^w: (-y/x, -chi(x))

with l = [[0,-1],[1,0]] and l*sigma^w = -[[y*theta, x], [-x, -y]].  In
the first, a*beta + b = (theta*y^2 - x^2)/(y*theta) = -1/(y*theta); in
the second, a*beta + b = (x^2 - theta*y^2)/x = 1/x; and chi(-1) = 0, as
-1 = theta^((k-1)/2) and 10 | k-1.
"""

from __future__ import annotations

from array import array

from .errors import InvariantViolation
from .gf import Field, admissible

Mat = tuple[int, int, int, int]


def beta_texts(field: Field) -> list[str]:
    """Every beta's text, "inf" then the k element texts, by code mod k+1."""
    return ["inf", *field.element_texts()]


def point_text(field: Field, v: int) -> str:
    """The text "beta:fiber" of the point of code v."""
    f, r = divmod(v, field.order + 1)
    return f"{beta_texts(field)[r]}:{f}"


def rep(field: Field, v: int) -> Mat:
    """Coset representative t^f * T_beta: H*rep(v) is the point of code v."""
    f, r = divmod(v, field.order + 1)
    th, th_inv = field.pow(field.theta, f), field.pow(field.theta, -f)
    if r == 0:
        return (th, 0, 0, th_inv)
    return (0, th, field.neg(th_inv), field.mul(th_inv, r - 1))


def sigma(field: Field) -> Mat:
    """The generator s(a,b) = [[a,b],[b*theta,a]] of S, a^2 - theta*b^2 = 1,
    with the first b != 0 in coordinate-lex order for which a exists: with
    k = 1 mod 4, 1 + theta*b^2 = theta^e != 0, and a is the lex-smaller of
    +-theta^(e/2) for even e (elements_lex, a digit reversal, is an
    involution, so it maps h to its lex rank)."""
    F, exp, lex = field, field._exp, field.elements_lex
    for b in lex[1:]:  # [0] is the zero element
        e = F._log[F.add(1, F.mul(F.theta, F.mul(b, b)))]
        if e % 2 == 0:
            a = min(exp[e // 2], F._neg[exp[e // 2]], key=lex.__getitem__)
            return (a, b, F.mul(b, F.theta), a)
    raise AssertionError("S has no element besides the identity")


def s_orbits(field: Field) -> tuple[array, array]:
    """The ten orbits of the cyclic subgroup S of order p = (k+1)/2 as two
    walks, orbits 0 and 5, arrays of p codes ordered by the Z_p coordinate:
    orbit 5e + j is walk e with every code raised j fibers.

    Orbit i (0..4) starts at (inf, i); orbit 5+i starts at (0, i), the
    label of t^i * l with l = [[0,-1],[1,0]].  Position w within an
    orbit is the power of sigma carrying the start there.  As p is
    prime, any element of S other than the identity generates it.

    Orbits 0 and 5 are read off one walk of the powers of
    sigma = [[a, b], [b*theta, a]], (x, y) <- (a*x + b*theta*y, a*y + b*x),
    by the labels of the module docstring, for an admissible k alone (else
    ValueError): codes 0 and 1 at w = 0, then one formula each.  A walk
    that meets y = 0 before w = p stops, and the partition check names a
    point it missed.  The fiber shift (beta, f) -> (beta, f+1 mod 5),
    code v -> v + (k+1) mod 5(k+1), commutes with the right action:
    rep(beta, f+1) = t * rep(beta, f), and t normalizes H, so
    H*rep(beta, f+1)*g = t*(H*rep(beta, f)*g); for f = 4 the product t^5
    lies in H.  So the ten orbits partition the points iff the 2p = k+1
    walked codes meet each of the k+1 betas once.
    """
    k = field.order
    if not admissible(k):
        raise ValueError(f"k = {k} is not an admissible instance")
    p, k1 = (k + 1) // 2, k + 1
    F, exp, log, half = field, field._exp, field._log, (k - 1) // 2
    a, b, bt, _ = sigma(field)
    orb0, orb5 = array("l", [0]), array("l", [1])  # w = 0: (inf, 0), (0, 0)
    x, y = a, b
    for _ in range(p - 1):
        if y == 0:  # sigma^w = +-1 with 0 < w < p: sigma is not of order p
            break
        # the labels of H*sigma^w and H*l*sigma^w by the module docstring,
        # with theta = exp[1]
        lx, ly = log[x], log[y]
        orb0.append(-(ly + 1) % 5 * k1 + exp[lx - ly - 1 + half] + 1)
        orb5.append(-lx % 5 * k1 + exp[ly - lx + half] + 1)
        x, y = ((a * x + bt * y) % k, (a * y + b * x) % k) if F.m == 1 else (
            F.add(F.mul(a, x), F.mul(bt, y)), F.add(F.mul(a, y), F.mul(b, x)))
    # at most k+1 codes: all k+1 betas are met iff each is met once
    seen = bytearray(k1)
    for orb in (orb0, orb5):
        for v in orb:
            seen[v % k1] = 1
    if 0 in seen:  # the first point missed: the first beta missed, fiber 0
        raise InvariantViolation(
            "S-orbits do not partition the point set: "
            f"{point_text(field, seen.index(0))} lies in no orbit",
            stage="action")
    return orb0, orb5
