"""The five basic orbital graphs Y(i).

The stabilizer H has ten orbits on the point set: five fixed points
(inf, i) and five orbits of size k.  Long suborbit i is the set of
labels of [[0, -theta^i], [theta^-i, x]] over x in GF(k), and the
neighborhood of omega in Y(i) is its image under rep(omega) acting on
the right (`neighborhood`).  With chi(x) = log(x) mod 5, for which
chi(-1) = 0 as 10 | k-1, adjacency is one rule on labels:

    (beta, f) ~ (beta', f') in Y(i)  iff  f + f' = i + chi(beta' - beta)  (mod 5)

for beta != beta', with chi read as 0 when either beta is inf; points
with beta = beta' are never adjacent.  Proof: if g = [[a,b],[c,d]] has
c != 0, its label is finite of fiber chi(a*beta + b) = chi(-1/c) =
-chi(c), as det g = 1; and rep(w)*rep(v)^-1 = t^f' [[1,0],[beta'-beta,1]]
t^-f has c = theta^-(f+f') (beta' - beta), or +-theta^-(f+f') when one
beta is inf, so it lies in long suborbit i, the finite points of fiber i.

Every function here takes the field.  `orbitals`, the rule in O(1) per
pair over a batch of pairs, is the one adjacency oracle of `build_quotient`
and the certificate checks; `neighborhood` keeps the matrix form to
cross-check the quotient.  `build_graph` fills the k^2 classes
chi(x - beta) by rotating the chi row, with no field arithmetic, and checks
Y(i) on them; `export_chunks` streams the edge text off that table: x - beta
subtracts digit by digit mod s, so with S = k/s, row a*S + b is row b turned
by a*S, and its class-c betas are a*S plus row b's (mod k), picked.
"""

from __future__ import annotations

from bisect import bisect
from operator import itemgetter

from .action import beta_texts, point_text, rep
from .errors import InvariantViolation
from .gf import Field


def neighborhood(field: Field, i: int, v: int) -> set[int]:
    """Codes of the neighbors of v in Y(i): the labels (beta = -d/c,
    log(a*beta + b) mod 5), or (inf, log(a) mod 5) if c = 0, of
    [[a,b],[c,d]] = [[0,-theta^i],[theta^-i,x]] * rep(v) over x in GF(k)."""
    F, k = field, field.order
    exp, log, neg, add, mul = F._exp, F._log, F._neg, F.add, F.mul
    r1, r2, r3, r4 = rep(F, v)
    th_i, th_mi = F.pow(F.theta, i), F.pow(F.theta, -i)
    # [[0,-th^i],[th^-i,x]] * rep: first row constant, second affine in x
    a, b = mul(neg[th_i], r3), mul(neg[th_i], r4)
    c0, d0 = mul(th_mi, r1), mul(th_mi, r2)
    # x*r3 and x*r4 for x = 0, theta^0, theta^1, ...
    col3, col4 = ([0, *exp[log[r]:log[r] + k - 1]] if r else [0] * k
                  for r in (r3, r4))
    k1, la = k + 1, log[a]  # la is None when a = 0, and then c != 0
    out = set()
    for u, w in zip(col3, col4):
        c = add(c0, u)
        if c == 0:
            out.add(la % 5 * k1)
            continue
        d = add(d0, w)
        beta = neg[exp[log[d] - log[c]]] if d else 0  # a negative index wraps
        ab = exp[la + log[beta]] if a and beta else 0
        out.add(log[add(ab, b)] % 5 * k1 + beta + 1)
    return out


def orbitals(field: Field, vs, ws):
    """For each pair of codes v, w of vs and ws, the i with w ~ v in Y(i),
    or None when they are not adjacent.  chi(beta' - beta) is read as 0 when
    a beta = r - 1 is inf (r = 0); at m = 1 beta' - beta is (r' - r) mod s;
    at m > 1 it is x - y = x*(1 - y/x), a Zech step with log(-y) = log(y) +
    (k-1)/2, when x = beta' and y = beta are nonzero, else chi(x or -y)."""
    k1, log = field.order + 1, field._log
    zech, half = field._zech if field.m > 1 else None, field.order // 2
    for v, w in zip(vs, ws):
        rv, rw = v % k1, w % k1
        if rv == rw:
            yield None
        elif not (rv and rw):
            yield (v // k1 + w // k1) % 5
        elif zech is None:  # a negative index wraps mod s
            yield (v // k1 + w // k1 - log[rw - rv]) % 5
        elif rv > 1 < rw:
            lx = log[rw - 1]
            yield (v // k1 + w // k1 - lx - zech[log[rv - 1] + half - lx]) % 5
        else:
            yield (v // k1 + w // k1 - log[rw + rv - 2]) % 5


def build_graph(field: Field, i: int) -> bytearray:
    """Check the i-th basic orbital graph and return its byte table of
    classes, cls[j*k + x] = chi(lex[x] - lex[j]): by the rule, (beta, f)
    has in fiber g the point inf when f + g = i and the beta' with
    chi(beta' - beta) = f + g - i.  A lex index is the base-s number of
    the coordinates, constant term most significant, and x - beta
    subtracts them digit by digit mod s, so row beta is the chi row in lex
    order with its s-blocks rotated at every digit level by beta's digits.
    The checks run on the table before this returns.  Each is exact:
    - degree and loop: (beta, f) has 1 + #{x : chi(x - beta) != 5}
      neighbors, and a loop iff 2f = i + chi(0), so each vertex over beta
      has k neighbors and no loop iff row beta holds one 5, on the diagonal;
    - symmetry: the rule is symmetric in f and f', so Y(i) is iff cls is;
    - connectivity: the finite points of fiber f are all joined to
      (inf, i - f), so Y(i) is connected iff these five stars are.  Stars
      f and g meet iff class f + g - i (mod 5) occurs in the table.
    """
    if not 0 <= i <= 4:
        raise ValueError(f"orbital index {i} out of range")
    F, k = field, field.order
    if (k - 1) % 10:
        raise ValueError("coset space requires 10 | k-1")
    s, lex, k1 = F.s, F.elements_lex, k + 1
    # class 5 holds x - beta = 0 (log[0] is None): no edge
    chi = [5 if e is None else e % 5 for e in F._log]

    def rows(c):
        """Row j of c(x - beta_j), for s^n classes c in lex order."""
        n = len(c) // s
        for j in range(s):  # the leading digit of beta
            if n == 1:
                yield (c + c)[s - j:2 * s - j]
                continue
            for parts in zip(*(rows(c[a * n:(a + 1) * n]) for a in range(s))):
                yield b"".join((parts + parts)[s - j:2 * s - j])

    cls = bytearray()
    for row in rows(bytes(chi[x] for x in lex)):
        cls += row

    for j, beta in enumerate(lex):
        row = cls[j * k:(j + 1) * k]
        if row.count(5) != 1:
            raise InvariantViolation(
                f"vertex {point_text(F, beta + 1)} has {k1 - row.count(5)} "
                f"neighbors, expected {k}", stage="orbital")
        if row[j] != 5:
            f = 3 * (i + row[j]) % 5  # 2f = i + chi(0)
            raise InvariantViolation(
                f"loop at vertex {point_text(F, f * k1 + beta + 1)}",
                stage="orbital")
        if row != cls[j::k]:
            x = next(x for x in range(k) if row[x] != cls[x * k + j])
            # the edge of the smaller class is there one way only
            g = (i + min(row[x], cls[x * k + j])) % 5
            raise InvariantViolation(
                f"asymmetric adjacency between {point_text(F, beta + 1)} and "
                f"{point_text(F, g * k1 + lex[x] + 1)}", stage="orbital")
    # one class c pairs star f with star i + c - f, and two classes a, b
    # give the shift f -> f + a - b, which reaches all five
    present = [c for c in range(5) if c in cls]
    if len(present) < 2:  # vertex 0, (inf, 0), is in star i
        raise InvariantViolation(
            f"orbital graph {i} is disconnected "
            f"({len({i, *present}) * k1}/{5 * k1} reached)", stage="orbital")
    return cls


# --- exports ---

def export_chunks(field: Field, i: int, cls, fmt: str):
    """The edge list of Y(i) read off its class table from `build_graph`, or
    with fmt "dot" the DOT text, one chunk per vertex with later neighbors:
    each undirected edge once, (u, v) with u < v, u-major in vertex order,
    fiber-major, infinity first, then lex.  Fiber g holds row j's class
    f + g - i; with S = k/s and j = a*S + b, row j is row b turned by a*S,
    so its class-c betas are a*S + Y_bc (mod k), picked off the lex betas."""
    F, k, betas = field, field.order, beta_texts(field)
    S, ints = k // F.s, list(range(k))  # one int object per position
    lex = [betas[beta + 1] for beta in F.elements_lex]
    twice = lex * 2
    Y = []  # Y[b][c]: row b's class-c positions, ascending
    for b in range(S):
        Y.append(ys := [[] for _ in range(6)])
        for y, c in zip(ints, cls[b * k:(b + 1) * k]):
            ys[c].append(y)
    picks = [[itemgetter(*y) for y in ys[:5]] for ys in Y]
    head, end = ('  "{}" -- "', '";\n') if fmt == "dot" else ("{} ", "\n")
    tails = [f":{g}{end}" for g in range(5)]  # a label is beta:g
    if fmt == "dot":
        yield f'graph "Y{i}_k{F.order}" {{\n'
    for f in range(5):
        head_of = head.format(f"{{}}:{f}").format  # line: head(u) label(v) end
        h = head_of(betas[0])
        if (g := (i - f) % 5) >= f:  # (inf, f): the k finite points of fiber i - f
            yield h + (tails[g] + h).join(lex) + tails[g]
        for a in range(F.s):
            row, top = twice[a * S:a * S + k], k - 1 - a * S  # top: the last unturned y
            for b in range(S):
                h, chunk = head_of(lex[a * S + b]), []
                for g in range(f, 5):
                    y = Y[b][c := (f + g - i) % 5]
                    t, n = picks[b][c](row), bisect(y, top)
                    later = (t[bisect(y, b):n] if g == f else  # after j; inf, then lex
                             (betas[0],) * (c == 0) + t[n:] + t[:n])
                    if later:
                        chunk += h, (tails[g] + h).join(later), tails[g]
                if chunk:
                    yield "".join(chunk)
    if fmt == "dot":
        yield "}\n"
