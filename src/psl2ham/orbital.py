"""The five basic orbital graphs Y(i).

The stabilizer H has ten orbits on the point set: five fixed points
(inf, i) and five orbits of size k.  Long suborbit i is the set of
labels of [[0, -theta^i], [theta^-i, x]] over x in GF(k), and the
neighborhood of omega in Y(i) is its image under rep(omega) acting on
the right (`neighborhood`).  With chi(x) = log(x) mod 5, for which
chi(-1) = 0 as 10 | k-1, adjacency is one rule on labels:

    (beta, f) ~ (beta', f') in Y(i)  iff  f + f' = i + chi(beta' - beta)  (mod 5)

for beta != beta', with chi read as 0 when either beta is inf; points
with beta = beta' are never adjacent.  Proof: by the second-row rule of
the `action` docstring, a g = [[a,b],[c,d]] with c != 0 labels a finite
point of fiber -chi(c); and rep(w)*rep(v)^-1 = t^f' [[1,0],[beta'-beta,1]]
t^-f has c = theta^-(f+f') (beta' - beta), or +-theta^-(f+f') when one
beta is inf, so it lies in long suborbit i, the finite points of fiber i.

The other orbitals of G are the diagonal and, for j = 1..4, (w, w raised j
fibers): the fiber shift commutes with G (`s_orbits`) and H*t^j is the fixed
point (inf, j) of H.  As j pairs with 5 - j, they give two undirected graphs
of k + 1 5-cycles, one over each beta.  So a graph X on Omega that G acts on
is a union of seven undirected graphs, Y(0..4) and these two, and of the 127
nonempty unions the connected ones are the 124 that contain some Y(i), as
each Y(i) is connected and the cycles never leave a beta.

Every function here takes the field.  `orbitals`, the rule in O(1) per
pair over a batch of pairs, is the one adjacency oracle of `build_quotient`,
the certificate checks and `build_graph`; `neighborhood` keeps the matrix
form to cross-check the quotient.  x - beta subtracts digit by digit mod s,
so with S = k/s, row a*S + b of the k^2 classes chi(x - beta) is row b
turned by a*S: `build_graph` reads the S base rows off `orbitals` and checks
Y(i) on them, and `export_chunks` streams the edge text off them, row
a*S + b's class-c betas being a*S plus row b's (mod k), picked.
"""

from __future__ import annotations

from bisect import bisect
from itertools import repeat
from operator import itemgetter

from .action import beta_texts, point_text, rep
from .errors import InvariantViolation
from .gf import Field


def neighborhood(field: Field, i: int, v: int) -> set[int]:
    """Codes of the neighbors of v in Y(i): the labels of the products
    [[0,-theta^i],[theta^-i,x]] * rep(v) over x in GF(k), each read off
    its second row (c, d) by the rule of the `action` docstring."""
    F, k = field, field.order
    exp, log, h, add, mul = F._exp, F._log, F._log_neg1, F.add, F.mul
    r1, r2, r3, r4 = rep(F, v)
    # the second row of [[0,-th^i],[th^-i,x]] * rep, th = exp[1], affine in x
    c0, d0 = mul(exp[-i], r1), mul(exp[-i], r2)
    # x*r3 and x*r4 for x = 0, theta^0, theta^1, ...
    col3, col4 = ([0, *exp[log[r]:log[r] + k - 1]] if r else [0] * k
                  for r in (r3, r4))
    k1, out = k + 1, set()
    for u, w in zip(col3, col4):
        c, d = add(c0, u), add(d0, w)
        if c == 0:
            out.add(-log[d] % 5 * k1)
        else:  # a negative index wraps
            lc = log[c]
            out.add(-lc % 5 * k1 + (exp[log[d] - lc + h] if d else 0) + 1)
    return out


def orbitals(field: Field, vs, ws):
    """For each pair of codes v, w of vs and ws, the i with w ~ v in Y(i),
    or None when they are not adjacent.  chi(beta' - beta) is read as 0 when
    a beta = r - 1 is inf (r = 0); at m = 1 beta' - beta is (r' - r) mod s;
    at m > 1 it is x - y = x*(1 - y/x), a Zech step with log(-y) = log(y) +
    (k-1)/2, when x = beta' and y = beta are nonzero, else chi(x or -y)."""
    k1, log = field.order + 1, field._log
    zech, h = field._zech if field.m > 1 else None, field._log_neg1
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
            yield (v // k1 + w // k1 - lx - zech[log[rv - 1] + h - lx]) % 5
        else:
            yield (v // k1 + w // k1 - log[rw + rv - 2]) % 5


def build_graph(field: Field, i: int) -> bytearray:
    """Check the i-th basic orbital graph and return the S = k/s base rows
    of its class table, cls[b*k + x] = chi(lex[x] - lex[b]) for b < S, read
    off `orbitals` at fiber 0: by the rule, (beta, f) has in fiber g the
    point inf when f + g = i and the beta' with chi(beta' - beta) = f + g - i.
    Row a*S + b of the k^2 table is base row b turned by a*S, and each check
    is exact and holds on a row iff on its base row, so the first row that
    fails one is a base row:
    - degree and loop: (beta, f) has 1 + #{x : chi(x - beta) != 5}
      neighbors, and a loop iff 2f = i + chi(0), so each vertex over beta
      has k neighbors and no loop iff row beta holds one 5, on the diagonal;
    - symmetry: the rule is symmetric in f and f', so Y(i) is iff the table
      is; entry (x, b) with x = d*S + y is base row y at (-d mod s)*S + b;
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
    S, codes = k // s, [beta + 1 for beta in lex]
    cls = bytearray()  # class 5 where x = beta (orbitals says None): no edge
    for v in codes[:S]:
        cls += bytes(5 if o is None else -o % 5
                     for o in orbitals(F, repeat(v), codes))
    for b, beta in enumerate(lex[:S]):
        row = cls[b * k:(b + 1) * k]
        if row.count(5) != 1:
            raise InvariantViolation(
                f"vertex {point_text(F, beta + 1)} has {k1 - row.count(5)} "
                f"neighbors, expected {k}", stage="orbital")
        if row[b] != 5:
            f = 3 * (i + row[b]) % 5  # 2f = i + chi(0)
            raise InvariantViolation(
                f"loop at vertex {point_text(F, f * k1 + beta + 1)}",
                stage="orbital")
        col = b"".join(cls[-d % s * S + b::k] for d in range(s))
        if row != col:
            x = next(x for x in range(k) if row[x] != col[x])
            # the edge of the smaller class is there one way only
            g = (i + min(row[x], col[x])) % 5
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
    """The edge list of Y(i) read off the base rows from `build_graph`, or
    with fmt "dot" the DOT text, one chunk per vertex with later neighbors:
    each undirected edge once, (u, v) with u < v, u-major in vertex order,
    fiber-major, infinity first, then lex.  Fiber g holds row j's class
    f + g - i; with S = k/s and j = a*S + b, row j is base row b turned by
    a*S, so its class-c betas are a*S + Y_bc (mod k), picked off lex betas."""
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
