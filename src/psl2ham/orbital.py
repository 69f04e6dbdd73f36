"""The five basic orbital graphs Y(i).

The stabilizer H has ten orbits on the point set: five fixed points
(inf, i) and five orbits of size k.  Long suborbit i is the set of
labels of [[0, -theta^i], [theta^-i, x]] over x in GF(k), and the
neighborhood of omega in Y(i) is its image under rep(omega) acting on
the right (`neighborhood`).  With chi(x) = dlog(x) mod 5, for which
chi(-1) = 0 as 10 | k-1, adjacency is one rule on labels:

    (beta, f) ~ (beta', f') in Y(i)  iff  f + f' = i + chi(beta' - beta)  (mod 5)

for beta != beta', with chi read as 0 when either beta is inf; points
with beta = beta' are never adjacent.  Proof: if g = [[a,b],[c,d]] has
c != 0, its label is finite of fiber chi(a*beta + b) = chi(-1/c) =
-chi(c), as det g = 1; and rep(w)*rep(v)^-1 = t^f' [[1,0],[beta'-beta,1]]
t^-f has c = theta^-(f+f') (beta' - beta), or +-theta^-(f+f') when one
beta is inf, so it lies in long suborbit i, the finite points of fiber i.

Every function here takes the field.  `orbital_of` applies the rule in
O(1) and `build_graph` reads whole rows off it; `neighborhood` keeps the
matrix form as the independent derivation the quotient is built from.
Graphs are stored as sorted neighbor lists over a fixed vertex order, and
`export_chunks` streams their byte-stable text one vertex row at a time.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import NamedTuple

from .action import point_str, rep
from .errors import InvariantViolation
from .gf import Field


def neighborhood(field: Field, i: int, v: int) -> set[int]:
    """Codes of the neighbors of v in Y(i): the labels (beta = -d/c,
    dlog(a*beta + b) mod 5), or (inf, dlog(a) mod 5) if c = 0, of
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


def orbital_of(field: Field, v: int, w: int) -> int | None:
    """The i with w ~ v in Y(i), or None when codes w and v are not adjacent."""
    k1 = field.order + 1
    rv, rw = v % k1, w % k1
    if rv == rw:
        return None
    if rv and rw:  # both finite, beta = r - 1
        return (v // k1 + w // k1 - field._log[field.sub(rw - 1, rv - 1)]) % 5
    return (v // k1 + w // k1) % 5


class OrbitalGraph(NamedTuple):
    i: int
    field: Field
    vertices: tuple[int, ...]  # codes: fiber-major, inf first, then lex
    neighbors: tuple[tuple[int, ...], ...]  # sorted vertex indices


def build_graph(field: Field, i: int) -> OrbitalGraph:
    """Construct the i-th basic orbital graph and check its invariants.

    Vertex order is fiber-major, infinity first, then coordinate-lex.  By
    the rule, (beta, f) has in fiber g the point inf when f + g = i and
    the beta' with chi(beta' - beta) = f + g - i.  So one row of
    chi(x - beta), split into its classes, gives the sorted neighbors of
    the five vertices over beta.
    """
    if not 0 <= i <= 4:
        raise ValueError(f"orbital index {i} out of range")
    F, k = field, field.order
    if (k - 1) % 10:
        raise ValueError("coset space requires 10 | k-1")
    sub, lex = F.sub, F.elements_lex
    verts = tuple(f * (k + 1) + r for f in range(5)
                  for r in (0, *(beta + 1 for beta in lex)))
    n = len(verts)
    ids = list(range(n))  # one int object per vertex index, shared by all rows
    fibers = [ids[g * (k + 1):(g + 1) * (k + 1)] for g in range(5)]
    # class 5 holds x - beta = 0 (log[0] is None): no edge
    chi = [5 if e is None else e % 5 for e in F._log]
    neighbors = [None] * n
    for f in range(5):
        neighbors[f * (k + 1)] = tuple(fibers[(i - f) % 5][1:])
    for j, beta in enumerate(lex, start=1):
        classes = [[] for _ in range(6)]
        for pos, x in enumerate(lex, start=1):
            classes[chi[sub(x, beta)]].append(pos)
        for f in range(5):
            nb = []
            for g, fib in enumerate(fibers):
                c = (f + g - i) % 5
                if c == 0:
                    nb.append(fib[0])
                nb += [fib[pos] for pos in classes[c]]
            neighbors[f * (k + 1) + j] = tuple(nb)
    for u, nb in enumerate(neighbors):
        if len(nb) != k:
            raise InvariantViolation(
                f"vertex {point_str(F, verts[u])} has {len(nb)} neighbors, "
                f"expected {k}", stage="orbital")
        if u in nb:
            raise InvariantViolation(f"loop at vertex {point_str(F, verts[u])}",
                                     stage="orbital")
    # symmetry: every row equals the same row of the transpose
    transpose = [[] for _ in range(n)]
    for u, nb in zip(ids, neighbors):
        for v in nb:
            transpose[v].append(u)
    for v, nb in enumerate(neighbors):
        if tuple(transpose[v]) != nb:
            u = min(set(nb) ^ set(transpose[v]))
            raise InvariantViolation(
                f"asymmetric adjacency between {point_str(F, verts[u])} and "
                f"{point_str(F, verts[v])}", stage="orbital")
    # connectivity (breadth-first search)
    seen, frontier = {0}, {0}
    while frontier:
        frontier = set().union(*map(neighbors.__getitem__, frontier)) - seen
        seen |= frontier
    if len(seen) != n:
        raise InvariantViolation(
            f"orbital graph {i} is disconnected ({len(seen)}/{n} reached)",
            stage="orbital")
    return OrbitalGraph(i=i, field=field, vertices=verts,
                        neighbors=tuple(neighbors))


# --- exports ---

def export_chunks(graph: OrbitalGraph, fmt: str):
    """The edge list, or with fmt "dot" the DOT text, one chunk per vertex
    row with edges: each undirected edge once, (u, v) with u < v, u-major
    order."""
    F = graph.field
    labels = [point_str(F, v) for v in graph.vertices]
    if fmt == "dot":
        yield f'graph "Y{graph.i}_k{F.order}" {{\n'
        head, end = '  "{}" -- "', '";\n'
    else:
        head, end = "{} ", "\n"
    for u, nb in enumerate(graph.neighbors):
        later = [labels[v] for v in nb[bisect_right(nb, u):]]
        if later:  # each line is head(u) + label(v) + end
            h = head.format(labels[u])
            yield h + (end + h).join(later) + end
    if fmt == "dot":
        yield "}\n"
