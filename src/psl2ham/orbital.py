"""Suborbits and the five basic orbital graphs Y(i).

The stabilizer H has ten orbits on the point set: five fixed points
(inf, i) and five orbits of size k.  Long suborbit i has the closed form

    { point_of([[0, -theta^i], [theta^-i, x]]) : x in GF(k) }

and the neighborhood of any point omega in the i-th orbital graph is the
image of that set under rep(omega) acting on the right.  Since
point_of of that matrix is (-x*theta^i, dlog(-theta^i) mod 5) and
dlog(-1) = (k-1)/2 = 0 (mod 5), long suborbit i is exactly the set of
finite points of fiber i.  So adjacency is decided in O(1) by
`orbital_of`, and only `build` exports need the full graph.  Graphs are
stored as sorted neighbor lists over a fixed vertex order so that exports
are byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .action import CosetAction, OmegaPoint, point_str
from .errors import InvariantViolation


@dataclass(frozen=True)
class Suborbit:
    kind: str  # "singleton" | "long"
    i: int
    points: frozenset


def neighborhood(action: CosetAction, i: int, p: OmegaPoint) -> set[OmegaPoint]:
    """Neighbors of p in the i-th orbital graph, via the closed form."""
    F = action.field
    r1, r2, r3, r4 = action.rep(p)
    th_i = F.pow(F.theta, i)
    th_mi = F.inv(th_i)
    # [[0,-th^i],[th^-i,x]] * rep: first row constant, second affine in x
    a = F.mul(F.neg(th_i), r3)
    b = F.mul(F.neg(th_i), r4)
    c0 = F.mul(th_mi, r1)
    d0 = F.mul(th_mi, r2)
    add, mul, pof = F.add, F.mul, action.point_of
    out = set()
    for x in range(F.order):
        out.add(pof((a, b, add(c0, mul(x, r3)), add(d0, mul(x, r4)))))
    return out


def orbital_of(action: CosetAction, v: OmegaPoint, w: OmegaPoint) -> int | None:
    """The i with w ~ v in Y(i), or None when w is not adjacent to v.

    w ~ v in Y(i) iff H*rep(w)*rep(v)^-1 lies in long suborbit i, the
    finite points of fiber i.
    """
    G = action.group
    beta, fiber = action.point_of(G.mul(action.rep(w), G.inv(action.rep(v))))
    return None if beta is None else fiber


def suborbits(action: CosetAction) -> list[Suborbit]:
    """The ten H-orbits: five singletons then five of size k."""
    k = action.field.order
    subs = [Suborbit("singleton", i, frozenset({OmegaPoint(None, i)}))
            for i in range(5)]
    for i in range(5):
        pts = frozenset(neighborhood(action, i, action.alpha))
        if len(pts) != k:
            raise InvariantViolation(
                f"long suborbit {i} has size {len(pts)}, expected {k}",
                stage="orbital")
        subs.append(Suborbit("long", i, pts))
    cover: set[OmegaPoint] = set()
    for sb in subs:
        cover.update(sb.points)
    if len(cover) != action.size:
        raise InvariantViolation("suborbits do not partition the point set",
                                 stage="orbital")
    return subs


def suborbits_by_h_orbits(action: CosetAction) -> list[Suborbit]:
    """Same partition computed the slow way: exhaustive H-orbits."""
    G = action.group
    H = G.H
    remaining = set(action.points)
    seeds = [OmegaPoint(None, i) for i in range(5)]
    seeds += [action.point_of(G.mul(action.t_pows[i], action.l)) for i in range(5)]
    subs = []
    for n, seed in enumerate(seeds):
        orb = frozenset(action.act(seed, h) for h in H)
        subs.append(Suborbit("singleton" if len(orb) == 1 else "long", n % 5, orb))
        remaining -= orb
    if remaining:
        raise InvariantViolation("H-orbits of the ten seeds miss points",
                                 stage="orbital")
    return subs


@dataclass
class OrbitalGraph:
    i: int
    action: CosetAction
    vertices: tuple[OmegaPoint, ...]
    index: dict[OmegaPoint, int]
    neighbors: tuple[tuple[int, ...], ...]  # sorted vertex indices
    degree: int = dc_field(init=False)

    def __post_init__(self):
        self.degree = len(self.neighbors[0]) if self.neighbors else 0

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return sum(len(nb) for nb in self.neighbors) // 2

    def edges(self):
        """Each undirected edge once, (u, v) with u < v, u-major order."""
        for u, nb in enumerate(self.neighbors):
            for v in nb:
                if u < v:
                    yield u, v


def build_graph(action: CosetAction, i: int) -> OrbitalGraph:
    """Construct the i-th basic orbital graph and check its invariants."""
    if not 0 <= i <= 4:
        raise ValueError(f"orbital index {i} out of range")
    k = action.field.order
    verts = action.points
    index = action.index
    nb_sets = []
    for p in verts:
        nb = neighborhood(action, i, p)
        if len(nb) != k:
            raise InvariantViolation(
                f"vertex {p} has {len(nb)} neighbors, expected {k}",
                stage="orbital")
        if p in nb:
            raise InvariantViolation(f"loop at vertex {p}", stage="orbital")
        nb_sets.append({index[q] for q in nb})
    for u, nbs in enumerate(nb_sets):
        for v in nbs:
            if u not in nb_sets[v]:
                raise InvariantViolation(
                    f"asymmetric adjacency between {verts[u]} and {verts[v]}",
                    stage="orbital")
    # connectivity (breadth-first search)
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v in nb_sets[u]:
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    if len(seen) != len(verts):
        raise InvariantViolation(
            f"orbital graph {i} is disconnected ({len(seen)}/{len(verts)} reached)",
            stage="orbital")
    neighbors = tuple(tuple(sorted(s)) for s in nb_sets)
    return OrbitalGraph(i=i, action=action, vertices=verts,
                        index=index, neighbors=neighbors)


# --- exports ---

def edgelist_lines(graph: OrbitalGraph):
    F = graph.action.field
    verts = graph.vertices
    for u, v in graph.edges():
        yield f"{point_str(F, verts[u])} {point_str(F, verts[v])}"


def to_dot(graph: OrbitalGraph) -> str:
    F = graph.action.field
    verts = graph.vertices
    lines = [f'graph "Y{graph.i}_k{F.order}" {{']
    for u, v in graph.edges():
        lines.append(f'  "{point_str(F, verts[u])}" -- "{point_str(F, verts[v])}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
