"""Shared test helpers."""

import os
from array import array
from itertools import compress
from pathlib import Path
from typing import NamedTuple

import psl2ham
from psl2ham import (build_graph, certificate_chunks, orbitals, point_text,
                     verify_text)


class OmegaPoint(NamedTuple):
    """A point as its label; the package carries it as the int `code`."""
    beta: int | None  # None encodes the point at infinity
    fiber: int


def random_words(group, rng, count, length=8):
    """Sample group elements as random words in the three generators."""
    gens = group.generators()
    out = []
    for _ in range(count):
        g = group.identity
        for _ in range(length):
            g = group.mul(g, rng.choice(gens))
        out.append(g)
    return out


ALPHA = OmegaPoint(None, 0)  # the base point, the label of H itself


def code(field, p):
    """The int code under which the package carries point p:
    f*(k+1) + (0 if beta is inf else beta + 1).  `point` inverts it."""
    return p.fiber * (field.order + 1) + (0 if p.beta is None else p.beta + 1)


def point(field, v):
    """The point with code v."""
    f, r = divmod(v, field.order + 1)
    return OmegaPoint(None if r == 0 else r - 1, f)


def points(field):
    """Every point of the coset space, in the vertex order of `build_graph`:
    fiber-major, infinity first, then coordinate-lex."""
    return [OmegaPoint(beta, f) for f in range(5)
            for beta in (None, *field.elements_lex)]


class HeldGraph(NamedTuple):
    """Y(i) held whole: the package only streams its edges."""
    i: int
    field: object
    vertices: tuple[int, ...]  # codes, in the vertex order of `points`
    neighbors: tuple[list[int], ...]  # vertex indices, sorted


def turned(field, base):
    """The k^2 class table rebuilt from the k/s base rows that `build_graph`
    returns: with S = k/s, row a*S + b is base row b turned by a*S."""
    k = field.order
    S = k // field.s
    rows = [base[b * k:(b + 1) * k] for b in range(S)]
    return b"".join(row[k - a * S:] + row[:k - a * S]
                    for a in range(field.s) for row in rows)


def held_graph(field, i):
    """Y(i) with every row read off the class table of `build_graph`,
    `turned` whole: (beta, f) has in fiber g the points of class f + g - i
    of row beta, with inf in front as class 0; (inf, f) has the finite
    points of fiber i - f."""
    k, k1 = field.order, field.order + 1
    cls = turned(field, build_graph(field, i))
    fibers = [range(g * k1, (g + 1) * k1) for g in range(5)]
    masks = [bytes(b == c for b in range(256)) for c in range(5)]
    neighbors = []
    for f in range(5):
        neighbors.append(list(fibers[(i - f) % 5][1:]))
        for j in range(k):
            row = b"\0" + cls[j * k:(j + 1) * k]
            neighbors.append([v for g, fiber in enumerate(fibers) for v in
                              compress(fiber, row.translate(masks[(f + g - i) % 5]))])
    return HeldGraph(i, field, tuple(code(field, p) for p in points(field)),
                     tuple(neighbors))


def ten_orbits(walks):
    """The ten S-orbits of the two walks that `s_orbits` returns: orbit
    5e + j is walk e with every code raised j fibers, of k + 1 = 2p codes
    each, mod 5(k + 1)."""
    k1 = 2 * len(walks[0])
    return [array("l", [(v + j * k1) % (5 * k1) for v in walk])
            for walk in walks for j in range(5)]


def voltage_tuples(volts):
    """The 10x10 voltage cells of a quotient, each a sorted `array` of
    positions in the package, as tuples."""
    assert all(isinstance(vs, array) for row in volts for vs in row)
    return tuple(tuple(tuple(vs) for vs in row) for row in volts)


def orbital_of(field, v, w):
    """The i with w ~ v in Y(i), or None: `orbitals` asked of one pair."""
    return next(orbitals(field, (v,), (w,)))


def point_texts(field):
    """The text of every point, indexed by code: `point_text` of each."""
    return [point_text(field, v) for v in range(5 * (field.order + 1))]


def vertex_index(field):
    """Point -> its position in the vertex order of `points(field)`."""
    return {p: n for n, p in enumerate(points(field))}


def fresh_process_env():
    """Environment for a child `python -m psl2ham` that imports the same
    package as this process, not whatever else is on its path."""
    src = str(Path(psl2ham.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=src)


def text_verdict(cert):
    """What `verify_text` says of the writer's text of the record `cert`:
    its first failure, or None."""
    return verify_text("".join(certificate_chunks(cert)))[1]
