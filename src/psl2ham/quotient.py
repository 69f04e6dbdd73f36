"""Quotient multigraph over the ten S-orbits, voltage lifting, certificates.

Collapsing an orbital graph along the ten S-orbits gives a multigraph on
10 vertices: orbits A and B are joined by d(A,B) parallel edges, one per
neighbor of A's base vertex inside B.  Each such edge carries a voltage
w in Z_p, the position of that neighbor in B's cyclic order, so that
v_A(c) ~ v_B(c + w) for every offset c.  Since S acts by automorphisms,
the batched adjacency oracle `orbital.orbitals` at the bases (inf, 0) and
(0, 0), over the two walks of sigma `s_orbits` returns, orbits 0 and 5,
gives every voltage, and four matrix-form neighborhoods cross-derive
them (`build_quotient`); the full orbital graph is never built.

The quotient cycle is the walk 0, 1, ..., 9 through the ten orbits.
Voltages w_0..w_9 on it lift in closed form (`lift`): vertex 10r + j is
orbit j at position c_j + r*T, with c_j = w_0 + ... + w_(j-1) and T the
total mod p.  For T != 0 that is one cycle through all 10p vertices, as
p is prime; T = 0 would give p disjoint 10-cycles.  The certificate holds
its field, the walk, the chosen voltages and the full vertex cycle.
Verifying it builds no group, graph or quotient: the header's claims (an
admissible k first), then that the vertices are the lift of its walk and
voltages over verify's own two walks, which is every point once (the
orbits partition the points, the walk permutes 0..9, T != 0 generates
Z_p), last each cycle edge by that oracle.  `certificate_chunks` writes
the text; `verify_text`, the one verifier, reads its header alone, since
a valid body is the writer's text of the header's lift.  `run_pipeline`
chains quotient and lift, then checks the claims and the cycle edges of
its record, whose vertices are that lift by construction.
"""

from __future__ import annotations

from array import array
from itertools import accumulate, chain, islice, repeat
from operator import itemgetter
from typing import NamedTuple

from .action import beta_texts, point_text, s_orbits
from .errors import InvariantViolation
from .gf import Field, admissible, factor_prime_power
from .orbital import neighborhood, orbitals

CERT_FORMAT = "psl2ham-certificate"
CERT_VERSION = 1
MISPLACED = "vertex {} is {}, but the header's cycle and voltages put {} there"


class QuotientMultigraph(NamedTuple):
    field: Field
    orbital_index: int
    orbits: tuple[array, array]  # the two walks of codes, orbits 0 and 5
    voltages: tuple[tuple[tuple[int, ...], ...], ...]  # 10x10, sorted Z_p offsets

    @property
    def p(self) -> int:
        return (self.field.order + 1) // 2

    @property
    def mult(self) -> tuple[tuple[int, ...], ...]:
        """10x10 edge counts; the diagonal is the intra-orbit valency."""
        return tuple(tuple(len(vs) for vs in row) for row in self.voltages)


def build_quotient(field: Field, i: int) -> QuotientMultigraph:
    """Collapse Y(i) along the ten S-orbits, recording voltages.  Position
    w of walk e, orbit 5e, goes in bucket[c][e][o] when `orbitals` puts
    it in Y(o) with code c, the base (inf, 0) or (0, 0).  Orbit 5e + j is
    walk e with every fiber raised by j, which raises the orbital of each
    pair by j, so voltages[a][b] = bucket[a // 5][b // 5][(i - a - b) % 5]:
    100 cells, 20 sorted tuples.  Rows 0 and 5 hold all 20, and
    `neighborhood` at positions 0 and 1 of the two walks cross-derives
    them over the ten orbits so read, at 1 an exact S-invariance check.
    """
    if not 0 <= i <= 4:
        raise ValueError(f"orbital index {i} out of range 0..4")
    k, p = field.order, (field.order + 1) // 2
    orbits = s_orbits(field)
    bucket = [[[[] for _ in range(5)] for _ in range(2)] for _ in range(2)]
    positions = [*range(p)]  # one int each, shared by the four passes
    for e, base in ((0, 0), (0, 1), (1, 0), (1, 1)):  # w in order: sorted
        for w, o in zip(positions, orbitals(field, repeat(base), orbits[e])):
            if o is not None:
                bucket[base][e][o].append(w)
    bucket = [[[tuple(ws) for ws in b5] for b5 in row] for row in bucket]
    volts = tuple(tuple(bucket[a // 5][b // 5][(i - a - b) % 5]
                        for b in range(10)) for a in range(10))

    # checks of the orbits: of each pair (a, b), (b, a), one has a = 0 or 5
    for a in (0, 5):
        for b in range(10):
            if len(volts[a][b]) != len(volts[b][a]):
                raise InvariantViolation(
                    f"multiplicity matrix asymmetric at ({a},{b})",
                    stage="quotient")
            if set(volts[b][a]) != {(-w) % p for w in volts[a][b]}:
                raise InvariantViolation(
                    f"voltage sets at ({a},{b}) are not negations",
                    stage="quotient")
    for a in (0, 5):
        for c, v in enumerate(orbits[a // 5][:2]):  # v ~ orbit b at w + c
            nb = neighborhood(field, i, v)
            if len(nb) != k or v in nb:  # formats the point only to raise
                at = point_text(field, v)
                raise InvariantViolation(
                    f"vertex {at} has {len(nb)} neighbors, expected {k}"
                    if len(nb) != k else f"loop at vertex {at}", stage="orbital")
            if nb != {(orbits[b // 5][(w + c) % p] + b % 5 * 2 * p) % (10 * p)
                      for b in range(10) for w in volts[a][b]}:
                raise InvariantViolation(
                    f"neighbors differ across orbit {a}: S-invariance broken"
                    if c else f"the neighbors of orbit {a}'s base differ "
                    "from its voltages", stage="quotient")
    return QuotientMultigraph(field=field, orbital_index=i, orbits=orbits,
                              voltages=volts)


class HamiltonCertificate(NamedTuple):
    field: Field
    orbital_index: int
    cycle: tuple[int, ...]  # orbit sequence, length 10
    chosen_voltages: tuple[int, ...]  # one per cycle edge, length 10
    total_voltage: int
    vertices: array  # 10p codes, in cycle order

    @property
    def p(self) -> int:
        return (self.field.order + 1) // 2


def lift(orbits, cycle, voltages) -> array:
    """The lift of the quotient cycle `cycle` under `voltages`: vertex
    10r + j is orbit a = cycle[j], walk a // 5 raised a % 5 fibers, at
    c_j + r*T (mod p), c_j the sum of the first j voltages and T of all
    ten.  With T != 0 and p prime, T generates Z_p: one 10p-cycle.  One
    pick of the positions r*T mod p, any T, serves the ten steps: step j
    takes it off walk a // 5 doubled and sliced at c_j, then raises it.
    """
    p = len(orbits[0])
    *starts, total = accumulate(voltages, initial=0)
    pick = itemgetter(*(r * total % p for r in range(p)))
    out = array("l", [0]) * (n := 10 * p)
    for j, (a, c) in enumerate(zip(cycle, starts)):
        walk, up, c = orbits[a // 5] * 2, a % 5 * 2 * p, c % p
        out[j::10] = array("l", [(v + up) % n for v in pick(walk[c:c + p])])
    return out


def lift_cycle(q: QuotientMultigraph) -> HamiltonCertificate:
    """Choose voltages with nonzero total over the quotient cycle 0..9 and
    `lift` them to a full cycle.

    Takes the smallest voltage on every edge; if the total vanishes mod p,
    the first edge with two or more parallel edges switches to its second
    voltage, which shifts the total off zero as the voltages of an edge
    are distinct residues mod p.
    """
    p = q.p
    edge_sets = [q.voltages[e][(e + 1) % 10] for e in range(10)]
    for e, vs in enumerate(edge_sets):
        if not vs:
            raise InvariantViolation(
                f"orbits {e} and {(e + 1) % 10} are not adjacent: quotient "
                "data is corrupt", stage="quotient")
    choices = [vs[0] for vs in edge_sets]
    total = sum(choices) % p
    if total == 0:
        e = next((e for e, vs in enumerate(edge_sets) if len(vs) > 1), None)
        if e is None:
            raise InvariantViolation(
                "no voltage selection achieves nonzero total: quotient data "
                "is corrupt (some cycle edge should carry >= 2 voltages)",
                stage="quotient")
        choices[e] = edge_sets[e][1]
        total = sum(choices) % p
    return HamiltonCertificate(
        field=q.field, orbital_index=q.orbital_index, cycle=tuple(range(10)),
        chosen_voltages=tuple(choices), total_voltage=total,
        vertices=lift(q.orbits, range(10), choices))


# --- independent verification ---

def _false_claim(cert: HamiltonCertificate, count: int) -> str | None:
    """The first false claim of a header that claims `count` vertices."""
    p = cert.p
    if count != 10 * p:
        return f"cycle has {count} vertices, expected {10 * p}"
    if cert.total_voltage % p == 0:
        return "total voltage vanishes mod p"
    if sorted(cert.cycle) != list(range(10)):
        return "cycle does not visit each of the ten orbits exactly once"
    volts = cert.chosen_voltages
    if len(volts) != 10 or not all(0 <= w < p for w in volts):
        return "voltages are not ten residues mod p"
    if cert.total_voltage != sum(volts) % p:
        return f"total {cert.total_voltage} is not the voltage sum mod p"


def _broken_edge(cert: HamiltonCertificate) -> str | None:
    """The first step of the cycle `cert.vertices` that is not in Y(i)."""
    field, i, verts = cert.field, cert.orbital_index, cert.vertices
    ws = chain(islice(verts, 1, None), verts[:1])  # the closing step to 0
    for idx, o in enumerate(orbitals(field, verts, ws)):
        if o != i:
            v, w = verts[idx], verts[idx + 1 - len(verts)]
            return (f"step {idx}->{idx + 1}: {point_text(field, v)} and "
                    f"{point_text(field, w)} are not adjacent in orbital graph {i}")


def run_pipeline(field: Field, i: int) -> HamiltonCertificate:
    """quotient -> lift -> the claims and edges of the record."""
    cert = lift_cycle(build_quotient(field, i))
    if failure := _false_claim(cert, len(cert.vertices)) or _broken_edge(cert):
        raise InvariantViolation(
            f"emitted certificate failed verification: {failure}",
            stage="verify")
    return cert


# --- certificate text ---

def certificate_chunks(cert: HamiltonCertificate):
    """The text of `cert`: the ten header lines, then 4096 vertex lines a
    chunk, code f*(k+1) + r as betas[r] + ":f" off `beta_texts`, the
    `point_text` of the code."""
    field, verts = cert.field, cert.vertices
    yield (f"{CERT_FORMAT} {CERT_VERSION}\ns {field.s}\nm {field.m}\n"
           f"k {field.order}\np {cert.p}\norbital {cert.orbital_index}\n"
           f"cycle {' '.join(map(str, cert.cycle))}\n"
           f"voltages {' '.join(map(str, cert.chosen_voltages))}\n"
           f"total {cert.total_voltage}\nvertices {len(verts)}\n")
    betas, k1 = beta_texts(field), field.order + 1
    ends = [f":{f}\n" for f in range(5)]
    for at in range(0, len(verts), 4096):
        yield "".join([betas[v % k1] + ends[v // k1]
                       for v in verts[at:at + 4096]])


def _number(text: str, line: int) -> int:
    """The int that str() writes as `text`; int() also reads "+1" and "01"."""
    try:
        if str(x := int(text)) == text:
            return x
    except ValueError:
        pass
    raise ValueError(f"line {line}: {text!r} is not a number as str() writes it")


def verify_text(text: str) -> tuple[HamiltonCertificate, str | None]:
    """Re-check certificate text from scratch, as the module docstring
    says: the record its header names, with its lift as the vertices once
    the claims hold, and the first failure or None; ValueError where the
    text is no certificate.  A valid body is the text `certificate_chunks`
    writes of that lift, so only the first line that differs is parsed,
    against `beta_texts`, and decides.  A record `cert` is verified as
    `verify_text("".join(certificate_chunks(cert)))`."""
    lines = text.split("\n", 10)
    head = lines[0].split(" ")
    if len(head) != 2 or head[0] != CERT_FORMAT:
        raise ValueError("not a certificate file")
    if _number(head[1], 1) != CERT_VERSION:
        raise ValueError(f"unsupported certificate version {head[1]}")
    if len(lines) < 11:
        raise ValueError(
            f"certificate header has {len(lines) - 1} lines, expected 10")
    fields = {}  # the one number of each line, a tuple for cycle and voltages
    for pos, key in enumerate(
            "s m k p orbital cycle voltages total vertices".split(), start=1):
        name, _, val = lines[pos].partition(" ")
        if name != key:
            raise ValueError(f"expected {key!r} on line {pos + 1}, got {name!r}")
        fields[key] = (tuple(_number(x, pos + 1) for x in val.split(" "))
                       if key in ("cycle", "voltages") else _number(val, pos + 1))
    if not 0 <= fields["orbital"] <= 4:
        raise ValueError(f"line 6: orbital {fields['orbital']} is not in 0..4")
    s, m, k, p = (fields[x] for x in ("s", "m", "k", "p"))
    body = len(lines.pop())
    # 5(k+1) lines of 4 characters or more: no table outgrows the input
    if 20 * (k + 1) > body:
        raise ValueError(f"header k = {k} does not fit a body of {body} characters")
    if factor_prime_power(k) != (s, m):
        raise ValueError(f"s = {s}, m = {m} do not factor k = {k}")
    if p != (k + 1) // 2 or not admissible(k):
        raise ValueError(f"k = {k}, p = {p} is not an admissible instance")
    cert = HamiltonCertificate(Field(s, m), fields["orbital"], fields["cycle"],
                               fields["voltages"], fields["total"], array("l"))
    if failure := _false_claim(cert, n := fields["vertices"]):
        return cert, failure
    cert = cert._replace(vertices=lift(s_orbits(cert.field), cert.cycle,
                                       cert.chosen_voltages))
    # the header's 10 line ends, and a last line may lack its own
    if (found := text.count("\n") - 10 + (text[-1] != "\n")) != n:
        raise ValueError(f"expected {n} vertex lines, found {found}")
    pos = 0  # the header chunk is the header read above
    for chunk in certificate_chunks(cert):
        if not text.startswith(chunk, pos):
            break  # and the writer, with its betas, is freed
        pos += len(chunk)
    else:
        return cert, _broken_edge(cert)
    idx = text.count("\n", 0, pos) - 10
    for want in chunk.splitlines(keepends=True):
        got = text[pos:text.find("\n", pos) + 1 or len(text)]
        if got != want:
            break
        pos, idx = pos + len(got), idx + 1
    if got[-1] != "\n":
        raise ValueError(f"vertex {idx}: {got!r} has no line end")
    # the lift is every point once, so a line is misplaced iff it is a point
    beta, _, f = got[:-1].rpartition(":")
    if f in ("0", "1", "2", "3", "4") and beta in beta_texts(cert.field):
        return cert, MISPLACED.format(idx, got[:-1], want[:-1])
    raise ValueError(f"vertex {idx}: {got[:-1]!r} is not a point "
                     f"beta:fiber of {cert.field!r}")
