"""Quotient multigraph over the ten S-orbits, voltage lifting, certificates.

Collapsing an orbital graph along the ten S-orbits gives a multigraph on
10 vertices: orbits A and B are joined by d(A,B) parallel edges, one per
neighbor of A's base vertex inside B.  Each such edge carries a voltage
w in Z_p, the position of that neighbor in B's cyclic order, so that
v_A(c) ~ v_B(c + w) for every offset c.  Since S acts by automorphisms,
the adjacency oracle `orbital.orbital_of` at the bases (inf, 0) and
(0, 0), over orbits 0 and 5 from one power walk of sigma, gives every
voltage, and four matrix-form neighborhoods cross-derive them
(`build_quotient`); the full orbital graph is never built.

The quotient cycle is the walk 0, 1, ..., 9 through the ten orbits.
Voltages w_0..w_9 on it lift in closed form (`lift`): vertex 10r + j is
orbit j at position c_j + r*T, with c_j = w_0 + ... + w_(j-1) and T the
total mod p.  For T != 0 that is one cycle through all 10p vertices, as
p is prime; T = 0 would give p disjoint 10-cycles.  The certificate holds
its field, the walk, the chosen voltages and the full vertex cycle, and
is re-verified from scratch: the header's walk and voltages by the same
closed form over verify's own walk of the S-orbits, then each cycle edge
by that oracle, which needs only the field.  `run_pipeline` chains
quotient, lift and verify.
"""

from __future__ import annotations

from array import array
from itertools import accumulate
from typing import NamedTuple

from .action import point_texts, s_orbits
from .errors import InvariantViolation
from .gf import Field, admissible, factor_prime_power
from .orbital import neighborhood, orbital_of

CERT_FORMAT = "psl2ham-certificate"
CERT_VERSION = 1


class QuotientMultigraph(NamedTuple):
    field: Field
    orbital_index: int
    orbits: tuple[array, ...]  # ten arrays of codes
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
    w of orbit 5e goes in bucket[c][e][o] when `orbital_of` puts it in
    Y(o) with code c, the base (inf, 0) or (0, 0).  Orbit 5e + j is orbit
    5e with every fiber raised by j, which raises the orbital of each pair
    by j, so voltages[a][b] = bucket[a // 5][b // 5][(i - a - b) % 5]:
    100 cells, 20 sorted tuples.  Rows 0 and 5 hold all 20, and
    `neighborhood` at positions 0 and 1 of orbits 0 and 5 cross-derives
    them, at 1 an exact S-invariance check.
    """
    if not 0 <= i <= 4:
        raise ValueError(f"orbital index {i} out of range 0..4")
    k, p = field.order, (field.order + 1) // 2
    orbits = s_orbits(field)
    bucket = [[[[] for _ in range(5)] for _ in range(2)] for _ in range(2)]
    for e in (0, 1):
        for w, v in enumerate(orbits[5 * e]):  # in order, so each is sorted
            for base in (0, 1):
                o = orbital_of(field, base, v)
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
        for c, v in enumerate(orbits[a][:2]):  # v ~ orbits[b][w + c], w in row a
            nb = neighborhood(field, i, v)
            if len(nb) != k or v in nb:  # formats the point only to raise
                at = point_texts(field)[v]
                raise InvariantViolation(
                    f"vertex {at} has {len(nb)} neighbors, expected {k}"
                    if len(nb) != k else f"loop at vertex {at}", stage="orbital")
            if nb != {orbits[b][(w + c) % p]
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
    10r + j is orbit cycle[j] at position c_j + r*T (mod p), where c_j is
    the sum of the first j voltages and T the sum of all ten.  With
    T != 0 and p prime, T generates Z_p, so this is one 10p-cycle.
    """
    p = len(orbits[0])
    *starts, total = accumulate(voltages, initial=0)
    return array("l", (orbits[a][(c + r * total) % p]
                       for r in range(p) for a, c in zip(cycle, starts)))


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

def verify_certificate(cert: HamiltonCertificate) -> str | None:
    """Re-check a certificate from scratch: the text of the first failure,
    or None when the certificate holds.

    Checks what the header names (an admissible k) and its arithmetic,
    then its claim that the vertices are the `lift` of its cycle and
    voltages over the S-orbits, last every cycle edge by the O(1) rule
    `orbital_of`.  That lift is every point once: `s_orbits` checks that
    its ten orbits partition the 10p points, the cycle permutes 0..9 and
    T != 0 generates Z_p, p prime.  Never reads a group, graph or quotient.
    """
    field, p = cert.field, cert.p
    if not admissible(field.order):
        return f"k = {field.order} is not an admissible instance"
    if not 0 <= cert.orbital_index <= 4:
        return f"orbital index {cert.orbital_index} out of range"
    verts, n = cert.vertices, 10 * p
    if len(verts) != n:  # zip below would accept a prefix
        return f"cycle has {len(verts)} vertices, expected {n}"
    if cert.total_voltage % p == 0:
        return "total voltage vanishes mod p"
    if sorted(cert.cycle) != list(range(10)):
        return "cycle does not visit each of the ten orbits exactly once"
    volts = cert.chosen_voltages
    if len(volts) != 10 or not all(0 <= w < p for w in volts):
        return "voltages are not ten residues mod p"
    if cert.total_voltage != sum(volts) % p:
        return f"total {cert.total_voltage} is not the voltage sum mod p"

    # the lift is every point once: the orbits partition, T generates Z_p
    claimed = lift(s_orbits(field), cert.cycle, volts)
    for idx, (v, w) in enumerate(zip(verts, claimed)):
        if v != w:
            texts = point_texts(field)
            at = texts[v] if 0 <= v < n else f"code {v}"
            return (f"vertex {idx} is {at}, but the header's "
                    f"cycle and voltages put {texts[w]} there")

    i = cert.orbital_index
    for idx in range(n):
        v, w = verts[idx], verts[(idx + 1) % n]
        if orbital_of(field, v, w) != i:
            where = "closing edge" if idx == n - 1 else f"step {idx}->{idx + 1}"
            texts = point_texts(field)
            return (f"{where}: {texts[v]} and {texts[w]} "
                    f"are not adjacent in orbital graph {i}")
    return None


def run_pipeline(field: Field, i: int) -> HamiltonCertificate:
    """quotient -> lift -> verify."""
    cert = lift_cycle(build_quotient(field, i))
    failure = verify_certificate(cert)
    if failure:
        raise InvariantViolation(
            f"emitted certificate failed verification: {failure}",
            stage="verify")
    return cert


# --- serialization ---

def certificate_to_text(cert: HamiltonCertificate) -> str:
    field = cert.field
    lines = [
        f"{CERT_FORMAT} {CERT_VERSION}",
        f"s {field.s}",
        f"m {field.m}",
        f"k {field.order}",
        f"p {cert.p}",
        f"orbital {cert.orbital_index}",
        "cycle " + " ".join(str(a) for a in cert.cycle),
        "voltages " + " ".join(str(w) for w in cert.chosen_voltages),
        f"total {cert.total_voltage}",
        f"vertices {len(cert.vertices)}",
    ]
    lines += map(point_texts(field).__getitem__, cert.vertices)
    return "\n".join(lines) + "\n"


def _residue(text: str, p: int) -> int:
    """x + 1 for the text str() writes of a residue x < p: as fast as a dict
    of the p texts, without its 136 MB at p = 990361."""
    x = int(text) if text.isdecimal() and len(text) < 20 else -1
    if 0 <= x < p and str(x) == text:
        return x + 1
    raise KeyError(text)


def _number(text: str, line: int) -> int:
    """The int that str() writes as `text`; int() also reads "+1" and "01"."""
    try:
        if str(x := int(text)) == text:
            return x
    except ValueError:
        pass
    raise ValueError(f"line {line}: {text!r} is not a number as str() writes it")


def parse_certificate(text: str) -> HamiltonCertificate:
    lines = [ln.strip() for ln in text.strip().splitlines()]
    if not lines:
        raise ValueError("empty certificate")
    head = lines[0].split(" ")
    if len(head) != 2 or head[0] != CERT_FORMAT:
        raise ValueError("not a certificate file")
    if _number(head[1], 1) != CERT_VERSION:
        raise ValueError(f"unsupported certificate version {head[1]}")

    if len(lines) < 10:
        raise ValueError(f"certificate header has {len(lines)} lines, expected 10")
    fields = {}  # the one number of each line, a tuple for cycle and voltages
    for pos, key in enumerate(
            ["s", "m", "k", "p", "orbital", "cycle", "voltages", "total",
             "vertices"], start=1):
        name, _, val = lines[pos].partition(" ")
        if name != key:
            raise ValueError(f"expected {key!r} on line {pos + 1}, got {name!r}")
        fields[key] = (tuple(_number(x, pos + 1) for x in val.split(" "))
                       if key in ("cycle", "voltages") else _number(val, pos + 1))
    if not 0 <= fields["orbital"] <= 4:
        raise ValueError(f"line 6: orbital {fields['orbital']} is not in 0..4")

    s, m, k, p = (fields[x] for x in ("s", "m", "k", "p"))
    body = lines[10:]
    # GF(k) has 5(k+1) points, so this bounds every table by the input size
    if k > len(body):
        raise ValueError(f"header k = {k} does not fit {len(body)} vertex lines")
    if factor_prime_power(k) != (s, m):
        raise ValueError(f"s = {s}, m = {m} do not factor k = {k}")
    if p != (k + 1) // 2 or not admissible(k):
        raise ValueError(f"k = {k}, p = {p} is not an admissible instance")
    field = Field(s, m)
    n = fields["vertices"]
    if len(body) != n:
        raise ValueError(f"expected {n} vertex lines, found {len(body)}")
    # canonical text only: one lookup of f, and of beta among "inf" and the
    # k element texts (m > 1) or by `_residue` (m = 1)
    betas = dict(zip(["inf", *field.element_texts()] if m > 1 else ["inf"],
                     range(k + 1)))
    fibers = {str(f): f * (k + 1) for f in range(5)}
    verts = array("l")
    for idx, ln in enumerate(body):
        beta, _, f = ln.rpartition(":")
        try:
            r = betas[beta] if m > 1 or beta == "inf" else _residue(beta, k)
            verts.append(r + fibers[f])
        except KeyError:
            raise ValueError(f"vertex {idx}: {ln!r} is not a point "
                             f"beta:fiber of {field!r}") from None
    return HamiltonCertificate(field, fields["orbital"], fields["cycle"],
                               fields["voltages"], fields["total"], verts)
