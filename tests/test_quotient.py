"""Quotient multigraph, voltage lifting, certificates and verification."""

import random
import tracemalloc
from array import array

import pytest

from hypothesis import assume, given, settings, strategies as st

from psl2ham import (Field, build_graph, build_quotient, certificate_chunks,
                     lift, lift_cycle, list_instances, neighborhood,
                     orbitals, run_pipeline, s_orbits, verify_text)
from psl2ham.cli import run
from psl2ham.errors import InvariantViolation
from psl2ham.quotient import _broken_edge
import reference
from reference import base_voltages, point_str, unroll_lift
from util import (code, orbital_of, point, point_texts, ten_orbits,
                  text_verdict, vertex_index, voltage_tuples)


def test_underlying_quotient_is_complete_k10(cache):
    for i in range(5):
        q = cache.quotient(61, i)
        for a in range(10):
            for b in range(10):
                if a != b:
                    assert q.mult[a][b] >= 2


def test_row_sums_equal_degree(cache):
    q = cache.quotient(61, 0)
    for a in range(10):
        assert sum(q.mult[a]) == 61


def test_multiplicities_symmetric_voltages_negated(cache):
    q = cache.quotient(61, 2)
    p = q.p
    for a in range(10):
        for b in range(10):
            assert q.mult[a][b] == q.mult[b][a]
            assert set(q.voltages[b][a]) == {(-w) % p for w in q.voltages[a][b]}


def test_voltages_realize_adjacency(cache, field61):
    # w in voltages[a][b] iff base(a) ~ sigma^w(base(b))
    q = cache.quotient(61, 0)
    orbits = ten_orbits(s_orbits(field61))
    nb = neighborhood(field61, 0, orbits[3][0])
    for b in range(10):
        hits = {w for w in range(q.p) if orbits[b][w] in nb}
        assert hits == set(q.voltages[3][b])


def collapse(graph, orbits):
    """Reference quotient read off the full graph: the voltage sets from
    every vertex of each orbit, which S-invariance makes all equal."""
    p = len(orbits[0])
    pos = {pt: (a, w) for a, orb in enumerate(orbits) for w, pt in enumerate(orb)}
    field = graph.field
    index = vertex_index(field)
    volts = [[None] * 10 for _ in range(10)]
    for a, orb in enumerate(orbits):
        rows = set()
        for c, pt in enumerate(orb):
            row = [set() for _ in range(10)]
            for v in graph.neighbors[index[point(field, pt)]]:
                b, w = pos[graph.vertices[v]]
                row[b].add((w - c) % p)
            rows.add(tuple(tuple(sorted(vs)) for vs in row))
        assert len(rows) == 1, f"orbit {a}: voltages depend on the offset"
        volts[a] = rows.pop()
    return tuple(volts)


@pytest.mark.parametrize("k", [61, 81, 121])
def test_quotient_equals_collapse_of_full_graph(k, cache, fields):
    for i in range(5):
        q = cache.quotient(k, i)
        volts = collapse(cache.graph(k, i), ten_orbits(s_orbits(fields[k])))
        assert voltage_tuples(q.voltages) == volts
        assert q.mult == tuple(tuple(len(vs) for vs in row) for row in volts)
        assert q.orbital_index == i


@pytest.mark.parametrize("s,m", list_instances(2500))
def test_quotient_equals_the_reading_of_the_ten_bases(s, m):
    # the label rule along two walks against the matrix form at ten bases:
    # 14 fields, m = 1, 2 and 4, k = 61 to 2401
    field = Field(s, m)
    orbits = ten_orbits(s_orbits(field))
    for i in range(5):
        assert voltage_tuples(build_quotient(field, i).voltages) == \
            base_voltages(field, i, orbits)


def test_build_quotient_reads_four_neighborhoods(field61, monkeypatch):
    # positions 0 and 1 of orbits 0 and 5 cross-derive the 20 distinct
    # voltage tuples that the 100 cells share
    calls = []

    def counted(field, i, v):
        calls.append(v)
        return neighborhood(field, i, v)

    monkeypatch.setattr("psl2ham.quotient.neighborhood", counted)
    orbits = ten_orbits(s_orbits(field61))
    for i in range(5):
        calls.clear()
        q = build_quotient(field61, i)
        assert calls == [orbits[a][c] for a in (0, 5) for c in (0, 1)]
        assert len({id(vs) for row in q.voltages for vs in row}) == 20


def expected_single_edge_pairs(i):
    """The crossing pairs that degenerate to a single edge over GF(81).

    Over GF(81) the tenth powers are exactly the GF(9) subfield's nonzero
    elements, and every one of those is a square in GF(81).  For crossing
    pairs (n, 5+j) with j - i + n = 0 (mod 5) the deciding equation
    theta*b^2 + c*y^10 = -1 then admits only b = 0 solutions, which
    collapse to a single group element: d = 1 instead of the generic >= 2.
    """
    pairs = set()
    for n in range(5):
        j = (i - n) % 5
        pairs.add((n, 5 + j))
        pairs.add((5 + j, n))
    return pairs


def test_quotient_structure_all_instances(cache):
    # underlying simple quotient is complete for every instance; the
    # double-edge property holds everywhere except the k=81 degeneracy
    for k in (61, 81, 121):
        for i in range(5):
            q = cache.quotient(k, i)
            assert q.p == (k + 1) // 2
            singles = set()
            for a in range(10):
                assert sum(q.mult[a]) == k
                for b in range(10):
                    if a == b:
                        continue
                    assert q.mult[a][b] >= 1
                    if q.mult[a][b] == 1:
                        singles.add((a, b))
            if k == 81:
                assert singles == expected_single_edge_pairs(i)
            else:
                assert singles == set()


def test_k81_multiplicities_from_h_membership(cache, groups):
    # d(A,B) = #{s in S : Hr_A ~ Hr_B*s in Y(0)}, counted straight from the
    # orbital's definition: Hx ~ Hy iff g*y^-1 in H for some g in l*H*x,
    # where l = [[0,-1],[1,0]] represents long suborbit 0.  Orbit a starts
    # at H*t^a and orbit 5+a at H*t^a*l, so neither point_of nor
    # neighborhood is used.
    G = groups[81]
    l, t, _ = G.generators()
    H = set(G.H)

    def rep(a):
        return G.power(t, a) if a < 5 else G.mul(G.power(t, a - 5), l)

    def d(a, b):
        starts = [G.mul(G.mul(l, h), rep(a)) for h in G.H]
        r_b = rep(b)
        return sum(
            any(G.mul(g, y_inv) in H for g in starts)
            for y_inv in (G.inv(G.mul(r_b, s)) for s in G.S))

    q = cache.quotient(81, 0)
    pairs = [(0, 5), (1, 9), (0, 6), (0, 1)]
    assert [d(a, b) for a, b in pairs] == [q.mult[a][b] for a, b in pairs]
    assert [q.mult[a][b] for a, b in pairs] == [1, 1, 10, 8]


def _tampered(walks, touched, new):
    """neighborhood() with one edit: at each vertex orbits[a][w] of the
    ten orbits of `walks` with touched(a, w), its first neighbor in orbit 1
    gives way to a non-neighbor in orbit `new`, to the vertex itself
    ("self"), or to nothing (None)."""
    orbits = ten_orbits(walks)
    pos = {pt: (a, w) for a, orb in enumerate(orbits) for w, pt in enumerate(orb)}

    def fake(field, i, v):
        nb = neighborhood(field, i, v)
        if touched(*pos[v]):
            old = next(u for u in orbits[1] if u in nb)
            if new == "self":
                nb.add(v)
            elif new is not None:
                nb.add(next(u for u in orbits[new] if u not in nb and u != v))
            nb.remove(old)
        return nb
    return fake


def _walked(walks, edit):
    """s_orbits() returning copies of the two `walks` that edit(orbs)
    changed."""
    orbs = [array("l", orb) for orb in walks]
    edit(orbs)
    return lambda field: tuple(orbs)


def _off_fiber(orbs):
    """Positions 1 and 30 = -1 of walk 0 moved to the next fiber (of 62
    codes each): orbit 0's own voltages stay closed under negation, but its
    row of the multiplicity matrix is no longer its column."""
    for w in (1, 30):
        orbs[0][w] = (orbs[0][w] + 62) % 310


def _swapped(orbs):
    """Positions 1 and 2 of walk 5, and so of orbits 5-9, exchanged."""
    orbs[1][1], orbs[1][2] = orbs[1][2], orbs[1][1]


def _rebased(orbs):
    """Position 1 of walk 5, the point 38:2, moved to 39:2: its fiber
    stays, so only the voltages among the zero family change."""
    orbs[1][1] += 1


def _misread(orbits, base, a, w, o):
    """orbitals() reading o for code `base` and the point at position w
    of orbit a, and the true orbital for every other pair."""
    def fake(field, vs, ws):
        pairs = list(zip(vs, ws))
        for pair, real in zip(pairs, orbitals(field, *zip(*pairs))):
            yield o if pair == (base, orbits[a][w]) else real
    return fake


FAKES = {"neighborhood": _tampered, "s_orbits": _walked, "orbitals": _misread}

# one case per check of build_quotient, each caught at k=61, orbital 0: a
# tampered matrix form fails the cross-derivation, a tampered walk the
# pair checks of the voltages read off it, and so does a misread oracle.
# Orbit 0's base read as adjacent to itself in Y(1) puts position 0 in the
# cell (0, 4): it is its own negation, so only the cross-derivation sees it
BROKEN_QUOTIENTS = [
    pytest.param("neighborhood", (lambda a, w: True, None),
                 "vertex inf:0 has 60 neighbors, expected 61$", "orbital",
                 id="dropped"),
    pytest.param("neighborhood", (lambda a, w: True, "self"),
                 "loop at vertex inf:0$", "orbital", id="loop"),
    pytest.param("neighborhood", (lambda a, w: (a, w) == (0, 0), 1),
                 "the neighbors of orbit 0's base differ from its voltages$",
                 "quotient", id="base-differs"),
    pytest.param("neighborhood", (lambda a, w: w != 0, 2),
                 "neighbors differ across orbit 0: S-invariance broken$",
                 "quotient", id="off-base"),
    pytest.param("neighborhood", (lambda a, w: (a, w) == (0, 1), 1),
                 "neighbors differ across orbit 0: S-invariance broken$",
                 "quotient", id="same-counts"),
    pytest.param("orbitals", (0, 0, 0, 1),
                 "the neighbors of orbit 0's base differ from its voltages$",
                 "quotient", id="misread"),
    pytest.param("s_orbits", (_off_fiber,),
                 r"multiplicity matrix asymmetric at \(0,7\)$", "quotient",
                 id="asymmetric"),
    pytest.param("s_orbits", (_swapped,),
                 r"voltage sets at \(0,7\) are not negations$", "quotient",
                 id="not-negated"),
    pytest.param("s_orbits", (_rebased,),
                 r"voltage sets at \(5,5\) are not negations$", "quotient",
                 id="not-negated-in-row-5"),
]


@pytest.mark.parametrize("name,args,message,stage", BROKEN_QUOTIENTS)
def test_build_quotient_checks_fire(name, args, message, stage, field61,
                                    monkeypatch):
    monkeypatch.setattr(f"psl2ham.quotient.{name}",
                        FAKES[name](s_orbits(field61), *args))
    with pytest.raises(InvariantViolation, match=message) as exc:
        build_quotient(field61, 0)
    assert exc.value.stage == stage


def test_build_quotient_formats_points_only_to_raise(field61, monkeypatch):
    # the 4 neighborhoods are checked on codes; text is for the messages.
    # So are the checks of s_orbits, build_graph, the pipeline and verify:
    # each message that names a point spells it as it fails
    cert = lift_cycle(build_quotient(field61, 0))
    text = "".join(certificate_chunks(cert))

    def refuse(*args):
        raise AssertionError("point text formatted on the passing path")

    for module in ("quotient", "orbital", "action"):
        monkeypatch.setattr(f"psl2ham.{module}.point_text", refuse)
    assert sum(build_quotient(field61, 0).mult[0]) == 61
    assert len(s_orbits(field61)) == 2
    assert len(build_graph(field61, 2)) == 61  # S = 1 base row at m = 1
    assert run_pipeline(field61, 0) == cert
    assert verify_text(text)[1] is None


def test_verify_names_points_by_their_text():
    # at k = 81 a point's text holds its four coordinates: the lift of
    # voltages all 1 matches its header, but breaks step 0->1 first
    field = Field(3, 4)
    cert = lift_cycle(build_quotient(field, 0))
    volts = (1,) * 10
    forged = cert._replace(chosen_voltages=volts, total_voltage=10,
                           vertices=lift(s_orbits(field), range(10), volts))
    assert text_verdict(forged) == (
        "step 0->1: inf:0 and [1,2,0,1]:1 are not adjacent in orbital "
        "graph 0")


def test_cli_names_the_stage_of_a_broken_quotient(field61, monkeypatch, capsys):
    monkeypatch.setattr("psl2ham.quotient.neighborhood",
                        _tampered(s_orbits(field61), lambda a, w: w != 0, 2))
    assert run(["hamilton", "--k", "61"]) == 3
    assert capsys.readouterr().err == (
        "invariant violation [stage: quotient]: neighbors differ across "
        "orbit 0: S-invariance broken\n")


@pytest.mark.parametrize("forge,ending", [
    # voltages all 1 lift to a cycle that the claims fit but Y(0) breaks
    (lambda q, cert: cert._replace(
        chosen_voltages=(1,) * 10, total_voltage=10,
        vertices=lift(q.orbits, range(10), (1,) * 10)),
     "step 1->2: 57:0 and 17:2 are not adjacent in orbital graph 0"),
    (lambda q, cert: cert._replace(total_voltage=0),
     "total voltage vanishes mod p"),
], ids=["edge", "zero-total"])
def test_cli_names_a_forged_pipeline_record(forge, ending, monkeypatch, capsys):
    # hamilton checks the claims and edges of the record it emits
    real = lift_cycle
    monkeypatch.setattr("psl2ham.quotient.lift_cycle",
                        lambda q: forge(q, real(q)))
    assert run(["hamilton", "--k", "61"]) == 3
    assert capsys.readouterr().err == (
        "invariant violation [stage: verify]: emitted certificate failed "
        f"verification: {ending}\n")


def test_pipeline_walks_the_s_orbits_once(field61, monkeypatch):
    # the lift is the cycle by construction: the pipeline checks its claims
    # and edges, and walks no second set of orbits to compare it with
    calls = []

    def counted(field):
        calls.append(field)
        return s_orbits(field)

    monkeypatch.setattr("psl2ham.quotient.s_orbits", counted)
    run_pipeline(field61, 0)
    assert calls == [field61]


def test_invariant_violation_requires_a_stage():
    with pytest.raises(TypeError):
        InvariantViolation("x")


def test_lift_produces_valid_certificate(cache):
    q = cache.quotient(61, 0)
    cert = lift_cycle(q)
    assert len(cert.vertices) == 310
    assert len(set(cert.vertices)) == 310
    assert cert.total_voltage % 31 != 0
    assert sum(cert.chosen_voltages) % 31 == cert.total_voltage
    for e in range(10):
        assert cert.chosen_voltages[e] in q.voltages[cert.cycle[e]][cert.cycle[(e + 1) % 10]]


def test_lift_rejects_quotient_missing_a_cycle_edge(cache):
    # the quotient cycle is 0..9; an edge of it with no voltage is corrupt data
    q = cache.quotient(61, 0)
    volts = [list(row) for row in q.voltages]
    volts[3][4] = ()
    crippled = q._replace(voltages=tuple(tuple(row) for row in volts))
    with pytest.raises(InvariantViolation, match="orbits 3 and 4") as exc:
        lift_cycle(crippled)
    assert exc.value.stage == "quotient"


def test_lift_dichotomy_random_assignments(cache):
    for k in (61, 81, 121):
        q = cache.quotient(k, 0)
        p = q.p
        rng = random.Random(k)
        edge_sets = [q.voltages[e][(e + 1) % 10] for e in range(10)]
        zero_seen = nonzero_seen = 0
        for _ in range(120):
            choices = [rng.choice(vs) for vs in edge_sets]
            total = sum(choices) % p
            comps = unroll_lift(q, choices)
            if total:
                nonzero_seen += 1
                assert len(comps) == 1 and len(comps[0]) == 10 * p
            else:
                zero_seen += 1
                assert len(comps) == p and all(len(c) == 10 for c in comps)
        assert nonzero_seen > 0


def test_lift_dichotomy_zero_total(cache):
    # hunt for an assignment from the true voltage sets with vanishing total
    for k in (61, 81, 121):
        q = cache.quotient(k, 0)
        p = q.p
        rng = random.Random(k + 1)
        edge_sets = [q.voltages[e][(e + 1) % 10] for e in range(10)]
        found = None
        for _ in range(5000):
            choices = [rng.choice(vs) for vs in edge_sets[:-1]]
            need = (-sum(choices)) % p
            if need in edge_sets[-1]:
                found = choices + [need]
                break
        assert found is not None, f"no zero-sum assignment found at k={k}"
        comps = unroll_lift(q, found)
        assert len(comps) == p
        assert all(len(c) == 10 for c in comps)
        cover = {v for c in comps for v in c}
        assert len(cover) == 10 * p


def test_lift_equals_the_walk(cache):
    # the closed form against the explicit walk of tests/reference.py, on
    # random nonzero-total choices from the true voltage sets
    for k in (61, 81, 121):
        for i in range(5):
            q = cache.quotient(k, i)
            rng = random.Random(100 * k + i)
            edge_sets = [q.voltages[e][(e + 1) % 10] for e in range(10)]
            tried = 0
            while tried < 8:
                choices = [rng.choice(vs) for vs in edge_sets]
                if sum(choices) % q.p:
                    tried += 1
                    [walk] = unroll_lift(q, choices)
                    assert lift(q.orbits, range(10), choices) == walk


@pytest.mark.parametrize("k", [61, 81, 121])
def test_lift_in_any_orbit_order_reads_the_walked_orbits(k, fields):
    # orbit a of the cycle is walk a // 5 raised a % 5 fibers: over random
    # orders of 0..9 and random voltages, the last draw with total 0 mod p,
    # against the ten walks of plain products of tests/reference.py
    field, p = fields[k], (k + 1) // 2
    walks, walked = s_orbits(field), reference.walked_orbits(field)
    rng = random.Random(k + 9)
    for draw in range(11):
        cycle = rng.sample(range(10), 10)
        volts = [rng.randrange(p) for _ in range(10)]
        if draw == 10:
            volts[9] = -sum(volts[:9]) % p
        starts = [sum(volts[:j]) for j in range(10)]
        total = sum(volts)
        assert list(lift(walks, cycle, volts)) == [
            walked[a][(c + r * total) % p]
            for r in range(p) for a, c in zip(cycle, starts)]


def test_lift_cycle_switches_away_from_zero_total(cache):
    # at k=121, orbital 3, the smallest voltages of the cycle 0..9 sum to
    # 0 mod p, so the lift needs the switch: the first edge with two
    # voltages, which moves to its second one
    q = cache.quotient(121, 3)
    edge_sets = [q.voltages[e][(e + 1) % 10] for e in range(10)]
    assert sum(vs[0] for vs in edge_sets) % q.p == 0
    cert = lift_cycle(q)
    assert cert.cycle == tuple(range(10))
    moved = [e for e in range(10) if cert.chosen_voltages[e] != edge_sets[e][0]]
    first = next(e for e, vs in enumerate(edge_sets) if len(vs) > 1)
    assert moved == [first]
    assert cert.chosen_voltages[first] == edge_sets[first][1]
    assert cert.total_voltage % q.p != 0
    assert len(set(cert.vertices)) == 610


def test_verify_accepts_emitted(cache):
    cert = lift_cycle(cache.quotient(61, 4))
    assert text_verdict(cert) is None


@pytest.mark.parametrize("k", [61, 81, 121])
def test_verify_accepts_every_certificate_written_backwards(k, cache):
    # the quotient cycle 9..0 with voltages (-w8, ..., -w0, -w9) and total
    # -T lifts to the emitted vertex cycle reversed, from orbit 9's base
    # 0:4 on: a valid certificate whose lift reads all ten orbits in an
    # order other than 0..9
    for i in range(5):
        cert = lift_cycle(cache.quotient(k, i))
        p, w = cert.p, cert.chosen_voltages
        verts = cert.vertices[::-1]
        at = verts.index(4 * (k + 1) + 1)
        back = cert._replace(
            cycle=tuple(range(9, -1, -1)),
            chosen_voltages=tuple(-x % p for x in (*w[8::-1], w[9])),
            total_voltage=-cert.total_voltage % p,
            vertices=verts[at:] + verts[:at])
        assert text_verdict(back) is None


def test_lift_survives_k81_degeneracy(cache):
    # at i=4 both family-crossing edges of the standard cycle carry a
    # single voltage, so the nonzero-total switch must use another edge
    for i in range(5):
        cert = lift_cycle(cache.quotient(81, i))
        assert cert.total_voltage % 41 != 0
        assert len(set(cert.vertices)) == 410
        assert text_verdict(cert) is None


def test_verify_rejects_swapped_vertices(cache):
    cert = lift_cycle(cache.quotient(61, 0))
    vs = list(cert.vertices)
    vs[10], vs[200] = vs[200], vs[10]
    bad = cert._replace(vertices=tuple(vs))
    field = cert.field
    assert text_verdict(bad) == (
        f"vertex 10 is {point_str(field, vs[10])}, but the header's cycle "
        f"and voltages put {point_str(field, vs[200])} there")


def test_verify_rejects_duplicate_vertex(cache):
    cert = lift_cycle(cache.quotient(61, 0))
    vs = list(cert.vertices)
    vs[5] = vs[17]
    field = cert.field
    assert text_verdict(cert._replace(vertices=tuple(vs))) == (
        f"vertex 5 is {point_str(field, vs[17])}, but the header's cycle "
        f"and voltages put {point_str(field, cert.vertices[5])} there")


def test_verify_rejects_zero_total_voltage(cache):
    cert = lift_cycle(cache.quotient(61, 0))
    failure = text_verdict(cert._replace(total_voltage=0))
    assert failure is not None and "total voltage" in failure


def test_verify_rejects_false_header_claims(cache):
    # cycle, voltages and total are claims of the header: each must be
    # well formed and consistent with the others
    cert = lift_cycle(cache.quotient(61, 0))
    volts = cert.chosen_voltages
    forged = {
        "reversed cycle, all-one voltages": dict(
            cycle=tuple(range(9, -1, -1)), chosen_voltages=(1,) * 10,
            total_voltage=1),
        "short cycle, one voltage": dict(
            cycle=(0,) * 9, chosen_voltages=(5,), total_voltage=3),
        "repeated orbit": dict(cycle=(0, 1, 2, 3, 4, 5, 6, 7, 8, 8)),
        "nine voltages": dict(chosen_voltages=volts[:9],
                              total_voltage=sum(volts[:9]) % 31),
        "voltage p": dict(chosen_voltages=(31,) + volts[1:],
                          total_voltage=(31 + sum(volts[1:])) % 31),
        "negative voltage": dict(chosen_voltages=(volts[0] - 31,) + volts[1:]),
        "total off the sum": dict(total_voltage=cert.total_voltage % 31 + 1),
        "total not reduced": dict(total_voltage=cert.total_voltage + 31),
    }
    failures = {}
    for name, claims in forged.items():
        failure = text_verdict(cert._replace(**claims))
        assert failure is not None, name
        failures[name] = failure
    assert failures["repeated orbit"] == failures["short cycle, one voltage"] == (
        "cycle does not visit each of the ten orbits exactly once")
    for name in ("nine voltages", "voltage p", "negative voltage"):
        assert failures[name] == "voltages are not ten residues mod p"
    assert failures["reversed cycle, all-one voltages"] == (
        "total 1 is not the voltage sum mod p")
    for name in ("total off the sum", "total not reduced"):
        assert failures[name].endswith("is not the voltage sum mod p")


def test_verify_rejects_out_of_range_codes(cache):
    # text carries no code: a beta past the field, a fiber past 4 or below
    # 0, a beta of -1 (code -1 would alias the last code 309, 60:4) and
    # inf off its fibers are no point, where the line of 309 stands
    cert = lift_cycle(cache.quotient(61, 0))
    idx = list(cert.vertices).index(309)
    assert idx == 49
    lines = "".join(certificate_chunks(cert)).splitlines(keepends=True)
    assert lines[10 + idx] == "60:4\n"
    for bad in ("61:0", "0:5", "-1:0", "inf:5", "60:-1"):
        text = "".join(lines[:10 + idx] + [bad + "\n"] + lines[11 + idx:])
        with pytest.raises(ValueError) as exc:
            verify_text(text)
        assert str(exc.value) == (
            f"vertex 49: {bad!r} is not a point beta:fiber of GF(61)")


def test_verify_holds_the_record_to_an_admissible_field(cache):
    # GF(41) has p = 21, not prime, so no record of it can be built: the
    # S-orbits, and with them the quotient and the pipeline, refuse the
    # field before any walk.  A text's header naming it is no instance.
    field = Field(41, 1)
    for build in (build_quotient, run_pipeline):
        with pytest.raises(ValueError) as exc:
            build(field, 1)
        assert str(exc.value).endswith("k = 41 is not an admissible instance")
    text = "".join(certificate_chunks(lift_cycle(cache.quotient(61, 1))))
    head = "psl2ham-certificate 1\ns 61\nm 1\nk 61\np 31\n"
    assert text.startswith(head)
    with pytest.raises(ValueError) as exc:
        verify_text(text.replace(
            head, "psl2ham-certificate 1\ns 41\nm 1\nk 41\np 21\n", 1))
    assert str(exc.value) == "k = 41, p = 21 is not an admissible instance"


def test_verify_checks_zero_total_before_other_claims(cache):
    cert = lift_cycle(cache.quotient(61, 0))
    bad = cert._replace(cycle=(0,) * 9, total_voltage=0)
    assert text_verdict(bad) == "total voltage vanishes mod p"


def test_verify_closing_edge(cache):
    cert = lift_cycle(cache.quotient(61, 0))
    vs = list(cert.vertices)
    # rotating by one vertex keeps every adjacency, the closing edge
    # included, but vertex 0 must be the start (inf, 0) of orbit cycle[0]:
    # the claim check, which runs before the edges, rejects it
    rotated = cert._replace(vertices=tuple(vs[1:] + vs[:1]))
    field = cert.field
    assert point_str(field, vs[0]) == "inf:0"
    assert text_verdict(rotated) == (
        f"vertex 0 is {point_str(field, vs[1])}, but the header's cycle and "
        "voltages put inf:0 there")


def test_edge_check_reads_the_closing_step(cache):
    # a lift's closing step is its steps 10r + 9 -> 10r + 10 moved by S, so
    # only a cycle that is no lift can break it alone: the emitted cycle
    # with its last vertex dropped, whose new closing step leaves Y(0)
    cert = lift_cycle(cache.quotient(61, 0))
    vs, n = cert.vertices[:-1], len(cert.vertices) - 1
    assert orbital_of(cert.field, vs[-1], vs[0]) != 0
    assert _broken_edge(cert._replace(vertices=vs)) == (
        f"step {n - 1}->{n}: {point_str(cert.field, vs[-1])} and inf:0 are "
        "not adjacent in orbital graph 0")


@pytest.fixture(scope="module")
def cert61(cache):
    return lift_cycle(cache.quotient(61, 0))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_verify_holds_the_header_claims_to_the_vertices(cert61, data):
    # the vertices fix the claims: vertex j gives cycle[j] and c_j, and
    # vertex 10 gives T, so only the emitted claims verify
    p, emitted = cert61.p, cert61.chosen_voltages
    cycle = data.draw(st.one_of(st.just(cert61.cycle),
                                st.permutations(range(10)).map(tuple)))
    volts = tuple(data.draw(st.one_of(st.just(w), st.integers(0, p - 1)))
                  for w in emitted)
    assume(sum(volts) % p)
    forged = cert61._replace(cycle=cycle, chosen_voltages=volts,
                             total_voltage=sum(volts) % p)
    failure = text_verdict(forged)
    assert (failure is None) == ((cycle, volts) == (cert61.cycle, emitted))
    assert failure is None or failure.startswith("vertex ")


def test_certificate_text_round_trip(cache):
    # verify_text gives back the record, with the lift of its header
    cert = lift_cycle(cache.quotient(61, 1))
    text = "".join(certificate_chunks(cert))
    cert2, failure = verify_text(text)
    assert failure is None
    assert (cert2.field.s, cert2.field.m, cert2.p) == (61, 1, 31)
    assert cert2._replace(field=cert.field) == cert
    assert "".join(certificate_chunks(cert2)) == text


def test_certificate_round_trip_extension_field(cache):
    cert = lift_cycle(cache.quotient(81, 0))
    text = "".join(certificate_chunks(cert))
    cert2, failure = verify_text(text)
    assert failure is None
    assert (cert2.field.s, cert2.field.m, cert2.p) == (3, 4, 41)
    assert cert2._replace(field=cert.field) == cert
    assert text_verdict(cert2) is None


def test_parse_rejects_malformed():
    with pytest.raises(ValueError):
        verify_text("")
    with pytest.raises(ValueError):
        verify_text("something-else 1\ns 61\n")


@pytest.mark.parametrize("s,m", [(61, 1), (3, 4)])
def test_certificate_writes_each_point_as_point_texts(s, m, cache):
    # the writer's line of every code is its point_text: one spelling
    field = Field(s, m)
    n = 5 * (field.order + 1)
    cert = lift_cycle(cache.quotient(field.order, 0))
    lines = "".join(certificate_chunks(cert._replace(
        vertices=array("l", range(n))))).splitlines(keepends=True)
    assert lines[10:] == [text + "\n" for text in point_texts(field)]


def test_corrupt_quotient_raises(cache):
    q = cache.quotient(61, 0)
    # single-voltage edges everywhere with zero sum cannot be fixed
    crippled = q._replace(
        voltages=tuple(tuple((0,) if a != b else () for b in range(10))
                       for a in range(10)))
    with pytest.raises(InvariantViolation, match="no voltage selection"):
        lift_cycle(crippled)


def test_hamilton_path_memory_is_linear_in_codes():
    # orbits and the lift are flat arrays of codes, and the voltages 20
    # arrays of positions: at k=4621 (23,110 points) the pipeline and the
    # verify of its text peak below 3.5 MB
    field = Field(4621, 1)
    tracemalloc.start()
    try:
        assert text_verdict(run_pipeline(field, 0)) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * 2**20


def test_quotient_record_holds_its_positions_in_arrays():
    # the 20 buckets are filled once as arrays, with no list of p positions
    # beside them and no tuple copies: with the record alive, build_quotient
    # at k = 131^2 = 17161 (p = 8581) holds its two walks and about 4p
    # positions of 8 bytes each, below 0.5 MiB
    field = Field(131, 2)
    tracemalloc.start()
    try:
        q = build_quotient(field, 0)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert sum(map(sum, q.mult)) == 10 * 17161
    assert held < 0.5 * 2**20


def test_verify_failures_peak_no_higher_than_a_valid_verify(monkeypatch):
    # a failure names its points one at a time, and a line that differs is
    # parsed, not sought in a second writer pass: at k = 4621 each failing
    # certificate peaks within 5% of the valid one, and the writer runs once
    field = Field(4621, 1)
    cert = run_pipeline(field, 0)
    w = cert.chosen_voltages
    rotated = w[1:] + w[:1]  # the same total: the claims hold
    forged = cert._replace(chosen_voltages=rotated, vertices=lift(
        s_orbits(field), range(10), rotated))
    valid = "".join(certificate_chunks(cert))
    lines = valid.split("\n")
    moved = "\n".join(lines[:11] + [lines[12]] + lines[12:])
    beta = lines[11].rpartition(":")[0]
    fiber7 = "\n".join(lines[:11] + [f"{beta}:7"] + lines[12:])
    calls = []

    def counted(c):
        calls.append(c)
        return certificate_chunks(c)

    monkeypatch.setattr("psl2ham.quotient.certificate_chunks", counted)
    peaks = {}
    for name, text in [("valid", valid),
                       ("step", "".join(certificate_chunks(forged))),
                       ("misplaced", moved), ("not-a-point", fiber7)]:
        calls.clear()
        tracemalloc.start()
        try:
            try:
                verdict = verify_text(text)[1]
            except ValueError as exc:
                verdict = str(exc)
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(calls) == 1, name
        assert verdict == {
            "valid": None,
            "step": "step 0->1: inf:0 and 269:3 are not adjacent in "
                    "orbital graph 0",
            "misplaced": f"vertex 1 is {lines[12]}, but the header's cycle "
                         f"and voltages put {lines[11]} there",
            "not-a-point": f"vertex 1: '{beta}:7' is not a point beta:fiber "
                           "of GF(4621)"}[name]
    for name in ("step", "misplaced", "not-a-point"):
        assert peaks[name] <= 1.05 * peaks["valid"], (name, peaks)
