"""Suborbits and orbital graphs: sizes, symmetry, regularity, exports."""

import copy
import itertools
import random
import re
import tracemalloc

import pytest

from psl2ham import (Field, InvariantViolation, build_graph,
                     neighborhood, orbitals, rep, s_orbits)
from psl2ham.cli import run
from psl2ham.orbital import export_chunks
import reference
from reference import (edges, point_of, point_str, suborbits,
                       suborbits_by_h_orbits)
from util import (ALPHA, OmegaPoint, code, orbital_of, point, point_texts,
                  points, random_words, ten_orbits, vertex_index)


def test_suborbit_profile(field61):
    subs = suborbits(field61)
    sizes = sorted(len(sb.points) for sb in subs)
    assert sizes == [1] * 5 + [61] * 5
    assert subs[0].points == frozenset({code(field61, ALPHA)})
    covered = set()
    for sb in subs:
        assert not (covered & sb.points)
        covered |= sb.points
    assert len(covered) == 310


def test_suborbits_match_h_orbit_enumeration(field61, group61):
    fast = {sb.points for sb in suborbits(field61)}
    slow = {sb.points for sb in suborbits_by_h_orbits(field61, group61)}
    assert fast == slow


def test_suborbit_profile_81(field81):
    sizes = sorted(len(sb.points) for sb in suborbits(field81))
    assert sizes == [1] * 5 + [81] * 5


def test_neighborhood_size_and_no_loop(field61):
    rng = random.Random(21)
    pts = [code(field61, p) for p in rng.sample(points(field61), 25)]
    for i in range(5):
        for p in pts:
            nb = neighborhood(field61, i, p)
            assert len(nb) == 61
            assert p not in nb


def test_neighborhood_symmetry(field61):
    rng = random.Random(22)
    pts = [code(field61, p) for p in rng.sample(points(field61), 15)]
    for i in range(5):
        for p in pts:
            for q in list(neighborhood(field61, i, p))[:8]:
                assert p in neighborhood(field61, i, q)


def test_base_neighborhood_is_long_suborbit(fields):
    # long suborbit i is the set of finite points of fiber i, which is
    # what makes orbital_of exact
    for field in fields.values():
        subs = suborbits(field)
        for i in range(5):
            base = neighborhood(field, i, code(field, ALPHA))
            assert base == set(subs[5 + i].points)
            assert base == {code(field, p) for p in points(field)
                            if p.beta is not None and p.fiber == i}


def assert_oracle_matches_neighborhoods(field, sources):
    targets = [code(field, w) for w in points(field)]
    for v in (code(field, p) for p in sources):
        nbs = [neighborhood(field, i, v) for i in range(5)]
        for w in targets:
            hits = [i for i in range(5) if w in nbs[i]]
            assert len(hits) <= 1
            assert orbital_of(field, v, w) == (hits[0] if hits else None)


def test_orbital_of_matches_neighborhoods_k61(field61):
    assert_oracle_matches_neighborhoods(field61, points(field61))


@pytest.mark.parametrize("k", [81, 121])
def test_orbital_of_matches_neighborhoods_sampled(fields, k):
    rng = random.Random(k)
    field = fields[k]
    assert_oracle_matches_neighborhoods(field, rng.sample(points(field), 20))


@pytest.mark.parametrize("k", [81, 121])
def test_orbitals_match_the_class_table(k, fields):
    # every ordered pair of points at m = 4 and m = 2: the diagonal (None),
    # inf or beta = 0 on either side, and the Zech step of beta' - beta,
    # against chi(beta' - beta) of one Field.sub per class; elements_lex is
    # an involution, so lex[beta] is the lex rank of beta
    field, k1 = fields[k], k + 1
    lex, table = field.elements_lex, reference.class_table(field)

    def rule(v, w):
        rv, rw = v % k1, w % k1
        if rv == rw:
            return None
        chi = table[lex[rv - 1] * k + lex[rw - 1]] if rv and rw else 0
        return (v // k1 + w // k1 - chi) % 5

    codes = range(5 * k1)
    vs, ws = [v for v in codes for _ in codes], [*codes] * len(codes)
    want = list(map(rule, vs, ws))
    assert want.count(None) == 5 * k1 * 5
    assert list(orbitals(field, vs, ws)) == want


@pytest.mark.parametrize("k", [61, 81, 121])
def test_build_graph_matches_neighborhoods(k, cache, fields):
    # the label rule of build_graph against the matrix-form neighborhoods
    field = fields[k]
    index = vertex_index(field)
    for i in range(5):
        g = cache.graph(k, i)
        assert list(g.vertices) == [code(field, p) for p in points(field)]
        for v, nb in zip(g.vertices, g.neighbors):
            assert list(nb) == sorted(
                index[point(field, q)] for q in neighborhood(field, i, v))


@pytest.mark.parametrize("s,m", [pytest.param(s, m, id=str(s**m)) for s, m in
                                 [(61, 1), (3, 4), (11, 2), (19, 2), (421, 1)]])
def test_class_table_is_chi_of_field_subtraction(s, m):
    # the rotated chi row against one Field.sub per entry, for m = 1, 2, 4
    field = Field(s, m)
    table = reference.class_table(field)
    for i in range(5):
        assert build_graph(field, i) == table


@pytest.mark.parametrize("s,m", [pytest.param(s, m, id=str(s**m)) for s, m in
                                 [(61, 1), (3, 4), (11, 2), (19, 2), (421, 1)]])
def test_class_table_rows_are_base_rows_turned(s, m):
    # x - beta subtracts digit by digit mod s, so with S = k/s row a*S + b
    # holds chi(x - a*S - b) = row b at x - a*S: export_chunks picks row
    # j's class-c betas as a*S + (row b's) mod k; at m = 1, S = 1
    field = Field(s, m)
    k = field.order
    S = k // s
    for i in range(5):
        cls = build_graph(field, i)
        for j in range(k):
            a, b = divmod(j, S)
            row = cls[b * k:(b + 1) * k]
            assert cls[j * k:(j + 1) * k] == row[k - a * S:] + row[:k - a * S]


@pytest.mark.parametrize("k", [61, 81, 121])
def test_exported_edges_are_the_edges_of_the_label_rule(k, fields):
    # each exported edge parses back to a pair that orbital_of puts in Y(i),
    # in vertex order; no edge repeats and all 5(k+1)k/2 are there
    F = fields[k]
    index = {code(F, p): n for n, p in enumerate(points(F))}
    parse = {text: v for v, text in enumerate(point_texts(F))}.__getitem__
    line = {"edgelist": re.compile(r"(\S+) (\S+)\n"),
            "dot": re.compile(r'  "(\S+)" -- "(\S+)";\n')}
    for i, fmt in itertools.product(range(5), line):
        chunks = list(export_chunks(F, i, build_graph(F, i), fmt))
        if fmt == "dot":
            assert chunks.pop(0) == f'graph "Y{i}_k{k}" {{\n'
            assert chunks.pop() == "}\n"
        text = "".join(chunks)
        pairs = [(parse(a), parse(b)) for a, b in line[fmt].findall(text)]
        assert line[fmt].sub("", text) == ""  # every line is an edge
        assert len(set(pairs)) == len(pairs) == 5 * (k + 1) * k // 2
        for u, v in pairs:
            assert orbital_of(F, u, v) == i
            assert index[u] < index[v]


def tampered(field, edit):
    """A copy of a GF(61) field with its log table edited.

    build_graph fills its table by rotating the chi row, with no field
    arithmetic, so the edit reaches it through chi alone."""
    field = copy.copy(field)
    field._log = list(field._log)
    edit(field._log)
    return field


def drop_chi_of_2(log):
    log[2] = None  # chi(2) undefined: beta + 2 drops out of each row of beta


def chi_of_zero_and_drop_2(log):
    drop_chi_of_2(log)
    log[0] = 0  # beta' = beta joins class 0: a loop, sizes stay k


def shift_chi_of_2(log):
    log[2] += 1  # chi(2) != chi(-2)


def flatten_chi(log):
    # chi = 0 everywhere: (beta, f) ~ (beta', f') iff f + f' = i, which
    # pairs the fibers and leaves three components
    log[:] = [None if e is None else 5 * e for e in log]


@pytest.mark.parametrize("edit,message", [
    (drop_chi_of_2, "has 60 neighbors, expected 61"),
    (chi_of_zero_and_drop_2, "loop at vertex"),
    (shift_chi_of_2, "asymmetric adjacency"),
    (flatten_chi, "is disconnected"),
])
def test_build_graph_checks_raise(field61, edit, message):
    field = tampered(field61, edit)
    for i in range(5):
        with pytest.raises(InvariantViolation, match=message) as exc:
            build_graph(field, i)
        assert exc.value.stage == "orbital"
    assert field61._log[2] is not None  # the original is untouched
    build_graph(field61, 0)


def test_build_graph_messages_are_exact(field61):
    # each message names its points by their full text: the row of beta = 0
    # fails first, and a loop sits at fiber f with 2f = i
    expected = {
        drop_chi_of_2: ["vertex 0:0 has 60 neighbors, expected 61"] * 5,
        chi_of_zero_and_drop_2: [f"loop at vertex 0:{3 * i % 5}"
                                 for i in range(5)],
        shift_chi_of_2: [f"asymmetric adjacency between 0:0 and "
                         f"2:{(i + 1) % 5}" for i in range(5)],
    }
    for edit, messages in expected.items():
        field = tampered(field61, edit)
        for i, message in enumerate(messages):
            with pytest.raises(InvariantViolation) as exc:
                build_graph(field, i)
            assert str(exc.value) == message


@pytest.mark.parametrize("fmt", ["edgelist", "dot"])
def test_build_checks_come_before_output(fmt, field61, tmp_path, monkeypatch):
    path = tmp_path / "g.txt"
    monkeypatch.setattr("psl2ham.cli.Field",
                        lambda s, m: tampered(field61, shift_chi_of_2))
    assert run(["build", "--k", "61", "--format", fmt, "--out", str(path)]) == 3
    assert not path.exists()
    monkeypatch.undo()
    assert run(["build", "--k", "61", "--orbital", "7", "--out", str(path)]) == 2
    assert not path.exists()


def test_build_memory_is_linear_in_k():
    # the class table is k^2 bytes, 0.12 MiB at k = 361 and 0.17 MiB at the
    # prime 421, and one row is held at a time (at m = 1, one slice of the
    # doubled beta texts); all 5k(k+1) row entries would take about 10 MiB
    for field in (Field(19, 2), Field(421, 1)):
        tracemalloc.start()
        try:
            for _ in export_chunks(field, 1, build_graph(field, 1), "edgelist"):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, field


def test_graph_structure_k61(cache):
    for i in range(5):
        g = cache.graph(61, i)
        assert len(g.vertices) == 310
        assert sum(1 for _ in edges(g)) == 310 * 61 // 2 == 9455
        assert all(len(nb) == 61 for nb in g.neighbors)


def test_graph_is_connected_and_symmetric(cache):
    # the generic checks on the rows, against build_graph's checks on its
    # class table
    for k, i in itertools.product((61, 81, 121), range(5)):
        nbs = cache.graph(k, i).neighbors
        transpose = [[] for _ in nbs]
        for u, nb in enumerate(nbs):
            for v in nb:
                transpose[v].append(u)
        assert transpose == [list(nb) for nb in nbs]
        seen, frontier = {0}, {0}
        while frontier:
            frontier = {v for u in frontier for v in nbs[u]} - seen
            seen |= frontier
        assert len(seen) == len(nbs) == 5 * (k + 1)


def test_invalid_orbital_index(field61):
    with pytest.raises(ValueError):
        build_graph(field61, 5)


def test_group_elements_are_automorphisms(cache, field61, group61):
    F = field61
    g = cache.graph(61, 0)
    rng = random.Random(23)
    idx = vertex_index(F)
    for w in random_words(group61, rng, 100):
        perm = {u: idx[point(F, reference.act(F, g.vertices[u], w))]
                for u in range(310)}
        assert sorted(perm.values()) == list(range(310))
        for u in range(0, 310, 11):
            image = {perm[v] for v in g.neighbors[u]}
            assert image == set(g.neighbors[perm[u]])


def test_vertex_order_deterministic(cache, field61):
    g = cache.graph(61, 1)
    assert g.vertices[0] == code(field61, OmegaPoint(None, 0))
    assert list(g.vertices) == [code(field61, p) for p in points(field61)]
    # export_chunks heads row u with the label of the u-th point
    chunks = export_chunks(field61, 1, build_graph(field61, 1), "edgelist")
    assert [c.split()[0] for c in chunks] == [
        point_str(field61, v) for u, v in enumerate(g.vertices)
        if g.neighbors[u][-1] > u]


def test_edgelist_deterministic(cache):
    g = cache.graph(61, 0)
    cls = build_graph(g.field, 0)
    text = "".join(export_chunks(g.field, 0, cls, "edgelist"))
    assert text == "".join(export_chunks(g.field, 0, cls, "edgelist"))
    lines1 = text.splitlines()
    assert len(lines1) == 9455
    parts = lines1[0].split()
    assert len(parts) == 2


@pytest.mark.parametrize("i", range(5))
@pytest.mark.parametrize("k", [61, 81])
def test_export_chunks_are_vertex_rows(cache, k, i):
    # one chunk per vertex row with edges to later vertices, holding them
    # under that vertex's label; the rows of infinity included, fiber 0's too
    g = cache.graph(k, i)
    texts = point_texts(g.field)
    rows = [(u, n) for u, nb in enumerate(g.neighbors) if (n := sum(v > u for v in nb))]
    cls = build_graph(g.field, i)
    chunks = list(export_chunks(g.field, i, cls, "edgelist"))
    assert len(chunks) == len(rows) < 5 * (k + 1)  # the last vertices have no later edges
    for (u, n), chunk in zip(rows, chunks):
        lines = chunk.splitlines()
        assert len(lines) == n and {line.split()[0] for line in lines} == {texts[g.vertices[u]]}
    dot = list(export_chunks(g.field, i, cls, "dot"))
    assert len(dot) == len(rows) + 2 and dot[-1] == "}\n"


def test_dot_export(cache):
    g = cache.graph(61, 0)
    dot = "".join(export_chunks(g.field, 0, build_graph(g.field, 0), "dot"))
    assert dot.startswith('graph "Y0_k61"')
    assert dot.count("--") == 9455


@pytest.mark.parametrize("k", [61, 81, 121])
def test_neighborhood_is_image_of_long_suborbit(k, fields):
    # at positions 0 and 1 of every S-orbit, Y(i)'s neighborhood is long
    # suborbit i, the labels of [[0,-theta^i],[theta^-i,x]], moved by rep(v)
    # with the reference's matrix product and point_of
    F = fields[k]
    long = [[code(F, point_of(F, (0, F.neg(F.pow(F.theta, i)),
                                  F.pow(F.theta, -i), x)))
             for x in range(k)] for i in range(5)]
    betas = set()  # beta = inf takes c = 0 and beta = 0 takes d = 0
    for orb in ten_orbits(s_orbits(F)):
        for v in orb[:2]:
            g = rep(F, v)
            for i in range(5):
                nb = neighborhood(F, i, v)
                assert nb == {reference.act(F, q, g) for q in long[i]}
                betas |= {w % (k + 1) for w in nb} & {0, 1}
    assert betas == {0, 1}
