"""Suborbits and orbital graphs: sizes, symmetry, regularity, exports."""

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
                  points, random_words, ten_orbits, turned, vertex_index)


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
    # against chi(beta' - beta) of one digit-wise subtraction per class;
    # elements_lex is an involution, so lex[beta] is the lex rank of beta
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
    # the base rows read off orbitals, turned, against one digit-wise
    # subtraction per entry, for m = 1, 2, 4
    field = Field(s, m)
    table = reference.class_table(field)
    for i in range(5):
        assert turned(field, build_graph(field, i)) == table


@pytest.mark.parametrize("s,m", [pytest.param(s, m, id=str(s**m)) for s, m in
                                 [(61, 1), (3, 4), (11, 2), (19, 2), (421, 1)]])
def test_class_table_rows_are_base_rows_turned(s, m):
    # x - beta subtracts digit by digit mod s, so with S = k/s row a*S + b
    # holds chi(x - a*S - b) = row b at x - a*S: build_graph keeps the S
    # base rows alone, and export_chunks picks row j's class-c betas as
    # a*S + (row b's) mod k; at m = 1, S = 1
    field = Field(s, m)
    k = field.order
    S = k // s
    table = reference.class_table(field)
    for j in range(k):
        a, b = divmod(j, S)
        row = table[b * k:(b + 1) * k]
        assert table[j * k:(j + 1) * k] == row[k - a * S:] + row[:k - a * S]
    for i in range(5):
        assert build_graph(field, i) == table[:S * k]


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


def injected(monkeypatch, fault):
    """Route the oracle of build_graph through fault(v, w, o), o the orbital
    that `orbitals` gives the pair (v, w).  build_graph asks it of finite
    points of fiber 0 alone, where o = -chi(beta' - beta), or None where
    beta' = beta, and at m = 1 beta' - beta is (w - v) mod k."""
    def faulty(field, vs, ws):
        vs, ws = zip(*zip(vs, ws))
        return map(fault, vs, ws, orbitals(field, vs, ws))

    monkeypatch.setattr("psl2ham.orbital.orbitals", faulty)


def drop_chi_of_2(v, w, o):
    # chi(2) undefined: beta + 2 drops out of each row of beta
    return None if (w - v) % 61 == 2 else o


def chi_of_zero_and_drop_2(v, w, o):
    # beta' = beta joins class 0: a loop, sizes stay k
    return 0 if v == w else drop_chi_of_2(v, w, o)


def shift_chi_of_2(v, w, o):
    # chi(2) + 1 != chi(-2)
    return (o - 1) % 5 if (w - v) % 61 == 2 else o


def flatten_chi(v, w, o):
    # chi = 0 everywhere: (beta, f) ~ (beta', f') iff f + f' = i, which
    # pairs the fibers and leaves three components
    return None if o is None else 0


@pytest.mark.parametrize("fault,message", [
    (drop_chi_of_2, "has 60 neighbors, expected 61"),
    (chi_of_zero_and_drop_2, "loop at vertex"),
    (shift_chi_of_2, "asymmetric adjacency"),
    (flatten_chi, "is disconnected"),
])
def test_build_graph_checks_raise(field61, fault, message, monkeypatch):
    injected(monkeypatch, fault)
    for i in range(5):
        with pytest.raises(InvariantViolation, match=message) as exc:
            build_graph(field61, i)
        assert exc.value.stage == "orbital"
    monkeypatch.undo()
    build_graph(field61, 0)


def test_build_graph_messages_are_exact(field61, monkeypatch):
    # each message names its points by their full text: the row of beta = 0
    # fails first, and a loop sits at fiber f with 2f = i
    expected = {
        drop_chi_of_2: ["vertex 0:0 has 60 neighbors, expected 61"] * 5,
        chi_of_zero_and_drop_2: [f"loop at vertex 0:{3 * i % 5}"
                                 for i in range(5)],
        shift_chi_of_2: [f"asymmetric adjacency between 0:0 and "
                         f"2:{(i + 1) % 5}" for i in range(5)],
    }
    for fault, messages in expected.items():
        injected(monkeypatch, fault)
        for i, message in enumerate(messages):
            with pytest.raises(InvariantViolation) as exc:
                build_graph(field61, i)
            assert str(exc.value) == message


def scan(field, i, table):
    """The first row of the whole k^2 class table that fails a check of
    build_graph, row by row (degree, loop, symmetry), and its message."""
    k, k1, lex = field.order, field.order + 1, field.elements_lex
    for j, beta in enumerate(lex):
        row, col = table[j * k:(j + 1) * k], table[j::k]
        if row.count(5) != 1:
            return j, (f"vertex {point_str(field, beta + 1)} has "
                       f"{k1 - row.count(5)} neighbors, expected {k}")
        if row[j] != 5:
            f = 3 * (i + row[j]) % 5
            return j, f"loop at vertex {point_str(field, f * k1 + beta + 1)}"
        if row != col:
            x = next(x for x in range(k) if row[x] != col[x])
            g = (i + min(row[x], col[x])) % 5
            return j, (f"asymmetric adjacency between "
                       f"{point_str(field, beta + 1)} and "
                       f"{point_str(field, g * k1 + lex[x] + 1)}")
    return None


@pytest.mark.parametrize("check", ["degree", "loop", "symmetry"])
@pytest.mark.parametrize("k", [81, 121])
def test_build_graph_checks_a_fault_in_one_base_row(k, check, fields,
                                                    monkeypatch):
    # a fault in base row b = 1 alone is in every row a*S + 1 of the k^2
    # table; at x = 2S + 3 no row before b meets it, so build_graph must
    # name the point that a scan of the turned table names, reading
    # row x's entry for the symmetry check off base row 3 turned by 2S
    F = fields[k]
    lex, S = F.elements_lex, k // F.s
    b, x = 1, 2 * S + 3
    base = bytearray(reference.class_table(F)[:S * k])
    edits = {"degree": {x: 5}, "loop": {b: 0, x: 5},
             "symmetry": {x: (base[b * k + x] + 1) % 5}}[check]
    at = {}
    for y, c in edits.items():
        base[b * k + y] = c
        at[lex[b] + 1, lex[y] + 1] = None if c == 5 else -c % 5
    injected(monkeypatch, lambda v, w, o: at.get((v, w), o))
    table = turned(F, base)
    for i in range(5):
        j, message = scan(F, i, table)
        assert j == b and message.startswith(
            {"degree": "vertex", "loop": "loop", "symmetry": "asymmetric"}[check])
        with pytest.raises(InvariantViolation) as exc:
            build_graph(F, i)
        assert str(exc.value) == message


@pytest.mark.parametrize("fmt", ["edgelist", "dot"])
def test_build_checks_come_before_output(fmt, tmp_path, monkeypatch):
    path = tmp_path / "g.txt"
    injected(monkeypatch, shift_chi_of_2)
    assert run(["build", "--k", "61", "--format", fmt, "--out", str(path)]) == 3
    assert not path.exists()
    monkeypatch.undo()
    assert run(["build", "--k", "61", "--orbital", "7", "--out", str(path)]) == 2
    assert not path.exists()


def test_build_memory_is_linear_in_k():
    # the class table is its k/s base rows, k^2/s bytes: 6.9 kB at k = 361
    # and k bytes at the primes 421 and 1201; one row is held at a time (at
    # m = 1, one slice of the doubled beta texts); all 5k(k+1) row entries
    # would take about 10 MiB at 421, and the k^2 table 1.4 MiB at 1201
    for field, bound in ((Field(19, 2), 2**20), (Field(421, 1), 2**20),
                         (Field(1201, 1), 2**19)):
        tracemalloc.start()
        try:
            for _ in export_chunks(field, 1, build_graph(field, 1), "edgelist"):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, field


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


def joined(n, roots):
    """Whether the stars u -- roots[u] of each root list join all n points
    into one component: the union of the graphs whose components they are
    is connected iff they do."""
    up, merged = list(range(n)), 0
    for u, r in itertools.chain.from_iterable(map(enumerate, roots)):
        while up[u] != u:
            u = up[u]
        while up[r] != r:
            r = up[r]
        if u != r:
            up[u], merged = r, merged + 1
    return merged == n - 1


@pytest.mark.parametrize("k", [61, 81])
def test_connected_unions_are_those_with_some_basic_orbital(k, cache):
    # the reduction of the orbital docstring: the diagonal, Y(0..4) and the
    # two fiber-shift graphs (steps +-1 and +-2; the shift commutes with G,
    # test_action) partition Omega x Omega, and of the 127 nonempty unions
    # of the seven graphs the connected ones are the 124 with some Y(i)
    k1 = k + 1
    n = 5 * k1  # the vertex order of `points` shifts fibers as codes do
    graphs = [cache.graph(k, i).neighbors for i in range(5)]
    graphs += [[sorted({(u + j * k1) % n, (u - j * k1) % n}) for u in range(n)]
               for j in (1, 2)]
    cover = bytearray(n * n)
    for u in range(n):
        cover[u * n + u] += 1
    for nbs in graphs:
        for u, nb in enumerate(nbs):
            for v in nb:
                cover[u * n + v] += 1
    assert cover.count(1) == n * n
    roots = []  # each graph's components, as the first point of each
    for nbs in graphs:
        root, todo = [None] * n, []
        for u in range(n):
            if root[u] is None:
                root[u], todo = u, [u]
            while todo:
                for v in nbs[todo.pop()]:
                    if root[v] is None:
                        root[v] = u
                        todo.append(v)
        roots.append(root)
    # Y(i) is connected, and each shift graph is k + 1 5-cycles, one a beta
    assert [len(set(r)) for r in roots] == [1] * 5 + [k1] * 2
    connected = [mask for mask in range(1, 128) if joined(
        n, [r for g, r in enumerate(roots) if mask >> g & 1])]
    assert connected == [mask for mask in range(1, 128) if mask & 31]
    assert len(connected) == 124


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


@pytest.mark.parametrize("k", [61, 81])
def test_neighborhood_reads_each_label_off_the_second_row(k, fields,
                                                          monkeypatch):
    # each product's label is (-d/c, -chi(c)), or (inf, -chi(d)) when c = 0,
    # off its second row (c, d) alone: two Field.add calls per x, for
    # beta = inf (code 0), beta = 0 (code 1) and a point of fiber 2.  Forming
    # a*beta + b as well would add one more per x with c != 0
    F, add, calls = fields[k], Field.add, []

    def counted(field, x, y):
        calls.append(field.order)
        return add(field, x, y)

    monkeypatch.setattr(Field, "add", counted)
    for v in (0, 1, 2 * (k + 1) + 7):
        calls.clear()
        assert len(neighborhood(F, 3, v)) == k
        assert calls == [k] * (2 * k), v
