"""Coset labels, the right action, stabilizers, S-orbits, each checked
against the reference group of tests/reference.py."""

import random

import pytest

from psl2ham import (Field, InvariantViolation, build_graph,
                     list_instances, point_text, rep, s_orbits, sigma)
from psl2ham.cli import run
import reference
from reference import PSL2, from_coeffs, point_of, point_str
from util import (ALPHA, OmegaPoint, code, point, point_texts, points,
                  random_words, ten_orbits)


def test_requires_divisibility(monkeypatch):
    F = Field(13, 1)
    with pytest.raises(ValueError):
        build_graph(F, 0)
    # s_orbits takes an admissible field alone and refuses any other before
    # it walks: 13 misses 10 | k-1, and 11, 31 and 101 have p = 6, 16 and
    # 51, not prime
    def walk(field):
        raise AssertionError("walked")

    monkeypatch.setattr("psl2ham.action.sigma", walk)
    for s in (13, 11, 31, 101):
        with pytest.raises(ValueError) as exc:
            s_orbits(Field(s, 1))
        assert str(exc.value) == f"k = {s} is not an admissible instance"


def test_point_count(cache):
    verts = cache.graph(61, 0).vertices
    assert len(verts) == 310
    assert len(set(verts)) == 310


def test_base_point_and_t_orbit(field61, group61):
    G, F = group61, field61
    _, t, _ = G.generators()
    assert point_of(F, G.identity) == ALPHA == OmegaPoint(None, 0)
    assert point_of(F, t) == OmegaPoint(None, 1)
    orbit = {reference.act(F, code(F, ALPHA), G.power(t, j))
             for j in range(30)}
    assert orbit == {code(F, OmegaPoint(None, i)) for i in range(5)}


def test_point_of_l(field61, group61):
    # l sends the base point over infinity to one over 0
    l, _, _ = group61.generators()
    p = point_of(field61, l)
    assert p.beta == 0


def test_rep_round_trip(field61):
    for p in points(field61):
        assert point_of(field61, rep(field61, code(field61, p))) == p


def test_point_of_labels_cosets(field61, group61):
    # the defining property: g and rep(point_of(g)) lie in the same coset
    rng = random.Random(10)
    G, F = group61, field61
    H = set(G.H)
    for g in random_words(G, rng, 200):
        r = rep(F, code(F, point_of(F, g)))
        assert G.mul(g, G.inv(r)) in H


@pytest.mark.parametrize("k", [61, 81, 121])
def test_rep_is_t_power_times_transversal(k, fields, groups):
    # the closed form of rep against the product t^f * T_beta in the group,
    # T_inf = 1 and T_beta = [[0,1],[-1,beta]], which carries alpha over beta
    F, G = fields[k], groups[k]
    _, t, _ = G.generators()
    for p in points(F):
        t_beta = G.identity if p.beta is None else G.canon((0, 1, F.neg(1), p.beta))
        alpha_t = reference.act(F, code(F, ALPHA), t_beta)
        assert point(F, alpha_t).beta == p.beta
        assert G.canon(rep(F, code(F, p))) == G.mul(G.power(t, p.fiber), t_beta)


def test_point_of_sign_independent(field61, group61):
    rng = random.Random(11)
    F = field61
    for g in random_words(group61, rng, 200):
        neg_g = tuple(F.neg(e) for e in g)
        assert point_of(F, g) == point_of(F, neg_g)


def test_right_action_law(field61, group61):
    rng = random.Random(12)
    G, F = group61, field61
    ws = random_words(G, rng, 40)
    pts = [code(F, p) for p in points(F)]
    for _ in range(1000):
        w = rng.choice(pts)
        g1, g2 = rng.choice(ws), rng.choice(ws)
        assert (reference.act(F, reference.act(F, w, g1), g2)
                == reference.act(F, w, G.mul(g1, g2)))
    for w in pts:
        assert reference.act(F, w, G.identity) == w


def test_h_is_exact_stabilizer(field61, group61):
    G, F = group61, field61
    H = set(G.H)
    alpha = code(F, ALPHA)
    for h in H:
        assert reference.act(F, alpha, h) == alpha
    rng = random.Random(13)
    moved = 0
    for g in random_words(G, rng, 300):
        if g not in H:
            assert reference.act(F, alpha, g) != alpha
            moved += 1
    assert moved > 200  # the sample actually exercised non-stabilizer elements


def test_coset_equality_criterion(field61, group61):
    # point_of(g1) == point_of(g2) iff g2*g1^-1 lies in H
    rng = random.Random(14)
    G, F = group61, field61
    H = set(G.H)
    ws = random_words(G, rng, 120)
    hits = 0
    for g1 in ws[:60]:
        for g2 in ws[60:]:
            same = point_of(F, g1) == point_of(F, g2)
            member = G.mul(g2, G.inv(g1)) in H
            assert same == member
            hits += same
    # also force positives: multiply by random H elements on the left
    Hlist = list(H)
    for g in ws[:50]:
        h = rng.choice(Hlist)
        assert point_of(F, G.mul(h, g)) == point_of(F, g)


def test_s_orbits_structure(field61):
    walks = s_orbits(field61)
    assert len(walks) == 2 and all(len(o) == 31 for o in walks)
    everything = [p for o in ten_orbits(walks) for p in o]
    assert len(set(everything)) == 310
    assert walks[0][0] == code(field61, ALPHA)


def test_s_orbit_positions_follow_sigma(field61, group61):
    s = group61.S[1]
    for orb in ten_orbits(s_orbits(field61)):
        for w in range(31):
            assert reference.act(field61, orb[w], s) == orb[(w + 1) % 31]


@pytest.mark.parametrize("k", [61, 81, 121, 361])
def test_s_orbits_match_reference_enumeration(k, fields, groups):
    # orbit i is {H t^i s : s in S} and orbit 5+i is {H t^i l s : s in S},
    # with S listed by the reference as powers of its generator; sigma is
    # that generator up to sign, the lex-smaller root a that the reference
    # finds by trying every element (the smaller handle differs at 81, 361)
    if k == 361:
        F = Field(19, 2)
        G = PSL2(F)
    else:
        F, G = fields[k], groups[k]
    l, t, _ = G.generators()
    assert G.canon(sigma(F)) == G.S[1]
    starts = [G.power(t, i) for i in range(5)]
    starts += [G.mul(g, l) for g in starts]
    expect = tuple(tuple(code(F, point_of(F, G.mul(g, s))) for s in G.S)
                   for g in starts)
    assert tuple(tuple(orb) for orb in ten_orbits(s_orbits(F))) == expect


@pytest.mark.parametrize("s,m", list_instances(5000))
def test_s_orbits_match_a_walk_of_the_reference_action(s, m):
    # all 22 admissible k <= 5000, for m = 1, 2 and 4: the two walks,
    # shifted across the fibers, against ten walks of plain products
    F = Field(s, m)
    assert ([list(orb) for orb in ten_orbits(s_orbits(F))]
            == reference.walked_orbits(F))


@pytest.mark.parametrize("k", [61, 81, 121])
def test_fiber_shift_commutes_with_the_action(k, fields, groups):
    # s_orbits reads two orbits off one walk and shifts them across the
    # fibers, which rests on act(shift(v), g) = shift(act(v, g)) for
    # (beta, f) -> (beta, f+1)
    F, G = fields[k], groups[k]
    n = 5 * (k + 1)

    def shift(v):
        return (v + k + 1) % n

    rng = random.Random(k + 5)
    words = random_words(G, rng, 60)
    for _ in range(600):
        v, g = rng.randrange(n), rng.choice(words)
        assert reference.act(F, shift(v), g) == shift(reference.act(F, v, g))


def test_s_semiregular(field61, group61):
    for s in group61.S[1:]:
        for v in (code(field61, p) for p in points(field61)):
            assert reference.act(field61, v, s) != v


def test_s_orbits_sizes_all_instances(fields):
    for k, F in fields.items():
        p = (k + 1) // 2
        orbits = ten_orbits(s_orbits(F))
        assert all(len(o) == p for o in orbits)
        assert len({q for o in orbits for q in o}) == 5 * (k + 1)


def test_s_orbits_checks_its_orbits(field61, monkeypatch, capsys):
    # with the identity for sigma every walk stands still: each orbit has
    # one point, and the first of the 300 points left out is 1:0, code 2,
    # which s_orbits reports before anything reads the orbits
    monkeypatch.setattr("psl2ham.action.sigma", lambda field: (1, 0, 0, 1))
    message = ("S-orbits do not partition the point set: 1:0 lies in no "
               "orbit")
    with pytest.raises(InvariantViolation) as exc:
        s_orbits(field61)
    assert str(exc.value) == message
    assert exc.value.stage == "action"
    assert run(["hamilton", "--k", "61"]) == 3
    assert capsys.readouterr().err == (
        f"invariant violation [stage: action]: {message}\n")


def test_point_serialization(field61, field81):
    F61 = field61
    assert point_str(F61, code(F61, OmegaPoint(None, 3))) == "inf:3"
    assert point_str(F61, code(F61, OmegaPoint(17, 0))) == "17:0"
    texts = point_texts(F61)
    assert len(texts) == 310
    assert texts[code(F61, OmegaPoint(None, 3))] == "inf:3"
    assert texts[code(F61, OmegaPoint(17, 0))] == "17:0"
    F81 = field81
    v = code(F81, OmegaPoint(from_coeffs(F81, (2, 1, 0, 1)), 4))
    assert point_texts(F81)[v] == point_str(F81, v) == "[2,1,0,1]:4"
    # one text per point: the table can be read back by a dict
    assert len(set(point_texts(F81))) == 5 * 82


@pytest.mark.parametrize("k", [61, 81, 121])
def test_point_texts_are_point_str(k, fields):
    # every code's text against the reference writer, built from the
    # coordinates
    F = fields[k]
    assert ([point_text(F, v) for v in range(5 * (k + 1))]
            == [point_str(F, v) for v in range(5 * (k + 1))])


def test_vertex_order_is_fiber_major(cache, field61):
    verts = cache.graph(61, 0).vertices
    assert verts[0] == code(field61, OmegaPoint(None, 0))
    assert verts[62] == code(field61, OmegaPoint(None, 1))
    fibers = [point(field61, v).fiber for v in verts]
    assert fibers == sorted(fibers)
    assert list(verts) == [code(field61, p) for p in points(field61)]
