"""Coset labels, the right action, stabilizers, S-orbits, each checked
against the reference group of tests/reference.py."""

import random

import pytest

from psl2ham import CosetAction, Field, OmegaPoint, parse_point, point_str
from reference import PSL2
from util import random_words


def test_requires_divisibility():
    with pytest.raises(ValueError):
        CosetAction(Field(13, 1))


def test_point_count(action61):
    assert action61.size == 310
    assert len(action61.points) == 310
    assert len(set(action61.points)) == 310


def test_base_point_and_t_orbit(action61, group61):
    G = group61
    _, t, _ = G.generators()
    assert action61.point_of(G.identity) == action61.alpha == OmegaPoint(None, 0)
    assert action61.point_of(t) == OmegaPoint(None, 1)
    orbit = {action61.act(action61.alpha, G.power(t, j)) for j in range(30)}
    assert orbit == {OmegaPoint(None, i) for i in range(5)}


def test_point_of_l(action61, group61):
    # l sends the base point over infinity to one over 0
    l, _, _ = group61.generators()
    p = action61.point_of(l)
    assert p.beta == 0


def test_rep_round_trip(action61):
    for p in action61.points:
        assert action61.point_of(action61.rep(p)) == p


def test_point_of_labels_cosets(action61, group61):
    # the defining property: g and rep(point_of(g)) lie in the same coset
    rng = random.Random(10)
    G = group61
    H = set(G.H)
    for g in random_words(G, rng, 200):
        rep = action61.rep(action61.point_of(g))
        assert G.mul(g, G.inv(rep)) in H


@pytest.mark.parametrize("k", [61, 81, 121])
def test_rep_is_t_power_times_transversal(k, actions, groups):
    # the closed form of rep against the product t^f * T_beta in the group,
    # T_inf = 1 and T_beta = [[0,1],[-1,beta]], which carries alpha over beta
    action, G = actions[k], groups[k]
    F = action.field
    _, t, _ = G.generators()
    for p in action.points:
        t_beta = G.identity if p.beta is None else G.canon((0, 1, F.neg(1), p.beta))
        assert action.act(action.alpha, t_beta).beta == p.beta
        assert G.canon(action.rep(p)) == G.mul(G.power(t, p.fiber), t_beta)


def test_point_of_sign_independent(action61, group61):
    rng = random.Random(11)
    F = action61.field
    for g in random_words(group61, rng, 200):
        neg_g = tuple(F.neg(e) for e in g)
        assert action61.point_of(g) == action61.point_of(neg_g)


def test_right_action_law(action61, group61):
    rng = random.Random(12)
    G = group61
    ws = random_words(G, rng, 40)
    pts = list(action61.points)
    for _ in range(1000):
        w = rng.choice(pts)
        g1, g2 = rng.choice(ws), rng.choice(ws)
        assert action61.act(action61.act(w, g1), g2) == action61.act(w, G.mul(g1, g2))
    for w in pts:
        assert action61.act(w, G.identity) == w


def test_h_is_exact_stabilizer(action61, group61):
    G = group61
    H = set(G.H)
    for h in H:
        assert action61.act(action61.alpha, h) == action61.alpha
    rng = random.Random(13)
    moved = 0
    for g in random_words(G, rng, 300):
        if g not in H:
            assert action61.act(action61.alpha, g) != action61.alpha
            moved += 1
    assert moved > 200  # the sample actually exercised non-stabilizer elements


def test_coset_equality_criterion(action61, group61):
    # point_of(g1) == point_of(g2) iff g2*g1^-1 lies in H
    rng = random.Random(14)
    G = group61
    H = set(G.H)
    ws = random_words(G, rng, 120)
    hits = 0
    for g1 in ws[:60]:
        for g2 in ws[60:]:
            same = action61.point_of(g1) == action61.point_of(g2)
            member = G.mul(g2, G.inv(g1)) in H
            assert same == member
            hits += same
    # also force positives: multiply by random H elements on the left
    Hlist = list(H)
    for g in ws[:50]:
        h = rng.choice(Hlist)
        assert action61.point_of(G.mul(h, g)) == action61.point_of(g)


def test_s_orbits_structure(action61):
    orbits = action61.s_orbits
    assert len(orbits) == 10
    assert all(len(o) == 31 for o in orbits)
    everything = [p for o in orbits for p in o]
    assert len(set(everything)) == 310
    assert orbits[0][0] == action61.alpha


def test_s_orbit_positions_follow_sigma(action61, group61):
    sigma = group61.S[1]
    for orb in action61.s_orbits:
        for w in range(31):
            assert action61.act(orb[w], sigma) == orb[(w + 1) % 31]


@pytest.mark.parametrize("k", [61, 81, 121, 361])
def test_s_orbits_match_reference_enumeration(k, actions, groups):
    # orbit i is {H t^i s : s in S} and orbit 5+i is {H t^i l s : s in S},
    # with S listed by the reference as powers of its generator; sigma is
    # that generator up to sign
    if k == 361:
        F = Field(19, 2)
        action, G = CosetAction(F), PSL2(F)
    else:
        action, G = actions[k], groups[k]
    l, t, _ = G.generators()
    assert G.canon(action.sigma) == G.S[1]
    starts = [G.power(t, i) for i in range(5)]
    starts += [G.mul(g, l) for g in starts]
    expect = tuple(tuple(action.point_of(G.mul(g, s)) for s in G.S) for g in starts)
    assert action.s_orbits == expect


def test_s_semiregular(action61, group61):
    for s in group61.S[1:]:
        for p in action61.points:
            assert action61.act(p, s) != p


def test_s_orbits_sizes_all_instances(actions):
    for k, action in actions.items():
        p = (k + 1) // 2
        orbits = action.s_orbits
        assert all(len(o) == p for o in orbits)
        assert len({q for o in orbits for q in o}) == 5 * (k + 1)


def test_point_serialization(action61, actions):
    F61 = action61.field
    assert point_str(F61, OmegaPoint(None, 3)) == "inf:3"
    assert point_str(F61, OmegaPoint(17, 0)) == "17:0"
    assert parse_point(F61, "inf:3") == OmegaPoint(None, 3)
    assert parse_point(F61, "17:0") == OmegaPoint(17, 0)
    F81 = actions[81].field
    x = F81.from_coeffs((2, 1, 0, 1))
    assert parse_point(F81, point_str(F81, OmegaPoint(x, 4))) == OmegaPoint(x, 4)
    with pytest.raises(ValueError):
        parse_point(F61, "17:9")
    with pytest.raises(ValueError):
        parse_point(F61, "noinfix")


def test_vertex_order_is_fiber_major(action61):
    pts = action61.points
    assert pts[0] == OmegaPoint(None, 0)
    assert pts[62] == OmegaPoint(None, 1)
    fibers = [p.fiber for p in pts]
    assert fibers == sorted(fibers)
