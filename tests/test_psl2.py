"""PSL(2,k) of tests/reference.py: generator orders, canonical signs,
subgroup enumerations."""

import random

import pytest

from psl2ham import Field
from reference import PSL2, mulclose
from util import random_words


def test_requires_odd_order():
    with pytest.raises(ValueError):
        PSL2(Field(2, 3))


def test_generator_orders(group61):
    l, t, u = group61.generators()
    k = group61.field.order
    assert group61.order(l) == 2
    assert group61.order(t) == (k - 1) // 2
    assert group61.order(u) == 61
    assert group61.order(group61.identity) == 1


def test_generator_orders_gf81(groups):
    G = groups[81]
    l, t, u = G.generators()
    assert group_orders(G, l, t, u) == (2, 40, 3)


def group_orders(G, l, t, u):
    return G.order(l), G.order(t), G.order(u)


def test_generators_need_k_1_mod_4():
    F = Field(7, 1)  # 7 = 3 (mod 4)
    with pytest.raises(ValueError):
        PSL2(F).generators()


def test_l_conjugates_t_to_inverse(group61):
    l, t, u = group61.generators()
    assert group61.mul(group61.mul(group61.inv(l), t), l) == group61.inv(t)


def test_ti_l_are_involutions(group61):
    l, t, u = group61.generators()
    x = l
    for i in range(5):
        assert group61.mul(x, x) == group61.identity
        x = group61.mul(t, x)


def test_mul_identity_and_canon(group61):
    rng = random.Random(61)
    F = group61.field
    for g in random_words(group61, rng, 1000):
        assert group61.mul(g, group61.identity) == g
        neg_g = tuple(F.neg(e) for e in g)
        assert group61.canon(neg_g) == group61.canon(g) == g


def test_orders_divide_group_order(group61):
    rng = random.Random(62)
    n = group61.group_order()
    assert n == 61 * (61 * 61 - 1) // 2
    for g in random_words(group61, rng, 50):
        assert n % group61.order(g) == 0


def test_associativity_sample(group61):
    rng = random.Random(63)
    ws = random_words(group61, rng, 30)
    for _ in range(200):
        a, b, c = rng.choice(ws), rng.choice(ws), rng.choice(ws)
        assert group61.mul(group61.mul(a, b), c) == group61.mul(a, group61.mul(b, c))
        assert group61.mul(a, group61.inv(a)) == group61.identity


def test_s_element_validation(group61):
    assert group61.s_element(1, 0) == group61.identity
    with pytest.raises(ValueError):
        group61.s_element(1, 1)  # 1 - theta != 1


def test_s_enumeration(group61):
    S = group61.S
    assert len(S) == 31
    assert S[0] == group61.identity
    sigma = S[1]
    assert group61.order(sigma) == 31
    # position = power of sigma
    for w in range(31):
        assert S[w] == group61.power(sigma, w)
    # closed and abelian
    els = set(S)
    for a in S[:10]:
        for b in S:
            assert group61.mul(a, b) in els
            assert group61.mul(a, b) == group61.mul(b, a)
    # (k+1)/2 is prime here, so every non-identity element generates
    for g in S[1:]:
        assert group61.order(g) == 31


def test_s_sizes(groups):
    assert len(groups[81].S) == 41
    assert len(groups[121].S) == 61


def test_h_orders(groups):
    assert len(groups[61].H) == 366
    assert len(groups[81].H) == 648
    assert len(groups[121].H) == 1452


def test_h_closed_and_contains_generators(group61):
    H = set(group61.H)
    l, t, u = group61.generators()
    t5 = group61.power(t, 5)
    assert u in H and t5 in H
    for g in H:
        assert group61.inv(g) in H
    for g in list(H)[:40]:
        for h in H:
            assert group61.mul(g, h) in H


def test_h_requires_divisibility():
    F = Field(13, 1)
    with pytest.raises(ValueError):
        PSL2(F).H


def test_literal_closure_differs_at_81(groups):
    # over GF(81) the group generated by u and t^5 alone is much smaller
    # than the full stabilizer U.<t^5>: theta^10 lies in the GF(9) subfield,
    # so conjugation only spans 9 of the 81 unipotents
    G = groups[81]
    l, t, u = G.generators()
    t5 = G.power(t, 5)
    closure = mulclose([u, t5], G.mul)
    assert len(closure) == 72
    assert len(G.H) == 648
    assert closure < set(G.H)


def test_literal_closure_agrees_for_prime_fields(group61):
    l, t, u = group61.generators()
    t5 = group61.power(t, 5)
    assert mulclose([u, t5], group61.mul) == set(group61.H)

