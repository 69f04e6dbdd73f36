"""Field arithmetic: frozen constants, axioms, table consistency.

Expected values were computed with independent oracles (naive polynomial
arithmetic below, plus exhaustive searches) and frozen.
"""

import hashlib
import itertools
import random
from functools import cache

import pytest
from hypothesis import given, strategies as st

from psl2ham import Field
from psl2ham.gf import is_prime, prime_factors, smallest_irreducible
from reference import coeffs, element_str, from_coeffs


# --- naive polynomial oracle, independent of the Field internals ---

def poly_rem(a, mod, s):
    """a mod the monic mod, as m = deg(mod) coefficients."""
    out = [c % s for c in a]
    dm = len(mod) - 1
    for i in range(len(out) - 1, dm - 1, -1):
        c = out[i]
        if c:
            out[i] = 0
            for j in range(dm):
                out[i - dm + j] = (out[i - dm + j] - c * mod[j]) % s
    out = out[:dm]
    return tuple(out + [0] * (dm - len(out)))


def poly_mulmod(a, b, mod, s):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % s
    return poly_rem(out, mod, s)


def poly_powmod(a, e, mod, s):
    acc = poly_rem((1,), mod, s)
    for bit in bin(e)[2:]:  # left to right
        acc = poly_mulmod(acc, acc, mod, s)
        if bit == "1":
            acc = poly_mulmod(acc, a, mod, s)
    return acc


@cache
def primes_dividing(n):
    return [q for q in range(2, n + 1)
            if n % q == 0 and all(q % d for d in range(2, q))]


def is_generator(cs, mod, s):
    """cs generates GF(k)* iff cs^((k-1)/q) != 1 for every prime q | k-1."""
    k = s ** (len(mod) - 1)
    one = poly_rem((1,), mod, s)
    return all(poly_powmod(cs, (k - 1) // q, mod, s) != one
               for q in primes_dividing(k - 1))


# every extension field up to k = 3481: odd m and s = 2 give the split-half
# exp walk unequal halves (m//2 < m - m//2) and its smallest digit base
EXTENSION_FIELDS = [(s, m) for s in range(2, 60) if is_prime(s)
                    for m in range(2, 12) if s**m <= 3481]
# the m > 1 rungs of the CI ladder, k = 17161 = 131^2 and 28561 = 13^4; with
# k = 61, the fields whose modulus and theta are checked exactly
SEARCH_FIELDS = [(61, 1)] + EXTENSION_FIELDS + [(131, 2), (13, 4)]


def ids(fields):
    return [f"{s}-{m}" for s, m in fields]


def test_is_prime_small():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1) and not is_prime(0)
    assert prime_factors(60) == [2, 3, 5]


def test_bad_parameters():
    with pytest.raises(ValueError):
        Field(4, 1)
    with pytest.raises(ValueError):
        Field(61, 0)


def test_gf61_constants():
    F = Field(61, 1)
    assert F.order == 61
    assert F.modulus == (0, 1)
    assert F.theta == 2  # smallest primitive root mod 61
    assert F.mul(2, 31) == 1  # inverse found by exhaustive search
    assert F._log[4] == 2
    assert F._log[1] == 0
    assert F._log[F.neg(1)] == 30  # theta^((k-1)/2) = -1


def test_gf81_constants():
    F = Field(3, 4)
    assert F.order == 81
    # lex-smallest monic irreducible quartic over GF(3): 1 + x^2 + x^3 + x^4
    assert F.modulus == (1, 0, 1, 1, 1)
    assert coeffs(F, F.theta) == (0, 0, 1, 1)
    # admissibility facts behind this field: 81+1 = 2*41 with 41 prime
    assert is_prime((81 + 1) // 2)
    assert (81 - 1) % 10 == 0


def test_gf121_constants():
    F = Field(11, 2)
    assert F.modulus == (1, 0, 1)  # x^2 + 1
    assert coeffs(F, F.theta) == (1, 4)


def test_gf2_trivial():
    F = Field(2, 1)
    assert F.order == 2
    assert F.theta == 1
    assert F.pow(F.theta, 0) == 1
    assert F.mul(1, 1) == 1


@pytest.mark.parametrize("s,m", SEARCH_FIELDS, ids=ids(SEARCH_FIELDS))
def test_modulus_matches_independent_search(s, m):
    # the modulus is irreducible: no monic divisor of degree <= m/2; and it
    # is the lex-smallest (constant term first): every monic polynomial of
    # degree m before it has one
    def has_divisor(f):
        return any(not any(poly_rem(f, g + (1,), s))
                   for d in range(1, m // 2 + 1)
                   for g in itertools.product(range(s), repeat=d))

    mod = smallest_irreducible(s, m)
    assert len(mod) == m + 1 and mod[-1] == 1
    assert not has_divisor(mod)
    smaller = itertools.takewhile(lambda f: f != mod, (
        cs + (1,) for cs in itertools.product(range(s), repeat=m)))
    assert all(has_divisor(f) for f in smaller)


@pytest.mark.parametrize("s,m", SEARCH_FIELDS, ids=ids(SEARCH_FIELDS))
def test_theta_is_smallest_generator(s, m):
    # everything lex-before theta is a non-generator, by independent
    # polynomial powers
    F = Field(s, m)
    for h in F.elements_lex[1:]:
        if h == F.theta:
            break
        assert not is_generator(coeffs(F, h), F.modulus, s)
    assert is_generator(coeffs(F, F.theta), F.modulus, s)


@pytest.mark.parametrize("s,m", [(61, 1), (3, 4)])
def test_theta_half_power_is_minus_one(s, m):
    F = Field(s, m)
    assert F.pow(F.theta, (F.order - 1) // 2) == F.neg(1)


@pytest.mark.parametrize("s,m", [(61, 1), (3, 4), (11, 2)])
def test_exp_log_bijection(s, m):
    F = Field(s, m)
    k = F.order
    seen = {F.pow(F.theta, e) for e in range(k - 1)}
    assert seen == set(range(1, k))
    for e in range(k - 1):
        assert F._log[F.pow(F.theta, e)] == e
    assert F.pow(F.theta, k - 1) == 1


@pytest.mark.parametrize("s,m", [(61, 1), (3, 4)])
def test_all_inverses(s, m):
    F = Field(s, m)
    for x in range(1, F.order):
        assert F.mul(x, F.pow(x, -1)) == 1


# Zech addition (m > 1) at k = 81, 121, 841 and 2401, and in GF(2^4), where
# 1 + theta^0 = 0; the axiom test adds the m = 1 path, (x + y) % s, at k = 61
ADD_FIELDS = [(3, 4), (11, 2), (29, 2), (7, 4), (2, 4)]
field = cache(Field)


@pytest.mark.parametrize("s,m", [(61, 1)] + ADD_FIELDS)
def test_field_axioms_random(s, m):
    rng = random.Random(20240811)
    F = field(s, m)
    k = F.order
    for _ in range(1000):
        x, y, z = (rng.randrange(k) for _ in range(3))
        assert F.add(x, y) == F.add(y, x)
        assert F.mul(x, y) == F.mul(y, x)
        assert F.add(F.add(x, y), z) == F.add(x, F.add(y, z))
        assert F.mul(F.mul(x, y), z) == F.mul(x, F.mul(y, z))
        assert F.mul(x, F.add(y, z)) == F.add(F.mul(x, y), F.mul(x, z))
        assert F.add(x, 0) == x
        assert F.mul(x, 1) == x
        assert F.add(x, F.neg(x)) == 0


@pytest.mark.parametrize("s,m", [(3, 4), (11, 2)])
def test_mul_against_poly_oracle(s, m):
    F = Field(s, m)
    rng = random.Random(7)
    for _ in range(300):
        x, y = rng.randrange(F.order), rng.randrange(F.order)
        expect = poly_mulmod(coeffs(F, x), coeffs(F, y), F.modulus, s)
        assert coeffs(F, F.mul(x, y)) == expect


# the smallest base; six folded digits; m = 2 at s = 59 and at the largest
# s; m = 4 at the largest s
PACKED_FIELDS = [(2, 4), (3, 7), (59, 2), (131, 2), (13, 4)]


@pytest.mark.parametrize("s,m", PACKED_FIELDS, ids=ids(PACKED_FIELDS))
def test_packed_product_against_poly_oracle(s, m):
    # construction's product: packed handles, b bits a digit
    F = Field(s, m)
    k, mask = F.order, (1 << F._b) - 1

    def unpack(z):
        return tuple(z >> F._b * i & mask for i in range(m))

    rng = random.Random(20261020)
    # x = y = k-1 has every digit s-1, so the largest digit sums
    pairs = [(k - 1, k - 1)] + [(rng.randrange(k), rng.randrange(k))
                                for _ in range(300)]
    for x, y in pairs:
        px, py = F._pack(x), F._pack(y)
        assert unpack(px) == coeffs(F, x) and unpack(py) == coeffs(F, y)
        z = F._mul_packed(px, py)
        assert z >> F._b * m == 0  # m digits, each reduced below s
        assert unpack(z) == poly_mulmod(coeffs(F, x), coeffs(F, y),
                                        F.modulus, s)


@pytest.mark.parametrize("s,m", EXTENSION_FIELDS, ids=ids(EXTENSION_FIELDS))
def test_exp_matches_naive_theta_walk(s, m):
    F = Field(s, m)
    theta = coeffs(F, F.theta)
    acc, walk = coeffs(F, 1), []
    for _ in range(F.order - 1):
        walk.append(acc)
        acc = poly_mulmod(acc, theta, F.modulus, s)
    assert [coeffs(F, F.pow(F.theta, e)) for e in range(F.order - 1)] == walk


def test_pow_edge_cases():
    F = Field(61, 1)
    assert F.pow(17, 0) == 1
    assert F.pow(17, 1) == 17
    assert F.pow(0, 5) == 0
    with pytest.raises(ValueError):
        F.pow(0, -1)


def test_gf81_tenth_power_of_theta_has_order_eight():
    F = Field(3, 4)
    x = F.pow(F.theta, 10)
    acc, n = x, 1
    while acc != 1:
        acc = F.mul(acc, x)
        n += 1
    assert n == 8


@pytest.mark.parametrize("s,m", ADD_FIELDS)
@given(data=st.data())
def test_add_matches_coordinatewise(s, m, data):
    F = field(s, m)
    x, y = (data.draw(st.integers(min_value=0, max_value=F.order - 1))
            for _ in range(2))
    cs = tuple((a + b) % s for a, b in zip(coeffs(F, x), coeffs(F, y)))
    assert coeffs(F, F.add(x, y)) == cs


@pytest.mark.parametrize("s,m", [(3, 4), (2, 4), (61, 1)])
def test_add_exhaustive(s, m):
    F = field(s, m)
    for x in range(F.order):
        assert F.add(x, F.neg(x)) == 0
        for y in range(F.order):
            cs = tuple((a + b) % s for a, b in zip(coeffs(F, x), coeffs(F, y)))
            assert coeffs(F, F.add(x, y)) == cs
            assert F.sub(F.add(x, y), y) == x


def test_serialization_round_trip():
    # element_texts gives one text per handle, in handle order
    Fp = Field(61, 1)
    assert element_str(Fp, 17) == "17"
    assert Fp.element_texts()[17] == "17"
    Fe = Field(3, 4)
    x = from_coeffs(Fe, (2, 0, 1, 1))
    assert element_str(Fe, x) == "[2,0,1,1]"
    texts = Fe.element_texts()
    assert texts[x] == "[2,0,1,1]"
    assert {t: h for h, t in enumerate(texts)}["[2,0,1,1]"] == x
    assert len(set(texts)) == 81


@pytest.mark.parametrize("s,m", [(61, 1), (19, 2), (3, 4)])
def test_element_texts_are_distinct(s, m):
    # verify compares a body with the writer's text of the lift, which
    # cannot show two codes written as one text: each text names one element
    F = Field(s, m)
    assert len(set(F.element_texts())) == F.order


@pytest.mark.parametrize("s,m", [pytest.param(s, m, id=f"{s}-{m}") for s, m in
                                 [(61, 1), (3, 4), (11, 2), (7, 4), (2, 4)]])
def test_element_texts_are_element_str(s, m):
    # the table against the reference writer, built from the coordinates
    F = Field(s, m)
    assert F.element_texts() == [element_str(F, x) for x in range(F.order)]


def test_elements_lex_order():
    F = Field(3, 2)
    # constant term is the most significant coordinate
    first_four = [coeffs(F, h) for h in F.elements_lex[:4]]
    assert first_four == [(0, 0), (0, 1), (0, 2), (1, 0)]


# SHA-256 of every table, read through the public API; pinned from the
# coordinate-tuple construction ((3, 3) and (59, 2) from the per-element
# digit-product exp walk that followed it) so any rebuild must reproduce it
# exactly
FIELD_DIGESTS = [
    (2, 1, "48ea7e6878a44d11f4495f58cd990d1eebb461693d7a025ff43c290d1b903960"),
    (2, 6, "0af3002a0cea178ccb414e39574d9a4901da21260ac8f7f408a3babcb1875ad4"),
    (3, 3, "05c3e13a0b2372a386aa4dc2d6b082dd0156a15777aefb64797a6529c848778d"),
    (3, 5, "509f04731f0bffefae3c5991f38beb4b90c56fddb72d8cfa046df0723a926ec0"),
    (5, 3, "3106274df111abdf658d5caba90791b076e891e2bb17b16e22ed44ea42e8613e"),
    (7, 4, "b957c6c9fc8a401ccd8c61783f6c08005b8c4e349eca77b4eae5587fb24d7a51"),
    (13, 2, "40d60b31d072ddc031192ae364f75801e7c1c1c28c2a01555a2cea12e2db2d56"),
    (59, 2, "5192b3711cdbd32631111b21d5140a3ff206e637ca9e5ba5da65e76d39b42b58"),
    (131, 2, "471a5b2b06f560d88a66a13a83bf04fa9ff6686157264166e3ae8902f61c3b30"),
    (4621, 1, "be65514863511748da7ccbe77a7ad62cc804fd3e93f0a8ed89028c82f3bfd574"),
]


@pytest.mark.parametrize("s,m,digest", FIELD_DIGESTS,
                         ids=[f"{s}-{m}" for s, m, _ in FIELD_DIGESTS])
def test_field_tables_are_pinned(s, m, digest):
    F = Field(s, m)
    k = F.order
    xs = range(k)
    # add(x, 1) covers zech; pow(theta, e) covers exp
    data = (F.modulus, F.theta, list(F.elements_lex),
            [F.pow(F.theta, e) for e in range(k - 1)],
            [F.neg(x) for x in xs], [F.add(x, 1) for x in xs],
            F.element_texts())
    assert hashlib.sha256(repr(data).encode()).hexdigest() == digest
