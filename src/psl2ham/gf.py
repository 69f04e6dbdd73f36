"""Exact arithmetic in small finite fields GF(s^m).

Field elements are plain ints ("handles") in [0, s^m): the handle of the
element with polynomial-basis coordinates (c0, c1, ..., c_{m-1}) is
c0 + c1*s + ... + c_{m-1}*s^{m-1}.  All arithmetic lives on the Field
object; handles from different fields must never be mixed.  0 and 1 are
always the additive and multiplicative identities.

Construction is deterministic: the reducing polynomial is the
lexicographically smallest monic irreducible of its degree (coefficients
compared constant term first), and the distinguished generator ``theta``
is the smallest generator of the multiplicative group in the same
coordinate order.  Construction forms no schoolbook product; it multiplies
packed ints: the m base-s digits of a handle sit b bits apart in one int, and
2^b > m^2*s^3 keeps every digit of one int product free of carries while
the m-1 digits above x^(m-1) fold back through the packed residues of
x^m ... x^(2m-2) mod the modulus; then each digit is reduced mod s.  The
generator search powers candidates so, and exp steps x -> x*theta (x*theta
mod s when m = 1, else a table step on the two halves of x's base-s
digits, from tables of each half's packed products with theta); log
inverts exp, negation is -x = theta^((k-1)/2)*x, and the coordinate order
reverses base-s digits.  Addition for m > 1 goes through the Zech logarithm
zech[n] = log(1 + theta^n): x + y = x*(1 + y/x), so every table is O(k).
Coordinates exist only as text: `element_texts` writes all k elements by
one product over the digit strings, the one writer of element text.
"""

from __future__ import annotations

from itertools import islice, product

from .errors import ParameterError


def is_prime(n: int) -> bool:
    """Trial-division primality test, adequate at this scale."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def admissible(k: int) -> bool:
    """Prime power k is an instance: 10 | k-1, (k+1)/2 prime (so k >= 61)."""
    return (k - 1) % 10 == 0 and is_prime((k + 1) // 2)


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def factor_prime_power(k: int) -> tuple[int, int]:
    """k = s^m with s prime, else ParameterError."""
    factors = prime_factors(k)
    if len(factors) != 1:
        raise ParameterError(f"k = {k} is not a prime power")
    s, m = factors[0], 1
    while s**m < k:
        m += 1
    return s, m


def list_instances(max_k: int) -> list[tuple[int, int]]:
    """All admissible (s, m) with 61 <= s^m <= max_k; such k have 10 | k-1."""
    return [factor_prime_power(k) for k in range(61, max_k + 1, 10)
            if admissible(k) and len(prime_factors(k)) == 1]


# --- polynomial helpers over GF(s), coefficient tuples, constant term first ---

def _poly_mod(a, mod, s):
    """The coefficients of a mod the monic mod over GF(s), below deg(mod)."""
    a = [c % s for c in a]
    dm = len(mod) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c:
            a[i] = 0
            for j in range(dm):
                a[i - dm + j] = (a[i - dm + j] - c * mod[j]) % s
    return a[:dm]


def smallest_irreducible(s: int, m: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree m over GF(s):
    x when m = 1, else the first with no monic divisor of degree <= m/2."""
    divisors = [cs + (1,) for d in range(1, m // 2 + 1)
                for cs in product(range(s), repeat=d)]
    # for m > 1, x divides the candidates with a zero constant term, the first
    for coeffs in product(range(1 if m > 1 else 0, s), *[range(s)] * (m - 1)):
        f = coeffs + (1,)
        if all(any(_poly_mod(f, g, s)) for g in divisors):
            return f
    raise AssertionError("no irreducible polynomial found")  # cannot happen


class Field:
    """GF(s^m) with a fixed generator theta and full exp/log/Zech tables."""

    def __init__(self, s: int, m: int):
        if not is_prime(s):
            raise ValueError(f"characteristic {s} is not prime")
        if m < 1:
            raise ValueError(f"extension degree must be >= 1, got {m}")
        self.s = s
        self.m = m
        self.order = s**m
        self.modulus = smallest_irreducible(s, m)

        # coordinate-lex order (constant term most significant) is the
        # base-s digit reversal of the handles: an involution, and the
        # identity when m = 1
        lex, place = range(s), s
        for _ in range(m - 1):
            lex = tuple(h + c * place for h in lex for c in range(s))
            place *= s
        self.elements_lex = lex

        # _mul_packed's digit width; x^m ... x^(2m-2) mod the modulus, packed
        self._b = b = (m * m * s**3).bit_length()
        self._fold = [sum(c << b * i for i, c in enumerate(_poly_mod(
            [0] * j + [1], self.modulus, s))) for j in range(m, 2 * m - 1)]
        self.theta = self._find_generator()
        self._build_log_tables()

    # --- construction internals ---

    def _pack(self, h: int) -> int:
        """The handle h with its base-s digit i at bit b*i."""
        return sum(h // self.s**i % self.s << self._b * i for i in range(self.m))

    def _mul_packed(self, x: int, y: int) -> int:
        """x*y for packed x and y, packed (see the module docstring)."""
        s, b, top = self.s, self._b, self._b * self.m
        mask, z = (1 << b) - 1, x * y
        hi, z = z >> top, z & ((1 << top) - 1)
        for r in self._fold:
            z += (hi & mask) * r
            hi >>= b
        out = 0
        for i in range(0, top, b):
            out |= (z >> i & mask) % s << i
        return out

    def _find_generator(self) -> int:
        km1, s = self.order - 1, self.s
        # for m = 1 a packed handle is the handle, and x*y mod s the product
        mul = self._mul_packed if self.m > 1 else lambda x, y: x * y % s
        qs = prime_factors(km1)  # none for GF(2), whose generator is 1
        for h in islice(self.elements_lex, 1, None):  # skip 0
            ph = self._pack(h)
            for q in qs:  # r = h^((k-1)/q), bits left to right; packed 1 is 1
                r = ph
                for bit in bin(km1 // q)[3:]:
                    r = mul(r, r) if bit == "0" else mul(mul(r, r), ph)
                if r == 1:
                    break
            else:
                return h
        raise AssertionError("no generator found")  # cannot happen in a field

    def _build_log_tables(self):
        s, m, k, theta = self.s, self.m, self.order, self.theta
        exp = []
        x = 1
        if m == 1:
            for _ in range(k - 1):
                exp.append(x)
                x = x * theta % s
        else:
            # x*theta by a split-half table step: x = lo + cut*hi, with lo
            # the low m//2 digits.  lo*theta and (cut*hi)*theta are held in
            # base 2s, so their sum has no carry, and red takes each half of
            # that sum back to base s, every digit mod s
            low, w, b = m // 2, 2 * s, self._b
            cut, wcut, ptheta = s**low, w**low, self._pack(theta)

            def wide(y):  # y*theta in base w
                y = self._mul_packed(self._pack(y), ptheta)
                return sum((y >> b * i) % (1 << b) * w**i for i in range(m))

            lo_t = [wide(lo) for lo in range(cut)]
            hi_t = [wide(cut * hi) for hi in range(s ** (m - low))]
            red = [0]
            for i in range(m - low):
                red = [r + d % s * s**i for d in range(w) for r in red]
            for _ in range(k - 1):
                exp.append(x)
                hi, lo = divmod(x, cut)
                whi, wlo = divmod(lo_t[lo] + hi_t[hi], wcut)
                x = red[wlo] + cut * red[whi]
        log = [None] * k
        for e, h in enumerate(exp):
            log[h] = e
        # the walk is a cycle through 1; it is all of GF(k)* iff it returns
        # to 1 first at step k-1, and an earlier return rewrites log[1]
        if x != 1 or log[1] != 0:
            raise AssertionError("theta does not have full order")
        # doubled, so a sum of two logs indexes it without reduction
        self._exp = tuple(exp) * 2
        self._log = log
        # for m > 1, zech[n] = log(1 + theta^n), None where that is 0, doubled;
        # adding 1 to a handle adds 1 to its constant coordinate
        if m > 1:
            self._zech = [log[h + 1 if h % s != s - 1 else h - (s - 1)]
                          for h in exp] * 2
        # -1 = theta^((k-1)/2) for odd k, and -x = x in characteristic 2
        half = (k - 1) // 2
        self._neg = (range(k) if s == 2 else
                     (0, *(self._exp[e + half] for e in log[1:])))

    # --- arithmetic ---

    def add(self, x: int, y: int) -> int:
        if self.m == 1:
            return (x + y) % self.s
        if x and y:
            # x + y = x*(1 + y/x); a negative index wraps mod k-1 on zech
            lx = self._log[x]
            z = self._zech[self._log[y] - lx]
            return 0 if z is None else self._exp[lx + z]
        return x or y

    def sub(self, x: int, y: int) -> int:
        return (x - y) % self.s if self.m == 1 else self.add(x, self._neg[y])

    def neg(self, x: int) -> int:
        return self._neg[x]

    def mul(self, x: int, y: int) -> int:
        if x == 0 or y == 0:
            return 0
        return self._exp[self._log[x] + self._log[y]]

    def pow(self, x: int, e: int) -> int:
        if x == 0:
            if e < 0:
                raise ValueError("0 to a negative power")
            return 1 if e == 0 else 0
        return self._exp[(self._log[x] * e) % (self.order - 1)]

    # --- views and serialization ---

    def element_texts(self) -> list[str]:
        """The text of every element, in handle order: x itself for m = 1,
        else its coordinates "[c0,c1,...]", constant term first."""
        digits = [str(c) for c in range(self.s)]
        if self.m == 1:
            return digits
        # product varies its last digit fastest, the handle its first (c0)
        return ["[" + ",".join(cs[::-1]) + "]"
                for cs in product(digits, repeat=self.m)]

    def __repr__(self):
        if self.m == 1:
            return f"GF({self.s})"
        return f"GF({self.s}^{self.m})"
