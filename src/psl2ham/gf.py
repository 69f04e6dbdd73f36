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
coordinate order.  Discrete logs are full precomputed tables, and
addition for m > 1 goes through the Zech logarithm
zech[n] = log(1 + theta^n): x + y = x*(1 + y/x), so every table is O(k).
"""

from __future__ import annotations

from itertools import product


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


# --- polynomial helpers over GF(s), coefficient tuples, constant term first ---

def _poly_trim(p):
    i = len(p)
    while i > 0 and p[i - 1] == 0:
        i -= 1
    return p[:i]


def _poly_mulmod_s(a, b, s):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % s
    return tuple(_poly_trim(tuple(out)))


def _poly_mod(a, mod, s):
    # mod is monic
    a = list(a)
    dm = len(mod) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c:
            a[i] = 0
            for j in range(dm):
                a[i - dm + j] = (a[i - dm + j] - c * mod[j]) % s
    return tuple(_poly_trim(tuple(a)))


def _poly_divides(d, f, s):
    """True iff monic d divides monic f over GF(s)."""
    return not _poly_mod(f, d, s)


def _is_irreducible(f, s) -> bool:
    """Trial division by every monic polynomial of degree <= deg(f)/2."""
    deg = len(f) - 1
    if deg == 1:
        return True
    if f[0] == 0:
        return False  # divisible by x
    for d in range(1, deg // 2 + 1):
        for coeffs in product(range(s), repeat=d):
            if _poly_divides(coeffs + (1,), f, s):
                return False
    return True


def smallest_irreducible(s: int, m: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree m over GF(s)."""
    for coeffs in product(range(s), repeat=m):
        f = coeffs + (1,)
        if _is_irreducible(f, s):
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
        k = self.order
        self.modulus = smallest_irreducible(s, m)

        # coordinate tables: handle -> coeff tuple and back
        self._coeffs = []
        for h in range(k):
            cs, v = [], h
            for _ in range(m):
                v, r = divmod(v, s)
                cs.append(r)
            self._coeffs.append(tuple(cs))
        self._enc = {cs: h for h, cs in enumerate(self._coeffs)}

        self._neg = tuple(self._enc[tuple((-c) % s for c in cs)]
                          for cs in self._coeffs)

        # elements in coordinate-lex order (constant term most significant)
        self.elements_lex = tuple(sorted(range(k), key=self._coeffs.__getitem__))

        self.theta = self._find_generator()
        self._build_log_tables()

    # --- construction internals ---

    def _mul_poly(self, x: int, y: int) -> int:
        prod_ = _poly_mulmod_s(_poly_trim(self._coeffs[x]),
                               _poly_trim(self._coeffs[y]), self.s)
        red = _poly_mod(prod_, self.modulus, self.s)
        return self._enc[red + (0,) * (self.m - len(red))]

    def _pow_poly(self, x: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self._mul_poly(r, x)
            x = self._mul_poly(x, x)
            e >>= 1
        return r

    def _find_generator(self) -> int:
        km1 = self.order - 1
        if km1 == 1:
            return 1
        qs = prime_factors(km1)
        for h in self.elements_lex:
            if h == 0:
                continue
            if all(self._pow_poly(h, km1 // q) != 1 for q in qs):
                return h
        raise AssertionError("no generator found")  # cannot happen in a field

    def _build_log_tables(self):
        k = self.order
        exp = []
        log = [None] * k
        x = 1
        for e in range(k - 1):
            exp.append(x)
            if log[x] is not None:
                raise AssertionError("theta does not have full order")
            log[x] = e
            x = self._mul_poly(x, self.theta)
        if x != 1:
            raise AssertionError("theta does not have full order")
        # doubled, so a sum of two logs indexes it without reduction
        self._exp = tuple(exp) * 2
        self._log = log
        # zech[n] = log(1 + theta^n), None where that is 0 (log[0] is None);
        # adding 1 to a handle adds 1 to its constant coordinate
        s = self.s
        self._zech = [log[h + 1 if h % s != s - 1 else h - (s - 1)]
                      for h in exp]

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

    def neg(self, x: int) -> int:
        return self._neg[x]

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self._neg[y])

    def mul(self, x: int, y: int) -> int:
        if x == 0 or y == 0:
            return 0
        return self._exp[self._log[x] + self._log[y]]

    def inv(self, x: int) -> int:
        if x == 0:
            raise ValueError("0 has no multiplicative inverse")
        return self._exp[(-self._log[x]) % (self.order - 1)]

    def pow(self, x: int, e: int) -> int:
        if x == 0:
            if e < 0:
                raise ValueError("0 to a negative power")
            return 1 if e == 0 else 0
        return self._exp[(self._log[x] * e) % (self.order - 1)]

    def dlog(self, x: int) -> int:
        """e in [0, k-2] with theta^e = x; table lookup."""
        if x == 0:
            raise ValueError("dlog(0) is undefined")
        return self._log[x]

    def sqrt_list(self, x: int) -> list[int]:
        """All square roots of x, in coordinate-lex order."""
        if x == 0:
            return [0]
        e = self._log[x]
        if self.order % 2 == 1 and e % 2 == 1:
            return []
        if self.order % 2 == 0:
            # char 2: squaring is a bijection
            return [self._exp[(e * (self.order // 2)) % (self.order - 1)]]
        r = self._exp[e // 2]
        return sorted({r, self._neg[r]}, key=self._coeffs.__getitem__)

    # --- views and serialization ---

    def element_str(self, x: int) -> str:
        if self.m == 1:
            return str(x)
        return "[" + ",".join(str(c) for c in self._coeffs[x]) + "]"

    def parse_element(self, text: str) -> int:
        text = text.strip()
        if self.m == 1:
            v = int(text)
            if not 0 <= v < self.s:
                raise ValueError(f"residue {v} out of range for GF({self.s})")
            return v
        if not (text.startswith("[") and text.endswith("]")):
            raise ValueError(f"malformed element {text!r}")
        cs = tuple(int(c) for c in text[1:-1].split(","))
        if len(cs) != self.m or any(not 0 <= c < self.s for c in cs):
            raise ValueError(f"malformed element {text!r}")
        return self._enc[cs]

    def __repr__(self):
        if self.m == 1:
            return f"GF({self.s})"
        return f"GF({self.s}^{self.m})"
