"""Exact arithmetic in small finite fields and polynomials over them.

A field of order p**m is built as F_p[t] / (modulus) where the modulus is the
lexicographically smallest monic irreducible of degree m, coefficients compared
as the tuple (c_{m-1}, ..., c_0); each candidate is tested by distinct-degree
factorization over F_p.  The same (p, m) always reconstructs the same field,
elements, and factorizations, on any machine.

Elements are immutable little-endian residue vectors.  Int lists of residues
are the element kernel and nothing else: products reduce modulo the modulus on
plain ints, and inverses run the extended Euclidean algorithm on int-list
polynomials over F_p, several times faster per inverse than a Fermat power or
Euclid on Polynomial objects.  Polynomial, with FieldElement coefficients, is
the only polynomial type.  Factorization is squarefree decomposition, then
distinct-degree splitting, then equal-degree splitting driven by a fixed-seed
pseudorandom sequence (seed 0x5EED), with the factor list sorted, so it is
fully deterministic as well.

Each field keeps one lookup table, built on first use: squares_table(), one
byte per element index holding 1 at every square (zero included) and 0
elsewhere.  A prime field fills it from x*x mod p on plain ints, an
extension field from element products.  The curve point counts and the
oracle's place counts index it directly; is_square is Euler's criterion (pow
on ints for a prime field), so a single test never builds the table.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache

FIELD_SIZE_CAP = 2**63
EDF_SEED = 0x5EED


class NotASquare(ArithmeticError):
    """Square root of a quadratic non-residue was requested."""


class ZeroPolynomial(ArithmeticError):
    """The zero polynomial has no factorization into irreducibles."""


class IncompatibleFields(ValueError):
    """No embedding exists (different characteristic or degree not dividing)."""


class InvariantViolation(RuntimeError):
    """A standing invariant failed; a bug, never bad input."""


# ---------------------------------------------------------------------------
# integer-list polynomials over the prime field F_p, for _vec_inv only
#
# Little-endian lists of residues, no trailing zeros, zero polynomial = [].
# ---------------------------------------------------------------------------


def pp_trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def pp_sub(p, f, g):
    n = max(len(f), len(g))
    out = [0] * n
    for i, c in enumerate(f):
        out[i] = c
    for i, c in enumerate(g):
        out[i] = (out[i] - c) % p
    return pp_trim(out)


def pp_mul(p, f, g):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return pp_trim([c % p for c in out])


def pp_scale(p, f, c):
    c %= p
    if c == 0:
        return []
    return [a * c % p for a in f]


def pp_divmod(p, f, g):
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    f = list(f)
    dg = len(g) - 1
    inv_lead = pow(g[-1], p - 2, p)
    quot = [0] * max(len(f) - dg, 0)
    while len(f) - 1 >= dg and f:
        k = len(f) - 1 - dg
        c = f[-1] * inv_lead % p
        quot[k] = c
        for j, b in enumerate(g):
            f[k + j] = (f[k + j] - c * b) % p
        pp_trim(f)
    return pp_trim(quot), f


# Miller-Rabin with the first twelve primes as bases is exact below this bound
# (Sorenson and Webster 2015), which covers FIELD_SIZE_CAP
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_EXACT_BELOW = 318665857834031151167461


def _is_prime(n):
    """Deterministic Miller-Rabin; ValueError where it would not be exact."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n >= _MR_EXACT_BELOW:
        raise ValueError(f"primality of {n} is not decided above {_MR_EXACT_BELOW}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _iroot(n, m):
    """floor(n ** (1/m)) for integers n >= 1, m >= 1, by Newton's method."""
    x = 1 << -(-n.bit_length() // m)  # at least the root
    while True:
        y = ((m - 1) * x + n // x ** (m - 1)) // m
        if y >= x:
            return x
        x = y


def prime_power(q):
    """(p, m) with q = p**m; ValueError otherwise.

    Tries exponents from the largest down: only at m itself is the exact m-th
    root of p**m a prime.  Even q is accepted: the trace arithmetic of
    classify serves any q.
    """
    if not isinstance(q, int) or q < 2:
        raise ValueError(f"{q!r} is not a prime power")
    for m in range(q.bit_length() - 1, 0, -1):
        p = _iroot(q, m)
        if p >= 2 and p**m == q and _is_prime(p):
            return p, m
    raise ValueError(f"{q} is not a prime power")


# ---------------------------------------------------------------------------
# fields and elements
# ---------------------------------------------------------------------------


class FiniteField:
    """The field of order p**m with the canonical (lex-smallest) modulus.

    Do not instantiate directly; go through make_field so that equal parameters
    share one object and all caches stay coherent.
    """

    __slots__ = (
        "p",
        "m",
        "order",
        "modulus_coeffs",
        "_modfull",
        "_zero",
        "_one",
        "_gen",
        "_squares",
        "_nonsquare",
    )

    def __init__(self, p, m, modulus_coeffs):
        self.p = p
        self.m = m
        self.order = p**m
        # little-endian, length m + 1, leading coefficient 1
        self.modulus_coeffs = modulus_coeffs
        self._modfull = list(modulus_coeffs)
        self._zero = FieldElement(self, (0,) * m)
        self._one = FieldElement(self, (1,) + (0,) * (m - 1))
        if m > 1:
            self._gen = FieldElement(self, (0, 1) + (0,) * (m - 2))
        else:
            self._gen = self._one
        self._squares = None
        self._nonsquare = None

    @property
    def zero(self):
        return self._zero

    @property
    def one(self):
        return self._one

    @property
    def gen(self):
        """Residue class of t, a root of the modulus (equals 1 when m = 1)."""
        return self._gen

    def element(self, value):
        """Coerce an integer (via F_p) or a little-endian residue sequence."""
        if isinstance(value, FieldElement):
            if value.field is not self:
                raise IncompatibleFields("element belongs to a different field")
            return value
        if isinstance(value, int):
            return FieldElement(self, (value % self.p,) + (0,) * (self.m - 1))
        coeffs = tuple(int(c) % self.p for c in value)
        if len(coeffs) > self.m:
            raise ValueError("too many coefficients for this field")
        return FieldElement(self, coeffs + (0,) * (self.m - len(coeffs)))

    def from_index(self, i):
        """Element number i in the canonical order (base-p digits, c_0 lowest)."""
        coeffs = []
        for _ in range(self.m):
            coeffs.append(i % self.p)
            i //= self.p
        return FieldElement(self, tuple(coeffs))

    def elements(self):
        for i in range(self.order):
            yield self.from_index(i)

    def nonzero_elements(self):
        for i in range(1, self.order):
            yield self.from_index(i)

    def squares_table(self):
        """Bytes indexed by element index: 1 at squares (zero too), else 0.

        Filled as a bytearray and kept as immutable bytes, since every caller
        shares it.
        """
        if self._squares is None:
            table = bytearray(self.order)
            if self.m == 1:
                p = self.p
                for x in range((p + 1) // 2):
                    table[x * x % p] = 1
            else:
                for e in self.elements():
                    table[(e * e).index] = 1
            self._squares = bytes(table)
        return self._squares

    def nonsquare(self):
        """Canonically smallest non-residue, used for twists and square roots."""
        if self._nonsquare is None:
            for e in self.nonzero_elements():
                if not is_square(e):
                    self._nonsquare = e
                    break
        return self._nonsquare

    def __eq__(self, other):
        return self is other or (
            isinstance(other, FiniteField) and (self.p, self.m) == (other.p, other.m)
        )

    def __hash__(self):
        return hash((self.p, self.m))

    def __repr__(self):
        if self.m == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.m})"


def _vec_mul(p, m, modfull, a, b):
    if m == 1:
        return (a[0] * b[0] % p,)
    full = [0] * (2 * m - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                full[i + j] += x * y
    for i in range(2 * m - 2, m - 1, -1):
        c = full[i] % p
        if c:
            k = i - m
            for j in range(m):
                full[k + j] -= c * modfull[j]
        full[i] = 0
    return tuple(c % p for c in full[:m])


def _vec_inv(p, modfull, a):
    """Inverse modulo the field modulus via the extended Euclidean algorithm."""
    r0, r1 = list(modfull), pp_trim(list(a))
    if not r1:
        raise ZeroDivisionError("inverse of zero field element")
    s0, s1 = [], [1]
    while len(r1) > 1:
        q, r = pp_divmod(p, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, pp_sub(p, s0, pp_mul(p, q, s1))
    c = pow(r1[0], p - 2, p)
    return pp_scale(p, s1, c)


class FieldElement:
    """Immutable element of a FiniteField; supports +, -, *, /, ** and hashing."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs

    @property
    def index(self):
        """Position in the canonical element order; doubles as the sort key."""
        idx = 0
        for c in reversed(self.coeffs):
            idx = idx * self.field.p + c
        return idx

    def is_zero(self):
        return not any(self.coeffs)

    def __bool__(self):
        return any(self.coeffs)

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field is not self.field and other.field != self.field:
                raise IncompatibleFields("mixed-field arithmetic")
            return other
        if isinstance(other, int):
            return self.field.element(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        p = self.field.p
        return FieldElement(
            self.field, tuple((x + y) % p for x, y in zip(self.coeffs, o.coeffs))
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        p = self.field.p
        return FieldElement(
            self.field, tuple((x - y) % p for x, y in zip(self.coeffs, o.coeffs))
        )

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        f = self.field
        return FieldElement(f, _vec_mul(f.p, f.m, f._modfull, self.coeffs, o.coeffs))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __neg__(self):
        p = self.field.p
        return FieldElement(self.field, tuple((-x) % p for x in self.coeffs))

    def inverse(self):
        f = self.field
        inv = _vec_inv(f.p, f._modfull, self.coeffs)
        return FieldElement(f, tuple(inv) + (0,) * (f.m - len(inv)))

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        f = self.field
        result = f.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def frobenius(self, times=1):
        """Apply x -> x**p the given number of times."""
        return self ** (self.field.p ** times)

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.field == other.field and self.coeffs == other.coeffs
        if isinstance(other, int):
            return self == self.field.element(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.field.p, self.field.m, self.coeffs))

    def __str__(self):
        # canonical text form: comma-separated little-endian residues
        return ",".join(str(c) for c in self.coeffs)

    def __repr__(self):
        return f"FieldElement({self} in {self.field!r})"


def make_field(p, m=1):
    """Return the canonical field of order p**m (cached, so also a singleton).

    p must be an odd prime and p**m must stay below 2**63.  Curve-level code
    additionally requires p > 3; the plain field arithmetic does not.
    """
    return _make_field(p, m)


def field_of_order(q):
    """The canonical field with q elements, for q an odd prime power."""
    if not isinstance(q, int) or q % 2 == 0:
        raise ValueError(f"{q!r} is not an odd prime power")
    return make_field(*prime_power(q))


@lru_cache(maxsize=None)
def _make_field(p, m):
    if not isinstance(p, int) or not isinstance(m, int):
        raise TypeError("p and m must be integers")
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == 2:
        raise ValueError("even characteristic is not supported")
    if m < 1:
        raise ValueError("extension degree must be at least 1")
    if p**m >= FIELD_SIZE_CAP:
        raise ValueError(f"field size {p}^{m} exceeds the cap 2^63")
    if m == 1:
        return FiniteField(p, 1, (0, 1))
    base = _make_field(p, 1)
    for idx in range(p**m):
        low = []
        k = idx
        for _ in range(m):
            low.append(k % p)
            k //= p
        cand = Polynomial(base, low + [1])
        # irreducible exactly when no factor of degree at most m/2 splits off
        if _distinct_degree(cand) == [(cand, m)]:
            return FiniteField(p, m, tuple(low + [1]))
    raise InvariantViolation(f"no monic irreducible of degree {m} over F_{p}")


def is_square(e):
    """Whether e is a square in its field (zero counts as a square)."""
    if e.is_zero():
        return True
    field = e.field
    if field.m == 1:
        p = field.p
        return pow(e.coeffs[0], (p - 1) // 2, p) == 1
    return e ** ((field.order - 1) // 2) == field.one


def sqrt(e):
    """Canonical square root: the one whose coefficient vector sorts first.

    Raises NotASquare on non-residues.  Uses e**((q+1)/4) when q = 3 mod 4 and
    Tonelli-Shanks otherwise.
    """
    if e.is_zero():
        return e
    if not is_square(e):
        raise NotASquare(f"{e} is not a square in {e.field!r}")
    q = e.field.order
    if q % 4 == 3:
        r = e ** ((q + 1) // 4)
    else:
        r = _tonelli_shanks(e)
    rn = -r
    return r if r.index <= rn.index else rn


def _tonelli_shanks(e):
    field = e.field
    q = field.order
    s, t = 0, q - 1
    while t % 2 == 0:
        s += 1
        t //= 2
    z = field.nonsquare() ** t
    r = e ** ((t + 1) // 2)
    w = e**t
    while w != field.one:
        # order of w is a power of two; find it
        k, wk = 0, w
        while wk != field.one:
            wk = wk * wk
            k += 1
        b = z
        for _ in range(s - k - 1):
            b = b * b
        z = b * b
        w = w * z
        r = r * b
        s = k
    return r


# ---------------------------------------------------------------------------
# polynomials over a FiniteField
# ---------------------------------------------------------------------------


class Polynomial:
    """Univariate polynomial with FieldElement coefficients, little-endian."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        elems = []
        for c in coeffs:
            elems.append(field.element(c) if not isinstance(c, FieldElement) else c)
        while elems and elems[-1].is_zero():
            elems.pop()
        self.field = field
        self.coeffs = tuple(elems)

    @classmethod
    def x(cls, field):
        return cls(field, [field.zero, field.one])

    @classmethod
    def constant(cls, field, c):
        return cls(field, [c])

    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def leading(self):
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def monic(self):
        if self.is_zero():
            raise ZeroPolynomial("cannot normalize the zero polynomial")
        inv = self.leading().inverse()
        return Polynomial(self.field, [c * inv for c in self.coeffs])

    def evaluate(self, x):
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self):
        return Polynomial(
            self.field, [i * c for i, c in enumerate(self.coeffs)][1:]
        )

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        z = self.field.zero
        a = list(self.coeffs) + [z] * (n - len(self.coeffs))
        b = list(other.coeffs) + [z] * (n - len(other.coeffs))
        return Polynomial(self.field, [x + y for x, y in zip(a, b)])

    def __sub__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        z = self.field.zero
        a = list(self.coeffs) + [z] * (n - len(self.coeffs))
        b = list(other.coeffs) + [z] * (n - len(other.coeffs))
        return Polynomial(self.field, [x - y for x, y in zip(a, b)])

    def __neg__(self):
        return Polynomial(self.field, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            return Polynomial(self.field, [c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return Polynomial(self.field, [])
        z = self.field.zero
        out = [z] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Polynomial(self.field, out)

    def __divmod__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dg = other.degree()
        inv_lead = other.leading().inverse()
        z = self.field.zero
        quot = [z] * max(len(rem) - dg, 0)
        while len(rem) - 1 >= dg and rem:
            k = len(rem) - 1 - dg
            c = rem[-1] * inv_lead
            quot[k] = c
            for j, b in enumerate(other.coeffs):
                rem[k + j] = rem[k + j] - c * b
            while rem and rem[-1].is_zero():
                rem.pop()
        return Polynomial(self.field, quot), Polynomial(self.field, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def gcd(self, other):
        f, g = self, other
        while not g.is_zero():
            f, g = g, f % g
        if f.is_zero():
            return f
        return f.monic()

    def pow_mod(self, n, modulus):
        result = Polynomial(self.field, [self.field.one])
        base = self % modulus
        while n:
            if n & 1:
                result = (result * base) % modulus
            base = (base * base) % modulus
            n >>= 1
        return result

    def key(self):
        """Deterministic sort key: degree, then coefficients from the top down."""
        return (self.degree(), tuple(c.index for c in reversed(self.coeffs)))

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        prime = self.field.m == 1
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c.is_zero():
                continue
            cs = str(c) if prime else "(" + str(c) + ")"
            if i == 0:
                parts.append(cs)
            else:
                xs = "x" if i == 1 else f"x^{i}"
                if c == self.field.one:
                    parts.append(xs)
                else:
                    parts.append(f"{cs}*{xs}")
        return "+".join(parts)

    def __repr__(self):
        return f"Polynomial({self} over {self.field!r})"


def factor(f):
    """Factor into irreducibles: sorted list of (monic Polynomial, multiplicity).

    Deterministic: the equal-degree stage draws from random.Random(0x5EED)
    seeded afresh on every call, and the result is sorted by Polynomial.key().
    Raises ZeroPolynomial on zero input.
    """
    if f.is_zero():
        raise ZeroPolynomial("cannot factor the zero polynomial")
    if f.degree() == 0:
        return []
    rng = random.Random(EDF_SEED)
    out = []
    for part, mult in squarefree_decomposition(f):
        for piece, d in _distinct_degree(part):
            for irr in _equal_degree(piece, d, rng):
                out.append((irr, mult))
    out.sort(key=lambda pair: pair[0].key())
    return out


def roots(f):
    """Roots in the coefficient field, sorted canonically, via factor()."""
    found = []
    for h, _ in factor(f):
        if h.degree() == 1:
            found.append(-h.coeffs[0])
    found.sort(key=lambda e: e.index)
    return found


def _pth_root_poly(f):
    field = f.field
    p = field.p
    inv_frob = field.order // p  # x -> x**(q/p) inverts the Frobenius
    coeffs = []
    for i in range(0, len(f.coeffs), p):
        coeffs.append(f.coeffs[i] ** inv_frob)
    return Polynomial(field, coeffs)


def squarefree_decomposition(f):
    """Squarefree decomposition of a nonzero Polynomial.

    Returns pairwise-coprime monic squarefree parts with multiplicities, so
    f = leading * prod(part ** mult); constant parts are omitted.
    Characteristic-p aware: p-th power parts are peeled off through the
    inverse Frobenius, so inputs like h(x)**p work.  Raises ZeroPolynomial on
    zero input.
    """
    f = f.monic()
    out = []
    scale = 1
    while f.degree() > 0:
        d = f.derivative()
        if d.is_zero():
            f = _pth_root_poly(f)
            scale *= f.field.p
            continue
        g = f.gcd(d)
        w = f // g
        i = 1
        while w.degree() > 0:
            y = w.gcd(g)
            z = w // y
            if z.degree() > 0:
                out.append((z, i * scale))
            w = y
            g = g // y
            i += 1
        if g.degree() > 0:
            f = _pth_root_poly(g)
            scale *= f.field.p
        else:
            break
    return out


def _distinct_degree(f):
    field = f.field
    q = field.order
    x = Polynomial.x(field)
    out = []
    h = x.pow_mod(q, f)
    d = 1
    while 2 * d <= f.degree():
        g = (h - x).gcd(f)
        if g.degree() > 0:
            out.append((g, d))
            f = f // g
            h = h % f
        if f.degree() == 0:
            return out
        h = h.pow_mod(q, f)
        d += 1
    if f.degree() > 0:
        out.append((f, f.degree()))
    return out


def _equal_degree(f, d, rng):
    if f.degree() == d:
        return [f.monic()]
    field = f.field
    q = field.order
    exponent = (q**d - 1) // 2
    while True:
        r = Polynomial(
            field, [field.from_index(rng.randrange(q)) for _ in range(f.degree())]
        )
        if r.degree() < 1:
            continue
        h = r.pow_mod(exponent, f)
        g = (h - Polynomial.constant(field, field.one)).gcd(f)
        if 0 < g.degree() < f.degree():
            return _equal_degree(g, d, rng) + _equal_degree(f // g, d, rng)


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------


class FieldEmbedding:
    """Ring embedding of a subfield into an extension, fixed by the generator
    image (the first root of the source modulus found by factor() over the
    target)."""

    __slots__ = ("source", "target", "generator_image", "_powers")

    def __init__(self, source, target, generator_image):
        self.source = source
        self.target = target
        self.generator_image = generator_image
        pw = [target.one]
        for _ in range(source.m - 1):
            pw.append(pw[-1] * generator_image)
        self._powers = pw

    def __call__(self, e):
        if e.field != self.source:
            raise IncompatibleFields("element is not in the source field")
        acc = self.target.zero
        for c, pw in zip(e.coeffs, self._powers):
            if c:
                acc = acc + pw * c
        return acc

    def __repr__(self):
        return f"FieldEmbedding({self.source!r} -> {self.target!r})"


@lru_cache(maxsize=None)
def embedding(src, dst):
    """The canonical embedding F_{p^n} -> F_{p^{nk}}.

    Raises IncompatibleFields unless characteristics match and src.m | dst.m.
    """
    if src.p != dst.p:
        raise IncompatibleFields("different characteristics")
    if dst.m % src.m != 0:
        raise IncompatibleFields(f"{src!r} does not embed in {dst!r}")
    if src.m == 1:
        return FieldEmbedding(src, dst, dst.one)
    if src == dst:
        return FieldEmbedding(src, dst, dst.gen)
    lifted = Polynomial(dst, [dst.element(c) for c in src.modulus_coeffs])
    first = factor(lifted)[0][0]
    image = -first.coeffs[0]
    # the image really is a root of the source modulus
    if first.degree() != 1 or not lifted.evaluate(image).is_zero():
        raise InvariantViolation(f"the modulus of {src!r} has no root in {dst!r}")
    return FieldEmbedding(src, dst, image)
