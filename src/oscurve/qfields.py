"""Exact scalar arithmetic: rationals and quadratic extensions Q(sqrt(d)).

Two coefficient domains are used everywhere in the package: plain
`fractions.Fraction` (arbitrary-precision rationals, always reduced, positive
denominator) and `QuadExt`, an element a + b*sqrt(d) with rational a, b and a
squarefree integer tag d.  The rational operations themselves are the stock
`Fraction` operators; this module adds the quadratic extension, square-root
extraction, and the field descriptor objects rings are built over.

Leaving QQ is decided here and nowhere else: `quadratic_roots` is the one
routine that solves a quadratic and moves to QQ(sqrt(disc)) when its
discriminant is not a rational square, and `field_of` is the one place that
reads the field off a tuple of values.

Values are immutable and all operations are pure, so they are safe to share
between threads.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ExtensionMismatchError, ExtensionUnsupportedError

Rational = Fraction


# ---------------------------------------------------------------------------
# integer factorization helpers (for squarefree normalization of d)
# ---------------------------------------------------------------------------

_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    # n odd composite, not a prime power of a small prime
    if n % 2 == 0:
        return 2
    from math import gcd

    c = 1
    while True:
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d
        c += 1


def factor_int(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}; n must be nonzero."""
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    factors: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    # trial division a bit beyond the hard-coded list
    p = 41
    while p * p <= n and p < 100000:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        p += 2
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if _is_probable_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return factors


def squarefree_core(q: Fraction) -> tuple[int, Fraction]:
    """Write sqrt(q) = scale * sqrt(core) with core a squarefree integer.

    Returns (core, scale); q must be nonzero.  The sign of q goes into core.
    """
    q = Fraction(q)
    if q == 0:
        raise ValueError("squarefree_core of 0")
    # sqrt(p/r) = sqrt(p*r)/r
    n = q.numerator * q.denominator
    sign = -1 if n < 0 else 1
    core = sign
    square = 1
    for p, e in factor_int(n).items():
        if e % 2:
            core *= p
        square *= p ** (e // 2)
    return core, Fraction(square, q.denominator)


def int_sqrt_exact(n: int) -> int | None:
    if n < 0:
        return None
    from math import isqrt

    r = isqrt(n)
    return r if r * r == n else None


def rational_sqrt(q: Fraction) -> Fraction | None:
    """Exact square root of a rational, or None when q is not a square."""
    q = Fraction(q)
    if q < 0:
        return None
    a = int_sqrt_exact(q.numerator)
    b = int_sqrt_exact(q.denominator)
    if a is None or b is None:
        return None
    return Fraction(a, b)


# ---------------------------------------------------------------------------
# quadratic extension elements
# ---------------------------------------------------------------------------


class QuadExt:
    """An element a + b*sqrt(d) of Q(sqrt(d)), d a squarefree integer != 0, 1.

    Elements with different d never combine, except that a purely rational
    element (b = 0) is retagged freely.  Division rationalizes by the
    conjugate; the norm a^2 - d*b^2 vanishes only at 0 because d is not a
    square.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b, d):
        if not isinstance(d, int) or d in (0, 1):
            raise ValueError(f"discriminant tag must be a squarefree integer != 0, 1: {d!r}")
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))
        object.__setattr__(self, "d", d)

    def __setattr__(self, *args):
        raise AttributeError("QuadExt values are immutable")

    def __reduce__(self):
        return (QuadExt, (self.a, self.b, self.d))

    # -- coercion ----------------------------------------------------------

    def _pair(self, other):
        """Align operands on one discriminant tag; rational values (b = 0)
        retag freely, genuinely different extensions refuse to combine."""
        if isinstance(other, QuadExt):
            if other.d == self.d:
                return self, other
            if other.b == 0:
                return self, QuadExt(other.a, 0, self.d)
            if self.b == 0:
                return QuadExt(self.a, 0, other.d), other
            raise ExtensionMismatchError(
                f"cannot combine sqrt({self.d}) with sqrt({other.d})"
            )
        if isinstance(other, (int, Fraction)):
            return self, QuadExt(other, 0, self.d)
        return None, None

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        x, o = self._pair(other)
        if o is None:
            return NotImplemented
        return QuadExt(x.a + o.a, x.b + o.b, x.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.d)

    def __sub__(self, other):
        x, o = self._pair(other)
        if o is None:
            return NotImplemented
        return QuadExt(x.a - o.a, x.b - o.b, x.d)

    def __rsub__(self, other):
        x, o = self._pair(other)
        if o is None:
            return NotImplemented
        return QuadExt(o.a - x.a, o.b - x.b, x.d)

    def __mul__(self, other):
        x, o = self._pair(other)
        if o is None:
            return NotImplemented
        return QuadExt(
            x.a * o.a + x.d * x.b * o.b,
            x.a * o.b + x.b * o.a,
            x.d,
        )

    __rmul__ = __mul__

    def inverse(self):
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in quadratic extension")
        return QuadExt(self.a / n, -self.b / n, self.d)

    def __truediv__(self, other):
        x, o = self._pair(other)
        if o is None:
            return NotImplemented
        return x * o.inverse()

    def __rtruediv__(self, other):
        x, o = self._pair(other)
        if o is None:
            return NotImplemented
        return o * x.inverse()

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = QuadExt(1, 0, self.d)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- structure ----------------------------------------------------------

    def conjugate(self):
        return QuadExt(self.a, -self.b, self.d)

    def norm(self) -> Fraction:
        return self.a * self.a - self.d * self.b * self.b

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def to_rational(self) -> Fraction:
        if self.b != 0:
            raise ExtensionUnsupportedError(f"{self} is not rational")
        return self.a

    # -- comparisons / hashing ----------------------------------------------

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __eq__(self, other):
        if isinstance(other, QuadExt):
            if self.b == 0 and other.b == 0:
                return self.a == other.a
            return self.d == other.d and self.a == other.a and self.b == other.b
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    # -- printing -----------------------------------------------------------

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        root = f"sqrt({self.d})"
        if self.b == 1:
            bpart = root
        elif self.b == -1:
            bpart = f"-{root}"
        else:
            bpart = f"{self.b}*{root}"
        if self.a == 0:
            return bpart
        sign = "-" if self.b < 0 else "+"
        mag = bpart.lstrip("-")
        return f"{self.a} {sign} {mag}"

    def __repr__(self):
        return f"QuadExt({self.a!r}, {self.b!r}, {self.d})"


def make_quadratic(a, b, d) -> Fraction | QuadExt:
    """Build a + b*sqrt(d) with d any nonzero rational, normalizing the tag.

    Returns a plain Fraction when the result is rational (b = 0 or d a
    square); otherwise a QuadExt over the squarefree integer core of d.
    """
    a, b, d = Fraction(a), Fraction(b), Fraction(d)
    if b == 0:
        return a
    root = rational_sqrt(d)
    if root is not None:
        return a + b * root
    core, scale = squarefree_core(d)
    return QuadExt(a, b * scale, core)


# ---------------------------------------------------------------------------
# field descriptors
# ---------------------------------------------------------------------------


class RationalField:
    """The field Q; coefficients are `fractions.Fraction`."""

    name = "QQ"

    def coerce(self, value) -> Fraction:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
            return Fraction(value)
        if isinstance(value, QuadExt):
            return value.to_rational()
        raise TypeError(f"cannot coerce {value!r} into QQ")

    @property
    def zero(self) -> Fraction:
        return Fraction(0)

    @property
    def one(self) -> Fraction:
        return Fraction(1)

    def sqrt(self, value):
        """Exact sqrt within the field, or None."""
        return rational_sqrt(self.coerce(value))

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


class QuadraticField:
    """The field Q(sqrt(d)) for a fixed squarefree integer d."""

    def __init__(self, d):
        d = Fraction(d)
        if d == 0:
            raise ValueError("d must be nonzero")
        if rational_sqrt(d) is not None:
            raise ValueError(f"d = {d} is a rational square; use QQ")
        core, _ = squarefree_core(d)
        self.d = core
        self.name = f"QQ(sqrt({core}))"

    def coerce(self, value) -> QuadExt:
        if isinstance(value, QuadExt):
            if value.d == self.d or value.b == 0:
                return QuadExt(value.a, value.b, self.d)
            raise ExtensionMismatchError(
                f"element of QQ(sqrt({value.d})) does not live in {self.name}"
            )
        if isinstance(value, (int, Fraction, str)):
            return QuadExt(Fraction(value), 0, self.d)
        raise TypeError(f"cannot coerce {value!r} into {self.name}")

    @property
    def zero(self) -> QuadExt:
        return QuadExt(0, 0, self.d)

    @property
    def one(self) -> QuadExt:
        return QuadExt(1, 0, self.d)

    def sqrt(self, value):
        """Exact square root of value inside Q(sqrt(d)), or None.

        Solving (p + q*sqrt(d))^2 = a + b*sqrt(d) reduces to rational square
        roots: p^2 is a root of t^2 - a*t + d*b^2/4.
        """
        v = self.coerce(value)
        a, b = v.a, v.b
        if b == 0:
            r = rational_sqrt(a)
            if r is not None:
                return self.coerce(r)
            r = rational_sqrt(a / self.d)
            if r is not None:
                return QuadExt(0, r, self.d)
            return None
        disc = a * a - self.d * b * b
        root = rational_sqrt(disc)
        if root is None:
            return None
        for t in ((a + root) / 2, (a - root) / 2):
            p = rational_sqrt(t)
            if p is not None and p != 0:
                return QuadExt(p, b / (2 * p), self.d)
        return None

    def __eq__(self, other):
        return isinstance(other, QuadraticField) and other.d == self.d

    def __hash__(self):
        return hash(("QuadraticField", self.d))

    def __repr__(self):
        return self.name


QQ = RationalField()


def field_of(values):
    """The field the values live in: QQ(sqrt(d)) for the first value with an
    irrational part, QQ when every value is rational."""
    for v in values:
        if isinstance(v, QuadExt) and v.b != 0:
            return QuadraticField(v.d)
    return QQ


def quadratic_roots(c2, c1, c0, field=QQ):
    """The two roots of c2*l^2 + c1*l + c0 (c2 != 0) and the field they live in.

    Over QQ a discriminant that is not a rational square moves the roots to
    QQ(sqrt(disc)).  Over QQ(sqrt(d)) the roots stay in the field when the
    discriminant has a square root there; otherwise they need a nested
    radical and the result is None.
    """
    disc = c1 * c1 - 4 * c2 * c0
    if isinstance(field, RationalField):
        root = make_quadratic(0, 1, disc)
        if isinstance(root, QuadExt):
            field = QuadraticField(root.d)
    else:
        root = field.sqrt(disc)
        if root is None:
            return None
    two_c2, minus_c1 = field.coerce(2 * c2), field.coerce(-c1)
    return ((minus_c1 + root) / two_c2, (minus_c1 - root) / two_c2), field


def parse_scalar(text: str):
    """Parse 'p/q', 'p', or 'a + b*sqrt(d)' textual scalar forms."""
    text = text.strip()
    if "sqrt" not in text:
        return Fraction(text)
    # very small ad-hoc reader for the documented a + b*sqrt(d) form
    import re

    m = re.fullmatch(
        r"(?:(?P<a>[+-]?\d+(?:/\d+)?)\s*)?"
        r"(?P<sign>[+-])?\s*(?:(?P<b>\d+(?:/\d+)?)\s*\*\s*)?"
        r"sqrt\(\s*(?P<d>-?\d+(?:/\d+)?)\s*\)",
        text,
    )
    if m is None:
        raise ValueError(f"unreadable scalar: {text!r}")
    a = Fraction(m.group("a")) if m.group("a") else Fraction(0)
    b = Fraction(m.group("b")) if m.group("b") else Fraction(1)
    if m.group("sign") == "-":
        b = -b
    return make_quadratic(a, b, Fraction(m.group("d")))
