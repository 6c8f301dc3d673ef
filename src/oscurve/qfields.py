"""Exact scalar arithmetic: rationals and quadratic extensions Q(sqrt(d)).

Two coefficient domains are used everywhere in the package: plain
`fractions.Fraction` (arbitrary-precision rationals, always reduced, positive
denominator) and `QuadExt`, an element a + b*sqrt(d) with rational a, b and an
integer tag d.  The rational operations themselves are the stock `Fraction`
operators; this module adds the quadratic extension, square-root extraction,
and the field descriptor objects rings are built over.

A tag is a non-square integer with no small square factors.  No integer is
factored, so one field may carry several tags; `_tag_ratio` is the one test
that two tags name one field (their ratio is a rational square).

Leaving QQ is decided here and nowhere else: `quadratic_roots` is the one
routine that solves a quadratic and moves to QQ(sqrt(disc)) when its
discriminant is not a rational square, and `field_of` is the one place that
reads the field off a tuple of values.

Values are immutable and all operations are pure, so they are safe to share
between threads.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .errors import ExtensionMismatchError, ExtensionUnsupportedError


# ---------------------------------------------------------------------------
# square roots and discriminant tags
# ---------------------------------------------------------------------------


def int_sqrt_exact(n: int) -> int | None:
    if n < 0:
        return None
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


# squarefree_core strips p^2 for every prime p below this bound, and so every square below it
_TRIAL_BOUND = 1000
_COMPOSITES = {m for p in range(2, isqrt(_TRIAL_BOUND) + 1) for m in range(p * p, _TRIAL_BOUND, p)}
_TRIAL_PRIMES = sorted(set(range(2, _TRIAL_BOUND)) - _COMPOSITES)


def squarefree_core(q: Fraction) -> tuple[int, Fraction]:
    """Write sqrt(q) = scale * sqrt(core) with core an integer tag.

    Returns (core, scale); q must be nonzero.  The sign of q goes into core.
    The square p^2 is divided out for every prime p below `_TRIAL_BOUND`, and
    a cofactor that is then a perfect square is folded in as well; the
    square of a larger prime may stay in the tag, which names the same field.
    """
    q = Fraction(q)
    if q == 0:
        raise ValueError("squarefree_core of 0")
    # sqrt(p/r) = sqrt(p*r)/r
    core = q.numerator * q.denominator
    square = 1
    for p in _TRIAL_PRIMES:
        if p * p > abs(core):
            break
        while core % (p * p) == 0:
            core //= p * p
            square *= p
    root = int_sqrt_exact(abs(core))
    if root is not None:
        core //= root * root
        square *= root
    return core, Fraction(square, q.denominator)


def _tag_ratio(d: int, e: int) -> Fraction | None:
    """The one field-identity test for discriminant tags: d and e name one
    field exactly when e/d is the square of a rational r, and then
    sqrt(e) = r*sqrt(d).  None when the fields differ (a negative ratio
    included)."""
    return rational_sqrt(Fraction(e, d))


# ---------------------------------------------------------------------------
# quadratic extension elements
# ---------------------------------------------------------------------------


class QuadExt:
    """An element a + b*sqrt(d) of Q(sqrt(d)), d a non-square integer tag.

    Operands whose tags name one field (`_tag_ratio`) combine over the tag of
    the left operand; a purely rational element (b = 0) is retagged freely.
    Division rationalizes by the conjugate; the norm a^2 - d*b^2 vanishes
    only at 0 because d is not a square.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b, d):
        if not isinstance(d, int) or d in (0, 1):
            raise ValueError(f"discriminant tag must be an integer != 0, 1: {d!r}")
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))
        object.__setattr__(self, "d", d)

    def __setattr__(self, *args):
        raise AttributeError("QuadExt values are immutable")

    def __reduce__(self):
        return (QuadExt, (self.a, self.b, self.d))

    # -- coercion ----------------------------------------------------------

    def _over(self, d: int) -> "QuadExt":
        """The same value written over the tag d; refuses when d names
        another field."""
        if self.b == 0:
            return QuadExt(self.a, 0, d)
        r = _tag_ratio(d, self.d)
        if r is None:
            raise ExtensionMismatchError(f"cannot combine sqrt({self.d}) with sqrt({d})")
        return QuadExt(self.a, self.b * r, d)

    def _pair(self, other):
        """Align operands on one discriminant tag: the tag of self, unless
        self is rational and other is not."""
        if isinstance(other, QuadExt):
            if other.d == self.d:
                return self, other
            if self.b == 0 and other.b != 0:
                return self._over(other.d), other
            return self, other._over(self.d)
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

    def to_rational(self) -> Fraction:
        if self.b != 0:
            raise ExtensionUnsupportedError(f"{self} is not rational")
        return self.a

    # -- comparisons / hashing ----------------------------------------------

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __eq__(self, other):
        if isinstance(other, QuadExt):
            if self.a != other.a:
                return False
            if other.d == self.d or self.b == 0 or other.b == 0:
                return self.b == other.b
            r = _tag_ratio(self.d, other.d)
            return r is not None and self.b == other.b * r
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self):
        # b^2*d does not change when the value is retagged
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b * self.b * self.d))

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
    square); otherwise a QuadExt over the integer tag `squarefree_core`
    gives for d.
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
    """The field Q(sqrt(d)), named by the integer tag `squarefree_core`
    gives for d.

    Two descriptors are equal when their tags name one field (`_tag_ratio`),
    and `coerce` rewrites any element of the field over this tag.
    """

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
            return value if value.d == self.d else value._over(self.d)
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
        return isinstance(other, QuadraticField) and (
            other.d == self.d or _tag_ratio(self.d, other.d) is not None
        )

    def __hash__(self):
        # equal fields share the sign of their tags, nothing more
        return hash(("QuadraticField", self.d > 0))

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

