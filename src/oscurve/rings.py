"""Sparse exact multivariate polynomials over QQ or a quadratic extension.

A `PolyRing` fixes an ordered tuple of variable names and a coefficient
field; a `Polynomial` is a mapping from exponent vectors to nonzero field
elements.  Polynomials are immutable; every operation returns a new value.
Canonical printing sorts terms by graded-lex, descending, and round-trips
through `parse_poly`.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import mul

from .errors import DegenerateInputError, ParseError, RingMismatchError
from .qfields import QQ, QuadExt, QuadraticField, RationalField

INF = float("inf")


class PolyRing:
    """A polynomial ring K[v1, ..., vn] with K = QQ or QQ(sqrt(d))."""

    __slots__ = ("variables", "field", "_index", "_zero", "_one")

    def __init__(self, variables, field=QQ):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError(f"duplicate variable names: {variables}")
        for v in variables:
            if not v or not (v[0].isalpha() and v.isalnum()):
                raise ValueError(f"bad variable name: {v!r}")
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "_index", {v: i for i, v in enumerate(variables)})
        object.__setattr__(self, "_zero", None)
        object.__setattr__(self, "_one", None)

    def __setattr__(self, *args):
        raise AttributeError("PolyRing is immutable")

    def __reduce__(self):
        return (PolyRing, (self.variables, self.field))

    @property
    def nvars(self):
        return len(self.variables)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"{name!r} is not a variable of {self}") from None

    def coerce_scalar(self, value):
        return self.field.coerce(value)

    # -- element constructors -------------------------------------------------

    def zero(self) -> Polynomial:
        if self._zero is None:
            object.__setattr__(self, "_zero", Polynomial(self, {}))
        return self._zero

    def one(self) -> Polynomial:
        if self._one is None:
            object.__setattr__(self, "_one", self.const(1))
        return self._one

    def const(self, value) -> Polynomial:
        c = self.coerce_scalar(value)
        if not c:
            return Polynomial(self, {})
        return Polynomial(self, {(0,) * self.nvars: c})

    def var(self, name) -> Polynomial:
        exp = [0] * self.nvars
        exp[self.index(name)] = 1
        return Polynomial(self, {tuple(exp): self.field.one})

    def gens(self) -> list[Polynomial]:
        return [self.var(v) for v in self.variables]

    def monomial(self, exps, coeff=1) -> Polynomial:
        exps = tuple(exps)
        if len(exps) != self.nvars:
            raise ValueError("exponent vector has wrong length")
        c = self.coerce_scalar(coeff)
        if not c:
            return Polynomial(self, {})
        return Polynomial(self, {exps: c})

    def from_terms(self, terms) -> Polynomial:
        clean = {}
        for exp, c in dict(terms).items():
            exp = tuple(exp)
            if len(exp) != self.nvars:
                raise ValueError("exponent vector has wrong length")
            c = self.coerce_scalar(c)
            if c:
                clean[exp] = c
        return Polynomial(self, clean)

    def parse(self, text: str) -> Polynomial:
        return parse_poly(text, self)

    # -- ring identity ---------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and other.variables == self.variables
            and other.field == self.field
        )

    def __hash__(self):
        return hash((self.variables, self.field))

    def __repr__(self):
        return f"{self.field.name}[{','.join(self.variables)}]"


def _check_same_ring(p, q):
    if p.ring is not q.ring and p.ring != q.ring:
        raise RingMismatchError(f"operands in different rings: {p.ring} vs {q.ring}")


def gradedlex_key(exp):
    return (sum(exp),) + exp


@lru_cache(maxsize=64)
def _is_invertible(rows: tuple) -> bool:
    """Whether a square matrix of field scalars has full rank; one rank
    computation per distinct matrix, however many polynomials it moves."""
    from .polyops import matrix_rank

    return matrix_rank(rows) == len(rows)


class Polynomial:
    """Immutable sparse polynomial: {exponent vector: nonzero coefficient}."""

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring, terms):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *args):
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        return (Polynomial, (self.ring, self.terms))

    # -- basic queries ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, name: str) -> int:
        i = self.ring.index(name)
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def homogeneous_component(self, d: int) -> Polynomial:
        return Polynomial(self.ring, {e: c for e, c in self.terms.items() if sum(e) == d})

    def lowest_degree(self) -> int:
        """Smallest total degree of a term; inf for 0 (order of vanishing at the origin)."""
        if not self.terms:
            return INF
        return min(sum(e) for e in self.terms)

    def constant_term(self):
        return self.terms.get((0,) * self.ring.nvars, self.ring.field.zero)

    def used_variables(self) -> list[str]:
        used = [False] * self.ring.nvars
        for e in self.terms:
            for i, k in enumerate(e):
                if k:
                    used[i] = True
        return [v for i, v in enumerate(self.ring.variables) if used[i]]

    # -- arithmetic ----------------------------------------------------------

    def _coerce_operand(self, other):
        if isinstance(other, Polynomial):
            _check_same_ring(self, other)
            return other
        if isinstance(other, (int, Fraction, QuadExt)):
            return self.ring.const(other)
        return None

    def __add__(self, other):
        o = self._coerce_operand(other)
        if o is None:
            return NotImplemented
        big, small = (self.terms, o.terms) if len(self.terms) >= len(o.terms) else (o.terms, self.terms)
        out = dict(big)
        for e, c in small.items():
            s = out.get(e)
            if s is None:
                out[e] = c
            else:
                s = s + c
                if s:
                    out[e] = s
                else:
                    del out[e]
        return Polynomial(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce_operand(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for e, c in o.terms.items():
            s = out.get(e)
            if s is None:
                out[e] = -c
            else:
                s = s - c
                if s:
                    out[e] = s
                else:
                    del out[e]
        return Polynomial(self.ring, out)

    def __rsub__(self, other):
        o = self._coerce_operand(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, QuadExt)):
            c = self.ring.coerce_scalar(other)
            if not c:
                return self.ring.zero()
            return Polynomial(self.ring, {e: k * c for e, k in self.terms.items()})
        o = self._coerce_operand(other)
        if o is None:
            return NotImplemented
        return Polynomial(self.ring, dict_mul(self.terms, o.terms))

    __rmul__ = __mul__

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a nonnegative integer")
        return _powers(self, (e,), mul, self.ring.one())[e]

    def map_coefficients(self, fn, new_ring=None):
        ring = new_ring or self.ring
        out = {}
        for e, c in self.terms.items():
            v = fn(c)
            v = ring.coerce_scalar(v)
            if v:
                out[e] = v
        return Polynomial(ring, out)

    # -- substitution and evaluation ----------------------------------------

    def substitute(self, assignments, target_ring=None) -> Polynomial:
        """Ring homomorphism: variables in `assignments` map to the given
        polynomials (or scalars); all others map to themselves.

        `assignments` keys are variable names.  The target ring defaults to
        the common ring of the assigned polynomials, or this ring.
        """
        ring = target_ring
        for name, val in assignments.items():
            self.ring.index(name)  # validate
            if isinstance(val, Polynomial):
                if ring is None:
                    ring = val.ring
                elif val.ring != ring:
                    raise RingMismatchError("assignment values live in different rings")
        if ring is None:
            ring = self.ring
        images = []
        for v in self.ring.variables:
            val = assignments[v] if v in assignments else ring.var(v)  # raises if missing
            images.append(val if isinstance(val, Polynomial) else ring.const(val))
        return self._apply_images(images, ring)

    def _apply_images(self, images, ring) -> Polynomial:
        """This polynomial with variable i replaced by images[i], in `ring`."""
        if isinstance(self.ring.field, RationalField) and isinstance(ring.field, RationalField):
            return _apply_images_qq(self.terms, images, ring)
        return self._generic_apply(images, ring.one(), ring.const)

    def evaluate(self, values):
        """Evaluate at a full point; values align with ring.variables."""
        if len(values) != self.ring.nvars:
            raise ValueError("wrong number of values")
        vals = [self.ring.coerce_scalar(v) for v in values]
        if isinstance(self.ring.field, RationalField):
            return _evaluate_qq(self.terms, vals)
        return self._generic_apply(vals, self.ring.field.one, self.ring.field.coerce)

    def _generic_apply(self, images, one, lift):
        """This polynomial at scalar or polynomial `images`, with `lift`
        taking a coefficient to the images' domain: the loop over any field,
        the only one over QQ(sqrt(d)), and the reference for the QQ kernels."""
        powers = [
            _powers(img, {e[i] for e in self.terms}, mul, one) for i, img in enumerate(images)
        ]
        total = lift(0)
        for e, c in self.terms.items():
            t = lift(c)
            for i, k in enumerate(e):
                if k:
                    t = t * powers[i][k]
            total = total + t
        return total

    def restrict(self, new_ring, var_map=None) -> Polynomial:
        """Reinterpret in `new_ring`; `var_map` renames old -> new variables.

        Every variable actually used must be mapped (or share its name).
        """
        var_map = var_map or {}
        positions = {}
        for i, v in enumerate(self.ring.variables):
            name = var_map.get(v, v)
            if name in new_ring._index:
                positions[i] = new_ring.index(name)
        out = {}
        for e, c in self.terms.items():
            new_e = [0] * new_ring.nvars
            for i, k in enumerate(e):
                if k:
                    if i not in positions:
                        raise ValueError(
                            f"variable {self.ring.variables[i]!r} has no image in {new_ring}"
                        )
                    new_e[positions[i]] = k
            out[tuple(new_e)] = new_ring.coerce_scalar(c)
        return Polynomial(new_ring, out)

    # -- calculus-free structure ops -------------------------------------------

    def derivative(self, name: str) -> Polynomial:
        i = self.ring.index(name)
        out = {}
        for e, c in self.terms.items():
            k = e[i]
            if k:
                ne = list(e)
                ne[i] = k - 1
                ne = tuple(ne)
                v = c * k
                s = out.get(ne)
                out[ne] = v if s is None else s + v
        return Polynomial(self.ring, {e: c for e, c in out.items() if c})

    def coefficient_in(self, name: str, k: int) -> Polynomial:
        """Coefficient of name^k, as a polynomial not involving `name`."""
        i = self.ring.index(name)
        out = {}
        for e, c in self.terms.items():
            if e[i] == k:
                ne = list(e)
                ne[i] = 0
                out[tuple(ne)] = c
        return Polynomial(self.ring, out)

    def as_univariate_in(self, name: str) -> dict[int, Polynomial]:
        """Split into {k: coefficient of name^k}."""
        i = self.ring.index(name)
        buckets: dict[int, dict] = {}
        for e, c in self.terms.items():
            ne = list(e)
            k = ne[i]
            ne[i] = 0
            buckets.setdefault(k, {})[tuple(ne)] = c
        return {k: Polynomial(self.ring, d) for k, d in sorted(buckets.items())}

    def order_at_zero(self):
        """Least exponent with a nonzero coefficient of a univariate polynomial.

        Returns inf for the zero polynomial; raises on genuinely multivariate
        input (the ring may have more variables as long as only one occurs).
        """
        used = self.used_variables()
        if len(used) > 1:
            raise ValueError(f"order_at_zero needs univariate input, got variables {used}")
        if not self.terms:
            return INF
        return min(sum(e) for e in self.terms)

    def homogenize(self, target_ring, hom_var: str, var_map=None) -> Polynomial:
        """Homogenize into `target_ring` using `hom_var` as the new variable."""
        var_map = dict(var_map or {})
        d = self.degree()
        if d < 0:
            return target_ring.zero()
        j = target_ring.index(hom_var)
        positions = {}
        for i, v in enumerate(self.ring.variables):
            name = var_map.get(v, v)
            if name in target_ring._index:
                positions[i] = target_ring.index(name)
        out = {}
        for e, c in self.terms.items():
            new_e = [0] * target_ring.nvars
            for i, k in enumerate(e):
                if k:
                    if i not in positions or positions[i] == j:
                        raise ValueError("homogenization variable collides with a used variable")
                    new_e[positions[i]] = k
            new_e[j] = d - sum(e)
            out[tuple(new_e)] = target_ring.coerce_scalar(c)
        return Polynomial(target_ring, out)

    def linear_change(self, matrix) -> Polynomial:
        """Compose with an invertible linear change: returns f(M x).

        `matrix` is a square list-of-rows of scalars, of size nvars.
        """
        n = self.ring.nvars
        units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
        return self._at_rows(matrix, self.ring, units)

    def chart(self, matrix, aff) -> Polynomial:
        """f(M (u, v, 1)) in `aff` = K[u, v] for a form f in three variables:
        `linear_change(matrix)` dehomogenized at the last variable, in one pass."""
        return self._at_rows(matrix, aff, [(1, 0), (0, 1), (0, 0)])

    def _at_rows(self, matrix, ring, monomials):
        """f at the images sum_j M[i][j] * monomials[j] in `ring`; M must be
        square of size nvars and invertible."""
        n = self.ring.nvars
        rows = tuple(tuple(self.ring.coerce_scalar(v) for v in row) for row in matrix)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError(f"matrix must be {n}x{n}")
        if not _is_invertible(rows):
            raise DegenerateInputError("linear change of coordinates must be invertible")
        return self._apply_images([ring.from_terms(zip(monomials, row)) for row in rows], ring)

    # -- comparison / printing --------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.ring == other.ring and self.terms == other.terms
        if isinstance(other, (int, Fraction, QuadExt)):
            return self == self.ring.const(other)
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.ring, frozenset(self.terms.items()))))
        return self._hash

    def sorted_terms(self):
        """Terms sorted graded-lex descending: the canonical print order."""
        return sorted(self.terms.items(), key=lambda item: gradedlex_key(item[0]), reverse=True)

    def __str__(self):
        return poly_to_str(self)

    def __repr__(self):
        return f"<{self} in {self.ring!r}>"


# ---------------------------------------------------------------------------
# term-dict kernels
# ---------------------------------------------------------------------------


def dict_mul(a, b):
    """Product of two term dicts {exponent: coefficient}; the coefficients
    may be int, Fraction or QuadExt."""
    if len(a) > len(b):
        a, b = b, a
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(sum, zip(e1, e2)))
            s = out.get(e)
            if s is None:
                out[e] = c1 * c2
            else:
                s = s + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
    return out


def _powers(base, exponents, times, one):
    """{k: base^k} for every k in `exponents`, built bottom-up with no
    recursion: base^k is base^(k-1) * base when that is known (every k of a
    dense range), else the square of base^(k//2), times base for odd k."""
    need = set()
    for k in exponents:
        while k > 1 and k not in need:
            need.add(k)
            k >>= 1
    table = {0: one, 1: base}
    for k in sorted(need):
        below = table.get(k - 1)
        if below is not None:
            table[k] = times(below, base)
        else:
            half = table[k >> 1]
            table[k] = times(times(half, half), base) if k & 1 else times(half, half)
    return table


def integer_dicts(dicts):
    """(integer dicts, D): term dicts over QQ written as integer numerators
    over D, the least common denominator of all their coefficients."""
    den = lcm(*(c.denominator for d in dicts for c in d.values()))
    return [{e: c.numerator * (den // c.denominator) for e, c in d.items()} for d in dicts], den


def _scaled_terms(terms, nums, D, times, one):
    """(C * D^deg, scaled, powers) for f over QQ with terms n_e x^e / C at
    the point or images a / D, given the numerators `nums` of a:
    scaled[e] = n_e * D^(deg - |e|) and powers[i][k] = a_i^k, so that f(a / D)
    is sum_e scaled[e] * a^e over C * D^deg."""
    (coeffs,), C = integer_dicts([terms])
    deg = max(map(sum, terms), default=0)
    powers = [_powers(a, {e[i] for e in terms}, times, one) for i, a in enumerate(nums)]
    return C * D**deg, {e: n * D ** (deg - sum(e)) for e, n in coeffs.items()}, powers


def _evaluate_qq(terms, values):
    """`Polynomial.evaluate` over QQ on integer numerators."""
    (nums,), D = integer_dicts([dict(enumerate(values))])
    den, scaled, powers = _scaled_terms(terms, nums.values(), D, mul, 1)
    total = 0
    for e, t in scaled.items():
        for i, k in enumerate(e):
            if k:
                t *= powers[i][k]
        total += t
    return Fraction(total, den)


def _apply_images_qq(terms, images, ring):
    """`Polynomial._apply_images` over QQ on integer numerators, each image
    an integer term dict over the images' common denominator.  Only the
    final coefficients become `Fraction`s."""
    nums, D = integer_dicts([img.terms for img in images])
    one = {(0,) * ring.nvars: 1}
    den, scaled, powers = _scaled_terms(terms, nums, D, dict_mul, one)
    total = {}
    for e, scale in scaled.items():
        prod = one
        for i, k in enumerate(e):
            if k:
                prod = powers[i][k] if prod is one else dict_mul(prod, powers[i][k])
        for m, v in prod.items():
            total[m] = total.get(m, 0) + scale * v
    return Polynomial(ring, {m: Fraction(v, den) for m, v in total.items() if v})


# ---------------------------------------------------------------------------
# matrices of polynomials
# ---------------------------------------------------------------------------


class PolyMatrix:
    """A rows x cols matrix of polynomials over one shared ring."""

    __slots__ = ("ring", "rows", "cols", "entries")

    def __init__(self, ring, rows, cols, entries):
        entries = list(entries)
        if rows <= 0 or cols <= 0 or len(entries) != rows * cols:
            raise ValueError("dimensions do not match entry count")
        fixed = []
        for e in entries:
            if not isinstance(e, Polynomial):
                e = ring.const(e)
            elif e.ring != ring:
                raise RingMismatchError("matrix entries must share one ring")
            fixed.append(e)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", fixed)

    def __setattr__(self, *args):
        raise AttributeError("PolyMatrix is immutable")

    def entry(self, i, j) -> Polynomial:
        return self.entries[i * self.cols + j]

    def minors(self, size):
        from .polyops import matrix_minors

        return matrix_minors(self, size)

    def det(self) -> Polynomial:
        from .polyops import matrix_det

        return matrix_det(self)

    def __repr__(self):
        return f"PolyMatrix({self.rows}x{self.cols} over {self.ring!r})"


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

# one token per match: an integer, a name, an operator, or a stray character
_TOKEN = re.compile(r"(\d+)|([^\W\d_][^\W_]*)|([-+*^()/,])|(\S)")


def _tokenize(text):
    tokens = []  # (kind, value, pos)
    for m in _TOKEN.finditer(text):
        kind, value = m.lastindex, m[m.lastindex]
        if kind == 4 or kind == 2 and not value[0].isalpha():  # a name starts with a letter
            raise ParseError(f"unexpected character {value[0]!r}", m.start())
        tokens.append((("int", "name", value)[kind - 1], int(value) if kind == 1 else value, m.start()))
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    """Recursive descent over the tokens.  Every value is a term dict whose
    coefficients are ints, Fractions or QuadExts, coerced into the field
    once, when the one `Polynomial` is made at the end; only the sum being
    built is changed in place, so a variable's dict is shared."""

    def __init__(self, tokens, ring):
        self.tokens = tokens
        self.pos = 0
        self.ring = ring
        self.gens = {v: dict.fromkeys(g.terms, 1) for v, g in zip(ring.variables, ring.gens())}

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse_expr(self):
        """A sum of terms, each added into one dict in place."""
        total, kind = {}, self.peek()[0]
        if kind in ("+", "-"):
            self.next()
        while True:
            for e, c in self.parse_term().items():
                s = total.get(e, 0) - c if kind == "-" else total.get(e, 0) + c
                if s:
                    total[e] = s
                else:
                    del total[e]
            kind = self.peek()[0]
            if kind not in ("+", "-"):
                return total
            self.next()

    def parse_term(self):
        total = self.parse_factor()
        while self.peek()[0] == "*":
            self.next()
            total = dict_mul(total, self.parse_factor())
        return total

    def parse_factor(self):
        base = self.parse_atom()
        while self.peek()[0] == "^":
            self.next()
            k = self.expect("int")[1]
            if len(base) == 1 and k:  # a monomial: scale its exponent
                ((e, c),) = base.items()
                base = {tuple(k * v for v in e): c**k}
            else:
                base = _powers(base, (k,), dict_mul, {(0,) * self.ring.nvars: 1})[k]
        return base

    def parse_atom(self):
        kind, value, pos = self.next()
        if kind == "int":
            if self.peek()[0] == "/":
                self.next()
                tok = self.expect("int")
                if tok[1] == 0:
                    raise ParseError("zero denominator in rational literal", tok[2])
                value = Fraction(value, tok[1])
            return {(0,) * self.ring.nvars: value} if value else {}
        if kind == "name":
            if value == "sqrt":
                return self._parse_sqrt(pos)
            if value not in self.gens:
                raise ParseError(f"unknown variable {value!r}", pos)
            return self.gens[value]
        if kind == "(":
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if kind == "-":
            return {e: -c for e, c in self.parse_atom().items()}
        raise ParseError(f"unexpected token {value!r}", pos)

    def _parse_sqrt(self, pos):
        # sqrt(d) literals are only meaningful over a quadratic extension
        self.expect("(")
        sign = 1
        if self.peek()[0] == "-":
            self.next()
            sign = -1
        tok = self.expect("int")
        d = sign * tok[1]
        if self.peek()[0] == "/":
            self.next()
            den = self.expect("int")
            d = Fraction(d, den[1])
        self.expect(")")
        field = self.ring.field
        if not isinstance(field, QuadraticField):
            raise ParseError("sqrt(...) literal requires a quadratic-extension ring", pos)
        from .qfields import make_quadratic

        return {(0,) * self.ring.nvars: field.coerce(make_quadratic(0, 1, d))}


def parse_poly(text: str, ring: PolyRing) -> Polynomial:
    """Parse the documented grammar: `+ - * ^`, parentheses, integer and
    rational literals, variables; implicit multiplication is not allowed."""
    parser = _Parser(_tokenize(text), ring)
    result = parser.parse_expr()
    tok = parser.peek()
    if tok[0] != "end":
        raise ParseError(f"trailing input {tok[1]!r}", tok[2])
    return Polynomial(ring, {e: ring.field.coerce(c) for e, c in result.items()})


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------


def _monomial_str(ring, exp):
    parts = []
    for name, k in zip(ring.variables, exp):
        if k == 1:
            parts.append(name)
        elif k > 1:
            parts.append(f"{name}^{k}")
    return "*".join(parts)


def _coeff_str(c):
    """(text, is_negative, needs_parens) for a coefficient."""
    if isinstance(c, QuadExt):
        if c.b == 0:
            c = c.a
        elif c.a == 0:
            neg = c.b < 0
            b = -c.b if neg else c.b
            root = f"sqrt({c.d})"
            text = root if b == 1 else f"{b}*{root}"
            return text, neg, False
        else:
            return str(c), False, True
    neg = c < 0
    return str(-c if neg else c), neg, False


def poly_to_str(p: Polynomial) -> str:
    if not p.terms:
        return "0"
    pieces = []
    for exp, c in p.sorted_terms():
        mono = _monomial_str(p.ring, exp)
        text, neg, parens = _coeff_str(c)
        if parens:
            body = f"({text})*{mono}" if mono else f"({text})"
            sign = "+"
        else:
            if mono and text == "1":
                body = mono
            elif mono:
                body = f"{text}*{mono}"
            else:
                body = text
            sign = "-" if neg else "+"
        pieces.append((sign, body))
    sign, body = pieces[0]
    out = body if sign == "+" else f"-{body}"
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out
