"""Elementary polynomial machinery: determinants and minors of polynomial
matrices, gcds, squarefree parts, rational roots, and exact linear algebra
over the coefficient fields.

Determinants and minors of polynomial matrices are integer determinants
(`_PackedMatrix`).  Each row is scaled to integers and each entry packed into
one integer by Kronecker substitution, x^e -> 2^(k*pos(e)), pos(e) a
mixed-radix index with radix D_v + 1 for each variable v of positive D_v, the
sum over the rows of their largest degree in v.  When every row is
homogeneous the last used variable gets no digit: a minor is homogeneous of
the sum of its rows' degrees.  Over QQ(sqrt d) an entry A + sqrt(d)*B packs
as A + w*B, w one more variable, and w^2 = d is applied after decoding.  A
coefficient of a minor is at most the product of its rows' l1 norms, which k
keeps below 2^(k-1), so the balanced base-2^k digits of the integer
determinant, taken by fraction-free (Bareiss) elimination, are exactly the
coefficients: no check afterwards.  `matrix_minors` packs once.

Row reduction of scalar matrices happens here and nowhere else, in one
elimination on one packing.  `_row_echelon` is fraction-free forward
elimination of the integer rows that `integer_rows` makes, over a range of
columns, with the sparsest candidate row as each column's pivot; each row's
count of nonzero entries is kept with it, updated after each of its steps.
A pivot with few nonzero entries (the oracle's rows m*g of a three-term
witness) changes the other rows at those entries only, after scaling them
by |a|; the sign of a is kept aside for each row and applied once at the
end, so the rows and pivots are those of steps over whole rows.  Over
QQ(sqrt d) a row r = a + sqrt(d)*b becomes the two rational rows of
v -> r.v on the column pairs (x_j, y_j), v = x + sqrt(d)*y: (a_j, d*b_j)_j
and (b_j, a_j)_j.  So the rank over K is half the rational rank, on every
prefix of columns too, and the rational kernel is the K-kernel.
`matrix_rank` is the number of pivots, and the local-multiplicity oracle
carries the same elimination across its levels.  `nullspace` back-solves the
echelon rows in rationals for each free column; the free columns are those
of the reduced echelon form, whatever rows served as pivots.
`matrix_inverse` reads A^-1 off the null space of [A | -I].
`characteristic_polynomial` eliminates by similarity
instead, to upper Hessenberg form, over QQ modulo primes, combined by the
Chinese remainder theorem; over QQ(sqrt d) it is the polynomial determinant
of T*I - A.  The primes below 2^61, from PRIME = 2^61 - 1 down, form one
deterministic list: the first 32 ship as offsets from 2^61, and `_moduli`
extends it as far as it is read (Miller-Rabin with witnesses that prove
primality below 3.3 * 10^24).  How many are taken comes from a proven
bound, Hadamard's inequality on the columns scaled to integers, and needs no
check afterwards.

One prime-field kernel works modulo PRIME on coefficient lists: reduction
of rationals, products and Euclid's gcd.  It only ever proves a negative,
as a one-sided certificate with an exact fallback:
`coprime_mod_prime` shows that two univariate polynomials over QQ are coprime
when their gcd mod PRIME is constant and Gauss's lemma applies (no
denominator divisible by PRIME, the leading coefficient kept); any other
outcome leaves the question to the exact pseudo-remainder sequence.
`poly_gcd` tries it first on univariate input, and takes the gcd of two
binary forms as t^k times the homogenized gcd of the forms at t = 1, so that
they reach the univariate path too.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import chain, combinations, count
from math import gcd, isqrt, lcm, prod
from operator import mul

from .errors import DegenerateInputError, InvariantViolation
from .qfields import QuadExt, QuadraticField, RationalField
from .rings import Polynomial, PolyMatrix, PolyRing, gradedlex_key, integer_dicts

# ---------------------------------------------------------------------------
# determinants and minors
# ---------------------------------------------------------------------------


def _bareiss_det(rows) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination, a lower row swapped in for a zero pivot.  Each division is
    exact: the entries after step k are (k+1)-minors of the input."""
    sign, prev = 1, 1
    while len(rows) > 1:
        i = next((i for i, r in enumerate(rows) if r[0]), None)
        if i is None:
            return 0
        if i:
            rows[0], rows[i], sign = rows[i], rows[0], -sign
        top, p = rows[0], rows[0][0]
        rows = [[(p * x - r[0] * y) // prev for x, y in zip(r[1:], top[1:])] for r in rows[1:]]
        prev = p
    return sign * rows[0][0]


def _balanced_digits(value: int, k: int):
    """(position, digit) for the nonzero digits of value in base 2^k with
    digits in (-2^(k-1), 2^(k-1)), skipping runs of zero digits."""
    pos = 0
    while value:
        skip = ((value & -value).bit_length() - 1) // k
        value, pos = value >> skip * k, pos + skip
        digit = value & ((1 << k) - 1)
        if digit >> (k - 1):
            digit -= 1 << k
        yield pos, digit
        value, pos = (value - digit) >> k, pos + 1


class _PackedMatrix:
    """A matrix over QQ[x] or QQ(sqrt d)[x] as one integer matrix, by the
    Kronecker substitution of the module docstring; `det` gives its minors."""

    def __init__(self, matrix: PolyMatrix):
        ring, cols, nv = matrix.ring, matrix.cols, matrix.ring.nvars
        self.ring, self.d = ring, getattr(ring.field, "d", None)
        d, width = self.d, nv + (self.d is not None)
        rows, self.scales, tops, degrees = [], [], [], []
        for i in range(matrix.rows):
            terms = [f.terms for f in matrix.entries[i * cols : (i + 1) * cols]]
            if d is not None:  # a + b*sqrt(d) as a + b*w, w one more variable after x
                terms = [
                    {e + (j,): v for e, c in t.items() for j, v in enumerate(_parts_over(c, d)) if v}
                    for t in terms
                ]
            ints, scale = integer_dicts(terms)
            exps = {e for t in ints for e in t} or {(0,) * width}
            rows.append(ints)
            self.scales.append(scale)
            tops.append(list(map(max, zip(*exps))))
            degrees.append({sum(e[:nv]) for e in exps})
        spans = list(map(sum, zip(*tops)))
        used = [v for v, span in enumerate(spans) if span]
        self.drop = None  # the last used variable, when every row is homogeneous
        if all(len(g) == 1 for g in degrees):
            self.degrees = [g.pop() for g in degrees]
            self.drop = next((v for v in reversed(used) if v < nv), None)
        self.radices = [(v, spans[v] + 1) for v in used if v != self.drop]
        weights, w = [0] * width, 1
        for v, radix in self.radices:
            weights[v], w = w, w * radix
        bound = prod(max(1, sum(abs(c) for t in r for c in t.values())) for r in rows)
        self.k = k = bound.bit_length() + 1
        shift = {e: k * sum(map(mul, e, weights)) for r in rows for t in r for e in t}
        self.entries = [[sum(c << shift[e] for e, c in t.items()) for t in r] for r in rows]

    def det(self, rows, cols) -> Polynomial:
        """The minor on (rows, cols), read off the digits of the integer
        determinant."""
        nv, d, drop = self.ring.nvars, self.d, self.drop
        value = _bareiss_det([[self.entries[i][j] for j in cols] for i in rows])
        degree = sum(self.degrees[i] for i in rows) if drop is not None else 0
        parts = {}
        for pos, c in _balanced_digits(value, self.k):
            e = [0] * (nv + 1)
            for v, radix in self.radices:
                pos, e[v] = divmod(pos, radix)
            j = e.pop()  # w^j = d^(j//2) * w^(j%2)
            if drop is not None:
                e[drop] = degree - sum(e)
            parts.setdefault(tuple(e), [0, 0])[j & 1] += c * d ** (j >> 1) if j > 1 else c
        scale = prod(self.scales[i] for i in rows)
        if d is None:
            return Polynomial(self.ring, {e: Fraction(a, scale) for e, (a, _) in parts.items()})
        pairs = {e: (Fraction(a, scale), Fraction(b, scale)) for e, (a, b) in parts.items()}
        return Polynomial(self.ring, {e: QuadExt(a, b, d) for e, (a, b) in pairs.items() if a or b})


def matrix_minors(matrix: PolyMatrix, size: int) -> list[Polynomial]:
    """All size x size minors, ordered lexicographically by (row set, col set)."""
    if size < 1 or size > min(matrix.rows, matrix.cols):
        raise ValueError(
            f"minor size {size} out of range for a {matrix.rows}x{matrix.cols} matrix"
        )
    packed = _PackedMatrix(matrix)
    return [
        packed.det(rows, cols)
        for rows in combinations(range(matrix.rows), size)
        for cols in combinations(range(matrix.cols), size)
    ]


def matrix_det(matrix: PolyMatrix) -> Polynomial:
    """Determinant by Kronecker substitution and one integer elimination."""
    if matrix.rows != matrix.cols:
        raise ValueError("determinant of a non-square matrix")
    return matrix_minors(matrix, matrix.rows)[0]


def exact_divide(p: Polynomial, d: Polynomial) -> Polynomial:
    """Quotient p/d when d divides p exactly; raises otherwise."""
    if isinstance(d, (int, Fraction, QuadExt)):
        d = p.ring.const(d)
    if d.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if p.is_zero:
        return p
    ring = p.ring
    d_terms = d.sorted_terms()
    d_lead_exp, d_lead_c = d_terms[0]
    rem = dict(p.terms)
    quot = {}
    while rem:
        exp = max(rem, key=gradedlex_key)
        c = rem[exp]
        q_exp = tuple(a - b for a, b in zip(exp, d_lead_exp))
        if any(k < 0 for k in q_exp):
            raise DegenerateInputError("polynomial division is not exact")
        q_c = c / d_lead_c
        quot[q_exp] = q_c
        for e2, c2 in d_terms:
            e = tuple(a + b for a, b in zip(q_exp, e2))
            s = rem.get(e)
            v = q_c * c2
            if s is None:
                rem[e] = -v
            else:
                s = s - v
                if s:
                    rem[e] = s
                else:
                    del rem[e]
    return Polynomial(ring, quot)


# ---------------------------------------------------------------------------
# the prime field GF(PRIME)
# ---------------------------------------------------------------------------

PRIME = 2**61 - 1
# 2^61 - p for the first 32 primes p from PRIME down
_PRIME_OFFSETS = (
    1, 31, 45, 229, 259, 283, 339, 391, 403, 465, 531, 579, 675, 759, 799, 819,
    829, 843, 859, 939, 985, 1015, 1153, 1195, 1215, 1281, 1299, 1351, 1371, 1425, 1489, 1525,
)
# PRIME, then the primes below it in decreasing order: extended by `_moduli`
# as far as it is read
_PRIMES = [2**61 - o for o in _PRIME_OFFSETS]
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Miller-Rabin on the first twelve primes as witnesses, which is a
    proof for every n below 3.3 * 10^24."""
    if n < 2 or any(n % p == 0 for p in _WITNESSES):
        return n in _WITNESSES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
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


def _moduli():
    """The primes of `_PRIMES` in order, extending the list below its last
    prime when the reader gets past its end."""
    for i in count():
        if i == len(_PRIMES):
            _PRIMES.append(next(q for q in range(_PRIMES[-1] - 1, 1, -1) if _is_prime(q)))
        yield _PRIMES[i]


def residues_mod_prime(values) -> list[int] | None:
    """Rationals reduced modulo PRIME; None when PRIME divides a denominator."""
    out = []
    for c in values:
        d = c.denominator % PRIME
        if not d:
            return None
        out.append(c.numerator % PRIME if d == 1 else c.numerator * pow(d, -1, PRIME) % PRIME)
    return out


def mul_mod_prime(a: list[int], b: list[int]) -> list[int]:
    """Product of two coefficient lists over GF(PRIME)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return [v % PRIME for v in out]


def _monic_mod_prime(f: list[int]) -> list[int]:
    """f without its leading zeros, scaled to leading coefficient 1."""
    f = f[next((i for i, c in enumerate(f) if c), len(f)) :]
    if not f or f[0] == 1:
        return f
    inv = pow(f[0], -1, PRIME)
    return [c * inv % PRIME for c in f]


def gcd_mod_prime(f: list[int], g: list[int]) -> list[int]:
    """Monic gcd over GF(PRIME) of two coefficient lists, highest degree
    first, by Euclid's algorithm; [] when both are zero."""
    f, g = _monic_mod_prime(f), _monic_mod_prime(g)
    if len(f) < len(g):
        f, g = g, f
    while g:
        r, dg = list(f), len(g) - 1
        for i in range(len(r) - dg):
            c = r[i]
            if c:
                r[i + 1 : i + dg + 1] = [(x - c * y) % PRIME for x, y in zip(r[i + 1 : i + dg + 1], g[1:])]
        f, g = g, _monic_mod_prime(r[len(r) - dg :])
    return f


def coprime_mod_prime(p: Polynomial, q: Polynomial) -> bool:
    """True only when the univariate p and q over QQ are coprime, shown by a
    constant gcd modulo PRIME; False leaves the question open.

    With no denominator divisible by PRIME, p and the gcd h over QQ (taken
    integer-primitive) have coefficients in the localization Z_(PRIME), so
    h mod PRIME divides both reductions (Gauss's lemma).  When the operand of
    larger degree keeps its leading coefficient, h keeps its own, hence
    deg gcd_PRIME >= deg h."""
    if not isinstance(p.ring.field, RationalField):
        return False
    if p.degree() < q.degree():
        p, q = q, p
    lists = []
    for f in (p, q):
        coeffs = {sum(e): c for e, c in f.terms.items()}
        lists.append(residues_mod_prime(coeffs.get(k, 0) for k in range(f.degree(), -1, -1)))
    if None in lists or not lists[0][0]:
        return False
    return len(gcd_mod_prime(*lists)) == 1


# ---------------------------------------------------------------------------
# contents, gcds, squarefree parts
# ---------------------------------------------------------------------------


def primitive_integers(values: list) -> list[int]:
    """The primitive integer multiple of a list of rationals, signs kept:
    denominators cleared, then the content divided out."""
    den = lcm(*(c.denominator for c in values))
    nums = [c.numerator * (den // c.denominator) for c in values]
    g = gcd(*nums)
    return [v // g for v in nums] if g > 1 else nums


def _rational_normalize(p: Polynomial) -> Polynomial:
    """Integer-primitive form with positive leading (graded-lex) coefficient."""
    if p.is_zero:
        return p
    nums = primitive_integers(list(p.terms.values()))
    if p.terms[max(p.terms, key=gradedlex_key)] < 0:
        nums = [-v for v in nums]
    return Polynomial(p.ring, {e: Fraction(v) for e, v in zip(p.terms, nums)})


def poly_normalize(p: Polynomial) -> Polynomial:
    """Canonical associate: integer-primitive over QQ, monic otherwise."""
    if p.is_zero:
        return p
    if isinstance(p.ring.field, RationalField):
        return _rational_normalize(p)
    lead = p.sorted_terms()[0][1]
    return p * (p.ring.field.one / lead)


def _prem(f, g, var):
    """Pseudo-remainder of f by g as univariate polynomials in `var`."""
    ring = f.ring
    x = ring.var(var)
    df = f.degree_in(var)
    dg = g.degree_in(var)
    lc_g = g.coefficient_in(var, dg)
    r = f
    dr = df
    while not r.is_zero and dr >= dg:
        lc_r = r.coefficient_in(var, dr)
        r = r * lc_g - g * lc_r * x ** (dr - dg)
        new_dr = r.degree_in(var)
        if new_dr >= dr and not r.is_zero:
            raise InvariantViolation("pseudo-division failed to reduce the degree")
        dr = new_dr
    return r


def poly_content(p: Polynomial, var: str) -> Polynomial:
    """gcd of the coefficients of p viewed as univariate in `var`."""
    coeffs = list(p.as_univariate_in(var).values())
    g = p.ring.zero()
    for c in coeffs:
        g = poly_gcd(g, c)
        if g.degree() == 0:
            break
    return g


def _binary_form_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """gcd of two nonzero binary forms: t^min(ord_t) times the homogenized
    gcd of the forms at t = 1, t the second variable."""
    ring = p.ring
    g = poly_gcd(*(Polynomial(ring, {(e[0], 0): c for e, c in f.terms.items()}) for f in (p, q)))
    d, low = g.degree(), min(e[1] for f in (p, q) for e in f.terms)
    return Polynomial(ring, {(e[0], d - e[0] + low): c for e, c in g.terms.items()})


def poly_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """gcd via primitive pseudo-remainder sequences; exact over QQ and over
    quadratic extensions.  The result is normalized (`poly_normalize`).

    Two binary forms go through their univariate gcd at t = 1, and a
    univariate pair over QQ returns 1 at once when `coprime_mod_prime`
    certifies it."""
    if p.ring != q.ring:
        raise DegenerateInputError("gcd operands must share a ring")
    if p.is_zero:
        return poly_normalize(q)
    if q.is_zero:
        return poly_normalize(p)
    used = sorted(set(p.used_variables()) | set(q.used_variables()))
    if not used:
        return p.ring.one()
    if len(used) == 2 == p.ring.nvars and p.is_homogeneous() and q.is_homogeneous():
        return _binary_form_gcd(p, q)
    if len(used) == 1 and coprime_mod_prime(p, q):
        return p.ring.one()
    var = min(used, key=lambda v: max(p.degree_in(v), q.degree_in(v)))
    if p.degree_in(var) < q.degree_in(var):
        p, q = q, p
    cont_p = poly_content(p, var)
    cont_q = poly_content(q, var)
    cont = poly_gcd(cont_p, cont_q)
    a = exact_divide(p, cont_p)
    b = exact_divide(q, cont_q)
    while True:
        if b.degree_in(var) <= 0:
            if b.is_zero:
                g = a
            else:
                g = p.ring.one()
            break
        r = _prem(a, b, var)
        if r.is_zero:
            g = b
            break
        r = poly_normalize(exact_divide(r, poly_content(r, var)))
        a, b = b, r
    return poly_normalize(cont * poly_normalize(g))


def repeated_factor_part(f: Polynomial) -> Polynomial:
    """gcd(f, all partial derivatives): degree 0 exactly when f is squarefree."""
    g = f
    for v in f.used_variables():
        g = poly_gcd(g, f.derivative(v))
        if g.degree() == 0:
            break
    return g


def certify_squarefree_by_restriction(f: Polynomial) -> bool:
    """True once some line restriction of f is squarefree of full degree.

    A repeated factor g^2 | f survives restriction to any line on which f
    keeps its degree, so a single full-degree squarefree restriction is an
    exact certificate.  False only means no certificate was found within six
    lines (f may still be squarefree); callers then fall back to the
    multivariate gcd.
    """
    if f.is_zero:
        return False
    ring = f.ring
    d = f.degree()
    line_ring = PolyRing(("tline",), ring.field)
    tau = line_ring.var("tline")
    seed = 0x517C
    for _ in range(6):
        images = []
        for _ in range(ring.nvars):
            seed = (seed * 1103515245 + 12345) % (1 << 31)
            a = seed % 7 - 3
            seed = (seed * 1103515245 + 12345) % (1 << 31)
            b = seed % 7 - 3
            images.append(line_ring.const(a) + tau * b)
        u = f._apply_images(images, line_ring)
        if u.degree() != d:
            continue
        if poly_gcd(u, u.derivative("tline")).degree() == 0:
            return True
    return False


def squarefree_part(f: Polynomial) -> Polynomial:
    """f divided by `repeated_factor_part(f)`, normalized (`poly_normalize`).

    Input in two or more variables first tries the line-restriction
    certificate, which skips the multivariate gcd when it succeeds.  Input
    in one variable takes the one gcd with its derivative directly: the
    eliminants it is used on are often not squarefree, and would then pay
    for both.
    """
    if f.is_zero:
        raise DegenerateInputError("squarefree part of the zero polynomial")
    if len(f.used_variables()) > 1 and certify_squarefree_by_restriction(f):
        return poly_normalize(f)
    return poly_normalize(exact_divide(f, repeated_factor_part(f)))


def _integer_coefficients(g: Polynomial) -> list[int]:
    """The integer-primitive associate of a univariate g over QQ, constant first."""
    coeffs = {sum(e): int(c) for e, c in poly_normalize(g).terms.items()}
    return [coeffs.get(i, 0) for i in range(max(coeffs) + 1)]


def _value_mod(f: list[int], x: int, m: int) -> int:
    return reduce(lambda acc, c: (acc * x + c) % m, reversed(f), 0)


def rational_roots(g: Polynomial) -> list[Fraction]:
    """All rational roots of a univariate polynomial over QQ, sorted, by p-adic
    lifting: no factorization and no divisor search.

    With integer coefficients f_0..f_d and the root 0 split off, take the first
    odd prime p > d, p not dividing f_d, at which every root of f mod p is
    simple; Newton-lift each root r to p^k > 2(|f_d| + max|f_i|) and accept
    c/f_d, c the symmetric residue of f_d*r, when f(c/f_d) = 0 exactly.  This
    is complete: a rational root u/q has q | f_d, so it reduces to a simple
    root mod p whose unique lift is u/q, and |f_d*u/q| < |f_d| + max|f_i| <
    p^k/2 (Cauchy's bound).  A repeated root is repeated mod every p, so the
    first such prime replaces f by its squarefree part once; then only the
    finitely many primes dividing f_d or the discriminant are passed over.
    """
    if g.is_zero or len(g.used_variables()) > 1 or not isinstance(g.ring.field, RationalField):
        raise DegenerateInputError("rational roots of a nonzero univariate polynomial over QQ only")
    f = _integer_coefficients(g)
    zero = [Fraction(0)] if f[0] == 0 else []
    f = f[next(i for i, c in enumerate(f) if c):]
    if len(f) == 1:
        return zero
    reduced = False
    for p in count(len(f)):
        if p % 2 == 0 or not _is_prime(p) or f[-1] % p == 0:
            continue
        df = [i * c for i, c in enumerate(f)][1:]
        residues = [r for r in range(p) if _value_mod(f, r, p) == 0]
        if all(_value_mod(df, r, p) for r in residues):
            break
        if not reduced:  # the squarefree part keeps one factor x when 0 is a root
            f, reduced = _integer_coefficients(squarefree_part(g))[len(zero):], True
    roots, d = list(zero), len(f) - 1
    bound = 2 * (abs(f[-1]) + max(abs(c) for c in f))
    for r in residues:
        m = p
        while m <= bound:
            m *= m
            r = (r - _value_mod(f, r, m) * pow(_value_mod(df, r, m), -1, m)) % m
        c = (f[-1] * r + m // 2) % m - m // 2  # the symmetric residue, m odd
        if sum(fi * c**i * f[-1] ** (d - i) for i, fi in enumerate(f)) == 0:
            roots.append(Fraction(c, f[-1]))
    return sorted(roots)


# ---------------------------------------------------------------------------
# exact linear algebra over the coefficient fields
# ---------------------------------------------------------------------------


def _integer_step(row, s, top, t, col, support):
    """The primitive integer combination a*s*row - b*t*top of s*row and the
    pivot t*top (s, t = +-1), both vanishing before column col, that clears
    column col; returns (r, sign, nonzero count), the combination being
    sign*r.  With `support`, the positions of top's nonzero entries, row is
    scaled by |a| (only when |a| > 1) and updated at those entries only, the
    sign of a going into `sign`; otherwise the sign is 1."""
    x, y = s * row[col], t * top[col]
    g = gcd(x, y)
    a, b = y // g, x // g
    if support is None:
        a, b, sign = a * s, b * t, 1
        out = [a * u - b * v for u, v in zip(row[col:], top[col:])]
    else:
        sign = s if a > 0 else -s
        a, b = abs(a), b * t * sign
        out = row[col:] if a == 1 else [a * u for u in row[col:]]
        for k in support:
            out[k - col] -= b * top[k]
    g = gcd(*out)
    out = [u // g for u in out] if g > 1 else out
    return [0] * col + out, sign, len(out) - out.count(0)


def _row_echelon(rows, cols):
    """Fraction-free forward elimination of integer rows in place over the
    columns `cols`, in order;
    returns the pivot columns.  Each column's pivot is the candidate row with
    the fewest nonzero entries, so sparse rows serve as pivots unreduced and
    dense rows do not fill them in.  The counts are kept with the rows.  A
    pivot with few nonzero entries updates the other rows at those entries
    only, each row's sign kept aside until the end.  Afterwards
    rows[:len(pivots)] are in echelon form on `cols` and the remaining rows
    vanish on those columns."""
    pivots = []
    weights = [len(r) - r.count(0) for r in rows]
    signs = [1] * len(rows)  # rows[r] holds signs[r] times the row
    for col in cols:
        rank = len(pivots)
        if rank == len(rows):
            break
        candidates = [r for r in range(rank, len(rows)) if rows[r][col]]
        if not candidates:
            continue
        piv = min(candidates, key=weights.__getitem__)
        for v in (rows, weights, signs):
            v[rank], v[piv] = v[piv], v[rank]
        top, t = rows[rank], signs[rank]
        support = [k for k in range(col, len(top)) if top[k]]
        if 2 * len(support) > len(top) - col:
            support = None
        for r in range(rank + 1, len(rows)):
            if rows[r][col]:
                rows[r], signs[r], weights[r] = _integer_step(rows[r], signs[r], top, t, col, support)
        pivots.append(col)
    for r, s in enumerate(signs):
        if s < 0:
            rows[r] = [-u for u in rows[r]]
    return pivots


def characteristic_polynomial(rows) -> list:
    """Coefficients of det(T*I - A), constant first, for a square matrix A of
    field scalars.

    Over QQ, with d_j the least common denominator of column j and Delta =
    prod d_j, (T*I - A)*diag(d_j) has integer columns d_j*(T*e_j - a_j), so
    Delta*chi_A has integer coefficients.  On |T| = 1 Hadamard's inequality
    bounds its values, and so each coefficient, by prod_j (d_j +
    ||d_j*a_j||_2), the norm rounded up here.  Delta*chi_A is taken modulo
    the primes of `_moduli` that do not divide Delta until their product
    exceeds twice that bound, and the symmetric residues of their Chinese
    remainder combination are its coefficients.  Over QQ(sqrt d) it is the
    polynomial determinant of T*I - A."""
    m = len(rows)
    d = next((c.d for r in rows for c in r if isinstance(c, QuadExt)), None)
    if d is not None:
        ring = PolyRing(("T",), QuadraticField(d))
        diagonal = [ring.var("T") if i == j else ring.zero() for i in range(m) for j in range(m)]
        chi = matrix_det(PolyMatrix(ring, m, m, [t - c for t, c in zip(diagonal, chain(*rows))]))
        return [chi.terms.get((k,), ring.field.zero) for k in range(m + 1)]
    dens = [lcm(*(c.denominator for c in col)) for col in zip(*rows)]
    scaled = [[c.numerator * (dj // c.denominator) for c, dj in zip(r, dens)] for r in rows]
    delta = prod(dens)
    bound = prod(dj + isqrt(sum(v * v for v in col)) + 1 for dj, col in zip(dens, zip(*scaled)))
    chi, modulus = [0] * (m + 1), 1
    moduli = _moduli()
    while modulus <= 2 * bound:
        p = next(moduli)
        if delta % p == 0:
            continue
        inverses = [pow(dj, -1, p) for dj in dens]
        residues = _hessenberg_mod_prime([list(map(mul, r, inverses)) for r in scaled], p)
        step = modulus * pow(modulus, -1, p)  # 1 mod p, 0 mod the primes so far
        chi = [v + (delta % p * r - v) * step for v, r in zip(chi, residues)]
        modulus *= p
        chi = [v % modulus for v in chi]
    return [Fraction(v - modulus if 2 * v > modulus else v, delta) for v in chi]


def _hessenberg_mod_prime(rows, p: int) -> list[int]:
    """det(T*I - A) mod p for an integer matrix A, constant first.  A
    similarity brings A to upper Hessenberg form H; then the leading
    principal minors p_m of T*I - H satisfy p_m = T*p_(m-1) -
    sum_(r<m) h[r][m-1] * h[r+1][r] * ... * h[m-1][m-2] * p_r.  The row
    operations of one column all subtract multiples of the same pivot row,
    so they commute, and the matching column operations go in one pass
    after them."""
    h = [[v % p for v in r] for r in rows]
    n = len(h)
    for k in range(n - 2):
        piv = next((i for i in range(k + 1, n) if h[i][k]), None)
        if piv is None:
            continue
        h[k + 1], h[piv] = h[piv], h[k + 1]
        for row in h:
            row[k + 1], row[piv] = row[piv], row[k + 1]
        top, inv = h[k + 1], pow(h[k + 1][k], -1, p)
        factors = [h[i][k] * inv % p for i in range(k + 2, n)]
        for i, f in enumerate(factors, k + 2):
            if f:
                h[i][k:] = [(x - f * y) % p for x, y in zip(h[i][k:], top[k:])]
        if any(factors):
            for row in h:
                row[k + 1] = (row[k + 1] + sum(map(mul, factors, row[k + 2 :]))) % p
    minors = [[1]]
    for m in range(1, n + 1):
        q = [0] + minors[-1]
        sub = 1
        for r in range(m - 1, -1, -1):
            f = sub * h[r][m - 1] % p
            if f:
                q[: r + 1] = [v - f * c for v, c in zip(q, minors[r])]
            sub = sub * h[r][r - 1] % p if r else 0
        minors.append([v % p for v in q])
    return minors[n]


def _parts_over(c, d):
    """(a, b) with c = a + b*sqrt(d)."""
    if not isinstance(c, QuadExt):
        return c, 0
    return c.a, c.b if c.d == d else c._over(d).b


def integer_rows(rows) -> tuple[list[list[int]], int | None]:
    """Rows of field scalars as primitive integer rows, zero rows dropped,
    and the tag d of their field, None over QQ.

    Over QQ each row is cleared of denominators.  Over QQ(sqrt d) a row
    r = a + sqrt(d)*b becomes two rows on the column pairs (x_j, y_j), with
    v = x + sqrt(d)*y: Re(r.v) = (a_j, d*b_j)_j and Im(r.v) = (b_j, a_j)_j.
    They are the matrix of v -> r.v over QQ, so the rational rank is twice
    the rank over K on every prefix of columns, and the rational kernel
    vectors (x, y) are the K-kernel vectors x + sqrt(d)*y.  Entries are
    written over the tag of the first irrational one; an entry of another
    field raises `ExtensionMismatchError`."""
    d = next((c.d for r in rows for c in r if isinstance(c, QuadExt) and c.b), None)
    if d is None:
        rational = [[c.a if isinstance(c, QuadExt) else c for c in r] for r in rows]
    else:
        rational = []
        for r in rows:
            parts = [_parts_over(c, d) for c in r]
            rational.append([v for a, b in parts for v in (a, d * b)])
            rational.append([v for a, b in parts for v in (b, a)])
    return [p for p in map(primitive_integers, rational) if any(p)], d


def matrix_rank(rows) -> int:
    """Rank of a matrix of field scalars, by fraction-free elimination of
    its `integer_rows`."""
    rows = [list(r) for r in rows]
    if not rows or not rows[0]:
        return 0
    int_rows, d = integer_rows(rows)
    width = 1 if d is None else 2
    return len(_row_echelon(int_rows, range(width * len(rows[0])))) // width


def nullspace(rows, ncols, one=Fraction(1)):
    """Basis of the right null space of a matrix of field scalars with
    `ncols` columns (rows may be empty): for each free column, the vector
    with 1 there and 0 at the other free columns, as the reduced echelon
    form gives it.  Each is back-solved in rationals from the echelon rows
    of `integer_rows`, which have the same free columns.  Over QQ(sqrt d)
    the free columns come in pairs (x_j, y_j), and the vector of a free x_j
    reads back as x + sqrt(d)*y."""
    int_rows, d = integer_rows([list(r) for r in rows])
    width = 1 if d is None else 2
    pivots = _row_echelon(int_rows, range(width * ncols))
    solved = list(zip(int_rows, pivots))[::-1]
    basis = []
    for fc in range(0, width * ncols, width):
        if fc in pivots:
            continue
        z = {fc: Fraction(1)}  # the rows vanish left of their pivots
        for row, pc in solved:
            s = sum(row[j] * v for j, v in z.items())
            if s:
                z[pc] = -s / row[pc]
        if d is None:
            basis.append([one * z.get(j, 0) for j in range(ncols)])
        else:
            basis.append([QuadExt(z.get(2 * j, 0), z.get(2 * j + 1, 0), d) for j in range(ncols)])
    return basis


def matrix_inverse(rows, field):
    """Inverse of a square matrix A over `field`, read off the null space of
    [A | -I]: its basis is (A^-1 e_j, e_j) exactly when A is invertible."""
    n = len(rows)
    identity = [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]
    aug = [[field.coerce(v) for v in row] + [-v for v in e] for row, e in zip(rows, identity)]
    kernel = nullspace(aug, 2 * n, one=field.one)
    if [v[n:] for v in kernel] != identity:
        raise DegenerateInputError("matrix is singular")
    return tuple(zip(*(v[:n] for v in kernel)))
