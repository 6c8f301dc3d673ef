"""Elementary polynomial machinery: determinants and minors of polynomial
matrices, gcds, squarefree parts, rational roots, and exact linear algebra
over the coefficient fields.

Determinants and minors of polynomial matrices are computed by one
algorithm, Laplace expansion memoized on column subsets: it shares work
between all minors of a matrix and is very fast with integer coefficients.
The largest determinants taken are small (the n x n moving-line matrix of a
degree-n parameterization, the (n+1)-minors of the census matrix), where the
2^size memo stays cheap.

Row reduction of scalar matrices happens here and nowhere else:
`_row_echelon` is the one forward-elimination routine.  `matrix_rank` runs it
alone (fraction-free on integer rows when the entries are rational), while
`nullspace` and `matrix_inverse` add back-substitution to the reduced echelon
form.  `characteristic_polynomial` eliminates by similarity instead.

One prime-field kernel works modulo PRIME = 2^61 - 1 on coefficient lists:
reduction of rationals, products and Euclid's gcd.  It only ever proves a
negative, as a one-sided certificate with an exact fallback:
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
from itertools import combinations, count
from math import gcd, isqrt, lcm

from .errors import DegenerateInputError, InvariantViolation
from .qfields import QuadExt, RationalField
from .rings import Polynomial, PolyMatrix, PolyRing, dict_mul, gradedlex_key, integer_dicts

# ---------------------------------------------------------------------------
# determinants and minors
# ---------------------------------------------------------------------------


def _laplace_det(entry_dicts, rows, cols, memo):
    """Determinant of the submatrix on (rows, cols), expanding along the last
    row; memo is keyed by (rows, cols) and shared across sibling minors."""
    key = (rows, cols)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if len(rows) == 1:
        result = entry_dicts[rows[0]].get(cols[0]) or {}
        memo[key] = result
        return result
    r = rows[-1]
    sub_rows = rows[:-1]
    total = {}
    sign = 1  # entry (len(rows)-1, len(cols)-1) carries a plus sign
    for j in range(len(cols) - 1, -1, -1):
        entry = entry_dicts[r].get(cols[j])
        if entry:
            sub = _laplace_det(entry_dicts, sub_rows, cols[:j] + cols[j + 1 :], memo)
            if sub:
                piece = dict_mul(entry, sub)
                for e, c in piece.items():
                    v = c if sign == 1 else -c
                    s = total.get(e)
                    if s is None:
                        total[e] = v
                    else:
                        s = s + v
                        if s:
                            total[e] = s
                        else:
                            del total[e]
        sign = -sign
    memo[key] = total
    return total


class _LaplaceContext:
    """Shared state for minors of one matrix: per-row {col: term-dict}."""

    def __init__(self, matrix: PolyMatrix):
        self.ring = matrix.ring
        terms = [p.terms for p in matrix.entries]
        if isinstance(self.ring.field, RationalField):
            grid, self.scale = integer_dicts(terms)
        else:
            grid, self.scale = terms, None
        self.memo = {}
        self.rows = matrix.rows
        self.cols = matrix.cols
        self.by_row = [
            {j: grid[i * self.cols + j] for j in range(self.cols) if grid[i * self.cols + j]}
            for i in range(self.rows)
        ]

    def det(self, rows, cols):
        d = _laplace_det(self.by_row, tuple(rows), tuple(cols), self.memo)
        if self.scale is not None:
            d = {e: Fraction(c, self.scale ** len(rows)) for e, c in d.items()}
        return self.ring.from_terms(d)


def matrix_minors(matrix: PolyMatrix, size: int) -> list[Polynomial]:
    """All size x size minors, ordered lexicographically by (row set, col set)."""
    if size < 1 or size > min(matrix.rows, matrix.cols):
        raise ValueError(
            f"minor size {size} out of range for a {matrix.rows}x{matrix.cols} matrix"
        )
    ctx = _LaplaceContext(matrix)
    out = []
    for rows in combinations(range(matrix.rows), size):
        for cols in combinations(range(matrix.cols), size):
            out.append(ctx.det(rows, cols))
    return out


def matrix_det(matrix: PolyMatrix) -> Polynomial:
    """Determinant by Laplace expansion memoized on column subsets."""
    if matrix.rows != matrix.cols:
        raise ValueError("determinant of a non-square matrix")
    n = matrix.rows
    return _LaplaceContext(matrix).det(range(n), range(n))


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
        if p % 2 == 0 or any(p % q == 0 for q in range(3, isqrt(p) + 1, 2)) or f[-1] % p == 0:
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


def _field_step(row, top, col):
    """row minus the multiple of the pivot row `top` that clears column col."""
    f = row[col] / top[col]
    return [x - f * y for x, y in zip(row, top)]


def _integer_step(row, top, col):
    """Fraction-free `_field_step` for integer rows: the primitive integer
    combination of row and top that clears column col."""
    g = gcd(top[col], row[col])
    a, b = top[col] // g, row[col] // g
    out = [a * x - b * y for x, y in zip(row, top)]
    g = gcd(*out)
    return [x // g for x in out] if g > 1 else out


def _row_echelon(rows, ncols, step=_field_step):
    """Forward elimination in place, searching pivots in the first `ncols`
    columns; returns the pivot columns.  Afterwards rows[:len(pivots)] are in
    echelon form and the remaining rows vanish on those columns."""
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        if rank == len(rows):
            break
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        top = rows[rank]
        for r in range(rank + 1, len(rows)):
            if rows[r][col]:
                rows[r] = step(rows[r], top, col)
        pivots.append(col)
    return pivots


def characteristic_polynomial(rows) -> list:
    """Coefficients of det(T*I - A), constant first, for a square matrix A of
    field scalars.  A similarity brings A to upper Hessenberg form H; then the
    leading principal minors p_m of T*I - H satisfy p_m = T*p_(m-1) -
    sum_(r<m) h[r][m-1] * h[r+1][r] * ... * h[m-1][m-2] * p_r."""
    h = [list(r) for r in rows]
    n = len(h)
    for k in range(n - 2):
        piv = next((i for i in range(k + 1, n) if h[i][k]), None)
        if piv is None:
            continue
        h[k + 1], h[piv] = h[piv], h[k + 1]
        for row in h:
            row[k + 1], row[piv] = row[piv], row[k + 1]
        for i in range(k + 2, n):
            f = h[i][k] / h[k + 1][k]
            if f:  # subtract f * row k+1 from row i, then add f * column i to column k+1
                h[i] = [x - f * y for x, y in zip(h[i], h[k + 1])]
                for row in h:
                    row[k + 1] += f * row[i]
    minors = [[1]]
    for m in range(1, n + 1):
        p = [0] + minors[-1]
        sub = 1  # h[r+1][r] * ... * h[m-1][m-2]
        for r in range(m - 1, -1, -1):
            f = sub * h[r][m - 1]
            if f:
                for j, c in enumerate(minors[r]):
                    p[j] -= f * c
            sub *= h[r][r - 1] if r else 0
        minors.append(p)
    return minors[n]


def _reduced_echelon(rows, ncols):
    """`_row_echelon` followed by back-substitution: every pivot scaled to
    one and cleared from the rows above it."""
    pivots = _row_echelon(rows, ncols)
    for i in range(len(pivots) - 1, -1, -1):
        pc = pivots[i]
        pv = rows[i][pc]
        rows[i] = top = [x / pv for x in rows[i]]
        for r in range(i):
            if rows[r][pc]:
                rows[r] = _field_step(rows[r], top, pc)
    return pivots


def matrix_rank(rows) -> int:
    """Rank of a matrix of field scalars (fraction-free over the integers
    when all entries are rational)."""
    rows = [list(r) for r in rows]
    if not rows or not rows[0]:
        return 0
    ncols = len(rows[0])
    if all(isinstance(c, (int, Fraction)) for r in rows for c in r):
        int_rows = [rr for rr in map(primitive_integers, rows) if any(rr)]
        return len(_row_echelon(int_rows, ncols, _integer_step))
    return len(_row_echelon(rows, ncols))


def nullspace(rows, ncols, one=Fraction(1)):
    """Basis of the right null space of a matrix of field scalars with
    `ncols` columns (rows may be empty): one vector per free column of the
    reduced echelon form."""
    rows = [list(r) for r in rows if any(r)]
    pivots = _reduced_echelon(rows, ncols)
    zero = one - one
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [zero] * ncols
        vec[fc] = one
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][fc]
        basis.append(vec)
    return basis


def matrix_inverse(rows, field):
    """Inverse of a square matrix over `field`, by reducing [A | I]."""
    n = len(rows)
    aug = [
        [field.coerce(v) for v in row] + [field.one if i == j else field.zero for j in range(n)]
        for i, row in enumerate(rows)
    ]
    if len(_reduced_echelon(aug, n)) < n:
        raise DegenerateInputError("matrix is singular")
    return tuple(tuple(row[n:]) for row in aug)
