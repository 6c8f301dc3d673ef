"""Reference algorithms shared by the tests; the package does not use them."""

from fractions import Fraction
from functools import cache
from itertools import combinations, count, product
from math import gcd
from operator import add, ge, sub

from oscurve.errors import DegenerateInputError, ParseError
from oscurve.groebner import (
    GroebnerBasis,
    Ideal,
    _degree_exponents,
    _saturation_candidates,
    eliminate,
    ideal_sum,
    irrelevant_ideal,
    is_empty_scheme,
    saturate_general,
)
from oscurve.intersection import TruncatedMultiplicity, default_multiplicity_cap
from oscurve.polyops import (
    characteristic_polynomial,
    nullspace,
    poly_gcd,
    squarefree_part,
)
from oscurve.qfields import QuadraticField, make_quadratic
from oscurve.rational_curves import validate_center
from oscurve.rings import INF, Polynomial, PolyMatrix, PolyRing


def laplace_det(matrix: PolyMatrix, rows=None, cols=None) -> Polynomial:
    """Determinant of the submatrix on (rows, cols), all of the matrix by
    default, by Laplace expansion along the last row memoized on the
    (rows, cols) pairs of the expansion."""

    @cache
    def det(rows, cols):
        if len(rows) == 1:
            return matrix.entry(rows[0], cols[0])
        total = matrix.ring.zero()
        for j in range(len(cols)):
            entry = matrix.entry(rows[-1], cols[j])
            if not entry.is_zero:
                minor = det(rows[:-1], cols[:j] + cols[j + 1 :])
                total += entry * minor if (len(cols) - 1 - j) % 2 == 0 else -(entry * minor)
        return total

    rows = range(matrix.rows) if rows is None else rows
    return det(tuple(rows), tuple(range(matrix.cols) if cols is None else cols))


def laplace_minors(matrix: PolyMatrix, size: int) -> list[Polynomial]:
    """All size x size minors by `laplace_det`, in the order of
    `PolyMatrix.minors`: lexicographic by (row set, col set)."""
    return [
        laplace_det(matrix, rows, cols)
        for rows in combinations(range(matrix.rows), size)
        for cols in combinations(range(matrix.cols), size)
    ]


def sylvester_resultant(a: Polynomial, b: Polynomial, var: str) -> Polynomial:
    """Determinant of the Sylvester matrix of a and b with respect to `var`.

    Both inputs must have positive degree in `var`; the result does not
    involve `var` and vanishes exactly when a and b share a factor of
    positive degree in it.
    """
    ring = a.ring
    if b.ring != ring:
        raise DegenerateInputError("resultant operands must share a ring")
    m = a.degree_in(var)
    n = b.degree_in(var)
    if m <= 0 or n <= 0:
        raise DegenerateInputError("resultant needs positive degree in the chosen variable")
    ca = a.as_univariate_in(var)
    cb = b.as_univariate_in(var)
    zero = ring.zero()
    size = m + n
    entries = []
    for i in range(n):  # rows of a-coefficients
        row = [zero] * size
        for k in range(m + 1):
            row[i + k] = ca.get(m - k, zero)
        entries.extend(row)
    for i in range(m):  # rows of b-coefficients
        row = [zero] * size
        for k in range(n + 1):
            row[i + k] = cb.get(n - k, zero)
        entries.extend(row)
    return PolyMatrix(ring, size, size, entries).det()


def normal_form_with_cofactors(gb, f: Polynomial):
    """(remainder, cofactors) with f = sum(cofactor_i * basis_i) + remainder,
    by division by the basis `gb` in field arithmetic, independent of
    `GroebnerBasis.normal_form`."""
    ring, key = gb.ring, gb.order.key_function(gb.ring)
    rest, remainder, cofactors = f, ring.zero(), [ring.zero()] * len(gb.polys)
    while not rest.is_zero:
        exp = max(rest.terms, key=key)
        c = rest.terms[exp]
        i = next((i for i, lead in enumerate(gb.lead_exponents) if all(map(ge, exp, lead))), None)
        if i is None:
            remainder += Polynomial(ring, {exp: c})
            rest -= Polynomial(ring, {exp: c})
            continue
        lead = gb.lead_exponents[i]
        shift = tuple(a - b for a, b in zip(exp, lead))
        q = Polynomial(ring, {shift: c / gb.polys[i].terms[lead]})
        cofactors[i] += q
        rest -= q * gb.polys[i]
    return remainder, cofactors


def groebner_certificate(ideal: Ideal, gb: GroebnerBasis):
    """Assert that `gb` is a reduced Groebner basis whose ideal contains the
    generators of `ideal`, by plain multivariate division on Polynomials
    (`normal_form_with_cofactors`), never the engine's reduction: every
    element is monic in its lead, found here by the order key; no term of
    an element is divisible by another element's lead; and every generator
    and every S-polynomial of the basis divides to remainder 0."""
    ring, key = gb.ring, gb.order.key_function(gb.ring)
    polys = gb.polys
    leads = tuple(max(p.terms, key=key) for p in polys)
    assert leads == gb.lead_exponents, (leads, gb.lead_exponents)
    for i, (p, lead) in enumerate(zip(polys, leads)):
        assert p.terms[lead] == 1, f"{p} is not monic"
        for j, other in enumerate(leads):
            unreduced = j != i and any(all(map(ge, e, other)) for e in p.terms)
            assert not unreduced, f"a term of {p} is divisible by the lead of {polys[j]}"
    for g in ideal.gens:
        assert normal_form_with_cofactors(gb, g)[0].is_zero, f"{g} is not in the basis's ideal"
    for (p, lp), (q, lq) in combinations(zip(polys, leads), 2):
        lcm = tuple(map(max, lp, lq))
        s = p * ring.monomial(tuple(map(sub, lcm, lp)))
        s -= q * ring.monomial(tuple(map(sub, lcm, lq)))
        assert normal_form_with_cofactors(gb, s)[0].is_zero, f"S({p}, {q}) does not reduce to 0"


def has_triple_point_grevlex(F: Polynomial) -> bool:
    """Whether the plane curve F = 0 has a point of multiplicity >= 3, from
    a grevlex basis: the six second partials of F have a common zero.  In
    characteristic 0, Euler's formula makes F and its first partials vanish
    there too."""
    names = F.ring.variables
    second = [F.derivative(v).derivative(w) for i, v in enumerate(names) for w in names[i:]]
    return not is_empty_scheme(Ideal(F.ring, second))


def dense_integer_step(row, top, col):
    """The primitive integer combination of row and the pivot row `top`,
    both vanishing before column col, that clears column col, computed over
    the whole tail of the rows."""
    g = gcd(top[col], row[col])
    a, b = top[col] // g, row[col] // g
    out = [a * x - b * y for x, y in zip(row[col:], top[col:])]
    g = gcd(*out)
    return [0] * col + ([x // g for x in out] if g > 1 else out)


def dense_row_echelon(rows, cols):
    """`polyops._row_echelon` with every step over the whole tail and each
    row's nonzero entries counted afresh at every column: the same pivot
    choice, the sparsest candidate, first among equals."""
    pivots = []
    for col in cols:
        rank = len(pivots)
        if rank == len(rows):
            break
        candidates = [r for r in range(rank, len(rows)) if rows[r][col]]
        if not candidates:
            continue
        piv = min(candidates, key=lambda r: len(rows[r]) - rows[r].count(0))
        rows[rank], rows[piv] = rows[piv], rows[rank]
        top = rows[rank]
        for r in range(rank + 1, len(rows)):
            if rows[r][col]:
                rows[r] = dense_integer_step(rows[r], top, col)
        pivots.append(col)
    return pivots


def _field_step(row, top, col):
    """row minus the multiple of the pivot row `top` that clears column col."""
    f = row[col] / top[col]
    return [x - f * y for x, y in zip(row, top)]


def field_row_echelon(rows, ncols):
    """Forward elimination in place over the field of the entries, on the
    first ncols columns; returns the pivot columns.  Each column's pivot is
    the candidate row with the fewest nonzero entries."""
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        if rank == len(rows):
            break
        candidates = [r for r in range(rank, len(rows)) if rows[r][col]]
        if not candidates:
            continue
        piv = min(candidates, key=lambda r: len(rows[r]) - rows[r].count(0))
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(rank + 1, len(rows)):
            if rows[r][col]:
                rows[r] = _field_step(rows[r], rows[rank], col)
        pivots.append(col)
    return pivots


def _reduced_echelon(rows, ncols):
    """`field_row_echelon` followed by back-substitution: every pivot scaled
    to one and cleared from the rows above it."""
    pivots = field_row_echelon(rows, ncols)
    for i in range(len(pivots) - 1, -1, -1):
        pc = pivots[i]
        pv = rows[i][pc]
        rows[i] = top = [x / pv for x in rows[i]]
        for r in range(i):
            if rows[r][pc]:
                rows[r] = _field_step(rows[r], top, pc)
    return pivots


def field_nullspace(rows, ncols, one=Fraction(1)):
    """`polyops.nullspace` over the field of the entries: one vector per
    free column of the reduced echelon form."""
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


def field_matrix_inverse(rows, field):
    """`polyops.matrix_inverse` over the field of the entries, by reducing
    [A | I]."""
    n = len(rows)
    aug = [
        [field.coerce(v) for v in row] + [field.one if i == j else field.zero for j in range(n)]
        for i, row in enumerate(rows)
    ]
    if len(_reduced_echelon(aug, n)) < n:
        raise DegenerateInputError("matrix is singular")
    return tuple(tuple(row[n:]) for row in aug)


def quotient_dimension_at_level(f: Polynomial, g: Polynomial, n: int) -> int:
    """d_n = dim K[x,y]/((f, g) + m^n) from a fresh matrix of the rows m*f
    and m*g on the monomials of degree < n, ranked by elimination over the
    field itself (`field_row_echelon`)."""
    monos = [(d - j, j) for d in range(n) for j in range(d + 1)]
    index = {m: k for k, m in enumerate(monos)}
    rows = []
    for base in (f, g):
        for mult_deg in range(n - int(base.lowest_degree())):
            for mj in range(mult_deg + 1):
                row = [0] * len(monos)
                for (ei, ej), c in base.terms.items():
                    col = index.get((ei + mult_deg - mj, ej + mj))
                    if col is not None:
                        row[col] = c
                rows.append(row)
    return len(monos) - len(field_row_echelon(rows, len(monos)))


def truncated_local_multiplicity_by_levels(f: Polynomial, g: Polynomial, cap=None):
    """`truncated_local_multiplicity` one level at a time: d_N for
    N = 2, 3, ... by `quotient_dimension_at_level`, until d_N = d_(N+1) or N
    passes the cap."""
    if cap is None:
        cap = default_multiplicity_cap(f, g)
    prev = quotient_dimension_at_level(f, g, 2)
    for n in count(3):
        cur = quotient_dimension_at_level(f, g, n)
        if cur == prev:
            return TruncatedMultiplicity(prev, False)
        prev = cur
        if n > cap:
            return TruncatedMultiplicity(INF, True)


def projective_ideal_by_saturation(gens, ell, ring: PolyRing) -> Ideal:
    """The homogeneous ideal in `ring` of the scheme that the polynomials
    `gens` of `ring` cut out in the affine chart ell = 1 of the linear form
    ell: homogenize each with ell, g -> sum_k g_k * ell^(d - k) over its
    homogeneous components g_k, and saturate by ell on the
    auxiliary-variable route."""
    hom = []
    for g in gens:
        d = g.degree()
        parts = (g.homogeneous_component(k) * ell ** (d - k) for k in range(d + 1))
        hom.append(sum(parts, ring.zero()))
    return saturate_general(Ideal(ring, hom), Ideal(ring, [ell]))


def saturate_by_one_line(ideal: Ideal) -> Ideal:
    """Sat(I, m) for homogeneous I as I : l^infinity on the auxiliary-variable
    route, for the first line l of `_saturation_candidates` that has I + (l)
    m-primary; an I that no line serves is saturated by m on that route."""
    ring = ideal.ring
    for coeffs in _saturation_candidates(ring.nvars):
        ell = sum((x * c for c, x in zip(coeffs, ring.gens())), ring.zero())
        if is_empty_scheme(ideal_sum(ideal, Ideal(ring, [ell]))):
            return saturate_general(ideal, Ideal(ring, [ell]))
    return saturate_general(ideal, irrelevant_ideal(ring))


def project_by_elimination(scheme: Ideal, center, targets=("u", "v", "w")) -> Ideal:
    """`project_scheme` by the graph of the projection: refuse a center
    that meets the scheme, saturate by the irrelevant ideal
    (`saturate_by_one_line`), add the graph forms t_i - l_i and eliminate the
    ambient variables with a block order."""
    ring = scheme.ring
    forms = validate_center(ring, center)
    if not is_empty_scheme(ideal_sum(scheme, Ideal(ring, forms))):
        raise DegenerateInputError("the projection center meets the scheme")
    sat = saturate_by_one_line(scheme)
    big = PolyRing(ring.variables + tuple(targets), ring.field)
    gens = [g.restrict(big) for g in sat.gens]
    for name, form in zip(targets, forms):
        gens.append(big.var(name) - form.restrict(big))
    return eliminate(Ideal(big, gens), set(ring.variables))


def fiber_form(param, point) -> Polynomial:
    """Binary form whose roots are the parameters that `param` maps to
    `point`: the gcd of the cross products point_j * f_i - point_i * f_j."""
    field = param.ring.field
    pt = [field.coerce(v) for v in point]
    crosses = []
    for i in range(3):
        for j in range(i + 1, 3):
            c = param.forms[i] * pt[j] - param.forms[j] * pt[i]
            if not c.is_zero:
                crosses.append(c)
    if not crosses:
        raise DegenerateInputError("every cross product vanished; not a curve")
    g = crosses[0]
    for c in crosses[1:]:
        g = poly_gcd(g, c)
    return g


def linear_relations(gb: GroebnerBasis, polys) -> list[list]:
    """Basis of the coefficient vectors (a_1, ..., a_m) with sum_i a_i p_i in
    the ideal of `gb`: the null space of the normal forms of the p_i, one
    equation per monomial that they use."""
    nfs = [gb.normal_form(p) for p in polys]
    field = gb.ring.field
    monomials = sorted({e for nf in nfs for e in nf.terms})
    rows = [[nf.terms.get(e, field.zero) for nf in nfs] for e in monomials]
    return nullspace(rows, len(nfs), one=field.one)


def degree_slice_members(ideal: Ideal, d: int):
    """Basis of the space of ideal members that are forms of degree d: the
    linear relations among the degree-d monomials modulo the ideal (which
    need not be homogeneous)."""
    ring = ideal.ring
    exps = list(_degree_exponents(ring.nvars, d))
    relations = linear_relations(ideal.groebner_basis(), [ring.monomial(e) for e in exps])
    return [ring.from_terms(zip(exps, vec)) for vec in relations]


def field_characteristic_polynomial(rows) -> list:
    """det(T*I - A) by the Hessenberg route over the field of the entries.  A
    similarity brings A to upper Hessenberg form H; then the leading
    principal minors p_m of T*I - H satisfy p_m = T*p_(m-1) -
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


def radical_route_chart(ideal: Ideal, ell: Polynomial, var: str):
    """(radical basis, chi, g, h) of the chart algebra A = S/(I + (ell - 1))
    in its coordinate `var` by the radical route, whatever chi is.  The
    chart coordinates are the variables but ell's last one; `other` is the
    one that is not `var`.  The basis of I + (ell - 1) is computed afresh
    from its generators; then the multiplication matrices of var and other
    on its standard monomials, both characteristic polynomials, the basis
    of the chart ideal plus both squarefree parts, g the monic squarefree
    part of chi (of var), and h with other = h(var) modulo the radical,
    deg h < deg g, from the normal forms of the powers var^i
    (`linear_relations`); h is None when there is no such h or g is
    constant."""
    ring = ideal.ring
    pivot = ell.used_variables()[-1]
    (other,) = [v for v in ring.variables if v not in (pivot, var)]
    chart = Ideal(ring, [*ideal.gens, ell - ring.one()])
    gb = chart.groebner_basis()
    leads = gb.lead_exponents
    box = [min(l[i] for l in leads if sum(l) == l[i]) for i in range(ring.nvars)]
    monomials = [
        e for e in product(*map(range, box)) if not any(all(map(ge, e, lead)) for lead in leads)
    ]
    chis = []
    for name in (var, other):
        k = ring.index(name)
        unit = tuple(int(i == k) for i in range(ring.nvars))
        rows = [[ring.field.zero] * len(monomials) for _ in monomials]
        for j, e in enumerate(monomials):
            moved = ring.monomial(tuple(map(add, e, unit)))
            for f, c in gb.normal_form(moved).terms.items():
                rows[monomials.index(f)][j] = c
        coeffs = characteristic_polynomial(rows)
        chis.append(ring.from_terms({tuple(i * u for u in unit): c for i, c in enumerate(coeffs)}))
    parts = [squarefree_part(chi) for chi in chis]
    radical = Ideal(ring, [*chart.gens, *parts]).groebner_basis()
    g = parts[0] * (ring.field.one / parts[0].terms[max(parts[0].terms, key=sum)])
    if g.degree() == 0:
        return radical.polys, chis[0], g, None
    x, y = ring.var(var), ring.var(other)
    relations = linear_relations(radical, [x**i for i in range(g.degree())] + [y])
    if not relations:
        return radical.polys, chis[0], g, None
    (vec,) = relations
    return radical.polys, chis[0], g, sum((x**i * -c for i, c in enumerate(vec[:-1])), ring.zero())


# -- the Polynomial-building parser ------------------------------------------------------


def _reference_tokens(text):
    tokens = []  # (kind, value, pos)
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalnum():
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        if ch in "+-*^()/,":
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n))
    return tokens


class _ReferenceParser:
    """Recursive descent that builds a `Polynomial` at every node, with the
    ring's own sum, product and power."""

    def __init__(self, tokens, ring):
        self.tokens, self.pos, self.ring = tokens, 0, ring

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        self.pos += 1
        return self.tokens[self.pos - 1]

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def expr(self):
        kind = self.peek()[0]
        if kind in ("+", "-"):
            self.next()
        total = -self.term() if kind == "-" else self.term()
        while self.peek()[0] in ("+", "-"):
            if self.next()[0] == "+":
                total = total + self.term()
            else:
                total = total - self.term()
        return total

    def term(self):
        total = self.factor()
        while self.peek()[0] == "*":
            self.next()
            total = total * self.factor()
        return total

    def factor(self):
        base = self.atom()
        while self.peek()[0] == "^":
            self.next()
            base = base ** self.expect("int")[1]
        return base

    def atom(self):
        kind, value, pos = self.next()
        if kind == "int":
            if self.peek()[0] == "/":
                self.next()
                tok = self.expect("int")
                if tok[1] == 0:
                    raise ParseError("zero denominator in rational literal", tok[2])
                return self.ring.const(Fraction(value, tok[1]))
            return self.ring.const(value)
        if kind == "name":
            if value == "sqrt":
                return self.sqrt(pos)
            if value not in self.ring.variables:
                raise ParseError(f"unknown variable {value!r}", pos)
            return self.ring.var(value)
        if kind == "(":
            inner = self.expr()
            self.expect(")")
            return inner
        if kind == "-":
            return -self.atom()
        raise ParseError(f"unexpected token {value!r}", pos)

    def sqrt(self, pos):
        self.expect("(")
        sign = 1
        if self.peek()[0] == "-":
            self.next()
            sign = -1
        d = sign * self.expect("int")[1]
        if self.peek()[0] == "/":
            self.next()
            d = Fraction(d, self.expect("int")[1])
        self.expect(")")
        field = self.ring.field
        if not isinstance(field, QuadraticField):
            raise ParseError("sqrt(...) literal requires a quadratic-extension ring", pos)
        return self.ring.const(field.coerce(make_quadratic(0, 1, d)))


def reference_parse_poly(text: str, ring) -> Polynomial:
    """`rings.parse_poly` by a parser that builds a `Polynomial` for every
    atom, product, power and sum; the same grammar, errors and positions."""
    parser = _ReferenceParser(_reference_tokens(text), ring)
    result = parser.expr()
    tok = parser.peek()
    if tok[0] != "end":
        raise ParseError(f"trailing input {tok[1]!r}", tok[2])
    return result
