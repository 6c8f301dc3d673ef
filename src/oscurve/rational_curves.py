"""Rational normal curves, osculating spaces, linear projections to the
plane, parameterizations, and implicitization by the moving-line determinant.

The degree-n rational normal curve is carried by the standard parameterization
(s^n, s^(n-1)t, ..., t^n); its ideal is generated by the 2x2 minors of the
two-row catalecticant matrix of the ambient coordinates.  Projecting from a
codimension-3 linear center yields plane curves together with their binary
parameterizations, and the scheme-level projection (add graph forms, saturate
by the ambient irrelevant ideal, eliminate the ambient variables) transports
finite subschemes along.  The implicit equation of a degree-n
parameterization is the squarefree part of the determinant of its n x n
moving-line matrix, whose entries are linear forms in the plane coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb, prod

from .errors import DegenerateInputError, InvariantViolation
from .groebner import (
    Ideal,
    eliminate,
    ideal_sum,
    irrelevant_ideal,
    is_empty_scheme,
    saturate,
)
from .polyops import (
    matrix_rank,
    nullspace,
    poly_gcd,
    squarefree_part,
)
from .qfields import QQ, RationalField
from .rings import Polynomial, PolyMatrix, PolyRing, integer_dicts

PARAM_VARS = ("s", "t")
PLANE_VARS = ("x", "y", "z")


def _default_ambient_names(n: int):
    return tuple(f"z{i}" for i in range(n + 1))


def ambient_ring(n: int, names=None, field=QQ) -> PolyRing:
    names = tuple(names) if names else _default_ambient_names(n)
    if len(names) != n + 1:
        raise ValueError(f"need {n + 1} variable names for the degree-{n} ambient space")
    return PolyRing(names, field)


def param_ring(field=QQ) -> PolyRing:
    return PolyRing(PARAM_VARS, field)


def rational_normal_curve_ideal(n: int, names=None, field=QQ) -> Ideal:
    """2x2 minors of [[z0..z_{n-1}], [z1..z_n]]: the degree-n moment curve."""
    if n < 2:
        raise DegenerateInputError("the rational normal curve needs degree >= 2")
    ring = ambient_ring(n, names, field)
    z = ring.gens()
    entries = z[:n] + z[1 : n + 1]
    matrix = PolyMatrix(ring, 2, n, entries)
    return Ideal(ring, matrix.minors(2))


def moment_point(n: int, q, field=QQ):
    """The point (q0^n, q0^(n-1) q1, ..., q1^n) on the curve."""
    q0, q1 = (field.coerce(v) for v in q)
    if not q0 and not q1:
        raise DegenerateInputError("(0, 0) is not a point of the projective line")
    return tuple(q0 ** (n - i) * q1**i for i in range(n + 1))


def _falling(base: int, k: int) -> int:
    out = 1
    for i in range(k):
        out *= base - i
    return out


def _linear_combination(coeffs, basis) -> Polynomial:
    """sum c_i * b_i over polynomials b_i of one ring, skipping zero c_i."""
    out = basis[0].ring.zero()
    for c, b in zip(coeffs, basis):
        if c:
            out = out + b * c
    return out


def osculating_space_ideal(n: int, q, r: int, names=None, field=QQ) -> Ideal:
    """Linear forms cutting the r-th osculating space of the degree-n curve
    at the parameter value q; its codimension is n - r."""
    if not 0 <= r <= n - 1:
        raise DegenerateInputError(f"osculating order r={r} out of range 0..{n - 1}")
    ring = ambient_ring(n, names, field)
    q0, q1 = (field.coerce(v) for v in q)
    if not q0 and not q1:
        raise DegenerateInputError("(0, 0) is not a point of the projective line")
    rows = []
    for a in range(r + 1):
        b = r - a
        row = []
        for j in range(n + 1):
            # d^a/ds^a d^b/dt^b of s^(n-j) t^j at (q0, q1)
            if n - j < a or j < b:
                row.append(field.zero)
                continue
            coeff = _falling(n - j, a) * _falling(j, b)
            row.append(field.coerce(coeff) * q0 ** (n - j - a) * q1 ** (j - b))
        rows.append(row)
    if matrix_rank(rows) != r + 1:
        raise InvariantViolation("osculating flag degenerated; this cannot happen")
    kernel = nullspace(rows, n + 1, one=field.one)
    return Ideal(ring, [_linear_combination(vec, ring.gens()) for vec in kernel])


def point_ideal(ring: PolyRing, point) -> Ideal:
    """All linear forms vanishing at a projective point."""
    field = ring.field
    pt = [field.coerce(v) for v in point]
    if not any(pt):
        raise DegenerateInputError("not a projective point")
    kernel = nullspace([pt], ring.nvars, one=field.one)
    return Ideal(ring, [_linear_combination(vec, ring.gens()) for vec in kernel])


def validate_center(ring: PolyRing, forms) -> list[Polynomial]:
    forms = list(forms)
    if len(forms) != 3:
        raise DegenerateInputError("a plane projection center needs exactly 3 linear forms")
    rows = []
    for f in forms:
        if f.ring != ring:
            raise DegenerateInputError("center forms must live in the ambient ring")
        if f.is_zero or f.degree() != 1 or not f.is_homogeneous():
            raise DegenerateInputError("center forms must be nonzero linear forms")
        row = [ring.field.zero] * ring.nvars
        for e, c in f.terms.items():
            row[e.index(1)] = c
        rows.append(row)
    if matrix_rank(rows) != 3:
        raise DegenerateInputError("center forms are linearly dependent")
    return forms


def project_scheme(scheme: Ideal, center, targets=("u", "v", "w")) -> Ideal:
    """Image of a finite scheme under projection from the center.

    Adds graph forms t_i - l_i, saturates by the ambient irrelevant ideal,
    and eliminates the ambient variables; the result lives in K[targets].
    Raises when the center meets the scheme (the projection is undefined
    there)."""
    ring = scheme.ring
    forms = validate_center(ring, center)
    if not is_empty_scheme(ideal_sum(scheme, Ideal(ring, forms))):
        raise DegenerateInputError("the projection center meets the scheme")
    sat = saturate(scheme, irrelevant_ideal(ring))
    big = PolyRing(ring.variables + tuple(targets), ring.field)
    gens = [g.restrict(big) for g in sat.gens]
    for name, form in zip(targets, forms):
        gens.append(big.var(name) - form.restrict(big))
    return eliminate(Ideal(big, gens), set(ring.variables))


# ---------------------------------------------------------------------------
# plane parameterizations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlaneParameterization:
    """A triple of degree-n binary forms (f0, f1, f2) with no common zero.

    The implicit equation is computed once, on first use of `implicit`, and
    kept on the instance; it takes no part in equality or hashing."""

    f0: Polynomial
    f1: Polynomial
    f2: Polynomial
    n: int

    @staticmethod
    def from_forms(f0, f1, f2) -> "PlaneParameterization":
        ring = f0.ring
        if f1.ring != ring or f2.ring != ring:
            raise DegenerateInputError("parameterization forms must share a ring")
        if ring.nvars != 2:
            raise DegenerateInputError("parameterization forms live in K[s, t]")
        degs = {f.degree() for f in (f0, f1, f2)}
        if len(degs) != 1 or not all(f.is_homogeneous() and not f.is_zero for f in (f0, f1, f2)):
            raise DegenerateInputError("need three nonzero binary forms of one degree")
        n = degs.pop()
        if n < 1:
            raise DegenerateInputError("constant forms do not parameterize a curve")
        g = poly_gcd(poly_gcd(f0, f1), f2)
        if g.degree() > 0:
            raise DegenerateInputError(
                f"the forms share the factor {g}: the parameterization has base points"
            )
        return PlaneParameterization(f0, f1, f2, n)

    @staticmethod
    def parse(text: str, field=QQ) -> "PlaneParameterization":
        """Parse 'f0; f1; f2' in the variables s, t."""
        ring = param_ring(field)
        parts = [p for p in text.split(";") if p.strip()]
        if len(parts) != 3:
            raise DegenerateInputError("expected three semicolon-separated binary forms")
        return PlaneParameterization.from_forms(*(ring.parse(p) for p in parts))

    @property
    def ring(self) -> PolyRing:
        return self.f0.ring

    @property
    def forms(self):
        return (self.f0, self.f1, self.f2)

    @cached_property
    def implicit(self) -> "ImplicitCurve":
        """`implicitize(self)` in the default plane variables x, y, z."""
        return implicitize(self)

    @property
    def proper(self) -> bool:
        """Whether the map is generically one-to-one onto its image."""
        return self.implicit.map_degree == 1

    def evaluate(self, q):
        return tuple(f.evaluate(q) for f in self.forms)

    def fiber_form(self, point) -> Polynomial:
        """Binary form whose roots are the parameters mapping to `point`:
        the gcd of the cross products point_j * f_i - point_i * f_j."""
        field = self.ring.field
        pt = [field.coerce(v) for v in point]
        crosses = []
        for i in range(3):
            for j in range(i + 1, 3):
                c = self.forms[i] * pt[j] - self.forms[j] * pt[i]
                if not c.is_zero:
                    crosses.append(c)
        if not crosses:
            raise DegenerateInputError("every cross product vanished; not a curve")
        g = crosses[0]
        for c in crosses[1:]:
            g = poly_gcd(g, c)
        return g


def parameterization_from_center(n: int, center, names=None, field=QQ) -> PlaneParameterization:
    """Evaluate three independent linear forms on the standard degree-n
    parameterization; errors out when the center meets the curve."""
    ring = ambient_ring(n, names, field)
    forms = validate_center(ring, center)
    pring = param_ring(field)
    s, t = pring.gens()
    monos = [s ** (n - i) * t**i for i in range(n + 1)]
    images = []
    for form in forms:
        img = pring.zero()
        for e, c in form.terms.items():
            img = img + monos[e.index(1)] * c
        images.append(img)
    return PlaneParameterization.from_forms(*images)


# ---------------------------------------------------------------------------
# implicitization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ImplicitCurve:
    poly: Polynomial
    map_degree: int
    minimal_certified: bool


def _binary_coefficients(f: Polynomial, n: int):
    """Coefficients of a degree-n binary form in the basis s^(n-j) t^j."""
    out = [f.ring.field.zero] * (n + 1)
    for e, c in f.terms.items():
        out[e[1]] = c
    return out


def _cross(u, w):
    """Cross product of two coefficient triples."""
    return (u[1] * w[2] - u[2] * w[1], u[2] * w[0] - u[0] * w[2], u[0] * w[1] - u[1] * w[0])


def _moving_line_matrix(param: PlaneParameterization, plane: PolyRing) -> PolyMatrix:
    """The n x n moving-line (Bezout) matrix of the parameterization.

    Entry (i, j) is the coefficient of s^(n-1-i) t^i u^(n-1-j) v^j in
    det[f(s, t); f(u, v); (x, y, z)] / (s*v - t*u), a linear form of the
    plane ring: with a_j the coefficient triple of s^(n-j) t^j, each pair
    j < k adds (x, y, z) . (a_j x a_k) along the antidiagonal
    (j + r, k - 1 - r), r = 0..k-j-1."""
    n = param.n
    triples = list(zip(*(_binary_coefficients(f, n) for f in param.forms)))
    gens = plane.gens()
    rows = [[plane.zero()] * n for _ in range(n)]
    for j in range(n + 1):
        for k in range(j + 1, n + 1):
            c = _linear_combination(_cross(triples[j], triples[k]), gens)
            for r in range(k - j):
                rows[j + r][k - 1 - r] = rows[j + r][k - 1 - r] + c
    return PolyMatrix(plane, n, n, [e for row in rows for e in row])


def _vanishes_on(F: Polynomial, param: PlaneParameterization) -> bool:
    """Whether F(f0, f1, f2) = 0.  It is a binary form of degree n*deg(F), so
    it is zero once it vanishes at the n*deg(F) + 1 points (1 : i) of P^1.
    Over QQ, F and the forms are first scaled to integers, which leaves the
    zeros of the homogeneous F(f0, f1, f2) where they are."""
    dicts = [F.terms] + [f.terms for f in param.forms]
    if isinstance(F.ring.field, RationalField):
        dicts, _ = integer_dicts(dicts)
    coeffs, *forms = dicts
    for i in range(param.n * F.degree() + 1):
        point = [sum(c * i ** e[1] for e, c in f.items()) for f in forms]
        if sum(c * prod(v**k for v, k in zip(point, e)) for e, c in coeffs.items()):
            return False
    return True


def implicitize(param: PlaneParameterization, names=PLANE_VARS) -> ImplicitCurve:
    """Squarefree implicit equation of the image curve, from the determinant
    of the n x n moving-line matrix (`_moving_line_matrix`).

    The determinant equals (up to a constant) F^d with F the implicit
    equation and d the degree of the parameterization map (Sederberg, Goldman
    & Du, JSC 23, 1997); the squarefree part removes the d-th power.  A
    constant determinant is refused: it is zero when the forms share a base
    point.  The result is checked to vanish on the parameterization;
    `map_degree` is n / deg(F)."""
    plane = PolyRing(tuple(names), param.ring.field)
    n = param.n
    raw = _moving_line_matrix(param, plane).det()
    if raw.degree() <= 0:
        raise DegenerateInputError(
            "the moving-line determinant is constant: "
            "the forms have a base point or the image is not a curve"
        )
    F = squarefree_part(raw)
    if not _vanishes_on(F, param):
        raise InvariantViolation("implicitization produced a non-vanishing candidate")
    deg = F.degree()
    certified = n % deg == 0
    map_degree = n // deg if certified else 1
    return ImplicitCurve(poly=F, map_degree=map_degree, minimal_certified=certified)


# ---------------------------------------------------------------------------
# the cone-section fiber test
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiberTestResult:
    image_point: tuple
    image_ideal: Ideal
    fiber_ideal: Ideal
    single_reduced_point: bool


def cone_fiber_test(n: int, center, source_point, names=None, field=QQ) -> FiberTestResult:
    """Check that the projection is one-to-one over the image of a chosen
    curve point: intersect the curve with the cone over the center through
    the image point; the fiber must be exactly the reduced source point."""
    ring = ambient_ring(n, names, field)
    forms = validate_center(ring, center)
    pt = [field.coerce(v) for v in source_point]
    image = tuple(f.evaluate(pt) for f in forms)
    if not any(image):
        raise DegenerateInputError("the source point lies on the center")
    kernel = nullspace([list(image)], 3, one=field.one)
    cone_forms = [_linear_combination(vec, forms) for vec in kernel]
    curve = rational_normal_curve_ideal(n, ring.variables, field)
    fiber = saturate(ideal_sum(curve, Ideal(ring, cone_forms)), irrelevant_ideal(ring))
    expected = point_ideal(ring, pt)
    single = fiber == expected
    image_ideal = project_scheme(point_ideal(ring, pt), forms)
    return FiberTestResult(
        image_point=image,
        image_ideal=image_ideal,
        fiber_ideal=fiber,
        single_reduced_point=single,
    )


def expected_double_point_count(n: int) -> int:
    return comb(n - 1, 2)
