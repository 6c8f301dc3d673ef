"""Singularity census of a properly parameterized rational plane curve.

For a degree-n parameterization, the multiple-point machinery assembles the
banded matrix whose rows are shifts of the chart coordinates x0..xk over the
three coefficient rows of the forms; the scheme cut out by its maximal-minor
drops lives in P^k and its support encodes the k-fold points of the image.
For k = 2 the scheme is finite of length C(n-1, 2), and its local length at
each support point is the delta invariant of the singular point there.  One
chart algebra gives them all: by Stickelberger's theorem they are the root
multiplicities of the characteristic polynomial of a chart coordinate that
separates the points (`groebner.chart_radical`), and the shape position that
places the points comes from one linear solve in that algebra, not from a
lex Groebner basis.  The census needs double points only, and checks that
on the parameter line (`has_triple_point`): the image has a point of
multiplicity >= 3 exactly when the second partials H_ij of the implicit
equation F, composed with the parameterization, share a root.  Their values
at (1:0) are exact; for the rest, a constant gcd modulo one prime proves
there is none, and only a nonconstant one pays for the exact gcd over QQ.
There is no Groebner basis in the gate.  Support points on the
conic y^2 - 4xz are exactly the one-branch (cuspidal) singularities.  Labels
come from the implicit-side double point classifier, run at each image
point.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import chain, tee

from .classifier import classify_double_point
from .errors import DegenerateInputError, InvariantViolation
from .groebner import (
    Ideal,
    chart_lines,
    chart_matrix,
    chart_radical,
    ideal_sum,
    linear_relations,
    point_chart_matrix,
    scheme_length,
    to_chart,
)
from .polyops import (
    PRIME,
    exact_divide,
    gcd_mod_prime,
    matrix_rank,
    mul_mod_prime,
    nullspace,
    poly_gcd,
    rational_roots,
    residues_mod_prime,
)
from .qfields import QQ, QuadExt, RationalField, field_of, quadratic_roots
from .rational_curves import (
    PlaneParameterization,
    _binary_coefficients,
    _cross,
    expected_double_point_count,
)
from .rings import Polynomial, PolyMatrix, PolyRing

X2_VARS = ("x", "y", "z")


def scheme_ring(k: int, field=QQ) -> PolyRing:
    if k == 2:
        return PolyRing(X2_VARS, field)
    return PolyRing(tuple(f"x{i}" for i in range(k + 1)), field)


def multiple_point_matrix(param: PlaneParameterization, k: int) -> PolyMatrix:
    """The (n-k+4) x (n+1) matrix: n-k+1 banded rows carrying x0..xk shifted
    by the row index, over the three coefficient rows of the forms."""
    n = param.n
    if not 2 <= k <= n - 1:
        raise DegenerateInputError(f"k = {k} out of range 2..{n - 1}")
    ring = scheme_ring(k, param.ring.field)
    gens = ring.gens()
    zero = ring.zero()
    cols = n + 1
    entries = []
    for i in range(n - k + 1):
        row = [zero] * cols
        for j in range(k + 1):
            row[i + j] = gens[j]
        entries.extend(row)
    for f in param.forms:
        entries.extend(ring.const(c) for c in _binary_coefficients(f, n))
    return PolyMatrix(ring, n - k + 4, cols, entries)


def multiple_point_scheme_ideal(param: PlaneParameterization, k: int) -> Ideal:
    """Ideal of the (n-k+3)-minors: empty or finite, nonempty exactly when the
    image has a point of multiplicity >= k."""
    matrix = multiple_point_matrix(param, k)
    return Ideal(matrix.ring, matrix.minors(param.n - k + 3))


def cusp_conic(ring: PolyRing) -> Polynomial:
    x, y, z = ring.gens()
    return y * y - 4 * x * z


def _compose_mod_prime(forms, images):
    """The binary forms H(images), one per ternary form H of `forms`, as
    coefficient lists mod PRIME with the highest s-power first; `images` are
    three such lists of one degree.  None when PRIME divides a denominator
    of some H."""
    top = max(h.degree() for h in forms)
    powers = []
    for image in images:
        row = [[1]]
        for _ in range(top):
            row.append(mul_mod_prime(row[-1], image))
        powers.append(row)
    products, out = {}, []
    for h in forms:
        coeffs = residues_mod_prime(h.terms.values())
        if coeffs is None:
            return None
        acc = [0] * ((len(images[0]) - 1) * h.degree() + 1)
        for e, c in zip(h.terms, coeffs):
            prod = products.get(e)
            if prod is None:
                a, b, d = (powers[k][e[k]] for k in range(3))
                prod = products[e] = mul_mod_prime(mul_mod_prime(a, b), d)
            for i, v in enumerate(prod):
                acc[i] += c * v
        out.append([v % PRIME for v in acc])
    return out


def has_triple_point(param: PlaneParameterization) -> bool:
    """Whether the image of the parameterization (over QQ) has a point of
    multiplicity >= 3, decided on the parameter line.

    Such a point is a common zero of the six second partials H_ij of the
    implicit equation F (Euler's formula in characteristic 0 makes F and its
    first partials vanish there too), and every image point is phi(s:t), so
    it exists exactly when the binary forms H_ij(phi) share a root.  At (1:0)
    their values H_ij(phi(1:0)) are checked exactly.  The other roots are
    those of the compositions with phi(s, 1); modulo PRIME, anchored on an
    H_ij(phi) whose leading coefficient H_ij(phi(1:0)) survives there, their
    gcd has at least the degree of the gcd over QQ (as in
    `coprime_mod_prime`), so a constant gcd mod PRIME proves there is no such
    point.  Anything else is decided by the exact gcd of the H_ij(phi)."""
    F = param.implicit.poly
    names = F.ring.variables
    second = [F.derivative(v).derivative(w) for i, v in enumerate(names) for w in names[i:]]
    second = [h for h in second if not h.is_zero]
    coefficients = [_binary_coefficients(f, param.n) for f in param.forms]
    if not any(h.evaluate([c[0] for c in coefficients]) for h in second):
        return True
    images = [residues_mod_prime(c) for c in coefficients]
    composed = None if None in images else _compose_mod_prime(second, images)
    anchor = next((c for c in composed or () if c[0]), None)
    if anchor is not None:
        g = anchor
        for c in composed:
            g = gcd_mod_prime(g, c)
            if len(g) == 1:
                return False
    g = param.ring.zero()
    for h in second:
        g = poly_gcd(g, h.substitute(dict(zip(names, param.forms))))
        if g.degree() == 0:
            return False
    return True


# ---------------------------------------------------------------------------
# census data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CensusSite:
    """One support site of the double-point scheme: a single point (possibly
    over a quadratic extension) or an unsplit conjugate cluster."""

    kind: str  # "point" or "cluster"
    coords: tuple | None  # scheme-plane coordinates, for point sites
    eliminant: Polynomial | None  # chart eliminant, for cluster sites
    size: int  # number of geometric points at the site
    delta: int  # localized length (per point for "point", total for clusters)
    cusp_count: int  # how many of the points lie on the cusp conic
    image_point: tuple | None  # singular point of the image curve
    label: str | None = None  # A_s label once classified

    @property
    def delta_total(self) -> int:
        return self.delta * self.size if self.kind == "point" else self.delta

    def describe(self) -> str:
        if self.kind == "point":
            where = "[" + " : ".join(str(c) for c in self.coords) + "]"
        else:
            where = f"cluster of {self.size} conjugate points ({self.eliminant})"
        label = self.label or "unclassified"
        return f"{where}  delta={self.delta}  {label}"


@dataclass(frozen=True)
class SingularityCensus:
    n: int
    total_length: int
    sites: tuple
    cusp_intersection_length: int

    @property
    def delta_sum(self) -> int:
        return sum(site.delta_total for site in self.sites)

    def point_count(self) -> int:
        return sum(site.size for site in self.sites)

    def labels(self) -> list[str]:
        out = []
        for site in self.sites:
            count = site.size if site.kind == "cluster" else 1
            out.extend([site.label or "?"] * count)
        return sorted(out)


# ---------------------------------------------------------------------------
# support extraction: shape position, rational roots, conjugate splitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _SupportPiece:
    factor: Polynomial  # squarefree chart eliminant piece; degree == size
    size: int
    chart_points: tuple | None  # ((x, y), ...) when the piece is split
    h_line: Polynomial  # shape-position polynomial: yc = h_line(xc)
    delta: int  # local length of the scheme, summed over the piece's points


def _evaluate_ext(p: Polynomial, values):
    """Evaluate a rational-coefficient polynomial at possibly quadratic values."""
    field = field_of(values)
    if field != p.ring.field:
        p = p.restrict(PolyRing(p.ring.variables, field))
    return p.evaluate(values)


def _roots_among(chi: Polynomial, factor: Polynomial) -> int:
    """How many roots of chi, counted with multiplicity, are roots of the
    squarefree factor: strip g = gcd(chi, factor) off chi, then recurse on g."""
    g = poly_gcd(chi, factor)
    if g.degree() == 0:
        return 0
    return g.degree() + _roots_among(exact_divide(chi, g), g)


def _split_eliminant(g: Polynomial, h_line: Polynomial, chi: Polynomial) -> list[_SupportPiece]:
    """Rational roots split off as simple points, a final quadratic splits
    over one extension, anything bigger stays an unsplit cluster.  Each
    piece's local length is its share of the roots of chi."""
    pieces = []
    var = g.used_variables()[0]
    ring = g.ring

    def y_of(x_value):
        return _evaluate_ext(h_line, [x_value, x_value * 0])

    def piece(factor, points):
        return _SupportPiece(factor, factor.degree(), points, h_line, _roots_among(chi, factor))

    work = g
    for root in rational_roots(g):
        linear = ring.var(var) - ring.const(root)
        pieces.append(piece(linear, ((root, y_of(root)),)))
        work = exact_divide(work, linear)
    deg = work.degree()
    if deg == 2:
        cs = {sum(e): c for e, c in work.terms.items()}
        c2, c1, c0 = (cs.get(k, Fraction(0)) for k in (2, 1, 0))
        (r1, r2), _ = quadratic_roots(c2, c1, c0)
        pieces.append(piece(work, ((r1, y_of(r1)), (r2, y_of(r2)))))
    elif deg > 0:
        pieces.append(piece(work, None))
    return pieces


def support_sites(ideal: Ideal):
    """Decompose the support of a finite plane scheme into rational points,
    conjugate quadratic pairs and unsplit clusters, each with its local
    length.

    In a chart, g = the monic squarefree part of chi_x has one root per value
    of xc on the support, and 1, xc, ..., xc^(deg g - 1) are independent
    modulo the radical.  So xc separates the points exactly when yc = h(xc)
    modulo the radical for some h of degree < deg g: the shape position
    [g(xc), yc - h(xc)], found by one linear solve on normal forms.  Then
    the local lengths are the root multiplicities of chi_x, by Stickelberger's
    theorem.  In every `chart_matrix`, xc = x / ell, which cannot separate
    two points on the line x = 0; so once the chart lines run out, they are
    tried again with their two kernel coordinates swapped.  Returns a list
    of (_SupportPiece, chart matrix); chart data maps back to the input
    coordinates through the matrix.
    """
    lines, again = tee(chart_lines(ideal))
    swapped = (tuple((b, a, c) for a, b, c in chart_matrix(ell)) for ell in again)
    for matrix in chain(map(chart_matrix, lines), swapped):
        radical, chi, g = chart_radical(ideal, matrix)
        if g.degree() == 0:
            return []
        xc, yc = radical.ring.gens()
        relations = linear_relations(
            radical.groebner_basis(), [xc**i for i in range(g.degree())] + [yc]
        )
        if relations:
            # the powers of xc are independent, so yc's column is the free one
            (vec,) = relations
            h_line = radical.ring.from_terms({(i, 0): -c for i, c in enumerate(vec[:-1])})
            return [(piece, matrix) for piece in _split_eliminant(g, h_line, chi)]
    raise DegenerateInputError("could not put the support in shape position")


def _projective_from_chart(chart_point, matrix):
    xv, yv = chart_point
    vec = (xv, yv, 1)
    coords = [sum(matrix[i][j] * vec[j] for j in range(3)) for i in range(3)]
    return _normalize_projective(coords)


def _normalize_projective(coords):
    lead = next(c for c in coords if c)
    out = []
    for c in coords:
        v = c / lead if c else c * 0
        if isinstance(v, QuadExt) and v.b == 0:
            v = v.a
        out.append(v)
    return tuple(out)


# ---------------------------------------------------------------------------
# the census itself
# ---------------------------------------------------------------------------


def _image_of_site(param: PlaneParameterization, coords):
    """Singular image point below a double-point scheme point, without root
    extraction: the combinations c with q | c0*f0 + c1*f1 + c2*f2 are the
    lines through the image point, so it is their intersection.  They are the
    first three coordinates of the kernel of [f0 f1 f2 | q-shifts], which
    stays inside the field of the scheme point itself."""
    n = param.n
    field = field_of(coords)
    q = [field.coerce(c) for c in coords]
    columns = [[field.coerce(c) for c in _binary_coefficients(f, n)] for f in param.forms]
    for shift in range(n - 1):
        vec = [field.zero] * (n + 1)
        vec[shift : shift + 3] = q
        columns.append(vec)
    kernel = nullspace(zip(*columns), len(columns), one=field.one)
    if len(kernel) != 2:
        return None
    # the q-shifts are independent, so the two lines are too
    return _normalize_projective(list(_cross(kernel[0][:3], kernel[1][:3])))


def double_point_census(param: PlaneParameterization) -> SingularityCensus:
    """Locate all singular points of the image curve, with delta invariants
    from localized lengths and cusp flags from the conic test.

    Preconditions checked here: the parameterization is proper and the image
    has double points only (the second partials of its implicit equation F
    have no common zero, `has_triple_point`)."""
    n = param.n
    if n < 3:
        raise DegenerateInputError("degree must be at least 3 to carry singular points")
    if not isinstance(param.ring.field, RationalField):
        raise DegenerateInputError(
            "census support extraction splits points over QQ; "
            "parameterizations over an extension field are not supported here"
        )
    if not param.proper:
        raise DegenerateInputError("the parameterization is not generically one-to-one")
    if has_triple_point(param):
        raise DegenerateInputError(
            "the image curve has a point of multiplicity >= 3; the census handles double points only"
        )
    ideal = multiple_point_scheme_ideal(param, 2)
    ring = ideal.ring
    total = scheme_length(ideal)
    expected = expected_double_point_count(n)
    if total != expected:
        raise InvariantViolation(f"double-point scheme length {total} != C(n-1,2) = {expected}")
    conic = cusp_conic(ring)
    cusp_len = scheme_length(ideal_sum(ideal, Ideal(ring, [conic])))

    sites = []
    for piece, matrix in support_sites(ideal):
        if piece.chart_points is not None:
            if piece.delta % piece.size:
                raise InvariantViolation("conjugate points with unequal local lengths")
            for chart_pt in piece.chart_points:
                coords = _projective_from_chart(chart_pt, matrix)
                conic_value = _evaluate_ext(conic, list(coords))
                sites.append(
                    CensusSite(
                        kind="point",
                        coords=coords,
                        eliminant=None,
                        size=1,
                        delta=piece.delta // piece.size,
                        cusp_count=0 if conic_value else 1,
                        image_point=_image_of_site(param, coords),
                    )
                )
        else:
            # cusps: common roots of the factor and the conic on yc = h(xc)
            chart_conic = to_chart(Ideal(ring, [conic]), matrix).gens[0]
            cusps = poly_gcd(piece.factor, chart_conic.substitute({"yc": piece.h_line}))
            sites.append(
                CensusSite(
                    kind="cluster",
                    coords=None,
                    eliminant=piece.factor,
                    size=piece.size,
                    delta=piece.delta,
                    cusp_count=cusps.degree(),
                    image_point=None,
                )
            )
    census = SingularityCensus(
        n=n, total_length=total, sites=tuple(sites), cusp_intersection_length=cusp_len
    )
    if census.delta_sum != total:
        raise InvariantViolation(f"per-site lengths {census.delta_sum} do not add up to {total}")
    return census


# ---------------------------------------------------------------------------
# classification of the census
# ---------------------------------------------------------------------------


def classify_curve_singularities(param: PlaneParameterization) -> SingularityCensus:
    """Census plus A_s labels: delta = 1 points split into nodes and cusps by
    the conic test; deeper points go through the implicit-equation
    classifier, with the delta = ceil(s/2) consistency check."""
    census = double_point_census(param)
    F = param.implicit.poly
    labeled = []
    for site in census.sites:
        label = None
        if site.kind == "point":
            if site.delta == 1:
                label = "A2" if site.cusp_count else "A1"
            else:
                label = _classify_image_point(F, site)
        elif site.delta == site.size:
            # a reduced cluster is a Galois orbit of delta = 1 double points
            if site.cusp_count == 0:
                label = "A1"
            elif site.cusp_count == site.size:
                label = "A2"
        labeled.append(replace(site, label=label))
    return replace(census, sites=tuple(labeled))


def _classify_image_point(F: Polynomial, site: CensusSite):
    if site.image_point is None:
        return None
    field = field_of(site.image_point)
    if field != F.ring.field:
        F = F.restrict(PolyRing(F.ring.variables, field))
    verdict, _ = classify_double_point(F, site.image_point)
    if verdict.kind != "double_point":
        return None
    if -(-verdict.s // 2) != site.delta:
        raise InvariantViolation(
            f"classifier type A{verdict.s} disagrees with local length {site.delta}"
        )
    return f"A{verdict.s}"


# ---------------------------------------------------------------------------
# curvilinearity of a finite scheme at a point
# ---------------------------------------------------------------------------


def is_curvilinear_at(scheme: Ideal, point) -> bool:
    """Zariski tangent dimension <= 1 at the point: the scheme sits inside a
    smooth curve germ exactly when the generators' linear parts at the point
    span a space of codimension <= 1 in the plane."""
    field = scheme.ring.field
    pt = [field.coerce(v) for v in point]
    if not any(pt):
        raise DegenerateInputError("not a projective point")
    matrix = point_chart_matrix(pt, field)
    aff = PolyRing(("u1", "u2"), field)
    rows = []
    for g in scheme.gens:
        local = g.chart(matrix, aff)
        if local.constant_term():
            raise DegenerateInputError("the scheme is not supported at the point")
        lin = local.homogeneous_component(1)
        rows.append([lin.terms.get((1, 0), field.zero), lin.terms.get((0, 1), field.zero)])
    return 2 - matrix_rank(rows) <= 1
