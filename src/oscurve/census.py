"""Singularity census of a properly parameterized rational plane curve.

For a degree-n parameterization, the multiple-point machinery assembles the
banded matrix whose rows are shifts of the chart coordinates x0..xk over the
three coefficient rows of the forms; the scheme cut out by its maximal-minor
drops lives in P^k and its support encodes the k-fold points of the image.
For k = 2 the scheme is finite of length C(n-1, 2), and its local length at
each support point is the delta invariant of the singular point there.  One
chart algebra A = S/(I + (l - 1)), for a line l that misses the scheme,
gives them all (`groebner._finite_chart`): its dimension is the scheme's
length, and by Stickelberger's theorem the local lengths are the root
multiplicities of chi, the characteristic polynomial of a chart coordinate
u (`groebner.chart_algebra`).  Z lies on a smooth curve germ at every point
(below), so a generic u generates A, the other chart coordinate is v = H(u)
in A by the shape lemma, and one Krylov solve on the powers of u's
multiplication matrix finds H (`groebner._shape_line`), with no radical and
no lex basis; l = 1 gives the pivot coordinate.  The census needs double
points only, and checks that on the parameter line (`has_triple_point`):
the image has a point of multiplicity >= 3 exactly when the second partials
H_ij of the implicit equation F, composed with the parameterization, share
a root.  They are composed from F's residues modulo one prime: a value at
(1:0) that survives there and a constant gcd prove there is none, and only
another outcome pays for the exact second partials and their gcd over QQ.
There is no Groebner basis in the gate.

Two local facts let the census read labels and the cusp length off the
scheme Z of double points, a subscheme of Sym^2 P^1 = P^2 whose diagonal is
the conic y^2 - 4xz.  At a double point of type A_s the point of Z is the
pair of parameters over it, and Z has local length delta = ceil(s/2) there;
the pair lies on the diagonal exactly when the point has one branch, that is
when s is even.  So a point site is A_2delta on the conic (a cusp) and
A_(2delta - 1) off it, with no implicit-side classifier; that classifier is
the `classify` command and the tests' independent oracle.  At a one-branch
point, with parameters u, v near it and a coordinate of the
parameterization of order 2 there, the divided difference of that
coordinate vanishes on Z and has linear part u + v in the symmetric
coordinates u + v, uv, while the diagonal (u + v)^2 - 4uv has linear part
-4uv.  So Z lies on a smooth curve transverse to the conic there and meets
the conic with length 1 at every cusp: the length of Z + (conic) is the sum
of the sites' cusp counts, with no second Groebner basis.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import DegenerateInputError, InvariantViolation
from .groebner import (
    Ideal,
    _chart_coordinates,
    _finite_chart,
    _shape_line,
    chart_algebra,
    point_chart_matrix,
)
from .polyops import (
    PRIME,
    _prem,
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


def _second_partials_mod_prime(F: Polynomial, coefficients):
    """The binary forms H_ij(phi) of the six second partials H_ij of F, read
    off F's residues mod PRIME, as coefficient lists with the highest s-power
    first; `coefficients` are phi's three such lists over QQ.  None when
    PRIME divides a denominator of F or of phi."""
    images = [residues_mod_prime(c) for c in coefficients]
    coeffs = residues_mod_prime(F.terms.values())
    if coeffs is None or None in images:
        return None
    top = F.degree() - 2
    powers = []
    for image in images:
        row = [[1]]
        for _ in range(top):
            row.append(mul_mod_prime(row[-1], image))
        powers.append(row)
    pairs = [(i, j) for i in range(3) for j in range(i, 3)]
    out = [[0] * ((len(images[0]) - 1) * top + 1) for _ in pairs]
    products = {}
    for e, c in zip(F.terms, coeffs):
        for acc, (i, j) in zip(out, pairs):
            m = e[i] * (e[j] - (i == j))
            if not m:
                continue
            d = list(e)
            d[i] -= 1
            d[j] -= 1
            d = tuple(d)
            prod = products.get(d)
            if prod is None:
                a, b, f = (powers[k][d[k]] for k in range(3))
                prod = products[d] = mul_mod_prime(mul_mod_prime(a, b), f)
            cm = c * m
            for k, v in enumerate(prod):
                acc[k] += cm * v
    return [[v % PRIME for v in acc] for acc in out]


def has_triple_point(param: PlaneParameterization) -> bool:
    """Whether the image of the parameterization (over QQ) has a point of
    multiplicity >= 3, decided on the parameter line.

    Such a point is a common zero of the six second partials H_ij of the
    implicit equation F (Euler's formula in characteristic 0 makes F and its
    first partials vanish there too), and every image point is phi(s:t), so
    it exists exactly when the binary forms H_ij(phi) share a root.  Their
    leading coefficients are the values H_ij(phi(1:0)).  Modulo PRIME, taken
    from F's residues, one of them that survives is nonzero over QQ too and
    rules out (1:0); anchored on that H_ij(phi), the gcd of the compositions
    with phi(s, 1) has at least the degree of the gcd over QQ (as in
    `coprime_mod_prime`), so a constant gcd mod PRIME proves there is no such
    point.  Anything else is decided exactly: by the values at (1:0) and the
    gcd of the H_ij(phi) over QQ, from the second partials of F itself."""
    F = param.implicit.poly
    coefficients = [_binary_coefficients(f, param.n) for f in param.forms]
    composed = _second_partials_mod_prime(F, coefficients)
    anchor = next((c for c in composed or () if c[0]), None)
    if anchor is not None:
        g = anchor
        for c in composed:
            g = gcd_mod_prime(g, c)
            if len(g) == 1:
                return False
    names = F.ring.variables
    second = [F.derivative(v).derivative(w) for i, v in enumerate(names) for w in names[i:]]
    second = [h for h in second if not h.is_zero]
    if not any(h.evaluate([c[0] for c in coefficients]) for h in second):
        return True
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
    delta: int  # localized length: of the point, or the total over a cluster
    cusp_count: int  # how many of the points lie on the cusp conic
    image_point: tuple | None  # singular point of the image curve
    label: str | None = None  # A_s label once classified

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

    @property
    def cusp_intersection_length(self) -> int:
        # length of I + (y^2 - 4xz): every cusp meets the conic with length 1
        return sum(site.cusp_count for site in self.sites)

    @property
    def delta_sum(self) -> int:
        return sum(site.delta for site in self.sites)

    def point_count(self) -> int:
        return sum(site.size for site in self.sites)

    def labels(self) -> list[str]:
        out = []
        for site in self.sites:
            out.extend([site.label or "?"] * site.size)
        return sorted(out)


# ---------------------------------------------------------------------------
# support extraction: shape position, rational roots, conjugate splitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _SupportPiece:
    factor: Polynomial  # squarefree chart eliminant piece in a chart coordinate u; degree == size
    size: int
    points: tuple | None  # normalized projective points, when the piece is split
    images: tuple  # the coordinates x, y, z on the support, as polynomials in u
    line: Polynomial  # the chart's line l, 1 on the support
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


def _split_eliminant(g: Polynomial, images, line, chi: Polynomial) -> list[_SupportPiece]:
    """Rational roots split off as simple points, a final quadratic splits
    over one extension, anything bigger stays an unsplit cluster.  Each
    piece's local length is its share of the roots of chi, and a point's
    coordinates are the `images` at its root."""
    pieces = []
    var = g.used_variables()[0]
    ring = g.ring
    pos = ring.index(var)

    def point(u):
        at = [u if i == pos else u * 0 for i in range(ring.nvars)]
        return _normalize_projective([_evaluate_ext(p, at) for p in images])

    def piece(factor, roots):
        # a squarefree chi is g: every point has length 1
        delta = factor.degree() if chi == g else _roots_among(chi, factor)
        points = None if roots is None else tuple(map(point, roots))
        return _SupportPiece(factor, factor.degree(), points, images, line, delta)

    work = g
    for root in rational_roots(g):
        linear = ring.var(var) - ring.const(root)
        pieces.append(piece(linear, (root,)))
        work = exact_divide(work, linear)
    deg = work.degree()
    if deg == 2:
        cs = {sum(e): c for e, c in work.terms.items()}
        c2, c1, c0 = (cs.get(k, Fraction(0)) for k in (2, 1, 0))
        pieces.append(piece(work, quadratic_roots(c2, c1, c0)[0]))
    elif deg > 0:
        pieces.append(piece(work, None))
    return pieces


def support_sites(ideal: Ideal):
    """Decompose the support of a finite plane scheme into rational points,
    conjugate quadratic pairs and unsplit clusters, each with its local
    length.

    Each chart A = S/(I + (l - 1)) of `groebner._finite_chart` is tried in
    turn, and in each chart both of its coordinates, the variables but l's
    pivot (`chart_algebra`: the matrix M of a coordinate u, its chi and the
    monic squarefree part g of chi).  The first u that generates A has the
    other coordinate v = H(u) in A, H from one Krylov solve
    (`groebner._shape_line`); g has one root per point, v = h(u) on the
    support for h = H mod g, l = 1 gives the pivot, and the local lengths
    are the root multiplicities of chi (Stickelberger).  A coordinate cannot
    separate two points where it takes one value, which the other one may;
    when no chart coordinate generates A, as at a point that is not
    curvilinear, it refuses.  Returns dim A, which is the scheme's length
    as l misses it, and the pieces."""
    ring = ideal.ring
    for line, chart in _finite_chart(ideal, ring.gens()):
        u, v = _chart_coordinates(line)
        (pivot,) = set(ring.variables) - {u, v}
        for var, other in ((u, v), (v, u)):
            chi, g, m = chart_algebra(chart, var)
            if g.degree() == 0:
                return len(m[0]), []
            shape = _shape_line(chart, m, var, other)
            if shape is not None:
                h = shape if g == chi else _prem(shape, g, var)
                # on the support other = h, and line = c*pivot + (the rest) = 1
                images = [h if w == other else ring.var(w) for w in ring.variables]
                c = line.derivative(pivot).constant_term()
                images[ring.index(pivot)] += (ring.one() - line.substitute({other: h})) * (1 / c)
                return len(m[0]), _split_eliminant(g, tuple(images), line, chi)
    raise DegenerateInputError("no chart coordinate generates the chart algebra")


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


def _conjugate(point):
    """The Galois conjugate of a projective point, or None."""
    if point is None:
        return None
    return tuple(c.conjugate() if isinstance(c, QuadExt) else c for c in point)


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
    total, pieces = support_sites(ideal)
    expected = expected_double_point_count(n)
    if total != expected:
        raise InvariantViolation(f"double-point scheme length {total} != C(n-1,2) = {expected}")
    conic = cusp_conic(ring)

    sites = []
    for piece in pieces:
        if piece.points is not None:
            if piece.delta % piece.size:
                raise InvariantViolation("conjugate points with unequal local lengths")
            images = []
            for coords in piece.points:
                conic_value = _evaluate_ext(conic, list(coords))
                # the second point of a conjugate pair maps to the conjugate image
                images.append(_conjugate(images[0]) if images else _image_of_site(param, coords))
                sites.append(
                    CensusSite(
                        kind="point",
                        coords=coords,
                        eliminant=None,
                        size=1,
                        delta=piece.delta // piece.size,
                        cusp_count=0 if conic_value else 1,
                        image_point=images[-1],
                    )
                )
        else:
            # cusps: common roots of the factor and the conic on the support
            on_support = conic.substitute(dict(zip(ring.variables, piece.images)))
            cusps = poly_gcd(piece.factor, on_support)
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
    census = SingularityCensus(n=n, total_length=total, sites=tuple(sites))
    if census.delta_sum != total:
        raise InvariantViolation(f"per-site lengths {census.delta_sum} do not add up to {total}")
    return census


# ---------------------------------------------------------------------------
# classification of the census
# ---------------------------------------------------------------------------


def classify_curve_singularities(param: PlaneParameterization) -> SingularityCensus:
    """Census plus A_s labels read off each site's local length and the conic
    (see the module docstring): a point of length delta is A_2delta on the
    conic and A_(2delta - 1) off it; a reduced cluster, a Galois orbit of
    delta = 1 points, is A1 or A2 when its points are all nodes or all cusps.
    Any other site stays unlabeled."""
    census = double_point_census(param)
    labeled = []
    for site in census.sites:
        label = None
        if site.kind == "point":
            label = f"A{2 * site.delta}" if site.cusp_count else f"A{2 * site.delta - 1}"
        elif site.delta == site.size:
            if site.cusp_count == 0:
                label = "A1"
            elif site.cusp_count == site.size:
                label = "A2"
        labeled.append(replace(site, label=label))
    return replace(census, sites=tuple(labeled))


# ---------------------------------------------------------------------------
# curvilinearity of a finite scheme at a point
# ---------------------------------------------------------------------------


def is_curvilinear_at(scheme: Ideal, point) -> bool:
    """Zariski tangent dimension <= 1 at the point: the scheme sits inside a
    smooth curve germ exactly when the generators' linear parts at the point
    span a space of codimension <= 1 in the plane."""
    field = scheme.ring.field
    if scheme.ring.nvars != 3:
        raise DegenerateInputError("curvilinearity is tested in the plane: a ring of 3 variables")
    if len(point) != 3:
        raise DegenerateInputError(f"a point of the plane needs 3 coordinates, got {len(point)}")
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
