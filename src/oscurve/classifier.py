"""Double-point classification for plane curves reduced at the point.

Given a homogeneous trivariate F and a point P on the curve, the classifier
moves P to [0,0,1] and works in the affine chart, on f(x, y) with a nonzero
y^2 coefficient a02.  It keeps one transformed equation: once steps 1..r-1
have chosen l1, ..., l_(r-1),

    h_r(x, y) = f(x, y + l1*x + ... + l_(r-1)*x^(r-1))

has no term x^i*y^j with i + r*j < 2r, and the step quadratic in the next
coefficient l is a02*l^2 + h_r[x^r*y]*l + h_r[x^(2r)].  A nonzero
discriminant splits the point into two branches (type A_{2r-1}, two
osculating witnesses, whose contact orders are computed on f itself and so
cross-check the chain of substitutions); a zero one forces
l_r = -h_r[x^r*y]/(2*a02), and h_(r+1) = h_r(x, y + l_r*x^r), whose lowest
pure power of x is the exact contact order of the graph
y = l1*x + ... + l_r*x^r (type A_{2r} when it is 2r + 1, one more step
otherwise).  All tests are exact, so there is no tolerance anywhere; square
roots that leave the base field are taken in a quadratic extension and
reported alongside the quadratic itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DegenerateInputError,
    InvariantViolation,
    NonReducedCurveError,
    OscurveError,
)
from .groebner import point_chart_matrix
from .intersection import GraphCurve, branch_separation, graph_intersection_multiplicity
from .polyops import matrix_inverse, repeated_factor_part
from .qfields import QQ, quadratic_roots
from .rings import INF, Polynomial, PolyRing

PROJECTIVE_VARS = ("x0", "x1", "x2")
AFFINE_VARS = ("x", "y")


def projective_ring(field=QQ) -> PolyRing:
    return PolyRing(PROJECTIVE_VARS, field)


def affine_ring(field=QQ) -> PolyRing:
    return PolyRing(AFFINE_VARS, field)


class ClassificationCapError(OscurveError):
    """The step cap was exhausted; carries the partial trace."""

    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = trace


# ---------------------------------------------------------------------------
# normalization to the origin chart
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormalizedCurve:
    """A curve recentered so the query point is [0,0,1] with a02 != 0.

    `affine` is the dehomogenization of original o transform in the chart
    x2 != 0; `transform` maps [0,0,1] back to the query point.
    """

    original: Polynomial
    transform: tuple
    affine: Polynomial


def multiplicity_at_origin(f: Polynomial) -> int:
    """Degree of the lowest nonzero homogeneous part of f; f(0,0) must be 0."""
    if f.is_zero:
        raise DegenerateInputError("zero polynomial defines no curve")
    if f.constant_term():
        raise DegenerateInputError("the curve does not pass through the origin")
    return int(f.lowest_degree())


def normalize_at_point(F: Polynomial, point) -> NormalizedCurve:
    """Recenter F at `point`: move it to [0,0,1], dehomogenize, and when the
    point is a double point apply a swap or shear so the y^2 coefficient of
    the affine equation is nonzero."""
    ring = F.ring
    if ring.nvars != 3:
        raise DegenerateInputError("expected a homogeneous curve in three variables")
    if not F.is_homogeneous() or F.is_zero:
        raise DegenerateInputError("the curve must be a nonzero homogeneous polynomial")
    field = ring.field
    p = [field.coerce(v) for v in point]
    if len(p) != 3 or not any(p):
        raise DegenerateInputError("a projective point needs three coordinates, not all zero")
    if F.evaluate(p):
        raise DegenerateInputError("the point does not lie on the curve")

    transform = point_chart_matrix(p, field)

    aff_ring = affine_ring(field)
    affine = F.chart(transform, aff_ring)
    if affine.constant_term():
        raise InvariantViolation("recentred curve misses the origin")

    if multiplicity_at_origin(affine) == 2 and not affine.terms.get((0, 2)):
        if affine.terms.get((2, 0)):  # swap x <-> y
            transform = tuple((row[1], row[0], row[2]) for row in transform)
        elif affine.terms.get((1, 1)):  # x -> x + y
            transform = tuple((row[0], row[0] + row[1], row[2]) for row in transform)
        else:
            raise InvariantViolation("double point with zero quadratic part")
        affine = F.chart(transform, aff_ring)
    return NormalizedCurve(original=F, transform=transform, affine=affine)


# ---------------------------------------------------------------------------
# verdicts and traces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StepRecord:
    """One probing step: the quadratic A*l^2 + B*l + C in the step coefficient,
    its discriminant, the branch taken, the chosen coefficient (branches b),
    and the observed intersection multiplicity."""

    r: int
    quad: tuple
    delta: object
    branch: str  # "a", "b1", or "b2"
    lam: object | None
    multiplicity: object | None


@dataclass(frozen=True)
class Verdict:
    kind: str  # "smooth", "multiplicity_ge_3", "double_point"
    multiplicity: int
    s: int | None = None
    stopped_at_step: int | None = None
    tangent: Polynomial | None = None
    witnesses: tuple | None = None
    witness_field: object | None = None
    witness_multiplicities: tuple | None = None
    separation: object | None = None
    quadratic_at_stop: tuple | None = None
    extension_unsupported: bool = False
    normalized: NormalizedCurve | None = None
    tangent_original: Polynomial | None = None
    witnesses_original: tuple | None = None

    @property
    def label(self) -> str:
        if self.kind == "smooth":
            return "smooth point"
        if self.kind == "multiplicity_ge_3":
            return "point of multiplicity >= 3"
        return f"A{self.s}"


# ---------------------------------------------------------------------------
# the classifier
# ---------------------------------------------------------------------------


def default_step_cap(F: Polynomial) -> int:
    """ceil(((d - 1)^2 + 1)/2): steps that settle any double point where F is
    reduced.  An A_s point is settled at step ceil(s/2), and s is its Milnor
    number: the local intersection number of two general polars, of degree
    d - 1, so s <= (d - 1)^2 by Bezout (Milnor 1968; Greuel-Lossen-Shustin 2007)."""
    n = max(F.degree(), 1)
    return ((n - 1) ** 2 + 2) // 2


def classify_double_point(F: Polynomial, point, cap: int | None = None):
    """Classify `point` on the curve F = 0, which must be reduced at the point.

    Returns (Verdict, trace).  Smooth points and points of multiplicity >= 3
    are reported as such; a double point is classified as A_s with the
    osculating graph-curve witnesses: two of them (possibly over a quadratic
    extension) when the final discriminant is nonzero, one otherwise.
    Witnesses and tangent are reported both in the normalized chart and as
    curves in the original coordinates.

    A double point that the default cap leaves unsettled lies on a multiple
    component: NonReducedCurveError names it as gcd(F, dF).  A cap set by the
    caller that runs out raises ClassificationCapError instead.
    """
    norm = normalize_at_point(F, point)
    try:
        verdict, trace = _classify_normalized(norm, default_step_cap(F) if cap is None else cap)
    except ClassificationCapError:
        if cap is not None:
            raise
        rep = repeated_factor_part(F)
        if rep.degree() == 0 or rep.evaluate([row[2] for row in norm.transform]):
            raise InvariantViolation(f"step cap passed at a point off gcd(F, dF) = {rep}") from None
        raise NonReducedCurveError(
            f"no verdict within the Milnor bound of {default_step_cap(F)} steps: the point "
            f"lies on a multiple component, gcd(F, dF) = {rep}"
        ) from None
    verdict = witnesses_in_original_coordinates(verdict, norm)
    return verdict, trace


def _classify_normalized(norm: NormalizedCurve, cap: int):
    f = norm.affine
    ring = f.ring
    base_field = ring.field
    m = multiplicity_at_origin(f)

    if m == 1:
        tangent = f.homogeneous_component(1)
        verdict = Verdict(kind="smooth", multiplicity=1, tangent=tangent, normalized=norm)
        return verdict, []
    if m >= 3:
        verdict = Verdict(kind="multiplicity_ge_3", multiplicity=m, normalized=norm)
        return verdict, []

    a02 = f.terms.get((0, 2))
    if not a02:
        raise InvariantViolation("normalization failed to arrange a02 != 0")

    x, y = ring.gens()
    h = f  # f(x, y + l1*x + ... + l_(r-1)*x^(r-1)): the curve after the steps so far
    lams: list = []
    trace: list[StepRecord] = []

    for r in range(1, cap + 1):
        # y = lam*x^r meets x^i*y^j of h in x^(i + r*j) lam^j: the step
        # quadratic is the part with i + r*j = 2r, and nothing may lie below it
        C2, C1, C0 = (h.terms.get(e, base_field.zero) for e in ((0, 2), (r, 1), (2 * r, 0)))
        if C2 != a02:
            raise InvariantViolation("step quadratic lost its leading coefficient a02")
        low = min((i + r * j for i, j in h.terms), default=2 * r)
        if low < 2 * r:
            raise InvariantViolation(f"unexpected x^{low} term at step {r}")

        delta = C1 * C1 - 4 * C2 * C0
        if delta:
            # two distinct top coefficients: the branches separate here
            s = 2 * r - 1
            split = quadratic_roots(C2, C1, C0, base_field)
            wfield = base_field
            witnesses = None
            wit_mults = None
            separation = None
            ext_unsupported = split is None
            if split is not None:
                (lam1, lam2), wfield = split
                prefix = [wfield.coerce(c) for c in lams]
                w1 = GraphCurve(prefix + [lam1])
                w2 = GraphCurve(prefix + [lam2])
                witnesses = (w1, w2)
                f_ext = f if wfield == base_field else f.restrict(PolyRing(f.ring.variables, wfield))
                wit_mults = tuple(
                    graph_intersection_multiplicity(f_ext, w) for w in witnesses
                )
                separation = branch_separation(w1, w2)
                if any(v != INF and v < 2 * r + 1 for v in wit_mults):
                    raise InvariantViolation("witness multiplicity below the split bound")
                if separation != r:
                    raise InvariantViolation("witnesses separate at the wrong order")
            trace.append(
                StepRecord(r=r, quad=(C2, C1, C0), delta=delta, branch="a", lam=None, multiplicity=None)
            )
            if r == 1:
                tangent = None  # two distinct tangent lines live in `witnesses`
            else:
                tangent = y - x * lams[0]
            verdict = Verdict(
                kind="double_point",
                multiplicity=2,
                s=s,
                stopped_at_step=r,
                tangent=tangent,
                witnesses=witnesses,
                witness_field=wfield,
                witness_multiplicities=wit_mults,
                separation=separation,
                quadratic_at_stop=(C2, C1, C0),
                extension_unsupported=ext_unsupported,
                normalized=norm,
            )
            return verdict, trace

        lam_bar = -C1 / (2 * C2)
        lams.append(lam_bar)
        h = h.substitute({"y": y + x**r * lam_bar})
        # h(x, 0) = f(x, l1*x + ... + lr*x^r): its order is the contact order
        mult = min((i for i, j in h.terms if not j), default=INF)
        if mult != INF and mult < 2 * r + 1:
            raise InvariantViolation("unique continuation with too small a contact order")
        if mult == 2 * r + 1:
            witness = GraphCurve(list(lams))
            trace.append(
                StepRecord(
                    r=r, quad=(C2, C1, C0), delta=delta, branch="b1", lam=lam_bar, multiplicity=mult
                )
            )
            tangent = y - x * lams[0]
            verdict = Verdict(
                kind="double_point",
                multiplicity=2,
                s=2 * r,
                stopped_at_step=r,
                tangent=tangent,
                witnesses=(witness,),
                witness_field=base_field,
                witness_multiplicities=(mult,),
                quadratic_at_stop=(C2, C1, C0),
                normalized=norm,
            )
            return verdict, trace
        trace.append(
            StepRecord(r=r, quad=(C2, C1, C0), delta=delta, branch="b2", lam=lam_bar, multiplicity=mult)
        )

    raise ClassificationCapError(f"no verdict within {cap} steps; the cap is too small", trace)


# ---------------------------------------------------------------------------
# mapping reports back to the original coordinates
# ---------------------------------------------------------------------------


def _graph_to_projective(graph: GraphCurve, names, field) -> Polynomial:
    """Implicit homogeneous form of y = p(x) in the chart {last name != 0}."""
    ring2 = affine_ring(field)
    implicit = graph.implicit_poly(ring2)
    ring3 = PolyRing(names, field)
    return implicit.homogenize(ring3, names[2], {"x": names[0], "y": names[1]})


def witnesses_in_original_coordinates(verdict: Verdict, norm: NormalizedCurve) -> Verdict:
    """Attach tangent and witness curves expressed in the input coordinates:
    the normalized-chart graphs are homogenized and pushed through the
    inverse of the recentering transform."""
    field = norm.affine.ring.field
    wfield = verdict.witness_field or field
    names = norm.original.ring.variables
    inv = matrix_inverse(norm.transform, field)

    def push(poly3: Polynomial) -> Polynomial:
        f = poly3.ring.field
        matrix = [[f.coerce(v) for v in row] for row in inv]
        return poly3.linear_change(matrix)

    tangent_original = None
    if verdict.tangent is not None:
        ring3 = PolyRing(names, field)
        tangent3 = verdict.tangent.homogenize(ring3, names[2], {"x": names[0], "y": names[1]})
        tangent_original = push(tangent3)

    witnesses_original = None
    if verdict.witnesses:
        witnesses_original = tuple(
            push(_graph_to_projective(w, names, wfield)) for w in verdict.witnesses
        )

    return Verdict(
        **{
            **{k: getattr(verdict, k) for k in verdict.__dataclass_fields__},
            "tangent_original": tangent_original,
            "witnesses_original": witnesses_original,
        }
    )
