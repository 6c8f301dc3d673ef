"""Double-point classification for plane curves reduced at the point.

Given a homogeneous trivariate F and a point P on the curve, the classifier
moves P to [0,0,1], works in the affine chart, and probes the singularity
with graph curves y = l1*x + ... + lr*x^r of growing degree.  At step r the
coefficient of x^(2r) in f(x, l1*x + ... + lr*x^r) is a quadratic in the top
coefficient; its discriminant decides between a split into two branches
(type A_{2r-1}, two osculating witnesses) and a forced unique continuation
(either type A_{2r} or one more step).  All tests are exact, so there is no
tolerance anywhere; square roots that leave the base field are taken in a
quadratic extension and reported alongside the quadratic itself.
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
    a02_fixed: bool


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

    a02_fixed = False
    if multiplicity_at_origin(affine) == 2:
        a20 = affine.terms.get((2, 0))
        a11 = affine.terms.get((1, 1))
        a02 = affine.terms.get((0, 2))
        if not a02:
            if a20:  # swap x <-> y
                transform = tuple((row[1], row[0], row[2]) for row in transform)
            elif a11:  # x -> x + y
                transform = tuple((row[0], row[0] + row[1], row[2]) for row in transform)
            else:
                raise InvariantViolation("double point with zero quadratic part")
            affine = F.chart(transform, aff_ring)
            a02_fixed = True
        else:
            a02_fixed = True
    return NormalizedCurve(original=F, transform=transform, affine=affine, a02_fixed=a02_fixed)


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


def _substitute_mod_x(f: Polynomial, probe: Polynomial, n: int) -> Polynomial:
    """f(x, probe) modulo x^n, in the ring of `probe`: Horner's rule in y with
    every partial sum cut at x^n, so no term of degree n or more is kept."""
    ring = probe.ring
    xi = ring.index("x")
    total = ring.zero()
    for j in range(f.degree_in("y"), -1, -1):
        total = total * probe + f.coefficient_in("y", j).restrict(ring)
        total = Polynomial(ring, {e: c for e, c in total.terms.items() if e[xi] < n})
    return total


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

    lam_ring = PolyRing(("x", "lam"), base_field)
    x = lam_ring.var("x")
    lam = lam_ring.var("lam")

    lams: list = []
    trace: list[StepRecord] = []

    for r in range(1, cap + 1):
        probe = GraphCurve(lams).graph_poly(lam_ring) + lam * x**r
        g = _substitute_mod_x(f, probe, 2 * r + 1)
        step_quad = g.coefficient_in("x", 2 * r)
        C0 = step_quad.coefficient_in("lam", 0).constant_term()
        C1 = step_quad.coefficient_in("lam", 1).constant_term()
        C2 = step_quad.coefficient_in("lam", 2).constant_term()
        if C2 != a02:
            raise InvariantViolation("step quadratic lost its leading coefficient a02")
        for j in range(2 * r):
            if not g.coefficient_in("x", j).is_zero:
                raise InvariantViolation(f"unexpected x^{j} term at step {r}")

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
                tangent = ring.var("y") - ring.var("x") * lams[0]
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
        graph = GraphCurve(lams).graph_poly(ring)
        mult = _substitute_mod_x(f, graph, 2 * r + 3).order_at_zero()
        if mult == INF:  # zero through x^(2r+2): take the whole series, of degree <= deg f * r
            mult = _substitute_mod_x(f, graph, f.degree() * r + 1).order_at_zero()
        if mult != INF and mult < 2 * r + 1:
            raise InvariantViolation("unique continuation with too small a contact order")
        if mult == 2 * r + 1:
            witness = GraphCurve(list(lams))
            trace.append(
                StepRecord(
                    r=r, quad=(C2, C1, C0), delta=delta, branch="b1", lam=lam_bar, multiplicity=mult
                )
            )
            tangent = ring.var("y") - ring.var("x") * lams[0]
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
