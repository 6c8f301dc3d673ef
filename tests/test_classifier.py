"""The double-point classifier: normalization, verdicts, witnesses, traces."""

import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from oscurve import classifier
from oscurve.classifier import (
    AFFINE_VARS,
    ClassificationCapError,
    classify_double_point,
    default_step_cap,
    multiplicity_at_origin,
    normalize_at_point,
    projective_ring,
)
from oscurve.cli import main
from oscurve.errors import DegenerateInputError, InvariantViolation, NonReducedCurveError
from oscurve.intersection import GraphCurve, branch_separation, graph_intersection_multiplicity
from oscurve.polyops import matrix_inverse, matrix_rank, poly_normalize
from oscurve.qfields import QQ
from oscurve.rings import INF, PolyRing, Polynomial

R3 = projective_ring()
R2 = PolyRing(("x", "y"))


def classify(text, point=(0, 0, 1), cap=None):
    return classify_double_point(R3.parse(text), point, cap=cap)


def sign_matrix(rng):
    """A random invertible matrix with entries +-1."""
    while True:
        M = [[Fraction(rng.choice((-1, 1))) for _ in range(3)] for _ in range(3)]
        if matrix_rank(M) == 3:
            return M


def moved(F, M):
    """F pulled back by M, and the point M maps to [0,0,1]."""
    Minv = matrix_inverse(M, QQ)
    return F.linear_change(M), tuple(Minv[i][2] for i in range(3))


def normal_and_moved_forms():
    """(s, curve, point) for the A1..A12 normal forms at [0,0,1], each also
    moved by a seeded +-1 matrix."""
    rng = random.Random(12)
    for s in range(1, 13):
        F = R3.parse("x1^2 - x0^2" if s == 1 else f"x1^2*x2^{s - 1} - x0^{s + 1}")
        yield s, F, (0, 0, 1)
        yield (s, *moved(F, sign_matrix(rng)))


# -- normalization ------------------------------------------------------------


def test_normalize_already_centered():
    norm = normalize_at_point(R3.parse("x1^2*x2 - x0^3"), (0, 0, 1))
    assert norm.affine == R2.parse("y^2 - x^3")
    assert norm.affine.terms[(0, 2)]


def test_normalize_moves_point_to_origin():
    F = R3.parse("x0*x1^2 - x2^3 + x1*x2^2")
    norm = normalize_at_point(F, (1, 0, 0))
    assert norm.affine.constant_term() == 0
    assert not norm.affine.is_zero


def test_normalize_applies_swap_when_y2_missing():
    # a20 = 1, a02 = 0 forces the variable swap
    norm = normalize_at_point(R3.parse("x0^2*x2 - x1^3"), (0, 0, 1))
    assert norm.affine.terms.get((0, 2)) == Fraction(1)


def test_normalize_applies_shear_for_pure_cross_term():
    norm = normalize_at_point(R3.parse("x0*x1*x2 - x0^3"), (0, 0, 1))
    assert norm.affine.terms.get((0, 2))


def test_normalize_rejects_point_off_curve():
    with pytest.raises(DegenerateInputError):
        normalize_at_point(R3.parse("x1^2*x2 - x0^3"), (1, 1, 0))


def test_normalize_rejects_inhomogeneous():
    with pytest.raises(DegenerateInputError):
        normalize_at_point(R3.parse("x1^2 - x0^3"), (0, 0, 1))


def test_multiplicity_at_origin():
    assert multiplicity_at_origin(R2.parse("y - x^2")) == 1
    assert multiplicity_at_origin(R2.parse("y^2 - x^5")) == 2
    assert multiplicity_at_origin(R2.parse("x^3 + y^3")) == 3
    with pytest.raises(DegenerateInputError):
        multiplicity_at_origin(R2.zero())


# -- verdicts -----------------------------------------------------------------


def test_smooth_point_with_tangent():
    verdict, trace = classify("x1*x2^2 - x0^3", (0, 0, 1))
    assert verdict.kind == "smooth"
    assert verdict.tangent == R2.parse("y")
    assert trace == []


def test_multiplicity_three_point():
    verdict, _ = classify("x0^3 + x1^3", (0, 0, 1))
    assert verdict.kind == "multiplicity_ge_3"
    assert verdict.multiplicity == 3


def test_node_has_two_tangent_witnesses():
    verdict, _ = classify("x1^2*x2 - x0^2*x2 - x0^3")
    assert verdict.label == "A1"
    assert sorted(str(w) for w in verdict.witnesses) == ["y = -x", "y = x"]
    assert verdict.separation == 1


def test_cusp():
    verdict, _ = classify("x1^2*x2 - x0^3")
    assert verdict.label == "A2"
    assert verdict.witness_multiplicities == (3,)


def test_oscnode_quartic_full_data():
    verdict, trace = classify("x1^2*x2^2 - 2*x0^2*x1*x2 + x0^4 + x0^2*x1^2")
    assert verdict.label == "A5"
    assert verdict.tangent == R2.parse("y")
    assert verdict.witness_field.d == -1
    coeffs = {tuple(str(c) for c in w.coefficients) for w in verdict.witnesses}
    assert coeffs == {("0", "1", "sqrt(-1)"), ("0", "1", "-sqrt(-1)")}
    assert verdict.witness_multiplicities == (7, 7)
    assert verdict.separation == 3
    assert [s.branch for s in trace] == ["b2", "b2", "a"]
    assert trace[0].multiplicity == 4 and trace[1].multiplicity == 6


def test_infinite_branch_in_trace():
    verdict, trace = classify("x1^2*x2^2 - x1*x0^2*x2")
    assert verdict.label == "A3"
    assert trace[0].multiplicity == INF
    assert sorted(str(w) for w in verdict.witnesses) == ["y = 0", "y = x^2"]


def test_normal_form_sweep_stops_at_expected_step():
    for s in range(1, 13):
        text = "x1^2 - x0^2" if s == 1 else f"x1^2*x2^{s - 1} - x0^{s + 1}"
        verdict, _ = classify(text)
        assert verdict.label == f"A{s}"
        assert verdict.stopped_at_step == (s + 1) // 2


def test_step_quadratic_leads_with_a02():
    verdict, trace = classify("x1^2*x2^2 - 2*x0^2*x1*x2 + x0^4 + x0^2*x1^2")
    a02 = verdict.normalized.affine.terms[(0, 2)]
    for step in trace:
        assert step.quad[0] == a02


def test_even_branch_witness_is_rigid():
    # the unique graph of an even-type point: any perturbation of its listed
    # coefficients drops the contact order to at most 2r
    verdict, _ = classify("x1^2*x2^3 - x0^5")
    assert verdict.label == "A4"
    witness = verdict.witnesses[0]
    r = verdict.stopped_at_step
    f = verdict.normalized.affine
    rng = random.Random(6)
    for _ in range(12):
        coeffs = list(witness.coefficients) + [Fraction(0)] * (r - len(witness.coefficients))
        k = rng.randrange(r)
        coeffs[k] += Fraction(rng.randint(1, 3), rng.randint(1, 3))
        i = graph_intersection_multiplicity(f, GraphCurve(coeffs))
        assert i <= 2 * r


def test_odd_branch_witness_invariants():
    verdict, _ = classify("x1^2*x2^2 - x0^4")  # tacnode normal form
    assert verdict.label == "A3"
    r = verdict.stopped_at_step
    f = verdict.normalized.affine
    for w, m in zip(verdict.witnesses, verdict.witness_multiplicities):
        assert m == INF or m >= 2 * r + 1
    assert branch_separation(*verdict.witnesses) == r


def test_non_reduced_curve_is_refused():
    with pytest.raises(NonReducedCurveError):
        classify("(x1*x2 - x0^2)^2")


def test_cap_exceeded_carries_trace():
    from oscurve.classifier import ClassificationCapError

    with pytest.raises(ClassificationCapError) as err:
        classify("x1^2*x2^4 - x0^6", cap=1)
    assert len(err.value.trace) == 1


@pytest.mark.parametrize(
    "text, label",
    [
        ("(x1^2*x2 - x0^3)*(x0 - x2)^2", "A2"),  # the multiple line misses the point
        ("(x1*x2 - x0^2)*(x0 - x2)^2", "smooth point"),
        ("x1^2*(x1^2*x2 - x0^3)", "point of multiplicity >= 3"),
    ],
)
def test_non_reduced_curve_classified_unless_double_on_a_multiple_component(text, label):
    verdict, _ = classify(text)
    assert verdict.label == label


@pytest.mark.parametrize(
    "text, factor", [("x1^2*x2^3", "x1*x2^2"), ("(x1*x2 - x0^2)^2", "x1*x2 - x0^2")]
)
def test_double_point_on_a_multiple_component_names_the_factor(text, factor):
    M = sign_matrix(random.Random(5))
    F, point = moved(R3.parse(text), M)
    with pytest.raises(NonReducedCurveError) as err:
        classify_double_point(F, point)
    assert "Milnor bound" in str(err.value)
    assert f"gcd(F, dF) = {poly_normalize(R3.parse(factor).linear_change(M))}" in str(err.value)


def test_explicit_cap_on_a_multiple_component_is_a_cap_error():
    with pytest.raises(ClassificationCapError) as err:
        classify("(x1*x2 - x0^2)^2", cap=2)
    assert len(err.value.trace) == 2


def test_reducedness_gcd_runs_only_on_the_refusal_path(monkeypatch):
    # every verdict also stays within the Milnor bound the default cap rests on
    calls = []
    real = classifier.repeated_factor_part
    monkeypatch.setattr(classifier, "repeated_factor_part", lambda F: calls.append(F) or real(F))
    for s, F, point in normal_and_moved_forms():
        verdict, _ = classify_double_point(F, point)
        assert verdict.label == f"A{s}"
        assert s <= (F.degree() - 1) ** 2
        assert verdict.stopped_at_step <= default_step_cap(F)
    for text in (
        "x1^2*x2^2 - 2*x0^2*x1*x2 + x0^4 + x0^2*x1^2",
        "x1^2*x2^3 - x0^5",
        "x1^2*x2^2 - x1*x0^2*x2",
    ):
        F = R3.parse(text)
        verdict, _ = classify_double_point(F, (0, 0, 1))
        assert verdict.s <= (F.degree() - 1) ** 2
        assert verdict.stopped_at_step <= default_step_cap(F)
    assert calls == []
    with pytest.raises(NonReducedCurveError):
        classify("(x1*x2 - x0^2)^2")
    assert len(calls) == 1


CONTACT_ORDER_CURVES = (
    # y = x^2 is a component: contact order inf from r = 2 on
    ("(x1*x2 - x0^2)*(x1*x2^4 - x0^2*x2^3 - x0^5)", "A9", [4, INF, INF, INF]),
    # contact order 9 at r = 2, 3: well above the 2r + 1 that would end the steps
    ("(x1*x2^4 - x0^2*x2^3 - x0^5)*(x1*x2^3 - x0^2*x2^2 - x0^4)", "A7", [4, 9, 9]),
)


def test_step_quadratic_is_the_x_2r_coefficient_of_the_probe_substitution():
    # the step quadratic read off h_r is the textbook one: put
    # y = l1*x + ... + l_(r-1)*x^(r-1) + lam*x^r into f over K[x, lam]
    cases = [(F, point) for _, F, point in list(normal_and_moved_forms())[1::2]]
    for text in (
        "x1^2*x2^2 - 2*x0^2*x1*x2 + x0^4 + x0^2*x1^2",  # oscnode quartic
        "x1^2*x2^3 - x0^5",  # ramphoid quintic
        "x1^2*x2^2 - x1*x0^2*x2",  # tacnode with an infinite-contact branch
        "x1^2*x2^2 - 2*x0^4",  # tacnode with sqrt(2) witnesses
        *(text for text, _, _ in CONTACT_ORDER_CURVES),
    ):
        cases.append((R3.parse(text), (0, 0, 1)))
    for F, point in cases:
        verdict, trace = classify_double_point(F, point)
        f = verdict.normalized.affine
        ring = PolyRing(("x", "lam"), f.ring.field)
        x, lam = ring.gens()
        assert trace
        for step in trace:
            r = step.r
            prefix = GraphCurve([t.lam for t in trace[: r - 1]]).graph_poly(ring)
            g = f.substitute({"x": x, "y": prefix + lam * x**r})
            assert min(e[0] for e in g.terms) >= 2 * r
            quad = g.coefficient_in("x", 2 * r)
            coeffs = tuple(quad.coefficient_in("lam", k).constant_term() for k in (2, 1, 0))
            assert coeffs == step.quad


def test_dense_degree_ten_refusal_runs_every_step():
    # a smooth branch counted twice: every step is a forced continuation,
    # until the Milnor bound of 41 steps runs out
    M = sign_matrix(random.Random(1))
    F, point = moved(R3.parse("(x1*x2^4 - x0^5)^2"), M)
    assert default_step_cap(F) == 41
    with pytest.raises(NonReducedCurveError) as err:
        classify_double_point(F, point)
    # the refusal replaces the cap error, which still carries the full trace
    assert [s.branch for s in err.value.__context__.trace] == ["b2"] * 41
    factor = poly_normalize(R3.parse("x1*x2^4 - x0^5").linear_change(M))
    assert f"gcd(F, dF) = {factor}" in str(err.value)


@pytest.mark.parametrize("text, label, orders", CONTACT_ORDER_CURVES)
def test_trace_contact_orders_match_the_full_substitution(text, label, orders):
    verdict, trace = classify(text)
    assert verdict.label == label
    f = verdict.normalized.affine
    for k, step in enumerate(trace[:-1], start=1):
        lams = [t.lam for t in trace[:k]]
        assert step.multiplicity == graph_intersection_multiplicity(f, GraphCurve(lams))
    assert [t.multiplicity for t in trace[:-1]] == orders


# -- step invariants ----------------------------------------------------------

TAMPERED_STEPS = (
    # (curve at [0,0,1], term added to h_(r+1), the check it trips)
    ("x1^2*x2^2 - x0^4", "x*y", r"unexpected x\^3 term at step 2"),
    ("x1^2*x2^2 - x0^4", "y^2", "step quadratic lost its leading coefficient a02"),
    ("x1^2*x2 - x0^3", "x^2", "unique continuation with too small a contact order"),
)


def tamper_step_substitution(monkeypatch, extra):
    """Add `extra` to every substitution result in the chart ring x, y: the
    step y -> y + l_r*x^r then hands the classifier a wrong h_(r+1)."""
    substitute = Polynomial.substitute

    def tampered(self, assignments, target_ring=None):
        h = substitute(self, assignments, target_ring)
        return h + h.ring.parse(extra) if h.ring.variables == AFFINE_VARS else h

    monkeypatch.setattr(Polynomial, "substitute", tampered)


@pytest.mark.parametrize(
    "text, extra, message", TAMPERED_STEPS, ids=("low-term", "leading-coefficient", "contact-order")
)
def test_a_tampered_step_trips_its_invariant(monkeypatch, text, extra, message):
    tamper_step_substitution(monkeypatch, extra)
    with pytest.raises(InvariantViolation, match=message):
        classify(text)


def test_a_tampered_step_exits_as_an_internal_error(monkeypatch, capsys):
    text, extra, message = TAMPERED_STEPS[0]
    tamper_step_substitution(monkeypatch, extra)
    assert main(["classify", "--curve", text, "--point", "0,0,1"]) == 3
    assert re.search(message, capsys.readouterr().err)


# -- original-coordinate reports ---------------------------------------------


def test_witnesses_original_identity_transform():
    verdict, _ = classify("x1^2*x2 - x0^3")
    # point already at [0,0,1]: the witness curve is the homogenized graph
    assert verdict.witnesses_original == (R3.parse("x1*x2"),) or verdict.witnesses_original == (
        R3.parse("x1"),
    )


def test_tangents_transform_under_swap():
    # the node x1^2*x2 = x0^2*x2 + x0^3 with x0 <-> x1 swapped: tangent slopes invert
    F = R3.parse("x1^2*x2 - x0^2*x2 - x0^3")
    swapped = F.linear_change([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    v1, _ = classify_double_point(F, (0, 0, 1))
    v2, _ = classify_double_point(swapped, (0, 0, 1))
    w1 = {str(p) for p in v1.witnesses_original}
    w2 = {str(p) for p in v2.witnesses_original}
    assert w1 == {"-x0 + x1", "x0 + x1"}
    assert w2 == w1  # the witness pair is symmetric under the swap


def test_verdict_invariant_under_projective_change():
    F = R3.parse("x1^2*x2^2 - 2*x0^2*x1*x2 + x0^4 + x0^2*x1^2")
    rng = random.Random(41)
    for _ in range(4):
        while True:
            M = [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
            if matrix_rank(M) == 3:
                break
        moved = F.linear_change(M)
        Minv = matrix_inverse(M, QQ)
        point = tuple(Minv[i][2] for i in range(3))
        verdict, _ = classify_double_point(moved, point)
        assert verdict.label == "A5"
        # witnesses pushed back into the original coordinates still osculate:
        # their defining polynomials vanish at the original point
        for w in verdict.witnesses_original:
            lifted = [w.ring.field.coerce(v) for v in point]
            assert w.evaluate(lifted) == 0


def test_original_coordinate_curves_are_derived_once_on_first_read(monkeypatch):
    F, point = moved(
        R3.parse("x1^2*x2^2 - 2*x0^2*x1*x2 + x0^4 + x0^2*x1^2"), sign_matrix(random.Random(3))
    )
    calls = Counter()
    inverse, linear_change = classifier.matrix_inverse, Polynomial.linear_change
    monkeypatch.setattr(
        classifier, "matrix_inverse", lambda *a: calls.update(["inverse"]) or inverse(*a)
    )
    monkeypatch.setattr(
        Polynomial, "linear_change", lambda p, m: calls.update(["move"]) or linear_change(p, m)
    )
    verdict, _ = classify_double_point(F, point)
    assert verdict.label == "A5"
    assert not calls
    witnesses = verdict.witnesses_original
    assert calls == {"inverse": 1, "move": 2}
    tangent = verdict.tangent_original
    assert calls == {"inverse": 2, "move": 3}
    assert verdict.witnesses_original is witnesses
    assert verdict.tangent_original is tangent
    assert calls == {"inverse": 2, "move": 3}


def test_classify_through_the_shear_normalization():
    # quadratic part x*y only: normalization shears before probing; the node's
    # tangents map back to the coordinate lines
    verdict, _ = classify_double_point(R3.parse("x0*x1*x2 + x0^3 + x1^3"), (0, 0, 1))
    assert verdict.label == "A1"
    assert {str(w) for w in verdict.witnesses_original} == {"x0", "x1"}


def test_smooth_point_at_infinity():
    verdict, _ = classify_double_point(R3.parse("x1^2*x2 - x0^3"), (0, 1, 0))
    assert verdict.kind == "smooth"
    assert str(verdict.tangent_original) == "x2"


def test_tacnode_with_sqrt2_witnesses():
    verdict, _ = classify_double_point(R3.parse("x1^2*x2^2 - 2*x0^4"), (0, 0, 1))
    assert verdict.label == "A3"
    assert verdict.witness_field.d == 2
    assert sorted(str(w) for w in verdict.witnesses) == ["y = -sqrt(2)*x^2", "y = sqrt(2)*x^2"]


def test_classification_over_quadratic_base_field():
    from oscurve.qfields import QuadraticField
    from oscurve.rings import PolyRing, Polynomial

    K = QuadraticField(2)
    ring = PolyRing(R3.variables, K)
    F = R3.parse("x1^2*x2^2 - 2*x0^4")
    lifted = Polynomial(ring, {e: K.coerce(c) for e, c in F.terms.items()})
    verdict, _ = classify_double_point(lifted, (K.zero, K.zero, K.one))
    assert verdict.label == "A3"
    assert not verdict.extension_unsupported
    assert sorted(str(w) for w in verdict.witnesses) == ["y = -sqrt(2)*x^2", "y = sqrt(2)*x^2"]


def test_nested_radical_degrades_gracefully():
    # sqrt(3) does not live in QQ(sqrt(2)): the type is still decided, the
    # witnesses are withheld, and the step quadratic is reported instead
    from oscurve.qfields import QuadraticField
    from oscurve.rings import PolyRing, Polynomial

    K = QuadraticField(2)
    ring = PolyRing(R3.variables, K)
    F = R3.parse("x1^2*x2^2 - 3*x0^4")
    lifted = Polynomial(ring, {e: K.coerce(c) for e, c in F.terms.items()})
    verdict, _ = classify_double_point(lifted, (K.zero, K.zero, K.one))
    assert verdict.label == "A3"
    assert verdict.extension_unsupported
    assert verdict.witnesses is None
    A, B, C = verdict.quadratic_at_stop
    assert (str(A), str(B), str(C)) == ("1", "0", "-3")


def test_node_with_a_product_of_two_40_bit_primes():
    # the tangent discriminant is not factored on the way to the witnesses
    D = 1099511627689 * 1099511627609
    verdict, _ = classify(f"x1^2*x2 - {D}*x0^2*x2 + x0^3")
    assert verdict.label == "A1"
    assert verdict.witness_field.d == D
    assert sorted(str(w) for w in verdict.witnesses) == [
        f"y = -sqrt({D})*x",
        f"y = sqrt({D})*x",
    ]
