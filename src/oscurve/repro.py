"""Golden reference computations with frozen expected outputs.

Each case recomputes a documented workflow end to end and diffs the result
against exact expected artifacts embedded here (canonical polynomial strings,
Hilbert values, labels).  Everything is exact arithmetic, so comparisons are
literal: a case either matches bit for bit or fails.
"""

from __future__ import annotations

from dataclasses import dataclass

from .census import (
    classify_curve_singularities,
    cusp_conic,
    is_curvilinear_at,
    multiple_point_scheme_ideal,
)
from .classifier import classify_double_point, projective_ring
from .groebner import (
    Ideal,
    hilbert_function,
    ideal_power,
    ideal_sum,
    zero_dim_radical,
)
from .rational_curves import (
    cone_fiber_test,
    parameterization_from_center,
    point_ideal,
    project_scheme,
    rational_normal_curve_ideal,
)
from .rings import PolyRing


@dataclass(frozen=True)
class ReproCase:
    name: str
    description: str


def _gb_strings(ideal: Ideal) -> list[str]:
    return [str(p) for p in ideal.groebner_basis().polys]


def _run_oscnode_quartic():
    ring = projective_ring()
    F = ring.parse("x1^2*x2^2 - 2*x0^2*x1*x2 + x0^4 + x0^2*x1^2")
    verdict, trace = classify_double_point(F, (0, 0, 1))
    conic_step = next(s for s in trace if s.r == 2)
    artifacts = {
        "verdict": verdict.label,
        "tangent": str(verdict.tangent),
        "osculating_conic_coefficient": str(conic_step.lam),
        "witnesses": sorted(str(w.graph_poly(PolyRing(("x",), verdict.witness_field)))
                            for w in verdict.witnesses),
        "witness_multiplicities": sorted(verdict.witness_multiplicities),
        "branch_separation": verdict.separation,
        "stopped_at_step": verdict.stopped_at_step,
    }
    expected = {
        "verdict": "A5",
        "tangent": "y",
        "osculating_conic_coefficient": "1",
        "witnesses": ["-sqrt(-1)*x^3 + x^2", "sqrt(-1)*x^3 + x^2"],
        "witness_multiplicities": [7, 7],
        "branch_separation": 3,
        "stopped_at_step": 3,
    }
    return artifacts, expected


_SEXTIC_NAMES = tuple("abcdefg")


def _sextic_center(ring):
    a, b, c, d, e, f, g = ring.gens()
    return [a + g, 3 * f - b - d, 9 * e + c - d]


def _run_sextic_construction():
    amb = PolyRing(_SEXTIC_NAMES)
    a, b, c, d, e, f, g = amb.gens()
    center = _sextic_center(amb)
    curve = rational_normal_curve_ideal(6, _SEXTIC_NAMES)
    through = Ideal(amb, [b, c, d, e, f])

    fat3 = ideal_sum(ideal_power(through, 3), curve)
    proj3 = project_scheme(fat3, center)
    hilbert3 = hilbert_function(proj3)
    len3 = hilbert3.stable_value
    curvi3 = is_curvilinear_at(proj3, (1, 0, 0))
    lines3 = 3 - hilbert3.values[1]  # the linear forms in proj3: 3 - H(1)

    fat4 = ideal_sum(ideal_power(through, 4), curve)
    proj4 = project_scheme(fat4, center)
    len4 = hilbert_function(proj4).stable_value
    curvi4 = is_curvilinear_at(proj4, (1, 0, 0))

    projR = project_scheme(point_ideal(amb, [1] * 7), center)
    fiber = cone_fiber_test(6, center, [1] * 7, _SEXTIC_NAMES)

    artifacts = {
        "triple_contact_ideal": _gb_strings(proj3),
        "triple_contact_length": len3,
        "triple_contact_curvilinear": curvi3,
        "triple_contact_linear_forms": lines3,
        "quadruple_contact_ideal": _gb_strings(proj4),
        "quadruple_contact_length": len4,
        "quadruple_contact_curvilinear": curvi4,
        "marked_point_image_ideal": _gb_strings(projR),
        "marked_point_image": [str(v) for v in fiber.image_point],
        "fiber_ideal": _gb_strings(fiber.fiber_ideal),
        "fiber_is_single_reduced_point": fiber.single_reduced_point,
    }
    expected = {
        "triple_contact_ideal": ["w^2", "v*w", "-u*w + v^2"],
        "triple_contact_length": 3,
        "triple_contact_curvilinear": True,
        "triple_contact_linear_forms": 0,
        "quadruple_contact_ideal": ["w^2", "v^2*w", "-u*v*w + v^3"],
        "quadruple_contact_length": 5,
        "quadruple_contact_curvilinear": False,
        "marked_point_image_ideal": ["v - 1/9*w", "u - 2/9*w"],
        "marked_point_image": ["2", "1", "9"],
        "fiber_ideal": ["f - g", "e - g", "d - g", "c - g", "b - g", "a - g"],
        "fiber_is_single_reduced_point": True,
    }
    return artifacts, expected


def _run_sextic_census():
    amb = PolyRing(_SEXTIC_NAMES)
    center = _sextic_center(amb)
    param = parameterization_from_center(6, center, _SEXTIC_NAMES)
    ix2 = multiple_point_scheme_ideal(param, 2)
    hd = hilbert_function(ix2, upto=5)
    rad = zero_dim_radical(ix2)
    hd_rad = hilbert_function(rad, upto=5)
    icusp = ideal_sum(ix2, Ideal(ix2.ring, [cusp_conic(ix2.ring)]))
    hd_cusp = hilbert_function(icusp, upto=6)
    census = classify_curve_singularities(param)
    # conjugate points in a cluster share one local length
    deltas = sorted(
        site.delta if site.kind == "point" else site.delta // site.size
        for site in census.sites
        for _ in range(site.size)
    )
    artifacts = {
        "parameterization": [str(f) for f in param.forms],
        "scheme_hilbert": list(hd.values),
        "scheme_length": hd.stable_value,
        "support_hilbert": list(hd_rad.values),
        "support_count": hd_rad.stable_value,
        "cusp_cut_hilbert": list(hd_cusp.values),
        "cusp_cut_length": hd_cusp.stable_value,
        "point_deltas": deltas,
        "labels": census.labels(),
    }
    expected = {
        "parameterization": [
            "s^6 + t^6",
            "-s^5*t - s^3*t^3 + 3*s*t^5",
            "s^4*t^2 - s^3*t^3 + 9*s^2*t^4",
        ],
        "scheme_hilbert": [1, 3, 6, 10, 10, 10],
        "scheme_length": 10,
        "support_hilbert": [1, 3, 6, 8, 8, 8],
        "support_count": 8,
        "cusp_cut_hilbert": [1, 3, 5, 7, 4, 0, 0],
        "cusp_cut_length": 0,
        "point_deltas": [1, 1, 1, 1, 1, 1, 1, 3],
        "labels": ["A1", "A1", "A1", "A1", "A1", "A1", "A1", "A5"],
    }
    return artifacts, expected


def _run_ramphoid_quintic():
    ring = projective_ring()
    F = ring.parse("x1^2*x2^3 - x0^5")
    verdict, trace = classify_double_point(F, (0, 0, 1))
    artifacts = {
        "verdict": verdict.label,
        "tangent": str(verdict.tangent),
        "stopped_at_step": verdict.stopped_at_step,
        "contact_order": verdict.witness_multiplicities[0],
    }
    expected = {"verdict": "A4", "tangent": "y", "stopped_at_step": 2, "contact_order": 5}
    return artifacts, expected


def _run_tacnode_product():
    ring = projective_ring()
    F = ring.parse("x1^2*x2^2 - x1*x0^2*x2")
    verdict, trace = classify_double_point(F, (0, 0, 1))
    artifacts = {
        "verdict": verdict.label,
        "witnesses": sorted(str(w) for w in verdict.witnesses),
        "component_branch_multiplicity": str(trace[0].multiplicity),
        "stopped_at_step": verdict.stopped_at_step,
    }
    expected = {
        "verdict": "A3",
        "witnesses": ["y = 0", "y = x^2"],
        "component_branch_multiplicity": "inf",
        "stopped_at_step": 2,
    }
    return artifacts, expected


def _normal_form_runner(s):
    def run():
        ring = projective_ring()
        if s == 1:
            F = ring.parse("x1^2 - x0^2")
        else:
            F = ring.parse(f"x1^2*x2^{s - 1} - x0^{s + 1}")
        verdict, _ = classify_double_point(F, (0, 0, 1))
        artifacts = {"verdict": verdict.label, "stopped_at_step": verdict.stopped_at_step}
        expected = {"verdict": f"A{s}", "stopped_at_step": (s + 1) // 2}
        return artifacts, expected

    return run


_CASES = [
    (
        ReproCase(
            "example-4.1",
            "oscnode quartic: unique tangent, unique osculating conic, two "
            "conjugate osculating cubics over QQ(sqrt(-1))",
        ),
        _run_oscnode_quartic,
    ),
    (
        ReproCase(
            "example-6.1-part1",
            "sextic built by projecting the degree-6 standard curve: contact "
            "scheme images, curvilinearity, and the cone fiber test",
        ),
        _run_sextic_construction,
    ),
    (
        ReproCase(
            "example-6.1-part2",
            "double-point scheme of the sextic parameterization: Hilbert "
            "data, support, cusp test, and the full singularity census",
        ),
        _run_sextic_census,
    ),
    (
        ReproCase("remark-3.2", "contact order 5 with the repeated tangent: a ramphoid cusp"),
        _run_ramphoid_quintic,
    ),
    (
        ReproCase("remark-3.3", "reducible curve with an infinite-contact branch: a tacnode"),
        _run_tacnode_product,
    ),
]
for _s in range(1, 13):
    _CASES.append(
        (
            ReproCase(
                f"normal-forms-{_s}",
                f"normal form with a type A{_s} double point at [0,0,1]",
            ),
            _normal_form_runner(_s),
        )
    )


def repro_manifest() -> list[ReproCase]:
    """The named reference cases, in execution order."""
    return [case for case, _ in _CASES]


def run_repro_case(name: str):
    """Execute one case: (passed, artifacts, expected, mismatched keys)."""
    for case, runner in _CASES:
        if case.name == name:
            artifacts, expected = runner()
            bad = sorted(
                k for k in expected if artifacts.get(k) != expected[k]
            ) + sorted(k for k in artifacts if k not in expected)
            return (not bad, artifacts, expected, bad)
    raise KeyError(f"unknown reference case {name!r}")


def run_all_repro_cases():
    """[(name, passed, mismatched keys)] over the whole manifest."""
    out = []
    for case, _ in _CASES:
        passed, _, _, bad = run_repro_case(case.name)
        out.append((case.name, passed, bad))
    return out
