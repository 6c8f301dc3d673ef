"""Local intersection multiplicities: graph substitution vs the truncated
local-algebra oracle."""

import random
from fractions import Fraction
from itertools import islice

import pytest

from oscurve import intersection
from oscurve.errors import DegenerateInputError
from oscurve.intersection import (
    GraphCurve,
    TruncatedMultiplicity,
    _quotient_dimensions,
    branch_separation,
    graph_intersection_multiplicity,
    truncated_local_multiplicity,
)
from oscurve.qfields import QuadExt, QuadraticField
from oscurve.rings import INF, Polynomial, PolyRing

from helpers import quotient_dimension_at_level, truncated_local_multiplicity_by_levels

R2 = PolyRing(("x", "y"))


def test_graph_multiplicity_a4_prototype():
    f = R2.parse("y^2 - x^5")
    assert graph_intersection_multiplicity(f, GraphCurve([0])) == 5


def test_graph_multiplicity_component_is_infinite():
    f = R2.parse("y^2 - y*x^2")  # y*(y - x^2)
    assert graph_intersection_multiplicity(f, GraphCurve([0, 1])) == INF


def test_graph_multiplicity_oscnode_over_gaussian_field():
    K = QuadraticField(-1)
    ring = PolyRing(("x", "y"), K)
    f = ring.parse("y^2 - 2*x^2*y + x^4 + x^2*y^2")
    i = K.coerce(QuadExt(0, 1, -1))
    assert graph_intersection_multiplicity(f, GraphCurve([K.zero, K.one, -i])) == 7
    assert graph_intersection_multiplicity(f, GraphCurve([K.zero, K.one, i])) == 7


def test_graph_requires_curve_through_origin():
    with pytest.raises(DegenerateInputError):
        graph_intersection_multiplicity(R2.parse("y + 1"), GraphCurve([0]))


def test_branch_separation_examples():
    K = QuadraticField(-1)
    i = K.coerce(QuadExt(0, 1, -1))
    g1 = GraphCurve([K.zero, K.one, -i])
    g2 = GraphCurve([K.zero, K.one, i])
    assert branch_separation(g1, g2) == 3
    assert branch_separation(g1, g1) == INF
    rng = random.Random(3)
    for _ in range(10):
        r = rng.randint(1, 7)
        coeffs = [Fraction(0)] * (r - 1)
        assert branch_separation(GraphCurve(coeffs + [1]), GraphCurve(coeffs + [-1])) == r


def test_oracle_cusp():
    # dim K[x,y]/(y^2 - x^3, y) = dim K[x]/(x^3) = 3
    f = R2.parse("y^2 - x^3")
    assert truncated_local_multiplicity(f, R2.var("y")).value == 3


def test_oracle_transverse_lines():
    assert truncated_local_multiplicity(R2.var("x"), R2.var("y")).value == 1


def test_oracle_matches_graph_path_on_quartic():
    f = R2.parse("y^2 - 2*x^2*y + x^4 + x^2*y^2")
    g = R2.parse("y - x^2")
    result = truncated_local_multiplicity(f, g)
    assert result.value == 6
    assert graph_intersection_multiplicity(f, GraphCurve([0, 1])) == 6


def test_oracle_cap_flag_on_shared_component():
    f = R2.parse("y*(y - x^2)")
    g = R2.parse("y - x^2")
    result = truncated_local_multiplicity(f, g, cap=14)
    assert result.value == INF
    assert result.cap_reached


def test_oracle_rejects_missing_origin():
    with pytest.raises(DegenerateInputError):
        truncated_local_multiplicity(R2.parse("y - 1"), R2.var("y"))


def _random_curve(rng, maxdeg=4):
    terms = {}
    for _ in range(rng.randint(2, 6)):
        i, j = rng.randint(0, maxdeg), rng.randint(0, maxdeg)
        if i + j == 0 or i + j > maxdeg:
            continue
        terms[(i, j)] = Fraction(rng.randint(-3, 3))
    return R2.from_terms(terms)


def test_oracle_equivalence_randomized():
    rng = random.Random(12)
    checked = 0
    while checked < 40:
        f = _random_curve(rng)
        if f.is_zero:
            continue
        graph = GraphCurve([Fraction(rng.randint(-2, 2)) for _ in range(rng.randint(1, 4))])
        fast = graph_intersection_multiplicity(f, graph)
        if fast == INF:
            continue
        oracle = truncated_local_multiplicity(f, graph.implicit_poly(R2))
        assert oracle.value == fast, (str(f), graph.coefficients)
        checked += 1


def _random_ext_curve(rng, ring, tags, maxdeg=4):
    """A curve through the origin whose coefficients a + b*sqrt(tag) are
    written over tags drawn from `tags`, all naming the field of `ring`."""
    terms = {}
    for _ in range(rng.randint(2, 6)):
        i, j = rng.randint(0, maxdeg), rng.randint(0, maxdeg)
        if 0 < i + j <= maxdeg:
            c = QuadExt(rng.randint(-3, 3), rng.randint(-2, 2), rng.choice(tags))
            if c:
                terms[(i, j)] = c
    return Polynomial(ring, terms)


def test_oracle_matches_the_level_by_level_oracle_over_qq():
    rng = random.Random(17)
    checked = 0
    while checked < 30:
        f = _random_curve(rng)
        g = _random_curve(rng) + R2.from_terms({(1, 0): rng.randint(-1, 1), (0, 1): rng.randint(-1, 1)})
        if f.is_zero or g.is_zero:
            continue
        cap = rng.randint(3, 9)
        expected = truncated_local_multiplicity_by_levels(f, g, cap)
        result = truncated_local_multiplicity(f, g, cap)
        assert (result.value, result.cap_reached) == (expected.value, expected.cap_reached), (
            str(f),
            str(g),
            cap,
        )
        checked += 1


@pytest.mark.parametrize("tags", [(2, 8), (-1,), (5, 20, 45)])
def test_oracle_matches_the_level_by_level_oracle_over_quadratic_fields(tags):
    rng = random.Random(sum(tags))
    ring = PolyRing(("x", "y"), QuadraticField(tags[0]))
    checked = 0
    while checked < 12:
        f, g = (_random_ext_curve(rng, ring, tags, maxdeg=3) for _ in range(2))
        if f.is_zero or g.is_zero:
            continue
        cap = rng.randint(3, 8)
        expected = truncated_local_multiplicity_by_levels(f, g, cap)
        result = truncated_local_multiplicity(f, g, cap)
        assert (result.value, result.cap_reached) == (expected.value, expected.cap_reached), (
            str(f),
            str(g),
            cap,
        )
        checked += 1


def test_oracle_combines_rings_whose_tags_name_one_field():
    # 2*1009^2 keeps its square factor (1009 is past the trial bound)
    wide = PolyRing(("x", "y"), QuadraticField(2 * 1009**2))
    narrow = PolyRing(("x", "y"), QuadraticField(2))
    assert wide == narrow and wide.field.d != narrow.field.d
    f = wide.parse("y^2 - 2*x^2 + x^3")
    g = narrow.parse("y - sqrt(2)*x")
    assert truncated_local_multiplicity(f, g).value == 3
    assert truncated_local_multiplicity_by_levels(f, g).value == 3


@pytest.mark.parametrize(
    "field, f_text, g_text",
    [
        (None, "y*(y - x^2)", "y - x^2"),
        (2, "(y - sqrt(2)*x)*(y + x^2)", "y - sqrt(2)*x"),
    ],
)
@pytest.mark.parametrize("cap", [1, 3, 6])
def test_oracle_cap_on_a_shared_component_matches_the_level_by_level_oracle(field, f_text, g_text, cap):
    ring = R2 if field is None else PolyRing(("x", "y"), QuadraticField(field))
    f, g = ring.parse(f_text), ring.parse(g_text)
    result = truncated_local_multiplicity(f, g, cap)
    assert result.value == INF and result.cap_reached
    assert (result.value, result.cap_reached) == tuple(
        getattr(truncated_local_multiplicity_by_levels(f, g, cap), k) for k in ("value", "cap_reached")
    )


def counted_horizons(monkeypatch):
    """The horizons of the `_dimensions_below` runs from now on."""
    runs, inner = [], intersection._dimensions_below

    def counting(bases, width, horizon):
        runs.append(horizon)
        return inner(bases, width, horizon)

    monkeypatch.setattr(intersection, "_dimensions_below", counting)
    return runs


def test_oracle_restarts_past_its_horizon_without_changing_a_level(monkeypatch):
    # contact order 13 stabilizes at level 14, past the first three horizons, 4, 8 and 12
    f = R2.parse("y - x^13 + x*y")
    g = R2.parse("y + x^2*y")
    assert truncated_local_multiplicity(f, g) == truncated_local_multiplicity_by_levels(f, g)
    runs = counted_horizons(monkeypatch)
    assert truncated_local_multiplicity(f, g).value == 13
    assert runs == [4, 8, 12, 16]


@pytest.mark.parametrize(
    "field, f_text, g_text",
    [
        (None, "y^2 - x^2 + x^3", "y - x"),
        (10403, "y^2 - 10403*x^2 + x^3", "y - sqrt(10403)*x"),
    ],
)
def test_node_witness_of_contact_order_three_is_decided_within_the_first_horizon(
    monkeypatch, field, f_text, g_text
):
    ring = R2 if field is None else PolyRing(("x", "y"), QuadraticField(field))
    f, g = ring.parse(f_text), ring.parse(g_text)
    runs = counted_horizons(monkeypatch)
    assert truncated_local_multiplicity(f, g) == TruncatedMultiplicity(3, False)
    assert runs == [4]


@pytest.mark.parametrize(
    "f_text, g_text",
    [("y*(y - x^2)", "y - x^2"), ("y^2 - x^5 + x*y^3", "y - x^2"), ("x^3 - y^2", "x^2*y + y^3")],
)
def test_carried_levels_equal_a_fresh_matrix_per_level_past_two_restarts(f_text, g_text):
    f, g = R2.parse(f_text), R2.parse(g_text)
    carried = list(islice(_quotient_dimensions(f, g), 14))
    assert carried == [quotient_dimension_at_level(f, g, n) for n in range(1, 15)]
