"""Ideal arithmetic: bases, normal forms, Hilbert functions, elimination,
saturation, radicals."""

import random
from fractions import Fraction
from operator import ge

import pytest

from oscurve.errors import DegenerateInputError
from oscurve.groebner import (
    GroebnerBasis,
    Ideal,
    TermOrder,
    _field_split,
    _HeapEntries,
    _integer_split,
    _reduce_full,
    _Reducers,
    eliminate,
    hilbert_function,
    ideal_intersection,
    ideal_power,
    ideal_sum,
    irrelevant_ideal,
    is_empty_scheme,
    saturate,
    saturate_general,
    scheme_length,
    zero_dim_radical,
)
from oscurve.qfields import QuadExt, QuadraticField
from oscurve.rational_curves import rational_normal_curve_ideal, validate_center
from oscurve.repro import _sextic_center
from oscurve.rings import Polynomial, PolyRing

from helpers import degree_slice_members, groebner_certificate, normal_form_with_cofactors

R2 = PolyRing(("x", "y"))
R3 = PolyRing(("x", "y", "z"))


def ideal(ring, *texts):
    return Ideal(ring, [ring.parse(t) for t in texts])


# -- bases and normal forms ----------------------------------------------------


def test_lex_basis_of_two_lines():
    I = ideal(R2, "x - y", "x + y")
    gb = I.groebner_basis(TermOrder.lex())
    assert [str(p) for p in gb.polys] == ["y", "x"]


def test_twisted_cubic_elimination():
    I = ideal(R3, "y - x^2", "z - x^3")
    gb = I.groebner_basis(TermOrder.lex())
    assert R3.parse("y^3 - z^2") in list(gb.polys)
    small = eliminate(I, {"x"})
    assert [str(p) for p in small.gens] == ["y^3 - z^2"]
    # check by substitution t -> (t, t^2, t^3)
    T = PolyRing(("t",))
    for g in small.gens:
        assert g.restrict(R3).substitute(
            {"x": T.var("t"), "y": T.parse("t^2"), "z": T.parse("t^3")}, target_ring=T
        ).is_zero


def test_degree_six_curve_ideal_staircase():
    I = rational_normal_curve_ideal(6)
    gb = I.groebner_basis()
    assert len(gb.polys) == 15
    assert all(p.degree() == 2 for p in gb.polys)
    ring = I.ring
    assert gb.normal_form(ring.parse("z1*z3 - z2^2")).is_zero


def test_normal_form_examples():
    I = ideal(R3, "x^2 - y*z", "x*y - z^2")
    gb = I.groebner_basis()
    for g in I.gens:
        assert gb.normal_form(g).is_zero
    assert gb.normal_form(R3.one()) == R3.one()


def test_membership_from_contact_schemes():
    # y^2 - x^(2r) lies in (y - x^r, x^l) for every l
    for r in (2, 3, 4):
        for l in (1, 3, 6):
            I = ideal(R2, f"y - x^{r}", f"x^{l}")
            assert I.normal_form(R2.parse(f"y^2 - x^{2 * r}")).is_zero


def test_basis_unique_under_generator_permutation():
    rng = random.Random(9)
    gens = [R3.parse(t) for t in ("x^2 - y*z", "x*y - z^2", "y^3 - x*z^2", "x^3 - z^3")]
    reference = Ideal(R3, gens).groebner_basis().polys
    for _ in range(5):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert Ideal(R3, shuffled).groebner_basis().polys == reference


def test_normal_form_cofactors_reconstruct():
    I = ideal(R3, "x^2 - y*z", "x*y - z^2")
    gb = I.groebner_basis()
    f = R3.parse("x^3*y - x*z^3 + y^2")
    remainder, cofactors = normal_form_with_cofactors(gb, f)
    rebuilt = remainder
    for q, g in zip(cofactors, gb.polys):
        rebuilt = rebuilt + q * g
    assert rebuilt == f
    member = R3.parse("(x^2 - y*z)*(x + z) + (x*y - z^2)*y")
    remainder, cofactors = normal_form_with_cofactors(gb, member)
    assert remainder.is_zero


def test_spairs_reduce_to_zero():
    I = ideal(R3, "x^2 - y*z", "x*y - z^2", "y^2 - x*z")
    gb = I.groebner_basis()
    polys = list(gb.polys)
    keyf = gb.order.key_function(R3)
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            li = max(polys[i].terms, key=keyf)
            lj = max(polys[j].terms, key=keyf)
            lcm = tuple(max(a, b) for a, b in zip(li, lj))
            mi = R3.monomial(tuple(a - b for a, b in zip(lcm, li)))
            mj = R3.monomial(tuple(a - b for a, b in zip(lcm, lj)))
            s = polys[i] * mi - polys[j] * mj
            assert gb.normal_form(s).is_zero


def _random_poly(rng, ring, nterms, degree, coefficient):
    """nterms distinct monomials of degree <= degree in three variables."""
    terms = {}
    while len(terms) < nterms:
        a = rng.randint(0, degree)
        b = rng.randint(0, degree - a)
        exp = (a, b, rng.randint(0, degree - a - b))
        terms[exp] = coefficient()
    return ring.from_terms(terms)


def _sympy_monic_basis(sympy, gens, order, domain):
    """sympy's reduced basis of the ideal, each element divided by its
    leading coefficient in `order`, as Polys sorted by their text."""
    symbols = sympy.symbols(gens[0].ring.variables)
    exprs = [sympy.sympify(str(g).replace("^", "**")) for g in gens]
    basis = sympy.groebner(exprs, *symbols, order=order, domain=domain)
    return sorted((p.exquo_ground(p.LC(order=order)) for p in basis.polys), key=str)


def _as_sympy_polys(sympy, polys, domain):
    symbols = sympy.symbols(polys[0].ring.variables)
    exprs = [sympy.sympify(str(p).replace("^", "**")) for p in polys]
    return sorted((sympy.Poly(e, *symbols, domain=domain) for e in exprs), key=str)


def test_reduced_bases_agree_with_sympy_over_qq():
    # seeded ideals with numerators up to 10^12 and denominators up to 999;
    # their bases reach coefficients of a few thousand bits
    sympy = pytest.importorskip("sympy")
    rng = random.Random(3)

    def coefficient():
        return Fraction(rng.randint(-(10**12), 10**12) or 1, rng.randint(1, 999))

    widest = 0
    for trial in range(16):
        order = ("grevlex", "lex")[trial % 2]
        degree = 3 if order == "grevlex" else 2
        gens = [_random_poly(rng, R3, rng.randint(2, 4), degree, coefficient) for _ in range(3)]
        gb = Ideal(R3, gens).groebner_basis(getattr(TermOrder, order)())
        assert _as_sympy_polys(sympy, gb.polys, "QQ") == _sympy_monic_basis(
            sympy, gens, order, "QQ"
        )
        widest = max(widest, *(abs(c.numerator).bit_length() for p in gb for c in p.terms.values()))
    assert widest > 2000


def test_reduced_bases_agree_with_sympy_over_a_quadratic_field():
    sympy = pytest.importorskip("sympy")
    domain = sympy.QQ.algebraic_field(sympy.sqrt(2))
    ring = PolyRing(("x", "y", "z"), QuadraticField(2))
    rng = random.Random(5)

    def rational():
        return Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 99))

    def coefficient():
        return QuadExt(rational(), rational() if rng.random() < 0.6 else 0, 2)

    for order in ("grevlex", "lex"):
        gens = [_random_poly(rng, ring, 3, 2, coefficient) for _ in range(3)]
        gb = Ideal(ring, gens).groebner_basis(getattr(TermOrder, order)())
        assert any(isinstance(c, QuadExt) and c.b for p in gb for c in p.terms.values())
        assert _as_sympy_polys(sympy, gb.polys, domain) == _sympy_monic_basis(
            sympy, gens, order, domain
        )


def _sextic_fat_scheme(k):
    """(I, ell): I = (b, ..., f)^k + RNC_6, the scheme that the sextic
    construction projects, and the first candidate line of the sextic
    center (the sum of its forms), with I + (ell) m-primary."""
    curve = rational_normal_curve_ideal(6, "abcdefg")
    ring = curve.ring
    through = Ideal(ring, [ring.var(v) for v in "bcdef"])
    forms = validate_center(ring, _sextic_center(ring))
    ell = sum(forms[1:], forms[0])
    return ideal_sum(ideal_power(through, k), curve), ell


def _sextic_chart_sums(I, ell):
    return [ideal_sum(I, Ideal(I.ring, [ell])), ideal_sum(I, Ideal(I.ring, [ell - I.ring.one()]))]


@pytest.mark.parametrize("k", [2, 3, 4])
def test_sextic_fat_schemes_and_chart_sums_pass_the_certificate(k):
    I, ell = _sextic_fat_scheme(k)
    groebner_certificate(I, I.groebner_basis())
    empty, chart = _sextic_chart_sums(I, ell)
    groebner_certificate(empty, empty.groebner_basis())
    assert is_empty_scheme(empty)
    groebner_certificate(chart, chart.groebner_basis())


def test_seeded_sum_over_a_quadratic_field_passes_the_certificate(monkeypatch):
    ring = PolyRing(("x", "y", "z"), QuadraticField(2))
    s2 = QuadExt(0, 1, 2)
    I = Ideal(ring, [ring.parse("x^2 - y*z"), ring.parse("x*y - z^2") + ring.parse("y^2") * s2])
    I.groebner_basis()
    total = ideal_sum(I, Ideal(ring, [ring.parse("y^2 - x*z") * (1 + s2) + ring.parse("x*z")]))
    seeds = _record_seeds(monkeypatch)
    gb = total.groebner_basis()
    assert seeds == [True]
    assert any(isinstance(c, QuadExt) and c.b for p in gb for c in p.terms.values())
    groebner_certificate(total, gb)


def test_golden_sextic_double_point_chart_passes_the_certificate():
    from oscurve.census import multiple_point_scheme_ideal
    from oscurve.groebner import _finite_chart
    from oscurve.rational_curves import parameterization_from_center
    from oscurve.repro import _SEXTIC_NAMES

    param = parameterization_from_center(6, _sextic_center(PolyRing(_SEXTIC_NAMES)), _SEXTIC_NAMES)
    scheme = multiple_point_scheme_ideal(param, 2)
    ring = scheme.ring
    line, chart = next(_finite_chart(scheme, ring.gens()))
    groebner_certificate(Ideal(ring, [*scheme.gens, line - ring.one()]), chart)


def test_certificate_catches_a_broken_basis():
    # each check on its own: a dropped element, a tail term that another lead
    # divides, and generators that are no Groebner basis of their ideal
    I, _ = _sextic_fat_scheme(2)
    gb = I.groebner_basis()
    pairs = gb._pairs
    with pytest.raises(AssertionError, match="is not in the basis's ideal"):
        groebner_certificate(I, GroebnerBasis(I.ring, gb.order, pairs[:-1]))
    # the lowest lead as a new tail term of the top element, whose lead stays
    (top, top_lead), low_lead = pairs[-1], pairs[0][1]
    unreduced = GroebnerBasis(I.ring, gb.order, pairs[:-1] + (({**top, low_lead: 1}, top_lead),))
    with pytest.raises(AssertionError, match="is divisible by the lead of"):
        groebner_certificate(I, unreduced)
    J = ideal(R3, "x^2 - y*z", "x*y - z^2")
    leads = ((2, 0, 0), (1, 1, 0))
    generators = GroebnerBasis(R3, TermOrder.grevlex(), zip((g.terms for g in J.gens), leads))
    with pytest.raises(AssertionError, match="does not reduce to 0"):
        groebner_certificate(J, generators)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_seven_variable_bases_agree_with_sympy(k):
    # the fat schemes of the sextic construction, and for k = 3 the two sums
    # that the projection's line search and chart algebra take
    sympy = pytest.importorskip("sympy")
    I, ell = _sextic_fat_scheme(k)
    ideals = [I] + (_sextic_chart_sums(I, ell) if k == 3 else [])
    for J in ideals:
        gb = J.groebner_basis()
        assert _as_sympy_polys(sympy, gb.polys, "QQ") == _sympy_monic_basis(
            sympy, list(J.gens), "grevlex", "QQ"
        )


# -- the reducer table -----------------------------------------------------------


def _scan_reducers(basis):
    """The reducer lookup by a linear scan of the basis, as a reference."""
    return lambda exp: next((g for g in basis if all(map(ge, exp, g[1]))), None)


def _grevlex_entries(ring):
    return _HeapEntries(TermOrder.grevlex().key_function(ring))


def test_reducer_table_finds_an_element_appended_after_a_miss():
    basis = [({(2, 0, 0): 1, (0, 0, 2): -1}, (2, 0, 0))]
    reducers = _Reducers(basis)
    exp = (0, 3, 1)
    assert reducers(exp) is None
    assert reducers[exp] == 1  # none among the first entry
    basis.append(({(0, 2, 0): 1, (0, 0, 2): -1}, (0, 2, 0)))
    assert reducers(exp) is basis[1]
    # the table resumes at the new entry, and the normal form uses it
    red, _ = _reduce_full({exp: 1}, reducers, _grevlex_entries(R3), _field_split)
    assert red == {(0, 1, 3): 1}


def test_reducer_table_takes_the_first_listed_of_two_dividing_leads():
    first = ({(1, 1, 0): 1, (0, 0, 2): 3}, (1, 1, 0))
    second = ({(0, 2, 0): 1, (1, 0, 1): -2}, (0, 2, 0))
    for basis in ([first, second], [second, first]):
        reducers = _Reducers(basis)
        assert reducers((1, 2, 0)) is basis[0]
    rng = random.Random(11)
    basis = [first, second, ({(2, 0, 0): 1, (0, 1, 1): 5}, (2, 0, 0))]
    entry = _grevlex_entries(R3)
    for _ in range(40):
        f = _random_poly(rng, R3, 5, 4, lambda: rng.randint(-9, 9) or 1).terms
        f = {e: int(c) for e, c in f.items()}  # the engine's integer dicts
        for split in (_integer_split, _field_split):
            assert _reduce_full(f, _Reducers(basis), entry, split) == _reduce_full(
                f, _scan_reducers(basis), entry, split
            )


def test_one_basis_gives_fresh_normal_forms_in_either_order():
    gens = ["x^2 - y*z", "x*y - z^2 + x", "y^3 - x*z"]
    rng = random.Random(13)
    polys = [
        _random_poly(rng, R3, 4, 5, lambda: Fraction(rng.randint(-9, 9) or 1, 3)) for _ in range(12)
    ]
    gb = ideal(R3, *gens).groebner_basis()
    forward = [gb.normal_form(f) for f in polys]
    backward = [gb.normal_form(f) for f in reversed(polys)][::-1]
    fresh = [ideal(R3, *gens).groebner_basis().normal_form(f) for f in polys]
    assert forward == backward == fresh


def test_bases_of_two_ideals_keep_their_own_tables():
    a = ideal(R3, "x^2 - y*z", "y^2 - x*z").groebner_basis()
    b = ideal(R3, "x^2 + z^2", "x*y - 2*z^2").groebner_basis()
    assert a._reducers is not b._reducers
    f = R3.parse("x^3*y + x^2*y^2 - z^4 + x*y*z^2")
    interleaved = [a.normal_form(f), b.normal_form(f), a.normal_form(f), b.normal_form(f)]
    fresh_a = ideal(R3, "x^2 - y*z", "y^2 - x*z").groebner_basis().normal_form(f)
    fresh_b = ideal(R3, "x^2 + z^2", "x*y - 2*z^2").groebner_basis().normal_form(f)
    assert interleaved == [fresh_a, fresh_b, fresh_a, fresh_b]
    assert fresh_a != fresh_b


def test_orders_refuse_a_misplaced_front_block():
    # a front block is checked when the order is built, not at its first key
    with pytest.raises(ValueError):
        TermOrder.elimination([])
    with pytest.raises(ValueError):
        TermOrder("grevlex", ["x"])
    assert TermOrder.elimination(["x"]) == TermOrder("block", ("x",))
    assert TermOrder.grevlex() == TermOrder("grevlex") != TermOrder.lex()


def test_normal_forms_are_exact_with_large_denominators():
    # normal_form works on primitive integer polynomials; the cofactor
    # division stays in field arithmetic and is the reference
    rng = random.Random(41)

    def coefficient():
        return Fraction(rng.randint(-(10**9), 10**9) or 1, rng.randint(1, 10**15))

    I = ideal(R3, "3/7*x^2 - 5*y*z + 1/2", "2*x*y - 9/4*z^2 + x", "y^2 - 11/3*x*z + z")
    for order in (TermOrder.grevlex(), TermOrder.lex()):
        gb = I.groebner_basis(order)
        for _ in range(6):
            f = _random_poly(rng, R3, rng.randint(1, 8), 4, coefficient)
            remainder, cofactors = normal_form_with_cofactors(gb, f)
            assert gb.normal_form(f) == remainder
            rebuilt = remainder
            for q, g in zip(cofactors, gb.polys):
                rebuilt = rebuilt + q * g
            assert (f - rebuilt).is_zero
            member = R3.zero()
            for g in I.gens:
                member = member + g * _random_poly(rng, R3, 3, 2, coefficient)
            assert gb.contains(member) and I.contains(member)
            assert gb.normal_form(member + remainder) == remainder
        # rational generators in a quadratic ring give an integer basis, on
        # which a quadratic f is divided in field arithmetic
        quad = PolyRing(("x", "y", "z"), QuadraticField(2))
        qgb = Ideal(quad, [Polynomial(quad, g.terms) for g in I.gens]).groebner_basis(order)
        f = _random_poly(rng, quad, 6, 4, lambda: QuadExt(coefficient(), coefficient(), 2))
        assert qgb.normal_form(f) == normal_form_with_cofactors(qgb, f)[0]


# -- Hilbert functions ----------------------------------------------------------


def test_hilbert_of_squared_maximal_ideal():
    I = ideal_power(ideal(R3, "x", "y"), 2)
    hd = hilbert_function(I, upto=6)
    assert hd.values == (1, 3, 3, 3, 3, 3, 3)
    assert hd.stable_value == 3 and hd.stable_from == 1


def test_hilbert_rejects_inhomogeneous():
    with pytest.raises(DegenerateInputError):
        hilbert_function(ideal(R3, "x^2 - y"))


def test_hilbert_order_independent():
    I = ideal(R3, "x^2 - y*z", "x*y^2 - z^3")
    grev = hilbert_function(I, upto=8).values
    lex_leads = I.groebner_basis(TermOrder.lex())
    # recount standard monomials for the lex staircase
    from oscurve.groebner import _standard_monomials

    keyf = TermOrder.lex().key_function(R3)
    leads = [max(p.terms, key=keyf) for p in lex_leads.polys]
    lex_values = tuple(len(_standard_monomials(3, t, leads)) for t in range(9))
    assert lex_values == grev


def test_unit_ideal_hilbert_is_zero():
    hd = hilbert_function(ideal(R3, "1"), upto=3)
    assert hd.values == (0, 0, 0, 0)
    assert hd.stable_value == 0


# -- elimination, combination ---------------------------------------------------


def test_eliminate_nothing_is_identity():
    I = ideal(R3, "x^2 - y*z")
    assert eliminate(I, set()) is I


def test_intersection_of_coordinate_ideals():
    inter = ideal_intersection(ideal(R3, "x"), ideal(R3, "y"))
    assert inter == ideal(R3, "x*y")


def test_power_generators():
    R7 = PolyRing(tuple("abcdefg"))
    cube = ideal_power(Ideal(R7, [R7.var(v) for v in "bcdef"]), 3)
    assert len(cube.gens) == 35
    assert R7.parse("b^3") in list(cube.gens)
    assert R7.parse("b^2*c") in list(cube.gens)


def test_sum_with_zero_ideal():
    I = ideal(R3, "x^2 - y*z")
    assert ideal_sum(I, Ideal(R3, [])) == I


# -- saturation ------------------------------------------------------------------


def test_saturation_of_embedded_component():
    I = ideal(R3, "x^2*y")
    assert saturate(I, ideal(R3, "x")) == ideal(R3, "y")


def test_saturation_idempotent():
    I = ideal(R3, "x^2*y", "x*z^2")
    J = ideal(R3, "x")
    once = saturate(I, J)
    assert saturate(once, J) == once


def test_saturation_no_supported_component():
    # nothing supported on V(x): saturation is the identity
    I = ideal(R3, "y^2 - x*z")
    assert saturate(I, ideal(R3, "x")) == I


def test_saturation_fast_path_matches_general_route(monkeypatch):
    from oscurve import groebner

    routes = []
    for name in ("_chart_image", "saturate_general"):
        original = getattr(groebner, name)
        monkeypatch.setattr(
            groebner, name, lambda *args, _name=name, _original=original: routes.append(_name) or _original(*args)
        )
    rng = random.Random(17)
    pool = ["x^2*y", "x*y*z", "y^3 - x^2*z", "z^2*x", "x^3", "y^2*z - z^3", "x*y^2"]
    cases = []
    for _ in range(6):
        I = ideal(R3, *rng.sample(pool, rng.randint(1, 3)))
        by = ideal(R3, *rng.sample(["x", "y", "z", "x + y", "y - z"], rng.randint(1, 3)))
        cases.append((I, by, None))
    m3 = irrelevant_ideal(R3)
    fat_point = ideal(R3, "x^2", "x*y", "y^2")
    conic_with_point = ideal_intersection(ideal(R3, "x*z - y^2"), ideal(R3, "x^2", "y"))
    # the point [1:-1:0] with an embedded point at the origin, on the line
    # z: the chart of the line y
    embedded = Ideal(R3, [f * v for f in (R3.parse("x + y"), R3.var("z")) for v in R3.gens()])
    R5 = PolyRing(tuple(f"x{i}" for i in range(5)))
    chart, aux = ["_chart_image"], ["saturate_general"]
    cases += [
        (ideal(R3, "x + y", "z"), m3, chart),
        (embedded, m3, chart),
        (ideal_intersection(fat_point, ideal_power(m3, 4)), m3, chart),
        # curves, one linear form, and a point ideal J: the auxiliary-variable route
        (conic_with_point, m3, aux),
        (conic_with_point, ideal(R3, "x"), aux),
        (embedded, ideal(R3, "x + y + z"), aux),
        (rational_normal_curve_ideal(4, R5.variables), irrelevant_ideal(R5), aux),
        (ideal(R3, "x^2*y", "x*z^2", "y^3 - x^2*z"), ideal(R3, "x", "y"), aux),
    ]
    for I, by, route in cases:
        routes.clear()
        result = saturate(I, by)
        assert route is None or routes == route, (I, by, routes)
        assert result == saturate_general(I, by), (I, by)
    assert saturate(embedded, m3) == ideal(R3, "x + y", "z")


def test_sextic_construction_reads_each_image_off_one_chart_algebra(monkeypatch):
    # three projections and the fiber's saturation by m: one line search and
    # one chart image each, with no auxiliary-variable saturation and no
    # elimination
    from oscurve import groebner, rational_curves
    from oscurve.repro import run_repro_case

    events = []

    def counting(name):
        original = getattr(groebner, name)

        def wrapped(*args, **kwargs):
            events.append(name)
            return original(*args, **kwargs)

        return wrapped

    for name in ("saturate", "_finite_chart", "_chart_image", "eliminate"):
        monkeypatch.setattr(rational_curves, name, counting(name))
    for name in ("saturate", "_finite_chart", "_chart_image", "saturate_general", "eliminate"):
        monkeypatch.setattr(groebner, name, counting(name))
    assert run_repro_case("example-6.1-part1")[0]
    one_chart = ["_finite_chart", "_chart_image"]
    assert events == one_chart * 3 + ["saturate"] + one_chart


def test_saturation_by_irrelevant_ideal_of_unit():
    I = ideal(R3, "x^2", "y", "z")
    assert saturate(I, irrelevant_ideal(R3)).is_unit()


def test_empty_scheme_matches_saturation_by_irrelevant_ideal():
    cases = [
        (("1",), True),
        (("x^2", "y^2", "z^2"), True),
        (("x*y", "y*z", "x*z", "x^2 - y^2 + z^2"), True),
        (("x", "y"), False),
        ((), False),
    ]
    for gens, empty in cases:
        I = ideal(R3, *gens)
        assert is_empty_scheme(I) == empty, gens
        assert saturate(I, irrelevant_ideal(R3)).is_unit() == empty, gens
    with pytest.raises(DegenerateInputError):
        is_empty_scheme(ideal(R3, "x - 1"))


# -- radicals ---------------------------------------------------------------------


def test_radical_of_fat_point():
    I = ideal(R3, "x^2", "y")
    rad = zero_dim_radical(I)
    assert rad == ideal(R3, "x", "y")


def test_radical_idempotent():
    I = ideal(R3, "x^2", "x*y", "y^3")
    rad = zero_dim_radical(I)
    assert zero_dim_radical(rad) == rad
    assert all(rad.contains(g) for g in I.gens)


def test_radical_counts_points():
    # three lines cutting the conic xz = y^2: the support is five distinct
    # points ([0:0:1] lies on two of the lines, so Bezout's six drops to five)
    I = ideal(R3, "(x - y)*(x - 2*y)*(y - 5*z)", "x*z - y^2")
    rad = zero_dim_radical(I)
    assert scheme_length(rad) == 5


def test_radical_rejects_positive_dimension():
    with pytest.raises(DegenerateInputError):
        zero_dim_radical(ideal(R3, "x*z - y^2"))


def test_radical_squarefree_eliminants():
    from oscurve.polyops import poly_gcd

    I = ideal(R3, "x^2", "x*y", "y^3")
    rad = zero_dim_radical(I)
    aff = PolyRing(("x", "y"))
    affine = Ideal(
        aff, [g.substitute({"z": R3.one()}).restrict(aff) for g in rad.gens]
    )
    for keep, other in (("x", "y"), ("y", "x")):
        (e,) = eliminate(affine, {other}).gens
        assert e.degree() == 1 and poly_gcd(e, e.derivative(keep)).degree() == 0


def test_chart_algebra_reads_local_lengths_off_chi():
    from oscurve.groebner import _finite_chart, chart_algebra

    # a fat point of length 3 at [0:0:1] and a simple point at [1:0:1]
    I = ideal_intersection(ideal(R3, "x^2", "x*y", "y^2"), ideal(R3, "x - z", "y"))
    assert scheme_length(I) == 4
    line, chart = next(_finite_chart(I, R3.gens()))
    assert line == R3.var("z")
    chi, g, (basis, rows) = chart_algebra(chart, "x")
    assert chi == R3.parse("x^3*(x - 1)")
    assert g == R3.parse("x^2 - x")
    assert len(basis) == len(rows) == 4
    # the radical adds the squarefree parts of chi_x and chi_y (Seidenberg)
    assert zero_dim_radical(I) == ideal(R3, "x^2 - x*z", "y")
    with pytest.raises(DegenerateInputError, match="not finite"):
        chart_algebra(ideal(R3, "x*y", "z - 1").groebner_basis(), "x")


# -- degree slices ----------------------------------------------------------------


def test_degree_slice_members():
    I = ideal(R2, "y - x^2", "x^3")
    assert degree_slice_members(I, 0) == [] and degree_slice_members(I, 1) == []
    J = ideal(R2, "x + y")
    slice1 = degree_slice_members(J, 1)
    assert len(slice1) == 1


# -- one basis per scheme: the way back from the chart and seeded sums ----------------


def test_radical_takes_its_colon_without_saturate(monkeypatch):
    # the CI's z-torsion scheme: the chart radical's own basis is read back
    # as a kernel (`_chart_image`), with no call to `saturate`
    from oscurve import groebner

    from helpers import projective_ideal_by_saturation, radical_route_chart

    I = ideal(R3, "x^2*z", "x*y*z", "y^2*z", "x^3", "y^3")
    calls = []
    original = groebner.saturate

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(groebner, "saturate", counting)
    radical = zero_dim_radical(I)
    assert calls == []
    assert [str(p) for p in radical.gens] == ["y", "x"]
    # the same radical by the auxiliary-variable saturation of the reference chart radical
    z = R3.var("z")
    assert radical == projective_ideal_by_saturation(radical_route_chart(I, z, "x")[0], z, R3)


def _record_seeds(monkeypatch):
    from oscurve import groebner

    seeds = []
    engine = groebner._buchberger_dicts

    def recording(gen_dicts, keyf, seed=()):
        seeds.append(bool(seed))
        return engine(gen_dicts, keyf, seed)

    monkeypatch.setattr(groebner, "_buchberger_dicts", recording)
    return seeds


@pytest.mark.parametrize(
    "order", [TermOrder.grevlex(), TermOrder.lex(), TermOrder.elimination(["x"])], ids=repr
)
@pytest.mark.parametrize("kind", ["QQ", "sqrt2-seed", "sqrt2-new"])
def test_seeded_sums_equal_fresh_bases(monkeypatch, order, kind):
    # a cached basis of I seeds the basis of I + J; over QQ(sqrt 2) either the
    # seed or the new generators carry sqrt 2 while the others are rational
    rng = random.Random(f"{order!r} {kind}")
    ring = R3 if kind == "QQ" else PolyRing(("x", "y", "z"), QuadraticField(2))

    def coefficient(irrational):
        c = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4))
        return QuadExt(c, rng.randint(-2, 2), 2) if irrational else c

    seeds = _record_seeds(monkeypatch)
    irrational_seed = kind == "sqrt2-seed"
    for trial in range(8):
        degree = 3 if order.kind == "grevlex" else 2
        old = [
            _random_poly(rng, ring, rng.randint(2, 3), degree, lambda: coefficient(irrational_seed))
            for _ in range(2)
        ]
        new = [_random_poly(rng, ring, 2, degree, lambda: coefficient(kind == "sqrt2-new"))]
        I = Ideal(ring, old)
        I.groebner_basis(order)
        del seeds[:]
        seeded = ideal_sum(I, Ideal(ring, new)).groebner_basis(order)
        assert seeds == [True]
        assert seeded.polys == Ideal(ring, old + new).groebner_basis(order).polys


def test_seeded_sum_in_another_representation_runs_from_scratch(monkeypatch):
    # rational coefficients left as Fractions in a QQ(sqrt 2) ring make an
    # integer-dict seed; a new generator with sqrt 2 needs monic dicts
    ring = PolyRing(("x", "y", "z"), QuadraticField(2))
    old = [
        Polynomial(ring, {(2, 0, 0): Fraction(1), (0, 1, 1): Fraction(3)}),
        Polynomial(ring, {(1, 1, 0): Fraction(2), (0, 0, 2): Fraction(-1)}),
    ]
    new = [ring.from_terms({(0, 2, 0): QuadExt(0, 1, 2), (1, 0, 1): 1})]
    I = Ideal(ring, old)
    I.groebner_basis()
    seeds = _record_seeds(monkeypatch)
    fresh = Ideal(ring, old + new).groebner_basis()
    assert ideal_sum(I, Ideal(ring, new)).groebner_basis().polys == fresh.polys
    assert seeds == [False, False]
