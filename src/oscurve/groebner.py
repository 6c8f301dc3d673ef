"""Exact ideal arithmetic: Groebner bases, normal forms, Hilbert functions,
elimination, saturation, and radicals of zero-dimensional ideals.

The engine is a Buchberger loop with the normal selection strategy, both
classical pair criteria (coprime leading terms and the Gebauer-Moeller chain
pruning), and one interreduction pass to the unique reduced basis
(`_interreduce`, which also finishes every basis read off another).  Over QQ
it is fraction-free: polynomials are primitive integer term dicts, a
reduction step is work <- a*work - b*m*g with integers a, b, and the basis is
made monic once, at the end; over QQ(sqrt d) the same loop keeps basis
elements monic.  A term's reducer is the first basis element whose lead
divides it, looked up once per exponent and basis (`_Reducers`), and live
pairs carry the lcm of their leads, which the chain criterion reads.

A finite scheme takes one Buchberger run from scratch, for the grevlex basis
of its ideal I; the other bases are read off it or start from it.  Grevlex
with z last puts into the lead of each form the least power of z in it
(Bayer and Stillman, Invent. Math. 87, 1987; Eisenbud, Commutative Algebra,
Prop. 15.12), which gives two reads: in(I + (z)) = in(I) + (z), so whether
the line z misses the support is read off I's leads (`chart_lines`); and I's
basis with z set to 1, interreduced, is the basis of the z chart
(`_chart_with_basis`).  A sum I + J made by `ideal_sum` starts Buchberger
from I's cached basis for the order and forms only the pairs with J's
generators, as the pairs within I's basis reduce to zero; that serves the
other chart lines and the radical.

Saturation has two routes.  A homogeneous I saturated by the irrelevant
ideal m is read off the chart algebra A = S/(I + (l - 1)) when a line l of
a fixed list has I + (l) m-primary, which holds for every finite scheme
that some line of the list misses (`_finite_chart`); A's basis starts from
I's and takes no coordinate change (`_chart_image`).  l misses the scheme,
so it is a nonzerodivisor on S/Sat(I, m) and each degree of S/Sat(I, m)
embeds into A: Sat(I, m) in degree e is the kernel of S_e -> A, taken
degree by degree by the FGLM walk.  The walk stops at the first e >= 1
where the number H(e) of standard monomials equals H(e - 1): the first
difference of H is the Hilbert function of the Artinian algebra
S/(Sat(I, m) + (l)), zero from e on, so the saturation is generated in
degrees <= e.  The same kernel with forms l_i in place of the variables is
the image of the scheme under the projection from the l_i
(`rational_curves.project_scheme`).  Every other saturation takes the
general auxiliary-variable route.

Finite plane schemes have one home for each projective decision here:
`is_empty_scheme` decides emptiness from lead terms alone, without
saturating, and `chart_lines`, `chart_matrix` and `to_chart` are the only
way into an affine chart missing the support; `_chart_image`, the same
kernel with the images M (xc, yc, 1) of a chart matrix M, is the only way
back.  In the chart, `chart_algebra` reads the scheme off one quotient
algebra A: the characteristic polynomial chi_x of a chart coordinate
carries the local lengths (Stickelberger), and when that coordinate
generates A, one Krylov solve on its multiplication matrix writes the other
coordinate as a polynomial in it (`_shape_line`, the shape lemma).  The
squarefree parts of chi_x and chi_y give the radical (`zero_dim_radical`),
unless that of chi_x shows the scheme to be its own.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import chain, count
from math import gcd, lcm
from operator import add, ge, mul, sub

from .errors import DegenerateInputError, RingMismatchError
from .polyops import (
    characteristic_polynomial,
    nullspace,
    primitive_integers,
    squarefree_part,
)
from .qfields import RationalField
from .rings import Polynomial, PolyRing

# ---------------------------------------------------------------------------
# term orders
# ---------------------------------------------------------------------------


class TermOrder:
    """A monomial order: grevlex, lex, or an elimination block order.

    Grevlex and lex read exponents in the ring's own variable order, so the
    last variable is the cheapest in grevlex; for another order of the
    variables, build the ring in that order.  Block orders compare the front
    block grevlex-first, so basis elements whose leading term avoids the
    front block avoid it entirely.
    """

    __slots__ = ("kind", "front")

    def __init__(self, kind, front=None):
        front = tuple(front or ())
        if kind not in ("grevlex", "lex", "block"):
            raise ValueError(f"unknown order kind {kind!r}")
        if (kind == "block") != bool(front):
            raise ValueError("only a block order has a front block, and it must be nonempty")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "front", front)

    def __setattr__(self, *args):
        raise AttributeError("TermOrder is immutable")

    @staticmethod
    def grevlex() -> "TermOrder":
        return TermOrder("grevlex")

    @staticmethod
    def lex() -> "TermOrder":
        return TermOrder("lex")

    @staticmethod
    def elimination(front) -> "TermOrder":
        return TermOrder("block", front)

    def key_function(self, ring: PolyRing):
        if self.kind == "block":
            front = [v for v in self.front if v in ring._index]
            front_pos = [ring.index(v) for v in front]
            back_pos = [i for i in range(ring.nvars) if i not in set(front_pos)]

            def key(exp, fp=tuple(front_pos), bp=tuple(back_pos)):
                f = [exp[i] for i in fp]
                b = [exp[i] for i in bp]
                return (
                    (sum(f),)
                    + tuple(-v for v in reversed(f))
                    + (sum(b),)
                    + tuple(-v for v in reversed(b))
                )

            return key
        if self.kind == "lex":
            return tuple  # an exponent tuple is its own lex key

        def key(exp):
            return (sum(exp),) + tuple(-v for v in reversed(exp))

        return key

    def __eq__(self, other):
        return isinstance(other, TermOrder) and (self.kind, self.front) == (other.kind, other.front)

    def __hash__(self):
        return hash((self.kind, self.front))

    def __repr__(self):
        if self.kind == "block":
            return f"TermOrder.elimination({list(self.front)})"
        return f"TermOrder.{self.kind}()"


DEFAULT_ORDER = TermOrder.grevlex()


# ---------------------------------------------------------------------------
# raw engine on term dicts
# ---------------------------------------------------------------------------


class _HeapEntries(dict):
    """Memoized max-heap entries (negated key, exponent) of a term order."""

    __slots__ = ("keyf",)

    def __init__(self, keyf):
        self.keyf = keyf

    def __missing__(self, e):
        item = self[e] = tuple(-k for k in self.keyf(e)) + (e,)
        return item


def _lead(pdict, entry):
    return min(map(entry.__getitem__, pdict))[-1]


def _is_rational(pdict):
    return all(isinstance(c, (int, Fraction)) for c in pdict.values())


def _primitive(pdict, lead_exp):
    """The primitive integer multiple of a term dict over QQ, lead positive."""
    sign = -1 if pdict[lead_exp] < 0 else 1
    return {e: sign * v for e, v in zip(pdict, primitive_integers(list(pdict.values())))}


def _monic(pdict, lead_exp):
    c = pdict[lead_exp]
    if c == 1:
        return pdict
    inv = Fraction(1) / c
    return {e: v * inv for e, v in pdict.items()}


def _integer_split(c, lead_c):
    """The least (a, b), a > 0, with a*c == b*lead_c: the fraction-free step."""
    g = gcd(c, lead_c)
    return lead_c // g, c // g


def _field_split(c, lead_c):
    return 1, c if lead_c == 1 else c / lead_c


def _divisible(exp, lead):
    return all(map(ge, exp, lead))


class _Reducers(dict):
    """Called on an exponent, the first (dict, lead) entry of an append-only
    basis list whose lead divides it, or None.  The table maps the exponent
    to that entry, or to the number k of entries checked, where a later
    lookup resumes: after an append it checks only the new entries."""

    __slots__ = ("basis",)

    def __init__(self, basis):
        self.basis = basis

    def __call__(self, exp):
        found = self.get(exp, 0)
        if not isinstance(found, int):
            return found
        basis = self.basis
        for k in range(found, len(basis)):
            if _divisible(exp, basis[k][1]):
                found = self[exp] = basis[k]
                return found
        self[exp] = len(basis)
        return None


def _reduce_full(pdict, reducers, entry, split):
    """Fully reduce a term dict against the basis entries (dict, lead_exp)
    of a `_Reducers` table.

    A step at the top term c*x^e, with the first reducer g whose lead L*x^l
    divides it, sets work = a*work - b*x^(e-l)*g for (a, b) = split(c, L)
    and rescales the remainder so far by a.  Over the integers every eighth
    rescale divides out the content.  Returns (remainder, scale), where the
    remainder is scale times the normal form; `entry` is a `_HeapEntries`.
    """
    work = dict(pdict)
    heap = [entry[e] for e in work]
    heapq.heapify(heap)
    remainder = {}
    num = den = 1
    rescales = 0
    while heap:
        exp = heapq.heappop(heap)[-1]
        c = work.pop(exp, None)
        if c is None:
            continue
        found = reducers(exp)
        if found is None:
            remainder[exp] = c
            continue
        g, glead = found
        a, b = split(c, g[glead])
        if a != 1:
            work = {e: v * a for e, v in work.items()}
            remainder = {e: v * a for e, v in remainder.items()}
            num *= a
            rescales += 1
        shift = tuple(map(sub, exp, glead))
        for e2, c2 in g.items():
            if e2 == glead:
                continue
            e = tuple(map(add, shift, e2))
            s = work.get(e)
            if s is None:
                work[e] = -b * c2
                heapq.heappush(heap, entry[e])
            else:
                s -= b * c2
                if s:
                    work[e] = s
                else:
                    del work[e]
        if a != 1 and rescales % 8 == 0:
            k = gcd(*work.values(), *remainder.values())
            if k > 1:
                work = {e: v // k for e, v in work.items()}
                remainder = {e: v // k for e, v in remainder.items()}
                den *= k
    return remainder, Fraction(num, den)


def _spoly_dict(g1, lead1, g2, lead2, lcm, split):
    """a*m1*g1 - b*m2*g2 with the leads cancelling, (a, b) = split(L1, L2)."""
    a, b = split(g1[lead1], g2[lead2])
    s1 = tuple(map(sub, lcm, lead1))
    s2 = tuple(map(sub, lcm, lead2))
    out = {}
    for e, c in g1.items():
        out[tuple(map(add, e, s1))] = a * c
    for e, c in g2.items():
        e = tuple(map(add, e, s2))
        s = out.get(e)
        if s is None:
            out[e] = -b * c
        else:
            s -= b * c
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def _exp_lcm(a, b):
    return tuple(x if x >= y else y for x, y in zip(a, b))


def _buchberger_dicts(gen_dicts, keyf, seed=()):
    """Reduced Groebner basis of nonzero term dicts: (dict, lead) pairs in
    increasing lead order.  Over QQ the loop is fraction-free on primitive
    integer dicts (`GroebnerBasis` makes them monic); other coefficients run
    it over their field with monic elements.

    `seed` is the reduced basis of an ideal I for the same order, in the
    representation that the seed and the dicts take together; the result is
    then the basis of I plus the dicts.  The seed's own pairs reduce to zero,
    so only pairs with a new element are formed."""
    rational = all(_is_rational(d) for d in chain(gen_dicts, (g for g, _ in seed)))
    entry = _HeapEntries(keyf)
    if rational:
        gen_dicts = [_primitive(d, _lead(d, entry)) for d in gen_dicts]
        split, normalize = _integer_split, _primitive
    else:
        split, normalize = _field_split, _monic
    basis: list[tuple[dict, tuple]] = list(seed)  # (dict, lead)
    reducers = _Reducers(basis)
    order_key = cache(keyf)  # of the pairs' lcms
    pair_heap: list = []
    alive: dict[tuple[int, int], tuple] = {}  # live pair -> lcm of its leads
    counter = count()

    def add_pairs(t):
        # Gebauer-Moeller update for the new element index t
        lt = basis[t][1]
        new_pairs = [_exp_lcm(lead, lt) for _, lead in basis[:t]]
        # chain criterion against existing pairs
        for ij, lcm_ij in list(alive.items()):
            if (
                _divisible(lcm_ij, lt)
                and lcm_ij != new_pairs[ij[0]]
                and lcm_ij != new_pairs[ij[1]]
            ):
                del alive[ij]
        # prune among the new pairs: keep minimal lcms, one per value
        items = sorted(enumerate(new_pairs), key=lambda kv: (order_key(kv[1]), kv[0]))
        kept: list[tuple[int, tuple]] = []
        seen = set()
        for i, lc in items:
            if lc in seen:
                continue
            if any(_divisible(lc, other) for _, other in kept):  # other != lc: lc is unseen
                continue
            kept.append((i, lc))
            seen.add(lc)
        for i, lc in kept:
            # coprime criterion
            if lc == tuple(map(add, basis[i][1], lt)):
                continue
            alive[i, t] = lc
            heapq.heappush(pair_heap, (order_key(lc), next(counter), i, t))

    def insert(pdict):
        red = _reduce_full(pdict, reducers, entry, split)[0]
        if red:
            lead = _lead(red, entry)
            basis.append((normalize(red, lead), lead))
            add_pairs(len(basis) - 1)

    for d in sorted(gen_dicts, key=lambda d: keyf(_lead(d, entry))):
        insert(d)
    while pair_heap:
        _, _, i, j = heapq.heappop(pair_heap)
        lcm = alive.pop((i, j), None)
        if lcm is not None:
            insert(_spoly_dict(*basis[i], *basis[j], lcm, split))
    return _interreduce(basis, entry, rational)


def _interreduce(pairs, entry, rational):
    """The reduced basis, in increasing lead order, of the ideal that the
    (dict, lead) pairs are a Groebner basis of, in the engine's
    representation (`rational`: primitive integer dicts).  Minimalize (drop
    each element whose lead another lead divides), then tail-reduce: the
    leads of a minimal basis are fixed, so one pass leaves no tail term
    divisible by any of them.  A lead dividing a term is at most the term,
    so each element is reduced by those before it in lead order, through
    one table over the minimal elements done so far."""
    split, normalize = (_integer_split, _primitive) if rational else (_field_split, _monic)
    minimal = []
    for g, lead in sorted(pairs, key=lambda gl: entry.keyf(gl[1])):
        if not any(_divisible(lead, m) for _, m in minimal):
            minimal.append((g, lead))
    done, reduced = [], []
    reducers = _Reducers(done)
    for g, lead in minimal:
        reduced.append((normalize(_reduce_full(g, reducers, entry, split)[0], lead), lead))
        done.append((g, lead))
    return reduced


# ---------------------------------------------------------------------------
# public objects
# ---------------------------------------------------------------------------


class GroebnerBasis:
    """A reduced, monic Groebner basis together with its order.

    Built from the engine's (dict, lead) pairs, which it keeps for normal
    forms with one reducer table: over QQ they are primitive integer dicts,
    and `polys` is their monic form."""

    __slots__ = ("ring", "order", "polys", "_pairs", "_rational", "_entry", "_reducers")

    def __init__(self, ring, order, pairs):
        pairs = tuple(pairs)
        rational = all(isinstance(c, int) for d, _ in pairs for c in d.values())
        polys = tuple(
            Polynomial(ring, {e: Fraction(v, d[lead]) for e, v in d.items()} if rational else d)
            for d, lead in pairs
        )
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "polys", polys)
        object.__setattr__(self, "_pairs", pairs)
        object.__setattr__(self, "_rational", rational)
        object.__setattr__(self, "_entry", _HeapEntries(order.key_function(ring)))
        object.__setattr__(self, "_reducers", _Reducers(pairs))

    def __setattr__(self, *args):
        raise AttributeError("GroebnerBasis is immutable")

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self.polys)

    @property
    def lead_exponents(self):
        return tuple(lead for _, lead in self._pairs)

    def normal_form(self, f: Polynomial) -> Polynomial:
        """The remainder of f: exact, also when it is computed on integers."""
        if f.ring != self.ring:
            raise RingMismatchError("normal form of a polynomial from another ring")
        if not (self._rational and f.terms and _is_rational(f.terms)):
            red, _ = _reduce_full(f.terms, self._reducers, self._entry, _field_split)
            return Polynomial(self.ring, red)
        first = next(iter(f.terms))
        work = _primitive(f.terms, first)
        red, scale = _reduce_full(work, self._reducers, self._entry, _integer_split)
        unscale = f.terms[first] / (scale * work[first])
        return Polynomial(self.ring, {e: v * unscale for e, v in red.items()})

    def contains(self, f: Polynomial) -> bool:
        return self.normal_form(f).is_zero

    def is_unit(self) -> bool:
        zero_exp = (0,) * self.ring.nvars
        return any(lead == zero_exp for lead in self.lead_exponents)

    def __repr__(self):
        return f"GroebnerBasis({len(self.polys)} elements, {self.order!r})"


class Ideal:
    """A finitely presented ideal with write-once cached Groebner bases.

    A sum I + J made by `ideal_sum` keeps I: its basis for an order starts
    from I's, when that is cached by then."""

    __slots__ = ("ring", "gens", "_gb_cache", "_seed")

    def __init__(self, ring, gens):
        fixed = []
        for g in gens:
            if not isinstance(g, Polynomial):
                g = ring.const(g)
            if g.ring != ring:
                raise RingMismatchError("ideal generators must live in the given ring")
            if not g.is_zero:
                fixed.append(g)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "gens", tuple(fixed))
        object.__setattr__(self, "_gb_cache", {})
        object.__setattr__(self, "_seed", None)

    def __setattr__(self, *args):
        raise AttributeError("Ideal is immutable")

    def groebner_basis(self, order: TermOrder = DEFAULT_ORDER) -> GroebnerBasis:
        gb = self._gb_cache.get(order)
        if gb is None:
            gb = buchberger(self, order)
            self._gb_cache.setdefault(order, gb)
        return gb

    def attach_basis(self, gb: GroebnerBasis):
        self._gb_cache.setdefault(gb.order, gb)
        return self

    def normal_form(self, f: Polynomial) -> Polynomial:
        return self.groebner_basis().normal_form(f)

    def contains(self, f: Polynomial) -> bool:
        if self._gb_cache:
            gb = next(iter(self._gb_cache.values()))
        else:
            gb = self.groebner_basis()
        return gb.contains(f)

    def is_unit(self) -> bool:
        return self.groebner_basis().is_unit()

    def is_zero(self) -> bool:
        return not self.gens

    def is_homogeneous(self) -> bool:
        return all(g.is_homogeneous() for g in self.gens)

    def __eq__(self, other):
        if not isinstance(other, Ideal):
            return NotImplemented
        if self.ring != other.ring:
            return False
        a = self.groebner_basis().polys
        b = other.groebner_basis().polys
        return a == b

    def __hash__(self):
        return hash((self.ring, self.groebner_basis().polys))

    def __repr__(self):
        inside = ", ".join(str(g) for g in self.gens[:6])
        if len(self.gens) > 6:
            inside += f", ... ({len(self.gens)} generators)"
        return f"Ideal({inside})"


def buchberger(ideal: Ideal, order: TermOrder = DEFAULT_ORDER) -> GroebnerBasis:
    """The unique reduced Groebner basis of the ideal for the given order.

    A sum I + J whose summand I has its basis for the order cached starts
    from that basis and adds J's generators, unless the engine would take
    the seed and J's generators in another representation than the seed's
    own (integer dicts over QQ, monic ones over QQ(sqrt d))."""
    gens, seed = [g.terms for g in ideal.gens], ()
    known = ideal._seed._gb_cache.get(order) if ideal._seed is not None else None
    if known is not None:
        new = gens[len(ideal._seed.gens) :]
        if known._rational == all(map(_is_rational, chain(new, (g for g, _ in known._pairs)))):
            gens, seed = new, known._pairs
    pairs = _buchberger_dicts(gens, order.key_function(ideal.ring), seed)
    return GroebnerBasis(ideal.ring, order, pairs)


# ---------------------------------------------------------------------------
# Hilbert functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HilbertData:
    """Values H(0..T) of dim (R/I)_t, plus the detected stable tail."""

    values: tuple
    stable_value: int | None
    stable_from: int | None


def _degree_exponents(nvars, degree):
    """Exponent vectors of the degree-`degree` monomials in `nvars`
    variables, in increasing lexicographic order."""
    if nvars == 1:
        yield (degree,)
        return
    for k in range(degree + 1):
        for rest in _degree_exponents(nvars - 1, degree - k):
            yield (k,) + rest


def _standard_monomials(nvars, degree, leads):
    """The degree-`degree` monomials divisible by no lead exponent."""
    return [
        e for e in _degree_exponents(nvars, degree) if not any(_divisible(e, l) for l in leads)
    ]


def hilbert_function(ideal: Ideal, upto: int | None = None) -> HilbertData:
    """Hilbert function of R/I for a homogeneous ideal, with stable-tail
    detection: three equal consecutive values past the basis degree."""
    if not ideal.is_homogeneous():
        raise DegenerateInputError("Hilbert function needs a homogeneous ideal")
    ring = ideal.ring
    gb = ideal.groebner_basis(DEFAULT_ORDER)
    leads = gb.lead_exponents  # minimal: the basis is reduced
    maxdeg = max((sum(l) for l in leads), default=0)
    values = []
    stable_value = None
    stable_from = None
    t = 0
    horizon = max(maxdeg + 4, (upto or 0) + 1, 4)
    while True:
        values.append(len(_standard_monomials(ring.nvars, t, leads)))
        if t >= maxdeg + 2:
            a, b, c = values[t - 2], values[t - 1], values[t]
            if a == b == c:
                stable_value = a
                stable_from = t - 2
                # walk stable_from back through the equal run
                while stable_from > 0 and values[stable_from - 1] == stable_value:
                    stable_from -= 1
                break
        t += 1
        if t >= horizon + ring.nvars + 6:
            break  # no stabilization: positive-dimensional input
    if upto is not None:
        while len(values) <= upto:
            if stable_value is None:
                values.append(len(_standard_monomials(ring.nvars, len(values), leads)))
            else:
                values.append(stable_value)
        values = values[: upto + 1]
    return HilbertData(tuple(values), stable_value, stable_from)


def scheme_length(ideal: Ideal) -> int:
    """Stable Hilbert value: the length of a finite projective scheme."""
    hd = hilbert_function(ideal)
    if hd.stable_value is None:
        raise DegenerateInputError("the scheme is not zero-dimensional")
    return hd.stable_value


# ---------------------------------------------------------------------------
# elimination
# ---------------------------------------------------------------------------


def eliminate(ideal: Ideal, drop) -> Ideal:
    """Generators of I intersected with K[remaining variables], computed with
    a block order; the result lives in the smaller ring."""
    drop = set(drop)
    ring = ideal.ring
    for v in drop:
        ring.index(v)
    if not drop:
        return ideal
    keep = [v for v in ring.variables if v not in drop]
    small = PolyRing(keep, ring.field)
    front = [v for v in ring.variables if v in drop]
    order = TermOrder.elimination(front)
    gb = ideal.groebner_basis(order)
    kept = []
    drop_pos = [ring.index(v) for v in front]
    for p in gb.polys:
        if all(all(e[i] == 0 for i in drop_pos) for e in p.terms):
            kept.append(p.restrict(small))
    return Ideal(small, kept)


# ---------------------------------------------------------------------------
# sums, powers, intersections
# ---------------------------------------------------------------------------


def ideal_sum(a: Ideal, b: Ideal) -> Ideal:
    """a + b, generated by a's generators and then b's; its Groebner bases
    start from a's (`buchberger`)."""
    if a.ring != b.ring:
        raise RingMismatchError("ideal sum needs a common ring")
    total = Ideal(a.ring, list(a.gens) + list(b.gens))
    object.__setattr__(total, "_seed", a)
    return total


def ideal_power(a: Ideal, e: int) -> Ideal:
    if e < 0:
        raise ValueError("ideal power must be nonnegative")
    if e == 0:
        return Ideal(a.ring, [a.ring.one()])
    from itertools import combinations_with_replacement

    gens = []
    for combo in combinations_with_replacement(a.gens, e):
        p = a.ring.one()
        for g in combo:
            p = p * g
        gens.append(p)
    return Ideal(a.ring, gens)


_AUX = "tsat"


def _aux_ring(ring: PolyRing) -> PolyRing:
    name = _AUX
    while name in ring._index:
        name += "0"
    return PolyRing((name,) + ring.variables, ring.field), name


def ideal_intersection(a: Ideal, b: Ideal) -> Ideal:
    """I cap J by eliminating t from t*I + (1-t)*J."""
    if a.ring != b.ring:
        raise RingMismatchError("ideal intersection needs a common ring")
    ring = a.ring
    big, t = _aux_ring(ring)
    tv = big.var(t)
    gens = [g.restrict(big) * tv for g in a.gens]
    one_minus_t = big.one() - tv
    gens += [g.restrict(big) * one_minus_t for g in b.gens]
    small = eliminate(Ideal(big, gens), {t})
    return Ideal(ring, [g.restrict(ring) for g in small.gens])


# ---------------------------------------------------------------------------
# saturation
# ---------------------------------------------------------------------------


def _chart_image(chart: GroebnerBasis, images, target: PolyRing) -> Ideal:
    """J = ker(K[target] -> A) degree by degree, y_i -> images[i]: the forms
    f with f(images) = 0 in A, with J's reduced grevlex basis as generators.
    `chart` is the reduced basis of a finite algebra A, and some combination
    lambda . images is 1 in A, so lambda . y is a nonzerodivisor on
    K[target]/J: J is saturated, and generated by the degree where the walk
    stops (the module docstring has why).  For the chart S/(I + (l - 1)) of
    a finite scheme and linear forms as images, J is the ideal of the
    scheme's image; for a chart radical and the images M (xc, yc, 1), the
    ideal of its points.

    Each degree e walks, in increasing grevlex order, the monomials y_i*s
    over the standard monomials s of degree e - 1, skipping the multiples
    of the leads found so far (FGLM: Faugere, Gianni, Lazard & Mora,
    J. Symbolic Comput. 16, 1993).  A monomial's vector in A is the normal
    form of images[i] times the stored one of m / y_i; reduced against that
    degree's standard vectors, it is new (m is standard) or gives the
    element m - sum c*s of J with lead m.  One Buchberger run makes the
    elements found the reduced basis, which may need higher degrees."""
    if chart.is_unit():
        return Ideal(target, [target.one()])
    field = target.field
    keyf = DEFAULT_ORDER.key_function(target)
    steps = [tuple(int(i == j) for j in range(target.nvars)) for i in range(target.nvars)]
    stored = {(0,) * target.nvars: chart.normal_form(chart.ring.one())}  # standard monomial -> image
    leads, found = [], []
    while True:
        standard, rows = {}, []  # rows: (pivot, vector, combination), pivot coefficient 1
        for m in sorted({tuple(map(add, s, u)) for s in stored for u in steps}, key=keyf):
            if any(_divisible(m, lead) for lead in leads):
                continue
            i = next(i for i, k in enumerate(m) if k)
            image = chart.normal_form(images[i] * stored[tuple(map(sub, m, steps[i]))])
            vec, comb = image, target.monomial(m)
            for pivot, row, row_comb in rows:
                c = vec.terms.get(pivot)
                if c:
                    vec, comb = vec - row * c, comb - row_comb * c
            if vec.is_zero:
                leads.append(m)
                found.append(comb)
            else:
                pivot = next(iter(vec.terms))
                inv = field.one / vec.terms[pivot]
                rows.append((pivot, vec * inv, comb * inv))
                standard[m] = image
        if len(standard) == len(stored):
            break
        stored = standard
    gb = Ideal(target, found).groebner_basis()
    return Ideal(target, gb.polys).attach_basis(gb)


def _finite_chart(ideal: Ideal, forms):
    """The reduced basis of I + (ell - 1), for homogeneous I and the first
    combination ell of the linear forms by `_saturation_candidates` with
    I + (ell) m-primary, or None when no candidate serves.  Such an ell
    misses the scheme, so the basis is that of a finite chart algebra of it."""
    ring = ideal.ring
    ideal.groebner_basis()  # the bases of the sums below start from I's
    for coeffs in _saturation_candidates(len(forms)):
        ell = sum((f * c for c, f in zip(coeffs, forms)), ring.zero())
        if is_empty_scheme(ideal_sum(ideal, Ideal(ring, [ell]))):
            return ideal_sum(ideal, Ideal(ring, [ell - ring.one()])).groebner_basis()
    return None


def _saturation_candidates(k: int):
    """Deterministic coefficient vectors of the lines `saturate` tries in turn."""
    yield tuple(1 for _ in range(k))
    yield tuple(i + 1 for i in range(k))
    yield tuple((i + 1) ** 2 for i in range(k))
    yield tuple((i + 2) ** 3 % 97 + 1 for i in range(k))
    seed = 0x5A17
    for _ in range(8):
        vec = []
        for _ in range(k):
            seed = (seed * 1103515245 + 12345) % (1 << 31)
            vec.append(seed % 89 + 1)
        yield tuple(vec)


def saturate_general(ideal: Ideal, by: Ideal) -> Ideal:
    """I : J^infinity by the auxiliary-variable route: for each generator h,
    eliminate t from I + (1 - t*h); intersect the single-generator results."""
    ring = ideal.ring
    result = None
    for h in by.gens:
        big, t = _aux_ring(ring)
        gens = [g.restrict(big) for g in ideal.gens]
        gens.append(big.one() - big.var(t) * h.restrict(big))
        small = eliminate(Ideal(big, gens), {t})
        part = Ideal(ring, [g.restrict(ring) for g in small.gens])
        result = part if result is None else ideal_intersection(result, part)
    if result is None:
        raise DegenerateInputError("saturation by the zero ideal")
    return result


def saturate(ideal: Ideal, by) -> Ideal:
    """I : J^infinity, by one of two routes.

    For homogeneous I and linear J with V(J) empty, J is the irrelevant
    ideal m, and a finite scheme that a line of `_saturation_candidates`
    misses has Sat(I, m) read off its chart algebra S/(I + (l - 1)) at the
    first such line l (`_finite_chart`), with the variables as the images
    (`_chart_image`).  Every other I and J takes the auxiliary-variable
    route `saturate_general`.
    """
    if isinstance(by, Polynomial):
        by = Ideal(ideal.ring, [by])
    if by.ring != ideal.ring:
        raise RingMismatchError("saturation operands must share a ring")
    if not by.gens:
        raise DegenerateInputError("saturation by the zero ideal")
    if not ideal.gens:
        return ideal
    ring = ideal.ring
    linear = all(g.degree() == 1 and g.is_homogeneous() for g in by.gens)
    if linear and ideal.is_homogeneous() and is_empty_scheme(by):
        chart = _finite_chart(ideal, ring.gens())
        if chart is not None:
            return _chart_image(chart, ring.gens(), ring)
    return saturate_general(ideal, by)


# ---------------------------------------------------------------------------
# finite plane schemes: emptiness, affine charts, radicals
# ---------------------------------------------------------------------------


def irrelevant_ideal(ring: PolyRing) -> Ideal:
    return Ideal(ring, ring.gens())


def is_empty_scheme(ideal: Ideal) -> bool:
    """Whether a homogeneous ideal cuts out the empty projective scheme.

    That holds exactly when a power of every variable lies in the ideal, so
    every variable has a lead term of the reduced basis that is a pure power
    of it (the lead term 1 counts for every variable)."""
    return len(_pure_power_variables(ideal)) == ideal.ring.nvars


def _pure_power_variables(ideal: Ideal) -> set:
    """Positions of the variables with a pure power among the leads of the
    homogeneous ideal's reduced grevlex basis; a lead 1 counts for all."""
    if not ideal.is_homogeneous():
        raise DegenerateInputError("the emptiness test needs a homogeneous ideal")
    nvars = ideal.ring.nvars
    covered = set()
    for lead in ideal.groebner_basis().lead_exponents:
        support = [i for i, e in enumerate(lead) if e]
        if len(support) <= 1:
            covered.update(support or range(nvars))
    return covered


def chart_lines(ideal: Ideal):
    """The lines of a fixed list that miss the finite scheme of a homogeneous
    ideal in three variables, in list order.

    The first line, z, is read off I's own basis: in grevlex with z last,
    in(I + (z)) = in(I) + (z) (Bayer and Stillman), so z misses the support
    exactly when x and y have pure-power leads.  The other lines take the
    basis of I + (ell), which starts from I's."""
    ring = ideal.ring
    x, y, z = ring.gens()
    if {0, 1} <= _pure_power_variables(ideal):
        yield z
    for ell in (y, x, x + y + z, x + 2 * y - z, 3 * x - y + 2 * z, x - 5 * y + 7 * z):
        if is_empty_scheme(ideal_sum(ideal, Ideal(ring, [ell]))):
            yield ell


def chart_matrix(ell: Polynomial):
    """Columns: a kernel basis of the linear form ell and a vector with
    ell = 1, so the pulled-back form is the last coordinate."""
    field, n = ell.ring.field, ell.ring.nvars
    coeffs = [field.zero] * n
    for e, c in ell.terms.items():
        coeffs[e.index(1)] = c
    pivot = max(i for i, c in enumerate(coeffs) if c)
    columns = []
    for i in range(n):
        if i != pivot:
            vec = [field.zero] * n
            vec[i] = field.one
            vec[pivot] = -coeffs[i] / coeffs[pivot]
            columns.append(vec)
    special = [field.zero] * n
    special[pivot] = field.one / coeffs[pivot]
    return tuple(zip(*columns, special))


def point_chart_matrix(point, field):
    """Columns: the unit vectors off the first nonzero coordinate of the
    point, then the point, so the chart origin (0, 0, 1) goes to the point."""
    k = next(i for i, v in enumerate(point) if v)
    columns = [[field.one if i == j else field.zero for i in range(3)] for j in range(3) if j != k]
    return tuple(zip(*columns, point))


def to_chart(ideal: Ideal, matrix) -> Ideal:
    """The ideal moved by the chart matrix and dehomogenized at the last
    variable, in K[xc, yc]."""
    aff = PolyRing(("xc", "yc"), ideal.ring.field)
    return Ideal(aff, [g.chart(matrix, aff) for g in ideal.gens])


def _chart_with_basis(ideal: Ideal, matrix) -> Ideal:
    """`to_chart(ideal, matrix)`, with its grevlex basis.  In the z chart
    (the identity matrix) of a homogeneous ideal, the chart takes each form
    with z set to 1, and its basis is I's own with z set to 1, interreduced:
    grevlex with z last puts into each lead the least power of z in its
    form, so setting z = 1 keeps the leads, and the dehomogenized basis is a
    Groebner basis of the chart ideal."""
    identity = all(v == int(i == j) for i, row in enumerate(matrix) for j, v in enumerate(row))
    if not (identity and ideal.is_homogeneous()):
        return to_chart(ideal, matrix)
    aff = PolyRing(("xc", "yc"), ideal.ring.field)
    chart = Ideal(aff, [Polynomial(aff, {e[:2]: c for e, c in g.terms.items()}) for g in ideal.gens])
    gb = ideal.groebner_basis()
    dehomogenized = [({e[:2]: c for e, c in g.items()}, lead[:2]) for g, lead in gb._pairs]
    pairs = _interreduce(dehomogenized, _HeapEntries(DEFAULT_ORDER.key_function(aff)), gb._rational)
    return chart.attach_basis(GroebnerBasis(aff, DEFAULT_ORDER, pairs))


def _multiplication_matrix(gb: GroebnerBasis, step):
    """(standard monomials, rows) of the basis of a finite chart scheme: the
    standard monomials by degree, 1 first, and the matrix of multiplication
    by xc (`step` (1, 0)) or yc ((0, 1)) on them, one normal form each."""
    ring, leads = gb.ring, gb.lead_exponents
    # a finite scheme has leads xc^a, yc^b, then no standard monomial of degree >= a + b - 1
    top = sum(map(max, zip(*leads)))
    if _standard_monomials(2, top, leads):
        raise DegenerateInputError("the chart scheme is not finite")
    basis = [e for degree in range(top) for e in _standard_monomials(2, degree, leads)]
    index = {e: i for i, e in enumerate(basis)}
    rows = [[ring.field.zero] * len(basis) for _ in basis]
    for j, e in enumerate(basis):
        for f, c in gb.normal_form(ring.monomial(tuple(map(add, e, step)))).terms.items():
            rows[index[f]][j] = c
    return basis, rows


def chart_algebra(ideal: Ideal, matrix):
    """(chart, chi_x, g, m_x) of the chart scheme I = `to_chart(ideal,
    matrix)`, with its reduced grevlex basis attached: m_x is the
    `_multiplication_matrix` of xc on the standard monomials of I's basis, a
    basis of A = K[xc, yc]/I, chi_x its characteristic polynomial, in xc,
    and g the monic squarefree part of chi_x.  In the z chart the basis is
    read off the scheme's (`_chart_with_basis`), with no Buchberger run."""
    chart = _chart_with_basis(ideal, matrix)
    gb = chart.groebner_basis()
    m_x = _multiplication_matrix(gb, (1, 0))
    chi_x = gb.ring.from_terms({(k, 0): c for k, c in enumerate(characteristic_polynomial(m_x[1]))})
    part = squarefree_part(chi_x)  # chi_x itself once its gcd with chi_x' is 1 modulo PRIME
    return chart, chi_x, part * (gb.ring.field.one / part.terms[(part.degree(), 0)]), m_x


def _shape_line(chart: Ideal, m_x):
    """H of degree < m = dim A with yc = H(xc) in A = K[xc, yc]/I, I the
    chart ideal (the shape lemma of Gianni and Mora), or None when xc does
    not generate A.

    The vector of xc^(i+1) on the standard monomials is M_x times that of
    xc^i (the FGLM idea), M_x = `m_x` the chart's `_multiplication_matrix`
    of xc, so H solves [v_0 ... v_(m-1) | t] with v_i = M_x^i e_1 and t the
    normal form of yc.  xc generates A exactly when the v_i are independent;
    they are not when some v_i is zero (xc^i = 0 in A, i < m) or the
    kernel is not one vector nonzero at t's column (a free column k < m of
    the reduced echelon form forces a zero there).  The v_i are kept integer:
    (D*M_x)^i e_1, D the common denominator of M_x, over its content."""
    if not isinstance(chart.ring.field, RationalField):
        raise DegenerateInputError("the shape solve runs over QQ only")
    gb = chart.groebner_basis()
    basis, rows = m_x
    m = len(basis)
    den = lcm(*(c.denominator for r in rows for c in r))
    scaled = [[int(c * den) for c in r] for r in rows]
    powers, scales = [[1] + [0] * (m - 1)], [Fraction(1)]
    while len(powers) < m:
        nxt = [sum(map(mul, r, powers[-1])) for r in scaled]
        content = gcd(*nxt)
        if not content:
            return None
        powers.append([v // content for v in nxt])
        scales.append(scales[-1] * den / content)  # powers[i] = scales[i] * xc^i
    target = gb.normal_form(gb.ring.var("yc")).terms
    kernel = nullspace([[*r, target.get(e, 0)] for r, e in zip(zip(*powers), basis)], m + 1)
    if len(kernel) != 1 or not kernel[0][m]:
        return None
    return gb.ring.from_terms({(i, 0): -c * s for i, (c, s) in enumerate(zip(kernel[0], scales))})


def zero_dim_radical(ideal: Ideal) -> Ideal:
    """Radical of a homogeneous ideal with finite projective support in three
    variables, taken in the chart algebra A = K[xc, yc]/I of the first chart
    line ell missing the support (`chart_algebra`).  By Stickelberger's
    theorem the characteristic polynomials of xc and yc on A are
    prod (T - xc(p))^len_p and prod (T - yc(p))^len_p over the points p (Cox,
    Little & O'Shea, Using Algebraic Geometry, ch. 2 par. 4).  So a
    squarefree chi_x makes I its own radical, with no chi_y; otherwise I plus
    the squarefree parts of chi_x and chi_y is (Seidenberg's lemma).  It is
    read back as the kernel of K[x, y, z] -> its chart algebra, with images
    M (xc, yc, 1) for the chart matrix M (`_chart_image`), where ell is 1."""
    ring = ideal.ring
    if ring.nvars != 3:
        raise DegenerateInputError("zero_dim_radical expects a three-variable ring")
    ell = next(chart_lines(ideal), None)
    if ell is None:
        raise DegenerateInputError(
            "could not find a chart line avoiding the support; is the ideal zero-dimensional?"
        )
    matrix = chart_matrix(ell)
    chart, chi_x, g, _ = chart_algebra(ideal, matrix)
    radical = chart.groebner_basis()
    aff = radical.ring
    if g != chi_x:
        m_y = _multiplication_matrix(radical, (0, 1))[1]
        chi_y = aff.from_terms({(0, k): c for k, c in enumerate(characteristic_polynomial(m_y))})
        radical = ideal_sum(chart, Ideal(aff, [g, squarefree_part(chi_y)])).groebner_basis()
    images = [aff.from_terms(zip([(1, 0), (0, 1), (0, 0)], row)) for row in matrix]
    return _chart_image(radical, images, ring)
