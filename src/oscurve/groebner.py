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
of its ideal I; the other bases are read off it or start from it.  A sum
I + J made by `ideal_sum` starts Buchberger from I's cached basis for the
order and forms only the pairs with J's generators, as the pairs within I's
basis reduce to zero.

A finite scheme has one way into an affine chart: the chart algebra
A = S/(I + (l - 1)) of a linear form l that misses it, in S itself.
`_finite_chart` yields each such l with A's reduced basis, lazily, from one
line search: combinations of given forms by one fixed list
(`_saturation_candidates`), after the forms themselves when they are the
variables (saturation by m, the radical, the census), last to first.  The
last variable z is read off I's basis: grevlex with z last puts into the
lead of each form the least power of z in it (Bayer and Stillman, Invent.
Math. 87, 1987; Eisenbud, Commutative Algebra, Prop. 15.12), so
in(I + (z)) = in(I) + (z), and z misses the support exactly when every
other variable has a pure-power lead; and I's basis with z set to 1, plus
z - 1, interreduced, is A's basis.  The other lines take the bases of
I + (l) and I + (l - 1), which start from I's.  A's chart coordinates are
the variables but l's pivot, the last variable that l uses, which l = 1
writes in them.

There is one way back.  l misses the scheme, so it is a nonzerodivisor on
S/Sat(I, m) and each degree of S/Sat(I, m) embeds into A: Sat(I, m) in
degree e is the kernel of S_e -> A, taken degree by degree by the FGLM walk
(`_chart_image`).  The walk stops at the first e >= 1 where the number H(e)
of standard monomials equals H(e - 1): the first difference of H is the
Hilbert function of the Artinian algebra S/(Sat(I, m) + (l)), zero from
e on, so the saturation is generated in degrees <= e.  The same kernel with
forms l_i in place of the variables is the image of the scheme under the
projection from the l_i (`rational_curves.project_scheme`).  Saturation has
two routes: this one for a homogeneous I by the irrelevant ideal m when a
line misses the scheme, and the general auxiliary-variable route otherwise.

Emptiness is decided from lead terms alone, without saturating
(`is_empty_scheme`).  In a chart of a plane scheme, `chart_algebra` reads
the scheme off A: the characteristic polynomial chi of a chart coordinate
carries the local lengths (Stickelberger), and when that coordinate
generates A, one Krylov solve on its multiplication matrix writes the other
coordinate as a polynomial in it (`_shape_line`, the shape lemma); l = 1
gives the third.  The squarefree parts of the two coordinates' chi give the
radical (`zero_dim_radical`), unless the first shows the scheme to be its
own.
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
    scheme's image; with the variables as images, Sat(I, m).

    Each degree e takes, in increasing grevlex order, the monomials y_i*s
    over the standard monomials s of degree e - 1, skipping the multiples
    of the leads found so far (FGLM: Faugere, Gianni, Lazard & Mora,
    J. Symbolic Comput. 16, 1993).  A monomial's vector in A is the normal
    form of images[i] times the stored one of m / y_i.  One `nullspace` of
    the degree's vectors, as columns, gives them all: a pivot column of the
    reduced echelon form is a standard monomial, and the kernel vector of a
    free column m is the element m - sum c*s of J with lead m.  One
    Buchberger run makes the elements found the reduced basis, which may
    need higher degrees."""
    if chart.is_unit():
        return Ideal(target, [target.one()])
    field = target.field
    keyf = DEFAULT_ORDER.key_function(target)
    steps = [tuple(int(i == j) for j in range(target.nvars)) for i in range(target.nvars)]
    stored = {(0,) * target.nvars: chart.normal_form(chart.ring.one())}  # standard monomial -> image
    leads, found = [], []
    while True:
        candidates = sorted({tuple(map(add, s, u)) for s in stored for u in steps}, key=keyf)
        candidates = [m for m in candidates if not any(_divisible(m, lead) for lead in leads)]
        vectors = []
        for m in candidates:
            i = next(i for i, k in enumerate(m) if k)
            vectors.append(chart.normal_form(images[i] * stored[tuple(map(sub, m, steps[i]))]))
        monomials = {e for vec in vectors for e in vec.terms}
        rows = [[vec.terms.get(e, field.zero) for vec in vectors] for e in monomials]
        free = set()
        for vec in nullspace(rows, len(candidates), one=field.one):
            k = max(j for j, c in enumerate(vec) if c)  # the free column, where vec is 1
            free.add(k)
            leads.append(candidates[k])
            found.append(target.from_terms(zip(candidates[: k + 1], vec)))
        standard = {m: vec for k, (m, vec) in enumerate(zip(candidates, vectors)) if k not in free}
        if len(standard) == len(stored):
            break
        stored = standard
    gb = Ideal(target, found).groebner_basis()
    return Ideal(target, gb.polys).attach_basis(gb)


def _finite_chart(ideal: Ideal, forms):
    """Lazily, (ell, the reduced basis of I + (ell - 1)) for homogeneous I
    and each combination ell of the linear forms with I + (ell) m-primary.
    Such an ell misses the scheme, so the basis is that of a finite chart
    algebra of it.  When the forms are the ring's variables, they come
    first, last to first: the last one z with its test and its basis read
    off I's (`_last_variable_chart`).  The combinations of
    `_saturation_candidates` follow.  Every basis but z's starts from I's."""
    ring = ideal.ring
    gb = ideal.groebner_basis()
    singles = []
    if list(forms) == ring.gens():
        if set(range(ring.nvars - 1)) <= _pure_power_variables(ideal):
            yield forms[-1], _last_variable_chart(gb)
        singles = forms[-2::-1]
    combinations = (
        sum((f * c for c, f in zip(coeffs, forms)), ring.zero())
        for coeffs in _saturation_candidates(len(forms))
    )
    for ell in chain(singles, combinations):
        if is_empty_scheme(ideal_sum(ideal, Ideal(ring, [ell]))):
            yield ell, ideal_sum(ideal, Ideal(ring, [ell - ring.one()])).groebner_basis()


def _last_variable_chart(gb: GroebnerBasis) -> GroebnerBasis:
    """The reduced grevlex basis of I + (z - 1), z the ring's last variable,
    from the reduced grevlex basis of a homogeneous I: each element with z
    set to 1, which keeps its lead (the module docstring has why), and
    z - 1, interreduced."""
    ring = gb.ring
    one = 1 if gb._rational else ring.field.one
    z = (0,) * (ring.nvars - 1) + (1,)
    pairs = [({e[:-1] + (0,): c for e, c in g.items()}, lead[:-1] + (0,)) for g, lead in gb._pairs]
    pairs.append(({z: one, (0,) * ring.nvars: -one}, z))
    return GroebnerBasis(ring, DEFAULT_ORDER, _interreduce(pairs, gb._entry, gb._rational))


def _saturation_candidates(k: int):
    """Deterministic coefficient vectors of the lines `_finite_chart` tries in turn."""
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
    ideal m, and a finite scheme that a line of `_finite_chart` misses has
    Sat(I, m) read off its chart algebra S/(I + (l - 1)) at the first such
    line l, with the variables as the images (`_chart_image`).  Every other
    I and J takes the auxiliary-variable route `saturate_general`.
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
        found = next(_finite_chart(ideal, ring.gens()), None)
        if found is not None:
            return _chart_image(found[1], ring.gens(), ring)
    return saturate_general(ideal, by)


# ---------------------------------------------------------------------------
# finite schemes: emptiness, chart algebras, radicals
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
    return _pure_powers(ideal.groebner_basis().lead_exponents)


def _pure_powers(leads) -> set:
    """Positions of the variables with a pure power among the leads."""
    covered = set()
    for lead in leads:
        support = [i for i, e in enumerate(lead) if e]
        if len(support) <= 1:
            covered.update(support or range(len(lead)))
    return covered


def point_chart_matrix(point, field):
    """Columns: the unit vectors off the first nonzero coordinate of the
    point, then the point, so the chart origin (0, 0, 1) goes to the point."""
    k = next(i for i, v in enumerate(point) if v)
    columns = [[field.one if i == j else field.zero for i in range(3)] for j in range(3) if j != k]
    return tuple(zip(*columns, point))


def _chart_coordinates(ell: Polynomial) -> list[str]:
    """The chart coordinates of S/(I + (ell - 1)): the variables but the
    pivot of the linear form ell, the last variable that it uses, which
    ell = 1 writes in them."""
    pivot = ell.used_variables()[-1]
    return [v for v in ell.ring.variables if v != pivot]


def _multiplication_matrix(gb: GroebnerBasis, var):
    """(standard monomials, rows) of the reduced basis of a finite algebra
    A = S/J: the standard monomials by degree, 1 first, and the matrix of
    multiplication by the variable `var` on them, one normal form each."""
    ring, leads = gb.ring, gb.lead_exponents
    if len(_pure_powers(leads)) < ring.nvars:
        raise DegenerateInputError("the chart scheme is not finite")
    basis = []
    for degree in count():
        layer = _standard_monomials(ring.nvars, degree, leads)
        if not layer:  # the standard monomials are closed under division
            break
        basis += layer
    index = {e: i for i, e in enumerate(basis)}
    rows = [[ring.field.zero] * len(basis) for _ in basis]
    x = ring.var(var)
    for j, e in enumerate(basis):
        for f, c in gb.normal_form(x * ring.monomial(e)).terms.items():
            rows[index[f]][j] = c
    return basis, rows


def _univariate(ring: PolyRing, var, coeffs) -> Polynomial:
    """sum_i coeffs[i] * var^i in the ring."""
    k = ring.index(var)
    return ring.from_terms({tuple(i * (j == k) for j in range(ring.nvars)): c for i, c in enumerate(coeffs)})


def chart_algebra(chart: GroebnerBasis, var):
    """(chi, g, m) of the variable `var` on the finite algebra A whose
    reduced basis is `chart`: m is its `_multiplication_matrix` on the
    standard monomials, a basis of A, chi its characteristic polynomial, in
    `var`, and g the monic squarefree part of chi."""
    ring = chart.ring
    m = _multiplication_matrix(chart, var)
    chi = _univariate(ring, var, characteristic_polynomial(m[1]))
    part = squarefree_part(chi)  # chi itself once its gcd with chi' is 1 modulo PRIME
    top = max(part.terms, key=sum)
    return chi, part * (ring.field.one / part.terms[top]), m


def _shape_line(chart: GroebnerBasis, m, var, other):
    """H of degree < n = dim A in `var` with other = H(var) in A, the finite
    algebra of the reduced basis `chart` (the shape lemma of Gianni and
    Mora), or None when `var` does not generate A.

    The vector of var^(i+1) on the standard monomials is M times that of
    var^i (the FGLM idea), M the `_multiplication_matrix` `m` of var, so H
    solves [v_0 ... v_(n-1) | t] with v_i = M^i e_1 and t the normal form of
    `other`.  var generates A exactly when the v_i are independent; they
    are not when some v_i is zero (var^i = 0 in A, i < n) or the kernel is
    not one vector nonzero at t's column (a free column k < n of the reduced
    echelon form forces a zero there).  The v_i are kept integer:
    (D*M)^i e_1, D the common denominator of M, over its content."""
    ring = chart.ring
    if not isinstance(ring.field, RationalField):
        raise DegenerateInputError("the shape solve runs over QQ only")
    basis, rows = m
    n = len(basis)
    den = lcm(*(c.denominator for r in rows for c in r))
    scaled = [[int(c * den) for c in r] for r in rows]
    powers, scales = [[1] + [0] * (n - 1)], [Fraction(1)]
    while len(powers) < n:
        nxt = [sum(map(mul, r, powers[-1])) for r in scaled]
        content = gcd(*nxt)
        if not content:
            return None
        powers.append([v // content for v in nxt])
        scales.append(scales[-1] * den / content)  # powers[i] = scales[i] * var^i
    target = chart.normal_form(ring.var(other)).terms
    kernel = nullspace([[*r, target.get(e, 0)] for r, e in zip(zip(*powers), basis)], n + 1)
    if len(kernel) != 1 or not kernel[0][n]:
        return None
    return _univariate(ring, var, [-c * s for c, s in zip(kernel[0], scales)])


def zero_dim_radical(ideal: Ideal) -> Ideal:
    """Radical of a homogeneous ideal with finite projective support in three
    variables, taken in the chart algebra A = S/(I + (l - 1)) of the first
    line l of `_finite_chart`.  By Stickelberger's theorem the characteristic
    polynomials of the chart coordinates u and v on A are
    prod (T - u(p))^len_p and prod (T - v(p))^len_p over the points p (Cox,
    Little & O'Shea, Using Algebraic Geometry, ch. 2 par. 4).  So a
    squarefree chi_u makes A reduced, with no chi_v; otherwise I + (l - 1)
    plus the squarefree parts of chi_u and chi_v is the radical of
    I + (l - 1) (Seidenberg's lemma; l = 1 writes the pivot in u and v).
    It is read back as the kernel of S -> A with the variables as the
    images (`_chart_image`), the way back of `saturate`."""
    ring = ideal.ring
    if ring.nvars != 3:
        raise DegenerateInputError("zero_dim_radical expects a three-variable ring")
    found = next(_finite_chart(ideal, ring.gens()), None)
    if found is None:
        raise DegenerateInputError(
            "could not find a chart line avoiding the support; is the ideal zero-dimensional?"
        )
    ell, radical = found
    u, v = _chart_coordinates(ell)
    chi_u, g_u, _ = chart_algebra(radical, u)
    if g_u != chi_u:
        g_v = chart_algebra(radical, v)[1]
        chart = Ideal(ring, radical.polys).attach_basis(radical)
        radical = ideal_sum(chart, Ideal(ring, [g_u, g_v])).groebner_basis()
    return _chart_image(radical, ring.gens(), ring)
