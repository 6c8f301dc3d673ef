"""Local intersection multiplicities at the origin.

Two independent routes are provided.  The fast path substitutes a graph curve
y = c1*x + ... + ct*x^t into the defining polynomial and reads off the order
of vanishing.  The oracle path computes d_N = dim K[x,y]/((f,g) + (x,y)^N) by
exact linear algebra on truncated coefficient vectors until the dimension
stabilizes; stabilization d_N = d_{N+1} forces the Artinian local quotient to
be exhausted, so the stabilized value is the intersection multiplicity.  The
oracle never touches substitution or term orders, which keeps the two routes
honest against each other.

All levels share one fraction-free elimination over the integer rows of f
and g (`polyops.integer_rows`; over QQ(sqrt d) each column is a pair of
rational columns).  With the monomial columns in (degree, j) order, d_N is
#monomials of degree < N minus the rank of the rows m*f, m*g on those
columns, and forward elimination counts the rank of every column prefix at
once: it is the number of pivots in the prefix.  The rows that join at level
N + 1 vanish on every column of degree < N, so they change no pivot found
for level N, and the elimination carries on from there: each level clears
only its own columns among the rows that are not pivots yet.  Rows are built
whole, once, and the carried ones are padded with zeros as the levels reach
wider columns; the pivots on a column prefix do not depend on the columns
beyond it, so every d_N is the one a separate matrix for each level gives.

Most rows are redundant by the Koszul relation g*f - f*g = 0 (Faugere's F5
criterion, here on a Macaulay matrix).  With P the operand with more terms
(f on a tie), Q the other and L the lowest-degree term of Q with the largest
power of y, no row m*P with L | m is built (over QQ(sqrt d), neither rational
row): q_L*(m*L*P) = sum_s p_s*(m*s)*Q - sum_{t != L} q_t*(m*t)*P, and each
m*t*P there starts at a higher degree than m*L*P, or at the same degree with
a smaller power of y, so the recursion ends at kept rows or at rows that
vanish below the level.  No rank on a column prefix, so no d_N, changes, for
any f and g, a shared component included.
"""

from __future__ import annotations

from itertools import count

from .errors import DegenerateInputError
from .polyops import _row_echelon, integer_rows
from .qfields import field_of
from .rings import INF, Polynomial, PolyRing


class GraphCurve:
    """The smooth curve y = c1*x + c2*x^2 + ... + ct*x^t through the origin."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients):
        object.__setattr__(self, "coefficients", tuple(coefficients))

    def __setattr__(self, *args):
        raise AttributeError("GraphCurve is immutable")

    def __len__(self):
        return len(self.coefficients)

    def __eq__(self, other):
        if not isinstance(other, GraphCurve):
            return NotImplemented
        return branch_separation(self, other) == INF

    def __hash__(self):
        coeffs = list(self.coefficients)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        return hash(tuple(coeffs))

    def graph_poly(self, ring: PolyRing, x: str = "x") -> Polynomial:
        """The univariate polynomial c1*x + ... + ct*x^t in `ring`."""
        xv = ring.var(x)
        total = ring.zero()
        for k, c in enumerate(self.coefficients, start=1):
            if c:
                total = total + xv**k * c
        return total

    def implicit_poly(self, ring: PolyRing, x: str = "x", y: str = "y") -> Polynomial:
        """The defining equation y - (c1*x + ... + ct*x^t)."""
        return ring.var(y) - self.graph_poly(ring, x)

    def coefficient_field(self):
        return field_of(self.coefficients)

    def __str__(self):
        ring = PolyRing(("x",), self.coefficient_field())
        return f"y = {self.graph_poly(ring)}"

    def __repr__(self):
        return f"GraphCurve({list(self.coefficients)!r})"


def _require_origin(f: Polynomial, label: str):
    if f.constant_term():
        raise DegenerateInputError(f"{label} does not vanish at the origin")


def graph_intersection_multiplicity(f: Polynomial, graph: GraphCurve, x: str = "x", y: str = "y"):
    """i(C, graph, O) as the order in x of f(x, c1*x + ... + ct*x^t).

    Returns inf when the graph is a component of the curve.
    """
    _require_origin(f, "the curve")
    p = graph.graph_poly(f.ring, x)
    return f.substitute({y: p}).order_at_zero()


def branch_separation(g1: GraphCurve, g2: GraphCurve):
    """Intersection multiplicity of two graph curves at the origin: the order
    of the first coefficient where they differ; inf when identical."""
    a, b = list(g1.coefficients), list(g2.coefficients)
    n = max(len(a), len(b))
    a += [0] * (n - len(a))
    b += [0] * (n - len(b))
    for k in range(n):
        if a[k] != b[k]:
            return k + 1
    return INF


def default_multiplicity_cap(f: Polynomial, g: Polynomial) -> int:
    # a finite local multiplicity is bounded by the Bezout product
    return 2 * max(f.degree(), 1) * max(g.degree(), 1) + 4


class TruncatedMultiplicity:
    """Result of the truncated-local-algebra oracle."""

    __slots__ = ("value", "cap_reached")

    def __init__(self, value, cap_reached):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "cap_reached", cap_reached)

    def __setattr__(self, *args):
        raise AttributeError("immutable")

    def __eq__(self, other):
        if isinstance(other, TruncatedMultiplicity):
            return self.value == other.value and self.cap_reached == other.cap_reached
        return self.value == other

    def __repr__(self):
        flag = ", cap reached" if self.cap_reached else ""
        return f"TruncatedMultiplicity({self.value}{flag})"


def _quotient_dimensions(f: Polynomial, g: Polynomial):
    """d_1, d_2, ... without end, by one forward elimination carried from
    each level to the next, each row built whole, once (module docstring).
    With P the operand with more terms (f on a tie) and L the lowest-degree
    term of the other, Q, with the largest power of y, no row m*P with L | m
    is built: q_L*(m*L*P) = sum_s p_s*(m*s)*Q - sum_{t != L} q_t*(m*t)*P,
    whose rows m*t*P start higher, or as high with less y."""
    p, q = (f, g) if len(f.terms) >= len(g.terms) else (g, f)
    lead = min(q.terms, key=lambda e: (sum(e), -e[1]))
    pe, qe = sorted(p.terms), sorted(q.terms)
    # p and q on disjoint columns, so each integer row shows its operand
    blocks = [[p.terms[e] for e in pe] + [0] * len(qe), [0] * len(pe) + [q.terms[e] for e in qe]]
    patterns, d = integer_rows(blocks)
    width = 1 if d is None else 2
    bases = []
    for row in patterns:
        of_p = any(row[: width * len(pe)])
        exps, entries = (pe, row) if of_p else (qe, row[width * len(pe) :])
        terms = [(e, entries[width * t : width * t + width]) for t, e in enumerate(exps)]
        bases.append((min(sum(e) for e in exps), terms, lead if of_p else None))

    def column(i, j):  # the first of the `width` columns of x^i*y^j
        return width * ((i + j) * (i + j + 1) // 2 + j)

    reach = max(s.degree() - s.lowest_degree() for s in (p, q))
    rows, rank = [], 0
    for deg in count():
        ncols = column(deg + reach + 1, 0)
        for low, terms, skip in bases:
            for mj in range(deg - low + 1):
                mi = deg - low - mj
                if skip and mi >= skip[0] and mj >= skip[1]:
                    continue
                row = [0] * ncols
                for (i, j), entries in terms:
                    c = column(i + mi, j + mj)
                    row[c : c + width] = entries
                rows.append(row)
        pivots = _row_echelon(rows, range(column(deg, 0), column(deg + 1, 0)))
        rank += len(pivots)
        pad = [0] * width * (deg + reach + 2)  # the columns of degree deg + reach + 1, reached next
        rows = [r + pad for r in rows[len(pivots) :] if any(r)]
        yield (deg + 1) * (deg + 2) // 2 - rank // width


def truncated_local_multiplicity(f: Polynomial, g: Polynomial, cap: int | None = None):
    """dim K[x,y]/((f, g) + m^N) for growing N until it stabilizes.

    Both curves must pass through the origin.  Returns a
    `TruncatedMultiplicity`; the value is inf when no stabilization happens
    by N = cap (a shared component through the origin, or a cap that is too
    small -- the flag says which situation was hit).
    """
    if f.ring != g.ring or f.ring.nvars != 2:
        raise DegenerateInputError("the oracle works on two curves in one ring K[x,y]")
    _require_origin(f, "the first curve")
    _require_origin(g, "the second curve")
    if f.is_zero or g.is_zero:
        raise DegenerateInputError("zero polynomial has no local multiplicity")
    if cap is None:
        cap = default_multiplicity_cap(f, g)
    for n, cur in enumerate(_quotient_dimensions(f, g), 1):
        if n > 2:
            if cur == prev:
                return TruncatedMultiplicity(prev, False)
            if n > cap:
                return TruncatedMultiplicity(INF, True)
        prev = cur
