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
only its own columns among the rows that are not pivots yet.  Rows are cut
at a column horizon that grows when the levels reach it; the pivots on a
column prefix do not depend on the columns beyond it, so every d_N, and the
stabilized value, is the one a separate matrix for each level would give.
The horizon starts at `_HORIZON_STEP` = 4 degrees and grows by as much, so a
node's witness of contact order 3, stable at level 4, is decided within the
first horizon; a deeper witness pays for one more run, the smallest.
"""

from __future__ import annotations

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
        a, b = list(self.coefficients), list(other.coefficients)
        n = max(len(a), len(b))
        a += [0] * (n - len(a))
        b += [0] * (n - len(b))
        return all(x == y for x, y in zip(a, b))

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


# The carried elimination truncates its rows at this many degrees, and
# restarts with the horizon this much larger when a level reaches it.
_HORIZON_STEP = 4


def _dimensions_below(bases, width: int, horizon: int):
    """d_N = dim K[x,y]/((f, g) + m^N) for N = 1..horizon, by one forward
    elimination over the monomial columns of degree < horizon in (degree, j)
    order.  `bases` are the integer rows of f and g from `integer_rows`, each
    as (order, [((i, j), entries of x^i*y^j)]).  The rows m*base entering at
    level N vanish below degree N - 1, so level N only clears the columns of
    degree N - 1 among the rows that are not pivots yet; a used pivot row is
    dropped."""

    def column(i, j):  # the first of the `width` columns of x^i*y^j
        return width * ((i + j) * (i + j + 1) // 2 + j)

    ncols = column(horizon, 0)
    rows, rank = [], 0
    for deg in range(horizon):
        for low, terms in bases:
            for mj in range(deg - low + 1):
                mi = deg - low - mj
                row = [0] * ncols
                for (i, j), entries in terms:
                    if i + j + deg - low < horizon:
                        c = column(i + mi, j + mj)
                        row[c : c + width] = entries
                rows.append(row)
        pivots = _row_echelon(rows, range(column(deg, 0), column(deg + 1, 0)))
        rank += len(pivots)
        rows = [r for r in rows[len(pivots) :] if any(r)]
        yield (deg + 1) * (deg + 2) // 2 - rank // width


def _quotient_dimensions(f: Polynomial, g: Polynomial):
    """d_1, d_2, ... without end: `_dimensions_below` up to a horizon that
    grows by `_HORIZON_STEP` whenever the levels reach it.  A restart only
    repeats the levels already given."""
    exps = sorted(set(f.terms) | set(g.terms))
    patterns, d = integer_rows([[p.terms.get(e, 0) for e in exps] for p in (f, g)])
    width = 1 if d is None else 2
    bases = []
    for row in patterns:
        terms = [(e, row[width * t : width * t + width]) for t, e in enumerate(exps)]
        terms = [(e, entries) for e, entries in terms if any(entries)]
        bases.append((min(sum(e) for e, _ in terms), terms))
    given, horizon = 0, _HORIZON_STEP
    while True:
        for level, dim in enumerate(_dimensions_below(bases, width, horizon), 1):
            if level > given:
                given = level
                yield dim
        horizon += _HORIZON_STEP


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
