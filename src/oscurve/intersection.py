"""Local intersection multiplicities at the origin.

Two independent routes are provided.  The fast path substitutes a graph curve
y = c1*x + ... + ct*x^t into the defining polynomial and reads off the order
of vanishing.  The oracle path computes dim K[x,y]/((f,g) + (x,y)^N) by exact
linear algebra on truncated coefficient vectors until the dimension
stabilizes; stabilization d_N = d_{N+1} forces the Artinian local quotient to
be exhausted, so the stabilized value is the intersection multiplicity.  The
oracle never touches substitution or term orders, which keeps the two routes
honest against each other.
"""

from __future__ import annotations

from itertools import count

from .errors import DegenerateInputError
from .polyops import matrix_rank
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


def _monomials_below(n: int):
    """Exponent pairs (i, j) with i + j < n, ordered by degree then j."""
    out = []
    for d in range(n):
        for j in range(d + 1):
            out.append((d - j, j))
    return out


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

    ord_f = int(f.lowest_degree())
    ord_g = int(g.lowest_degree())

    def dim_quotient(n: int) -> int:
        monos = _monomials_below(n)
        index = {m: k for k, m in enumerate(monos)}
        rows = []
        for base, base_ord in ((f, ord_f), (g, ord_g)):
            for mult_deg in range(n - base_ord):
                for mj in range(mult_deg + 1):
                    mi = mult_deg - mj
                    row = [0] * len(monos)
                    nonzero = False
                    for (ei, ej), c in base.terms.items():
                        col = index.get((ei + mi, ej + mj))
                        if col is not None:
                            row[col] = c
                            nonzero = True
                    if nonzero:
                        rows.append(row)
        return len(monos) - matrix_rank(rows)

    prev = dim_quotient(2)
    for n in count(3):
        cur = dim_quotient(n)
        if cur == prev:
            return TruncatedMultiplicity(prev, False)
        prev = cur
        if n > cap:
            return TruncatedMultiplicity(INF, True)
