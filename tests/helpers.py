"""Reference algorithms shared by the tests; the package does not use them."""

from itertools import count

from oscurve.errors import DegenerateInputError
from oscurve.groebner import Ideal, TermOrder, is_empty_scheme
from oscurve.intersection import TruncatedMultiplicity, default_multiplicity_cap
from oscurve.polyops import _row_echelon
from oscurve.rings import INF, Polynomial, PolyMatrix


def sylvester_resultant(a: Polynomial, b: Polynomial, var: str) -> Polynomial:
    """Determinant of the Sylvester matrix of a and b with respect to `var`.

    Both inputs must have positive degree in `var`; the result does not
    involve `var` and vanishes exactly when a and b share a factor of
    positive degree in it.
    """
    ring = a.ring
    if b.ring != ring:
        raise DegenerateInputError("resultant operands must share a ring")
    m = a.degree_in(var)
    n = b.degree_in(var)
    if m <= 0 or n <= 0:
        raise DegenerateInputError("resultant needs positive degree in the chosen variable")
    ca = a.as_univariate_in(var)
    cb = b.as_univariate_in(var)
    zero = ring.zero()
    size = m + n
    entries = []
    for i in range(n):  # rows of a-coefficients
        row = [zero] * size
        for k in range(m + 1):
            row[i + k] = ca.get(m - k, zero)
        entries.extend(row)
    for i in range(m):  # rows of b-coefficients
        row = [zero] * size
        for k in range(n + 1):
            row[i + k] = cb.get(n - k, zero)
        entries.extend(row)
    return PolyMatrix(ring, size, size, entries).det()


def has_triple_point_grevlex(F: Polynomial) -> bool:
    """Whether the plane curve F = 0 has a point of multiplicity >= 3, from
    a grevlex basis: the six second partials of F have a common zero.  In
    characteristic 0, Euler's formula makes F and its first partials vanish
    there too."""
    names = F.ring.variables
    second = [F.derivative(v).derivative(w) for i, v in enumerate(names) for w in names[i:]]
    return not is_empty_scheme(Ideal(F.ring, second))


def quotient_dimension_at_level(f: Polynomial, g: Polynomial, n: int) -> int:
    """d_n = dim K[x,y]/((f, g) + m^n) from a fresh matrix of the rows m*f
    and m*g on the monomials of degree < n, ranked by elimination over the
    field itself (`_row_echelon` with `_field_step`)."""
    monos = [(d - j, j) for d in range(n) for j in range(d + 1)]
    index = {m: k for k, m in enumerate(monos)}
    rows = []
    for base in (f, g):
        for mult_deg in range(n - int(base.lowest_degree())):
            for mj in range(mult_deg + 1):
                row = [0] * len(monos)
                for (ei, ej), c in base.terms.items():
                    col = index.get((ei + mult_deg - mj, ej + mj))
                    if col is not None:
                        row[col] = c
                rows.append(row)
    return len(monos) - len(_row_echelon(rows, range(len(monos))))


def truncated_local_multiplicity_by_levels(f: Polynomial, g: Polynomial, cap=None):
    """`truncated_local_multiplicity` one level at a time: d_N for
    N = 2, 3, ... by `quotient_dimension_at_level`, until d_N = d_(N+1) or N
    passes the cap."""
    if cap is None:
        cap = default_multiplicity_cap(f, g)
    prev = quotient_dimension_at_level(f, g, 2)
    for n in count(3):
        cur = quotient_dimension_at_level(f, g, n)
        if cur == prev:
            return TruncatedMultiplicity(prev, False)
        prev = cur
        if n > cap:
            return TruncatedMultiplicity(INF, True)


def colon_variable_power_by_fixpoint(ideal: Ideal, var: str) -> Ideal:
    """I : var^infinity for homogeneous I, without Bayer and Stillman: take
    the grevlex basis with `var` cheapest, divide each element by its full
    power of var, and start again from the quotients until none changes."""
    ring = ideal.ring
    pos = ring.index(var)
    order = TermOrder.grevlex([v for v in ring.variables if v != var] + [var])
    current = ideal
    while True:
        gb = current.groebner_basis(order)
        divided = []
        for p in gb.polys:
            k = min(e[pos] for e in p.terms)
            terms = {e[:pos] + (e[pos] - k,) + e[pos + 1 :]: c for e, c in p.terms.items()}
            divided.append(ring.from_terms(terms))
        if divided == list(gb.polys):
            return Ideal(ring, gb.polys).attach_basis(gb)
        current = Ideal(ring, divided)
