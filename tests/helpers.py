"""Reference algorithms shared by the tests; the package does not use them."""

from oscurve.errors import DegenerateInputError
from oscurve.groebner import Ideal, is_empty_scheme
from oscurve.rings import Polynomial, PolyMatrix


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
