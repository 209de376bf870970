"""Small exact linear algebra over the integers and rationals.

All matrices are lists of row lists of Python ints (arbitrary precision),
k x k for a tower of height k, unbounded on sequence input.  Every
elimination is fraction-free; fractions.Fraction appears only in the results
of solve_fraction and invert_fraction, which import it themselves so that
loading this module does not load fractions (and decimal).  No package code
calls them or invert_unimodular: all three are kept for bench/tracing.py.
"""

from __future__ import annotations

from math import gcd

from .errors import ValidationError


def identity(n: int):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(m):
    return [list(col) for col in zip(*m)]


def matmul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def matvec(m, v):
    """m @ v with v a column vector; returns a tuple."""
    return tuple(sum(x * y for x, y in zip(row, v)) for row in m)


def _eliminate(m, n: int) -> int:
    """Bareiss elimination (Math. Comp. 22, 1968) of the first n columns of
    the row list m, in place; every division is exact.  Returns the
    determinant of the leading n x n block, or 0 when it is singular."""
    sign = 1
    prev = 1
    for i in range(n):
        if m[i][i] == 0:
            pivot = next((r for r in range(i + 1, n) if m[r][i] != 0), None)
            if pivot is None:
                return 0
            m[i], m[pivot] = m[pivot], m[i]
            sign = -sign
        top = m[i]
        p = top[i]
        for r in range(i + 1, n):
            row = m[r]
            f = row[i]
            for c in range(i + 1, len(row)):
                row[c] = (row[c] * p - f * top[c]) // prev
            row[i] = 0
        prev = p
    return sign * prev


def det(matrix) -> int:
    """Integer determinant by fraction-free Bareiss elimination."""
    return _eliminate([list(row) for row in matrix], len(matrix))


def solve_fraction_free(matrix, columns):
    """(det(matrix), [adj(matrix) @ b for b in columns]) in integers only.

    adj(matrix) @ b is det * x for the solution x of matrix @ x = b, so x_j
    has the sign of its j-th entry times the sign of det, and the back
    substitution divides exactly.  Raises ValidationError when singular.
    """
    n = len(matrix)
    m = [list(row) + [b[i] for b in columns] for i, row in enumerate(matrix)]
    d = _eliminate(m, n)
    if d == 0:
        raise ValidationError("singular matrix")
    p = m[-1][n - 1]  # d, up to the sign of the row swaps
    out = []
    for c in range(n, n + len(columns)):
        y = [0] * n
        for i in range(n - 1, -1, -1):
            row = m[i]
            y[i] = (p * row[c] - sum(row[j] * y[j]
                                     for j in range(i + 1, n))) // row[i]
        out.append(y if d == p else [-v for v in y])
    return d, out


def solve_fraction(matrix, rhs):
    """Solve matrix @ x = rhs exactly as a tuple of Fraction; raises
    ValidationError on a singular matrix."""
    from fractions import Fraction

    d, (y,) = solve_fraction_free(matrix, [rhs])
    return tuple(Fraction(v, d) for v in y)


def invert_fraction(matrix):
    """Exact inverse as a matrix of Fraction; raises on singular input."""
    from fractions import Fraction

    d, cols = solve_fraction_free(matrix, identity(len(matrix)))
    return [[Fraction(v, d) for v in row] for row in transpose(cols)]


def invert_unimodular(matrix):
    """Integer inverse of a matrix with determinant +-1."""
    d, cols = solve_fraction_free(matrix, identity(len(matrix)))
    if abs(d) != 1:
        raise ValidationError("matrix is not unimodular")
    return [[d * v for v in row] for row in transpose(cols)]


def _xgcd(a: int, b: int):
    """Extended gcd: returns (g, s, t) with g = s*a + t*b and g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def complete_to_basis(x):
    """Unimodular U with U @ x = e_n, for a primitive integer vector x.

    Built from 2x2 elementary blocks accumulating the gcd into the last
    coordinate, so U is a product of determinant +-1 operations.
    """
    v = list(x)
    n = len(v)
    if gcd(*v) != 1:
        raise ValidationError("vector is not primitive")
    u = identity(n)
    for i in range(n - 1):
        if v[i] == 0:
            continue
        a, b = v[-1], v[i]
        g, s, t = _xgcd(a, b)
        row_last, row_i = u[-1], u[i]
        u[-1] = [s * p + t * q for p, q in zip(row_last, row_i)]
        u[i] = [-(b // g) * p + (a // g) * q for p, q in zip(row_last, row_i)]
        v[-1], v[i] = g, 0
    if v[-1] < 0:
        u[-1] = [-p for p in u[-1]]
        v[-1] = -v[-1]
    return u
