"""Small dense matrix helpers over either scalar backend.

Everything here operates on tuples-of-tuples (rows).  Matrices are at most
5x5, so plain loops are the right tool; exact ranks use fraction-free
(Bareiss) elimination so intermediate values stay integral when the input
is integral.
"""

from __future__ import annotations

from fractions import Fraction

Row = tuple
Matrix = tuple


def identity(n: int) -> Matrix:
    return tuple(tuple(Fraction(1) if i == j else Fraction(0) for j in range(n))
                 for i in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, k, m = len(a), len(b), len(b[0])
    return tuple(tuple(sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m))
                 for i in range(n))


def mat_vec(a: Matrix, v: Row) -> Row:
    return tuple(sum(a[i][j] * v[j] for j in range(len(v))) for i in range(len(a)))


def transpose(a: Matrix) -> Matrix:
    return tuple(tuple(a[i][j] for i in range(len(a))) for j in range(len(a[0])))


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_pow(a: Matrix, e: int) -> Matrix:
    out = identity(len(a))
    for _ in range(e):
        out = mat_mul(out, a)
    return out


def rank(a: Matrix) -> int:
    """Exact row rank by fraction-free (Bareiss) elimination.

    Division-free apart from the exact previous pivot.
    """
    rows = [[Fraction(x) for x in r] for r in a]
    if not rows:
        return 0
    n, m = len(rows), len(rows[0])
    prev = Fraction(1)
    r = 0
    for col in range(m):
        pivot = next((i for i in range(r, n) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(r + 1, n):
            for c in range(col + 1, m):
                rows[i][c] = (rows[r][col] * rows[i][c] - rows[i][col] * rows[r][c]) / prev
            rows[i][col] = Fraction(0)
        prev = rows[r][col]
        r += 1
        if r == n:
            break
    return r
