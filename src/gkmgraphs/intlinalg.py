"""Exact linear algebra over the integers.

Matrices are plain ``list[list[int]]`` in row-major order and vectors are
tuples of python ints, so every computation is arbitrary precision.  The two
workhorses are the row Hermite normal form (with optional unimodular
transform) and a fraction-free echelon rank; kernels, solving and lattice
membership are built on top of them.
"""

from __future__ import annotations

from .errors import DimensionError

Vec = tuple[int, ...]


def vec_sub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vec_scale(c: int, u: Vec) -> Vec:
    return tuple(c * a for a in u)


def is_multiple_of(u: Vec, v: Vec) -> int | None:
    """Return the integer c with u == c*v, or None if there is none.

    v must be nonzero.
    """
    pivot = next((i for i, a in enumerate(v) if a != 0), None)
    if pivot is None:
        raise ValueError("v must be nonzero")
    if u[pivot] % v[pivot] != 0:
        return None
    c = u[pivot] // v[pivot]
    return c if u == vec_scale(c, v) else None


def _check_rect(rows):
    if rows:
        width = len(rows[0])
        for r in rows:
            if len(r) != width:
                raise DimensionError("ragged matrix")


def hermite_normal_form(rows, transform=False):
    """Row Hermite normal form of an integer matrix.

    Returns H (list of rows, same shape as the input) such that H = U*M for
    a unimodular U; with ``transform=True`` the pair (H, U) is returned.
    Pivots are positive, entries above a pivot are reduced into [0, pivot)
    and pivot selection takes the smallest absolute value in the column to
    keep intermediate entries small.
    """
    _check_rect(rows)
    m = len(rows)
    h = [list(r) for r in rows]
    u = [[int(i == j) for j in range(m)] for i in range(m)] if transform else None
    pivot_row = 0
    ncols = len(h[0]) if m else 0
    for col in range(ncols):
        if pivot_row == m:
            break
        # eliminate column `col` below pivot_row by repeated smallest-pivot
        # reduction (a gcd computation spread over the rows)
        while True:
            candidates = [i for i in range(pivot_row, m) if h[i][col] != 0]
            if not candidates:
                break
            best = min(candidates, key=lambda i: abs(h[i][col]))
            if best != pivot_row:
                h[pivot_row], h[best] = h[best], h[pivot_row]
                if transform:
                    u[pivot_row], u[best] = u[best], u[pivot_row]
            p = h[pivot_row][col]
            done = True
            for i in range(pivot_row + 1, m):
                if h[i][col] != 0:
                    q = h[i][col] // p
                    h[i] = [a - q * b for a, b in zip(h[i], h[pivot_row])]
                    if transform:
                        u[i] = [a - q * b for a, b in zip(u[i], u[pivot_row])]
                    if h[i][col] != 0:
                        done = False
            if done:
                break
        if h[pivot_row][col] != 0:
            if h[pivot_row][col] < 0:
                h[pivot_row] = [-a for a in h[pivot_row]]
                if transform:
                    u[pivot_row] = [-a for a in u[pivot_row]]
            p = h[pivot_row][col]
            for i in range(pivot_row):
                q = h[i][col] // p
                if q:
                    h[i] = [a - q * b for a, b in zip(h[i], h[pivot_row])]
                    if transform:
                        u[i] = [a - q * b for a, b in zip(u[i], u[pivot_row])]
            pivot_row += 1
    if transform:
        return h, u
    return h


def hnf_nonzero_rows(rows):
    return [r for r in hermite_normal_form(rows) if any(a != 0 for a in r)]


def lattice_rank(vectors) -> int:
    """Rank of the subgroup of Z^n generated by the given vectors."""
    vectors = list(vectors)
    if not vectors:
        return 0
    _check_rect(vectors)
    return len(hnf_nonzero_rows(vectors))


def rank_ffge(rows) -> int:
    """Matrix rank by fraction-free (Bareiss) Gaussian elimination.

    Independent of the HNF code path on purpose: it doubles as an oracle in
    the tests and as the cheap rank routine for wide matrices.
    """
    _check_rect(rows)
    a = [list(r) for r in rows if any(x != 0 for x in r)]
    if not a:
        return 0
    ncols = len(a[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        piv = next((i for i in range(rank, len(a)) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        p = a[rank][col]
        for i in range(rank + 1, len(a)):
            row = a[i]
            f = row[col]
            a[i] = [(p * row[j] - f * a[rank][j]) // prev for j in range(ncols)]
        prev = p
        rank += 1
        if rank == len(a):
            break
    return rank


def kernel_basis(rows, ncols=None):
    """Z-basis of {v : M v = 0}, Hermite-reduced, as a list of tuples.

    ``ncols`` is required when the matrix has no rows.
    """
    rows = [list(r) for r in rows]
    if not rows:
        if ncols is None:
            raise DimensionError("kernel of an empty matrix needs ncols")
        return [tuple(int(i == j) for j in range(ncols)) for i in range(ncols)]
    _check_rect(rows)
    n = len(rows[0])
    transposed = [[rows[i][j] for i in range(len(rows))] for j in range(n)]
    h, u = hermite_normal_form(transposed, transform=True)
    kernel = [u[i] for i in range(n) if all(a == 0 for a in h[i])]
    if not kernel:
        return []
    reduced = hnf_nonzero_rows(kernel)
    return [tuple(r) for r in reduced]


def solve_integer(rows, rhs):
    """One integer solution z of M z = rhs, or None if none exists."""
    rows = [list(r) for r in rows]
    if not rows:
        return ()
    _check_rect(rows)
    n = len(rows[0])
    m = len(rows)
    transposed = [[rows[i][j] for i in range(m)] for j in range(n)]
    h, u = hermite_normal_form(transposed, transform=True)
    # M z = rhs with z = U^T y becomes H^T y = rhs; H is in row-HNF so H^T is
    # solved by forward substitution on its pivot columns.
    y = [0] * n
    residual = list(rhs)
    for i in range(n):
        col = next((j for j in range(m) if h[i][j] != 0), None)
        if col is None:
            continue
        if residual[col] % h[i][col] != 0:
            return None
        y[i] = residual[col] // h[i][col]
        if y[i]:
            residual = [residual[j] - y[i] * h[i][j] for j in range(m)]
    if any(residual):
        return None
    z = [0] * n
    for i in range(n):
        if y[i]:
            for j in range(n):
                z[j] += y[i] * u[i][j]
    return tuple(z)


def in_row_span(vec, hnf_rows) -> bool:
    """Membership of vec in the lattice spanned by Hermite-reduced rows."""
    residual = list(vec)
    for row in hnf_rows:
        col = next((j for j, a in enumerate(row) if a != 0), None)
        if col is None:
            continue
        if residual[col] == 0:
            continue
        if residual[col] % row[col] != 0:
            return False
        q = residual[col] // row[col]
        residual = [a - q * b for a, b in zip(residual, row)]
    return not any(residual)


def same_lattice(rows_a, rows_b) -> bool:
    """Do two generating sets span the same sublattice of Z^n?"""
    ha = hnf_nonzero_rows(rows_a) if rows_a else []
    hb = hnf_nonzero_rows(rows_b) if rows_b else []
    return ha == hb


def unimodular_inverse(u):
    """Inverse of a unimodular integer matrix (det = +-1)."""
    _check_rect(u)
    n = len(u)
    h, t = hermite_normal_form([list(r) for r in u], transform=True)
    if h != [[int(i == j) for j in range(n)] for i in range(n)]:
        raise DimensionError("matrix is not unimodular")
    return t
