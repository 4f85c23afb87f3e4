"""Exact linear algebra over the integers.

The public functions take plain ``list[list[int]]`` matrices in row-major
order, except ``kernel_basis`` and ``rank``, which take sparse rows
(``{column: value}`` dicts) and the number of columns, as the solver and
the rank comparison build them.  They return lists, or tuples for
vectors, of python ints, so every computation is arbitrary precision.
Inside, one routine does all the work: integer row echelon form on sparse
rows (``{column: value}`` dicts with a column -> rows index for the pivot
search), in the manner of sparse integer elimination (Dumas, Saunders and
Villard 2001); the solver's matrices are mostly zeros, which sparse rows
never touch.  Each pivot has the smallest absolute value in its column
and, on a tie, the fewest nonzeros with its transform row (the Markowitz
criterion; Duff, Erisman and Reid, *Direct Methods for Sparse Matrices*,
ch. 7), which keeps the kernel transforms sparse and their entries small.
The Hermite normal form (with optional unimodular transform, which
inverts a unimodular matrix), kernels, exact rank and lattice comparison
are built on it.
"""

from __future__ import annotations

from .errors import DimensionError

Vec = tuple[int, ...]


def vec_sub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def is_multiple_of(u: Vec, v: Vec) -> int | None:
    """Return the integer c with u == c*v, or None if there is none.

    For v = 0 that is 0 when u = 0 too, and None otherwise.
    """
    pivot = next((i for i, a in enumerate(v) if a != 0), None)
    if pivot is None:
        return None if any(u) else 0
    c, r = divmod(u[pivot], v[pivot])
    return None if r or any(a != c * b for a, b in zip(u, v)) else c


def congruent(u: Vec, w: Vec, v: Vec) -> bool:
    """Is u - w an integer multiple of v, that is, is u = w mod v?  Decided
    entry by entry, without building u - w; modulo v = 0 that is u = w."""
    for i, b in enumerate(v):
        if b:
            c = (u[i] - w[i]) // b  # checked with the other entries below
            for x, y, a in zip(u, w, v):
                if x - y != c * a:
                    return False
            return True
    return u == w


def _check_rect(rows):
    if rows:
        width = len(rows[0])
        for r in rows:
            if len(r) != width:
                raise DimensionError("ragged matrix")


def _sparse(rows):
    return [{j: a for j, a in enumerate(r) if a} for r in rows]


def _dense(row, ncols):
    out = [0] * ncols
    for j, a in row.items():
        out[j] = a
    return out


def _identity(n):
    return [{i: 1} for i in range(n)]


def _subtract(row, q, pivot, i=None, index=None):
    """row -= q * pivot, in place, on sparse rows, for q != 0; with
    ``index`` (column -> numbers of the rows nonzero there), keep it up to
    date for row i."""
    for j, b in pivot.items():
        a = row.get(j, 0) - q * b
        if a:
            if index is not None and j not in row:
                index[j].add(i)
            row[j] = a
        else:
            del row[j]
            if index is not None:
                index[j].discard(i)


def _echelon(rows, ncols, track=None, reduce=True):
    """Row echelon form of the sparse rows, in place.

    Column by column, the pivot is the row below the pivots with the
    smallest absolute value in the column, then the fewest nonzeros in it
    and its ``track`` row together, then the lowest row number.  Every
    other row below is reduced by it until only one nonzero is left in the
    column: a gcd computation spread over the rows.  Pivots end positive.
    With ``reduce``, the entries above each pivot are then reduced into
    [0, pivot), which makes the result the Hermite normal form.  The rows
    of ``track`` undergo the same row operations, so the identity becomes
    the unimodular transform.

    Returns ``(order, rank)``: the pivot rows in the order they were found,
    then the other rows, and the number of pivots.
    """
    m = len(rows)
    index = {}  # column -> the rows below the pivots nonzero there
    for i, row in enumerate(rows):
        for j in row:
            if j in index:
                index[j].add(i)
            else:
                index[j] = {i}

    def weight(i):  # the nonzeros of row i and of its transform row
        return len(rows[i]) + (0 if track is None else len(track[i]))

    order = []
    pivot_cols = []
    for col in range(ncols):
        if len(order) == m:
            break
        below = index.get(col)
        if not below:
            continue
        while len(below) > 1:
            best = min(below, key=lambda i: (abs(rows[i][col]), weight(i), i))
            pivot = rows[best]
            p = pivot[col]
            for i in [i for i in below if i != best]:
                q = rows[i][col] // p
                _subtract(rows[i], q, pivot, i, index)
                if track is not None:
                    _subtract(track[i], q, track[best])
        # each remainder is smaller than the pivot: the last row left is it
        (best,) = below
        pivot = rows[best]
        for j in pivot:
            index[j].discard(best)
        if pivot[col] < 0:
            for j in pivot:
                pivot[j] = -pivot[j]
            if track is not None:
                t = track[best]
                for j in t:
                    t[j] = -t[j]
        order.append(best)
        pivot_cols.append(col)
    rank = len(order)
    order += sorted(set(range(m)).difference(order))
    if reduce:
        # from the last pivot row up, so that each row is reduced by rows
        # that are final already: far fewer row operations than reducing
        # at each pivot as it is found, and the same (unique) result
        for t in range(rank - 2, -1, -1):
            i = order[t]
            row = rows[i]
            for col, j in zip(pivot_cols[t + 1 :], order[t + 1 : rank]):
                q = row.get(col, 0) // rows[j][col]
                if q:
                    _subtract(row, q, rows[j])
                    if track is not None:
                        _subtract(track[i], q, track[j])
    return order, rank


def hermite_normal_form(rows, transform=False):
    """Row Hermite normal form of an integer matrix.

    Returns H (list of rows, same shape as the input) such that H = U*M for
    a unimodular U; with ``transform=True`` the pair (H, U) is returned.
    Pivots are positive and entries above a pivot are reduced into
    [0, pivot); the pivot rule is that of ``_echelon``.
    """
    _check_rect(rows)
    m = len(rows)
    ncols = len(rows[0]) if m else 0
    h = _sparse(rows)
    u = _identity(m) if transform else None
    order, _ = _echelon(h, ncols, u)
    hnf = [_dense(h[i], ncols) for i in order]
    if transform:
        return hnf, [_dense(u[i], m) for i in order]
    return hnf


def rank(rows, ncols) -> int:
    """Exact rank of the matrix with ``ncols`` columns and the given sparse
    rows (``{column: value}`` dicts), which are left as they are."""
    copies = []
    for row in rows:
        for j in row:
            if not 0 <= j < ncols:
                raise DimensionError(f"column {j} outside 0..{ncols - 1}")
        copies.append({j: a for j, a in row.items() if a})
    return _echelon(copies, ncols, reduce=False)[1]


def kernel_basis(rows, ncols):
    """Z-basis of {v : M v = 0}, Hermite-reduced, as a list of tuples, for
    the matrix M with ``ncols`` columns and the given sparse rows
    (``{column: value}`` dicts).

    The transpose is brought to echelon form with its transform U; the
    rows of U at the zero rows of the echelon form span the kernel.  Any
    unimodular U gives the same kernel lattice, so this elimination skips
    the reduction above the pivots, and only the kernel is reduced to its
    Hermite form.
    """
    columns = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, a in row.items():
            if not 0 <= j < ncols:
                raise DimensionError(f"column {j} outside 0..{ncols - 1}")
            if a:
                columns[j][i] = a
    u = _identity(ncols)
    order, r = _echelon(columns, len(rows), u, reduce=False)
    kernel = [u[i] for i in order[r:]]
    order, _ = _echelon(kernel, ncols)
    return [tuple(_dense(kernel[i], ncols)) for i in order]


def same_lattice(rows_a, rows_b) -> bool:
    """Do two generating sets span the same sublattice of Z^n?  Their
    Hermite forms agree once the zero rows are dropped."""
    ha, hb = hermite_normal_form(rows_a), hermite_normal_form(rows_b)
    return [r for r in ha if any(r)] == [r for r in hb if any(r)]
