"""Exact integer linear algebra, cross-checked against an independent
fraction-free elimination oracle and by properties that determine each
answer: the Hermite form is unique, so "H is in Hermite form and H = U*M
with U unimodular" pins it down completely."""

import random
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkmgraphs import intlinalg as il
from gkmgraphs.errors import DimensionError
from oracles import (
    hnf_nonzero_rows,
    lattice_rank,
    solve_integer,
    unimodular_inverse,
)


def rank_ffge(rows) -> int:
    """Matrix rank by fraction-free (Bareiss) Gaussian elimination: dense,
    exact division, and no code in common with ``intlinalg``."""
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


def det_bareiss(a):
    """Determinant of a square matrix by fraction-free (Bareiss)
    elimination, with no code in common with ``intlinalg``."""
    a = [list(r) for r in a]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * (a[n - 1][n - 1] if n else 1)


def kernel_of(m):
    """``kernel_basis`` of a dense matrix, handed over as sparse rows."""
    return il.kernel_basis(
        [{j: a for j, a in enumerate(row) if a} for row in m], len(m[0])
    )


def matmul(a, b):
    return [
        [sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a
    ]


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def is_row_hermite(h):
    """Nonzero rows first, positive pivots in strictly increasing columns,
    zeros below and entries in [0, pivot) above each pivot."""
    last = -1
    seen_zero = False
    for i, row in enumerate(h):
        col = next((j for j, a in enumerate(row) if a), None)
        if col is None:
            seen_zero = True
            continue
        if seen_zero or col <= last or row[col] <= 0:
            return False
        if any(not 0 <= h[k][col] < row[col] for k in range(i)):
            return False
        if any(h[k][col] for k in range(i + 1, len(h))):
            return False
        last = col
    return True


def test_kernel_forced_by_equation():
    # 2a = 2b forces the diagonal
    assert kernel_of([[2, -2]]) == [(1, 1)]


def test_kernel_of_identity_is_empty():
    assert kernel_of([[1, 0], [0, 1]]) == []


def test_kernel_random_matrices_against_ffge_rank():
    rng = random.Random(20240811)
    for _ in range(60):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 7)
        m = [[rng.randrange(-6, 7) for _ in range(cols)] for _ in range(rows)]
        kernel = kernel_of(m)
        for v in kernel:
            assert all(
                sum(m[i][j] * v[j] for j in range(cols)) == 0
                for i in range(rows)
            )
        assert len(kernel) == cols - rank_ffge(m)


def test_kernel_is_canonical():
    m = [[3, 6, -3], [1, 2, -1]]
    k1 = kernel_of(m)
    k2 = kernel_of([[1, 2, -1], [3, 6, -3], [0, 0, 0]])
    assert k1 == k2


@pytest.mark.parametrize(
    "vectors,rank",
    [
        ([(1, 0, 0), (0, 1, 0)], 2),
        ([(1, 0, 1), (-1, 0, 0)], 2),
        ([(2, 4), (1, 2)], 1),
        ([], 0),
        ([(0, 0)], 0),
    ],
)
def test_lattice_rank_examples(vectors, rank):
    assert lattice_rank(vectors) == rank


int_vec = st.lists(st.integers(-9, 9), min_size=3, max_size=3).map(tuple)


@settings(max_examples=80, deadline=None)
@given(st.lists(int_vec, min_size=1, max_size=5), st.randoms())
def test_lattice_rank_invariant_under_permutation_and_sign(vectors, rnd):
    base = lattice_rank(vectors)
    shuffled = list(vectors)
    rnd.shuffle(shuffled)
    flipped = [
        tuple(-x for x in v) if rnd.random() < 0.5 else v for v in shuffled
    ]
    assert lattice_rank(flipped) == base


def test_lattice_rank_rejects_ragged_input():
    with pytest.raises(DimensionError):
        lattice_rank([(1, 0), (1, 0, 0)])


def test_rank_rejects_a_column_outside_the_matrix():
    with pytest.raises(DimensionError):
        il.rank([{0: 1}, {2: 1}], 2)


def test_hnf_is_left_multiple_of_input():
    m = [[4, 2, 7], [2, 0, 1], [9, 3, 3]]
    h, u = il.hermite_normal_form(m, transform=True)
    assert all(
        h[i][j]
        == sum(u[i][k] * m[k][j] for k in range(3))
        for i in range(3)
        for j in range(3)
    )
    # pivots positive, entries above a pivot reduced
    assert h[0][0] > 0


def test_solve_integer():
    assert solve_integer([[2, 0], [0, 3]], [4, 9]) == (2, 3)
    assert solve_integer([[2]], [3]) is None
    m = [[1, 2, 3], [0, 1, 1]]
    z = solve_integer(m, [6, 2])
    assert z is not None
    assert [sum(r[j] * z[j] for j in range(3)) for r in m] == [6, 2]


def test_lattice_membership_and_same_lattice():
    basis = hnf_nonzero_rows([[2, 0], [0, 3]])
    assert il.same_lattice(basis, basis + [[4, 3]])
    assert not il.same_lattice(basis, basis + [[1, 0]])
    assert il.same_lattice([[2, 0], [0, 3]], [[2, 3], [2, -3], [2, 0]])
    assert not il.same_lattice([[2, 0]], [[1, 0]])


def test_unimodular_inverse():
    u = [[1, 2, 0], [0, 1, 0], [3, 0, 1]]
    inv = unimodular_inverse(u)
    n = len(u)
    prod = [
        [sum(u[i][k] * inv[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]
    assert prod == [[int(i == j) for j in range(n)] for i in range(n)]


def test_is_multiple_of():
    assert il.is_multiple_of((2, -4), (1, -2)) == 2
    assert il.is_multiple_of((0, 0), (1, -2)) == 0
    assert il.is_multiple_of((2, -3), (1, -2)) is None
    assert il.is_multiple_of((0, 0), (0, 0)) == 0
    assert il.is_multiple_of((0, 1), (0, 0)) is None


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(-6, 6), min_size=3, max_size=3),
    st.lists(st.integers(-6, 6), min_size=3, max_size=3),
    st.one_of(
        st.just([0, 0, 0]),
        st.lists(st.integers(-3, 3), min_size=3, max_size=3),
    ),
    st.integers(-3, 3),
)
def test_congruent_agrees_with_the_difference(u, w, v, c):
    """u = w mod v, decided without building u - w, against the multiple
    test on the difference; every other draw is a true congruence.  Modulo
    v = 0 both say u = w."""
    if c % 2:
        w = [a - c * b for a, b in zip(u, v)]
    diff = tuple(a - b for a, b in zip(u, w))
    assert il.congruent(u, w, v) == (il.is_multiple_of(diff, v) is not None)


# -- properties of the elimination on zero-rich matrices --------------------------


@st.composite
def sparse_matrices(draw):
    """Matrices up to 8 x 10 with entries in [-9, 9], mostly zeros, with
    some rows and columns zeroed outright."""
    nrows = draw(st.integers(1, 8))
    ncols = draw(st.integers(1, 10))
    zero_rows = draw(st.sets(st.integers(0, nrows - 1), max_size=3))
    zero_cols = draw(st.sets(st.integers(0, ncols - 1), max_size=3))
    entry = st.one_of(st.just(0), st.just(0), st.integers(-9, 9))
    return [
        [
            0 if i in zero_rows or j in zero_cols else draw(entry)
            for j in range(ncols)
        ]
        for i in range(nrows)
    ]


@settings(max_examples=150, deadline=None)
@given(sparse_matrices())
def test_hermite_form_with_transform(m):
    h, u = il.hermite_normal_form(m, transform=True)
    assert is_row_hermite(h)
    assert h == matmul(u, m)
    assert matmul(u, unimodular_inverse(u)) == identity(len(m))
    assert il.hermite_normal_form(m) == h


@settings(max_examples=150, deadline=None)
@given(sparse_matrices(), st.randoms(use_true_random=False))
def test_kernel_and_rank_against_the_oracle(m, rnd):
    ncols = len(m[0])
    r = rank_ffge(m)
    kernel = kernel_of(m)
    for k in kernel:
        assert all(sum(a * b for a, b in zip(row, k)) == 0 for row in m)
    assert len(kernel) == ncols - r
    assert [tuple(row) for row in hnf_nonzero_rows(kernel)] == kernel
    # the whole integer kernel, not a sublattice of full rank in it: the
    # maximal minors of the basis have gcd 1
    g = 0
    for cols in combinations(range(ncols), len(kernel)):
        g = gcd(g, det_bareiss([[v[j] for j in cols] for v in kernel]))
        if g == 1:
            break
    assert g == 1
    # both are unique, so the order of the rows cannot change them
    shuffled = list(m)
    rnd.shuffle(shuffled)
    assert kernel_of(shuffled) == kernel
    assert il.hermite_normal_form(shuffled) == il.hermite_normal_form(m)
    # sparse rows with their zeros kept, which ``rank`` leaves as they are
    rows = [dict(enumerate(row)) for row in m]
    assert il.rank(rows, ncols) == r
    assert rows == [dict(enumerate(row)) for row in m]
    assert lattice_rank(m) == r
    assert len(hnf_nonzero_rows(m)) == r


@settings(max_examples=150, deadline=None)
@given(sparse_matrices(), st.randoms(use_true_random=False))
def test_solve_integer_against_the_oracle(m, rnd):
    ncols = len(m[0])
    z0 = [rnd.randrange(-3, 4) for _ in range(ncols)]
    rhs = [sum(a * b for a, b in zip(row, z0)) for row in m]
    z = solve_integer(m, rhs)
    assert z is not None
    assert [sum(a * b for a, b in zip(row, z)) for row in m] == rhs
    # a right-hand side outside the rational column span has no solution
    r = rank_ffge(m)
    for i in range(len(m)):
        unit = [int(k == i) for k in range(len(m))]
        if rank_ffge([row + [e] for row, e in zip(m, unit)]) > r:
            assert solve_integer(m, unit) is None
