import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gkmgraphs.errors import DimensionError, InexactDivision
from gkmgraphs.polynomials import (
    IntPolynomial,
    coords_varnames,
    default_varnames,
    format_coefficients,
    graded_piece_basis,
    monomial_body,
)
from oracles import divide_exact, divide_exact_by_linear, linear_form


def x(i, n=2):
    return IntPolynomial.variable(n, i)


def test_product_of_sum_and_difference():
    assert (x(0) + x(1)) * (x(0) - x(1)) == x(0) ** 2 - x(1) ** 2


def test_multiplication_by_zero_and_one():
    p = 3 * x(0) ** 2 - x(1) + 7
    assert (p * IntPolynomial(2)).is_zero()
    assert p * IntPolynomial.constant(2, 1) == p


def test_variable_table_mismatch():
    with pytest.raises(DimensionError):
        IntPolynomial.variable(2, 0) * IntPolynomial.variable(3, 0)


def test_degree_additivity():
    p = x(0) ** 3 + x(1)
    q = x(1) ** 2 - 5
    assert (p * q).degree() == p.degree() + q.degree()


monos = st.tuples(st.integers(0, 3), st.integers(0, 3))
polys = st.dictionaries(monos, st.integers(-8, 8), max_size=5).map(
    lambda d: IntPolynomial(2, d)
)


@settings(max_examples=60, deadline=None)
@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)


def test_graded_piece_basis_examples():
    assert graded_piece_basis(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert graded_piece_basis(4, 0) == [(0, 0, 0, 0)]
    assert len(graded_piece_basis(3, 4)) == 15


def test_graded_piece_basis_counts_match_binomial():
    for nvars in range(1, 7):
        for degree in range(0, 9):
            got = graded_piece_basis(nvars, degree)
            assert len(got) == math.comb(nvars + degree - 1, degree)
            assert got == sorted(got, reverse=True)
            assert all(sum(m) == degree for m in got)


def test_divide_exact_by_linear_roundtrip():
    p = (2 * x(0) - 3 * x(1) + 1) ** 2
    form = (1, -4)
    q = divide_exact_by_linear(p * linear_form(form), form)
    assert q == p


def test_divide_exact_by_linear_detects_nondivisibility():
    assert divide_exact_by_linear(x(0) * x(0), (0, 1)) is None
    assert divide_exact_by_linear(x(0) + 1, (1, 0)) is None


def test_divide_exact_by_linear_with_content():
    p = 6 * x(0) ** 2
    assert divide_exact_by_linear(p, (2, 0)) == 3 * x(0)
    assert divide_exact_by_linear(x(0), (2, 0)) is None


def test_divide_exact_multiple_factors():
    p = (x(0) - x(1)) * (x(0) + 2 * x(1)) * (5 - x(1))
    q = divide_exact(p, [(1, -1), (1, 2)])
    assert q == 5 - x(1)
    with pytest.raises(InexactDivision):
        divide_exact(p, [(1, 1)])


def test_substitute_and_evaluate():
    p = x(0) ** 2 + 3 * x(1)
    swapped = p.substitute([x(1), x(0)])
    assert swapped == x(1) ** 2 + 3 * x(0)


def test_to_string_is_lex_descending():
    p = x(1) + x(0) ** 2 - 4
    assert p.to_string() == "t1^2 + t2 - 4"
    assert p.to_string(["a", "b"]) == "a^2 + b - 4"
    assert IntPolynomial(2).to_string() == "0"


@st.composite
def _coefficient_chunks(draw):
    """(nvars, degree, coefficients of the degree's monomials), with many
    zeros and units among the coefficients."""
    nvars = draw(st.integers(1, 4))
    degree = draw(st.integers(0, 4))
    size = math.comb(nvars + degree - 1, degree)
    coeff = st.one_of(st.just(0), st.sampled_from([1, -1]), st.integers(-30, 30))
    return nvars, degree, draw(st.lists(coeff, min_size=size, max_size=size))


@settings(max_examples=300, deadline=None)
@given(_coefficient_chunks(), st.booleans())
@example((3, 2, [0] * 6), True)
@example((1, 0, [0]), False)
@example((2, 0, [-1]), False)
@example((4, 0, [7]), True)
@example((2, 3, [1, -1, 0, -1]), False)
def test_coefficient_formatter_matches_to_string(case, named):
    """The solver's printer, which formats a coefficient chunk in
    ``graded_piece_basis`` order, against ``IntPolynomial.to_string`` of
    the same polynomial."""
    nvars, degree, chunk = case
    monos = graded_piece_basis(nvars, degree)
    names = coords_varnames(nvars, False) if named else None
    poly = IntPolynomial(nvars, dict(zip(monos, chunk)))
    text = poly.to_string(names)
    names = names or default_varnames(nvars)
    bodies = [monomial_body(m, names) for m in monos]
    assert format_coefficients(chunk, bodies) == text
    assert (text == "0") == (not any(chunk))
