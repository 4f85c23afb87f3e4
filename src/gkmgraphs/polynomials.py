"""Graded multivariate polynomial arithmetic over Z.

A polynomial is stored sparsely as its terms, a map from exponent tuples
to nonzero integer coefficients.  One product (``mul_terms``) and one
substitution (``substitute_terms``) act on such terms dicts; the
presentation relations, the facet coordinates of the shelling expansion
and :class:`IntPolynomial`, which adds the number of variables and the
operators, all call them.  Monomials are ordered lexicographically on
exponent tuples (descending) and that order is used everywhere something
gets serialized, so output is deterministic.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from .errors import DimensionError


class IntPolynomial:
    """Sparse integer polynomial in a fixed number of variables."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        self.terms = {}
        for mono, coeff in (terms or {}).items():
            if coeff:
                if len(mono) != nvars:
                    raise DimensionError("exponent tuple of wrong length")
                self.terms[tuple(mono)] = coeff

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, nvars, c):
        if c == 0:
            return cls(nvars)
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars, index):
        mono = tuple(int(i == index) for i in range(nvars))
        return cls(nvars, {mono: 1})

    # -- basic queries -----------------------------------------------------

    def is_zero(self):
        return not self.terms

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def constant_term(self):
        return self.terms.get((0,) * self.nvars, 0)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, IntPolynomial):
            if other.nvars != self.nvars:
                raise DimensionError("variable tables differ")
            return other
        if isinstance(other, int):
            return IntPolynomial.constant(self.nvars, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) + c
        return IntPolynomial(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return IntPolynomial(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial(
                self.nvars, {m: other * c for m, c in self.terms.items()}
            )
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return IntPolynomial(self.nvars, mul_terms(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = IntPolynomial.constant(self.nvars, 1)
        for _ in range(k):
            result = result * self
        return result

    def __eq__(self, other):
        if isinstance(other, int):
            return self.terms == IntPolynomial.constant(self.nvars, other).terms
        return (
            isinstance(other, IntPolynomial)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __repr__(self):
        return f"IntPolynomial({self.nvars}, {self.to_string()!r})"

    # -- substitution ------------------------------------------------------

    def substitute(self, images):
        """Substitute variable i by images[i] (IntPolynomial or int)."""
        if len(images) != self.nvars:
            raise DimensionError("need one image per variable")
        target = None
        for img in images:
            if isinstance(img, IntPolynomial):
                target = img.nvars
                break
        if target is None:
            raise DimensionError("at least one image must be a polynomial")
        imgs = []
        for img in images:
            if not isinstance(img, IntPolynomial):
                img = IntPolynomial.constant(target, img)
            elif img.nvars != target:
                raise DimensionError("variable tables differ")
            imgs.append(img.terms)
        return IntPolynomial(
            target, substitute_terms(self.terms, imgs, target)
        )

    # -- printing ----------------------------------------------------------

    def to_string(self, varnames=None):
        if varnames is None:
            varnames = default_varnames(self.nvars)
        terms = sorted(self.terms.items(), reverse=True)
        return format_coefficients(
            [c for _, c in terms], [monomial_body(m, varnames) for m, _ in terms]
        )


def linear_terms(coeffs) -> dict:
    """The terms of the linear form with the given coefficient vector."""
    n = len(coeffs)
    return {
        tuple(int(j == i) for j in range(n)): c
        for i, c in enumerate(coeffs)
        if c
    }


def mul_terms(p, q) -> dict:
    """Product of two ``{exponents: coefficient}`` polynomials."""
    out = {}
    for ma, a in p.items():
        for mb, b in q.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            out[m] = out.get(m, 0) + a * b
    return {m: c for m, c in out.items() if c}


def substitute_terms(terms, images, nvars) -> dict:
    """``{exponents: coefficient}`` terms with the variable z_t replaced by
    the polynomial ``images[t]``, itself terms in ``nvars`` variables."""
    out = {}
    for mono, c in terms.items():
        image = {(0,) * nvars: c}
        for t, e in enumerate(mono):
            for _ in range(e):
                image = mul_terms(image, images[t])
        for m, a in image.items():
            out[m] = out.get(m, 0) + a
    return {m: c for m, c in out.items() if c}


def monomial_body(mono, varnames) -> str:
    """The printed monomial, ``e1^2*x`` for (2, 0, 1) on e1, e2, x; "" for
    the constant monomial."""
    return "*".join(
        name if e == 1 else f"{name}^{e}" for name, e in zip(varnames, mono) if e
    )


def format_coefficients(coeffs, bodies) -> str:
    """The polynomial with these coefficients on the monomials printed as
    ``bodies`` (see ``monomial_body``), in the given order; zero
    coefficients are left out and no term at all prints "0"."""
    out = []
    for c, body in zip(coeffs, bodies):
        if not c:
            continue
        if out:
            out.append(" - " if c < 0 else " + ")
        elif c < 0:
            out.append("-")
        size = abs(c)
        if not body:
            out.append(str(size))
        elif size == 1:
            out.append(body)
        else:
            out.append(f"{size}*{body}")
    return "".join(out) or "0"


def default_varnames(nvars):
    return [f"t{i + 1}" for i in range(nvars)]


def coords_varnames(n, with_residual):
    """e1..en for H^*(BT^n), plus the residual x when requested."""
    names = [f"e{i + 1}" for i in range(n)]
    if with_residual:
        names.append("x")
    return names


def graded_piece_basis(nvars: int, degree: int):
    """All exponent tuples of the given total degree, lex-descending.

    The count is C(nvars + degree - 1, degree).
    """
    if nvars < 0 or degree < 0:
        raise ValueError("nvars and degree must be nonnegative")
    if nvars == 0:
        return [()] if degree == 0 else []
    out = []
    # stars and bars, generated directly in descending lex order
    for bars in combinations(range(degree + nvars - 1), nvars - 1):
        prev = -1
        mono = []
        for b in bars:
            mono.append(b - prev - 1)
            prev = b
        mono.append(degree + nvars - 2 - prev)
        out.append(tuple(mono))
    out.sort(reverse=True)
    assert len(out) == comb(nvars + degree - 1, degree)
    return out
