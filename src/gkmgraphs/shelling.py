"""Shelling-derived module bases and structure constants.

The hyperplane complex has one vertex per hyperplane and a face for every
family with a common vertex; its facets biject with the graph vertices.
They are the sets of names through each vertex, so no face is ever
listed.  On a graph that passes ``validate_axial`` each such set has n
names, so none holds another and the complex is pure: a hyperplane
through v leaves out one pair of ``GkmGraph.pairs`` at v, its normal
pair, and is the closure seeded by that pair, and the n pairs at v leave
out different darts.  A set of names through two vertices is refused
(assumption (2)); otherwise the sets biject with the vertices.

A shelling order of the facets yields minimal new faces
mu_i, the restrictions R(sigma_i), the names v of sigma_i with sigma_i - v
in an earlier facet (Bjorner, *The homology and shellability of matroids
and geometric lattices*, 1992, section 7.2), and the monomials x_{mu_i}
form a free module basis over the polynomial ring in n variables (the
standard basis of a Stanley-Reisner ring over a linear system of
parameters).  The facets are listed lexicographically, by their names'
generator positions, a shelling order of every matroid complex (Bjorner
1992, Thm 7.3.4), and the search tries them in that order.

Expansion in that basis runs in facet coordinates.  At a facet point p
the Thom values y_L = tau_L(p) of the n hyperplanes through p are
coordinates of H^*(BT^n): the lift identity sum_L lambda(L)_j tau_L(p) =
e_j, checked at every facet point, says that the change of variables is
unimodular and that e_j = sum_L lambda(L)_j y_L inverts it.  It is the
one check of the covectors and of the Thom values at p: a matrix T_p of
the tau_L(p) that is not unimodular fails it whatever the covectors, and
tau_L(p) is 0 for every L not through p (0 or x off L, and x cut to 0).
In these
coordinates a generator localizes to a variable or to 0, and x_{mu_i}(p)
is the monomial y^{mu_i} (Stanley, *Combinatorics and Commutative
Algebra*, ch. III).  A ring element is localized once per facet; running
down the shelling order, the coefficient a_i is the i-th localization
with the exponents of y^{mu_i} taken off, and a_i * x_{mu_i}, moved into
the coordinates of each other facet that contains mu_i, is subtracted
there.  A shelling is the pair of lists ``ShellingData``, an expansion
the dict ``{i: a_i}``; the CLI prints both as they are.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import (
    AssumptionViolation,
    GkmError,
    InconsistentLambda,
    InexactDivision,
    NotShellable,
)
from .graph import GkmGraph
from .hyperplanes import Arrangement
from .intlinalg import hermite_normal_form
from .polynomials import (
    IntPolynomial,
    coords_varnames,
    format_coefficients,
    linear_terms,
    substitute_terms,
)

SEARCH_BUDGET = 10**6  # the restriction tests of one shelling search


# the maximal faces in canonical order, and each one's graph vertex
SimplicialComplex = namedtuple("SimplicialComplex", "facets facet_vertex")


# the facets sigma_1..sigma_d in shelling order, and their minimal new
# faces mu_1..mu_d
ShellingData = namedtuple("ShellingData", "order minimal_faces")


def build_complex(arr: Arrangement) -> SimplicialComplex:
    """Facets of the hyperplane complex, whose faces are the families of
    hyperplanes with a common vertex: the sets of names through each
    vertex, n each (see the module docstring), ordered by their names in
    generator order."""
    vertices_of = {}  # the names through a vertex -> the vertices they pass
    for v, names in arr.through.items():
        vertices_of.setdefault(names, []).append(v)
    position = {name: i for i, name in enumerate(arr.names)}
    facets = sorted(vertices_of, key=lambda f: sorted(map(position.get, f)))
    facet_vertex = {}
    for f in facets:
        verts = vertices_of[f]
        if len(verts) != 1:
            raise AssumptionViolation(
                f"hyperplanes {sorted(f)} meet in {len(verts)} vertices; "
                "facets must correspond to single vertices",
                assumption=2,
            )
        (facet_vertex[f],) = verts
    return SimplicialComplex(facets, facet_vertex)


def _restriction(holders, prefix, sigma):
    """Bjorner's restriction R(sigma), the v in ``sigma`` with sigma - v in a
    prior facet, if R(sigma) lies in no prior facet; else None.  Every new
    face holds R(sigma), so a new R(sigma) is the one minimal new face, and
    a unique one, mu, is R(sigma): sigma - v is old exactly for v in mu.
    The prior facets are the bits of ``prefix``, and a set of names lies in
    one when the AND of its names' masks of ``holders`` meets ``prefix``."""

    def old(names):
        mask = prefix
        for v in names:
            mask &= holders[v]
        return mask

    mu = frozenset(v for v in sigma if old(sigma - {v}))
    return None if old(mu) else mu


def find_shelling(complex_: SimplicialComplex) -> ShellingData:
    """A shelling order with its minimal new faces, the restrictions.

    A depth-first search, on a stack of its own rather than by recursion:
    each prefix tries the unused facets in the built (lexicographic) order
    and extends by the first whose R(sigma) lies in no facet of the prefix,
    and a backtrack resumes after the facet it drops.  So on a matroid
    complex the first descent is the built order.  Dead prefixes are kept
    by mask, and at most ``SEARCH_BUDGET`` restriction tests run.
    """
    facets = complex_.facets
    holders = {}  # name -> the mask of the facets that hold it
    for i, f in enumerate(facets):
        for v in f:
            holders[v] = holders.get(v, 0) | 1 << i
    everything = (1 << len(facets)) - 1
    tests = 0
    dead = set()  # prefix masks that no order completes
    taken, mus = [], []  # the stack: the prefix's indices and restrictions
    prefix = start = 0  # the prefix mask, and the lowest index to try next
    while prefix != everything:
        untried = 0 if prefix in dead else everything & ~prefix & -(1 << start)
        mu = None
        while untried and mu is None:
            i = (untried & -untried).bit_length() - 1
            untried ^= 1 << i
            tests += 1
            if tests > SEARCH_BUDGET:
                raise NotShellable(
                    f"search budget of {SEARCH_BUDGET} restriction tests "
                    "exhausted"
                )
            mu = _restriction(holders, prefix, facets[i])
        if mu is not None:
            taken.append(i)
            mus.append(mu)
            prefix |= 1 << i
            start = 0
        else:
            dead.add(prefix)
            if not taken:
                raise NotShellable("exhaustive search found no shelling order")
            i = taken.pop()
            mus.pop()
            prefix ^= 1 << i
            start = i + 1
    return ShellingData([facets[i] for i in taken], mus)


# -- characteristic functions ---------------------------------------------------


def characteristic_functions(complex_: SimplicialComplex, taus) -> dict:
    """The covector lambda(L) of every hyperplane L, ``{name: covector}``.

    At a vertex p of L, lambda(L) pairs to 0 with the forgetful labels of
    the darts of L and to 1 with the normal of the positive side.  Those
    labels are +-tau_M(p) for the other hyperplanes M through p, and the
    normal is tau_L(p).  So lambda(L) solves lambda . tau_M(p) = delta_LM:
    it is the column of L in the inverse of the matrix T_p whose rows are
    the tau_M(p).  At each facet that holds a name not yet assigned, the
    transform of the Hermite form H = U T_p is that inverse when H is the
    identity, as it is when T_p is unimodular.  Any other T_p fails the
    lift identity, which ``FacetLocalizations`` checks at every facet
    point, which is every vertex.
    """
    lambdas = {}
    for facet in complex_.facets:
        members = sorted(facet)
        if all(name in lambdas for name in members):
            continue
        p = complex_.facet_vertex[facet]
        _, inverse = hermite_normal_form(
            [taus[m][p] for m in members], transform=True
        )
        for k, name in enumerate(members):
            lambdas.setdefault(name, tuple(row[k] for row in inverse))
    return lambdas


# -- the assembled context -------------------------------------------------------


class ShellingContext:
    def __init__(
        self, graph, names, complex_, shelling, lambdas, taus, orientation
    ):
        self.graph = graph
        self.names = names  # hyperplane names in generator order
        self.complex = complex_
        self.shelling = shelling
        self.lambdas = lambdas  # name -> covector
        self.taus = taus  # name -> forgetful Thom class, {vertex: vector}
        # name -> recorded normal dart of the positive side
        self.orientation = orientation
        # the localization maps of the facet points
        self.localizations = FacetLocalizations(self)


class FacetLocalizations:
    """Localization at the facet points, in shelling order, each in the
    coordinates of its own facet.

    At the k-th facet point p the n hyperplanes L of the facet give the
    coordinates y_L = tau_L(p), the rows of a matrix T_p over the e_j;
    every other generator localizes to 0 there.  Building the maps checks
    the lift identity sum_L lambda(L)_j tau_L(p) = e_j at every point.  It
    says Lambda_p T_p = 1 for the matrix Lambda_p of the lambda(L), so the
    change of variables is unimodular with inverse e_j = sum_L
    lambda(L)_j y_L, and no inverse is ever computed.  Polynomials here
    are ``{exponents: coefficient}`` dicts in the y_L of one facet, which
    ``gens[k]`` lists by generator index.
    """

    def __init__(self, ctx: ShellingContext):
        n = ctx.graph.rank
        self.nvars = n
        index = {name: i for i, name in enumerate(ctx.names)}
        order = ctx.shelling.order
        self.points = [ctx.complex.facet_vertex[sigma] for sigma in order]
        self.gens = [tuple(sorted(map(index.get, sigma))) for sigma in order]
        self.lambdas = [
            [ctx.lambdas[ctx.names[g]] for g in gens] for gens in self.gens
        ]
        self.taus = []  # the rows of T_p
        for p, gens, lams in zip(self.points, self.gens, self.lambdas):
            rows = [ctx.taus[ctx.names[g]][p] for g in gens]
            for j in range(n):
                total = [
                    sum(lam[j] * row[i] for lam, row in zip(lams, rows))
                    for i in range(n)
                ]
                if total != [int(i == j) for i in range(n)]:
                    raise InconsistentLambda(
                        f"the characteristic covectors do not lift e{j + 1} "
                        f"at {p!r}: sum of lambda_{j + 1}(L) tau_L is "
                        + format_coefficients(total, coords_varnames(n, False))
                    )
            self.taus.append(rows)
        # the facets containing mu_i (in a shelling, i and some later
        # ones), each with the exponents of x_{mu_i} = y^{mu_i} there
        mus = [set(map(index.get, m)) for m in ctx.shelling.minimal_faces]
        self.carriers = [
            {
                k: tuple(int(g in mu) for g in gens)
                for k, gens in enumerate(self.gens)
                if mu.issubset(gens)
            }
            for mu in mus
        ]

    def localize(self, poly: IntPolynomial, k) -> dict:
        """rho at the k-th facet point: a monomial in the generators of the
        facet becomes the monomial y^m, and one with any other generator
        vanishes."""
        gens = self.gens[k]
        out = {}
        for mono, c in poly.terms.items():
            y = tuple(mono[g] for g in gens)
            if sum(y) == sum(mono):
                out[y] = c
        return out

    def to_e(self, k, terms) -> IntPolynomial:
        """A polynomial in the coordinates of the k-th facet, in the e_j."""
        images = [linear_terms(row) for row in self.taus[k]]
        return IntPolynomial(
            self.nvars, substitute_terms(terms, images, self.nvars)
        )

    def move(self, i, k, terms) -> dict:
        """A polynomial in the coordinates of the i-th facet, in those of
        the k-th: y_L = sum_j tau_L(p_i)_j e_j, and e_j = sum_M lambda(M)_j
        y_M."""
        rows = [
            [sum(a * b for a, b in zip(row, lam)) for lam in self.lambdas[k]]
            for row in self.taus[i]
        ]
        images = [linear_terms(row) for row in rows]
        return substitute_terms(terms, images, self.nvars)


def shelling_context(g: GkmGraph) -> ShellingContext:
    """Discover hyperplanes, fix orientations, find a shelling."""
    arr = Arrangement(g)
    complex_ = build_complex(arr)
    shelling = find_shelling(complex_)
    taus = {}
    orientation = {}
    for name in arr.names:
        pos, _neg = arr.oriented(name)
        taus[name] = arr.tau(name)
        orientation[name] = pos.normals[min(pos.normals)]
    lambdas = characteristic_functions(complex_, taus)
    return ShellingContext(
        g, arr.names, complex_, shelling, lambdas, taus, orientation
    )


# -- module basis and expansion ---------------------------------------------------


def module_basis(ctx: ShellingContext):
    """The monomials x_{mu_i}, in shelling order; x_{mu_1} = 1."""
    return [
        tuple(n for n in ctx.names if n in mu) for mu in ctx.shelling.minimal_faces
    ]


def basis_monomial_name(names_tuple):
    return "*".join(names_tuple) if names_tuple else "1"


def express_in_basis(ctx: ShellingContext, poly: IntPolynomial) -> dict:
    """Coefficients a_i with poly = sum a_i * x_{mu_i}, ``{i: a_i}`` with
    each a_i an ``IntPolynomial`` in the n e-coordinates.

    The input is localized once at every facet point through the cached
    facet localizations; the Stanley-Reisner ideal vanishes there, as no
    facet holds a non-face.  The expansion then runs on those
    localizations alone (see ``_expand``).
    """
    if poly.nvars != len(ctx.names):
        raise GkmError("polynomial is not in the hyperplane generators")
    maps = ctx.localizations
    locs = {k: maps.localize(poly, k) for k in range(len(maps.points))}
    return _expand(maps, {k: loc for k, loc in locs.items() if loc})


def _expand(maps: FacetLocalizations, locs) -> dict:
    """Coefficients ``{i: a_i}`` from the nonzero localizations ``locs``
    (facet index -> polynomial in that facet's coordinates) of a ring
    element; consumed.

    Down the shelling order: at the i-th facet x_{mu_i} is y^{mu_i}, so
    a_i = locs[i] / y^{mu_i} is a shift of exponents, and a term without
    them is an inexact division.  a_i * x_{mu_i}, moved into the
    coordinates of every other facet containing mu_i, is subtracted there.
    Every localization must end at zero (injectivity of localization),
    which is asserted on those that are left.
    """
    coeffs = {}
    for i in range(len(maps.points)):
        num = locs.pop(i, None)
        if not num:
            continue
        carriers = maps.carriers[i]
        shift = carriers[i]
        a = {}
        for m, c in num.items():
            q = tuple(x - y for x, y in zip(m, shift))
            if min(q) < 0:
                raise InexactDivision(
                    f"the localization at the facet point {maps.points[i]!r} "
                    "is not divisible by the basis monomial there"
                )
            a[q] = c
        coeffs[i] = maps.to_e(i, a)
        for k, mu in carriers.items():
            if k == i:
                continue
            rest = locs.setdefault(k, {})
            for m, c in maps.move(i, k, a).items():
                m = tuple(x + y for x, y in zip(m, mu))
                c = rest.get(m, 0) - c
                if c:
                    rest[m] = c
                else:
                    del rest[m]
    if any(locs.values()):
        raise InexactDivision(
            "expansion remainder does not localize to zero; the input "
            "is not in the ring or the shelling is invalid"
        )
    return coeffs


# -- ordinary cohomology ------------------------------------------------------------


def ordinary_cohomology(ctx: ShellingContext):
    """Graded Z-basis (the x_{mu_i}) and the full structure-constant
    table, both equivariant and with the polynomial part killed."""
    basis = module_basis(ctx)
    maps = ctx.localizations
    degrees = [len(b) for b in basis]
    ranks = {}
    for d in degrees:
        ranks[d] = ranks.get(d, 0) + 1
    equivariant = {}
    ordinary = {}
    for i in range(len(basis)):
        for j in range(i, len(basis)):
            # x_{mu_i} x_{mu_j} is the monomial y^{mu_i + mu_j} at the facets
            # containing both, and 0 elsewhere
            other = maps.carriers[j]
            expansion = _expand(
                maps,
                {
                    k: {tuple(x + y for x, y in zip(mu, other[k])): 1}
                    for k, mu in maps.carriers[i].items()
                    if k in other
                },
            )
            key = f"{basis_monomial_name(basis[i])}*{basis_monomial_name(basis[j])}"
            eq = {}
            ord_ = {}
            for idx, c in sorted(expansion.items()):
                name = basis_monomial_name(basis[idx])
                eq[name] = c
                k = c.constant_term()
                if k:
                    ord_[name] = k
            equivariant[key] = eq
            ordinary[key] = ord_
    return {
        "basis": [basis_monomial_name(b) for b in basis],
        "degrees": degrees,
        "ordinary_ranks": {str(d): ranks[d] for d in sorted(ranks)},
        "equivariant_products": equivariant,
        "ordinary_products": ordinary,
    }
