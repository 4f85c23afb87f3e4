"""Shelling-derived module bases and structure constants.

The hyperplane complex has one vertex per hyperplane and a face for every
family with nonempty common intersection; its facets biject with the graph
vertices.  A shelling order of the facets yields minimal new faces mu_i,
and the monomials x_{mu_i} form a free module basis over the polynomial
ring in n variables (the standard basis of a Stanley-Reisner ring over a
linear system of parameters).

Expansion in that basis never leaves the n equivariant variables.  Each
context caches the localization map of every facet point p: the images
tau_L(p) of the generators, nonzero exactly for the n hyperplanes through
p, and the values x_{mu_i}(p).  A ring element is localized once per
facet; running down the shelling order, the coefficient a_i is the exact
quotient of the i-th localization by x_{mu_i}(p_i), and a_i * x_{mu_i}(p)
is subtracted from the localizations at the facets that contain mu_i.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from math import comb

from .cohomology import thom_class_forgetful
from .errors import (
    AssumptionViolation,
    GkmError,
    InconsistentLambda,
    InexactDivision,
    NotShellable,
    PurityFailure,
)
from .graph import GkmGraph
from .hyperplanes import (
    _name_key,
    all_hyperplanes,
    choose_positive_halfspace,
    minimal_empty_families,
    nonempty_intersection_table,
)
from .intlinalg import solve_integer, vec_sub
from .polynomials import IntPolynomial, coords_varnames, divide_exact

DEFAULT_SEARCH_BUDGET = 10**6


@dataclass
class SimplicialComplex:
    vertex_names: list  # one per hyperplane
    faces: set  # frozensets of names, including the empty face
    facets: list  # maximal faces in canonical order
    facet_vertex: dict  # facet -> graph vertex id
    dim: int


@dataclass
class ShellingData:
    order: list  # facets sigma_1..sigma_d
    minimal_faces: list  # mu_1..mu_d

    def to_dict(self):
        return {
            "facet_order": [sorted(f) for f in self.order],
            "minimal_faces": [sorted(f) for f in self.minimal_faces],
        }


def build_complex(g: GkmGraph, hyperplanes=None) -> SimplicialComplex:
    """Simplicial complex of the hyperplane family; faces are the
    subfamilies with a common vertex."""
    if hyperplanes is None:
        hyperplanes = all_hyperplanes(g)
    n = g.rank
    names = sorted((h.name for h in hyperplanes), key=_name_key)
    table = nonempty_intersection_table(
        {h.name: set(h.vertices) for h in hyperplanes}
    )
    faces = set(table) | {frozenset()}
    maximal = [
        f for f in faces if not any(f < other for other in faces)
    ]
    short = [f for f in maximal if len(f) != n]
    if short:
        raise PurityFailure(
            "maximal faces of sizes "
            f"{sorted({len(f) for f in short})} found, expected {n}; the "
            "graph is not modeled on the expected local chart"
        )
    facet_vertex = {}
    for f in maximal:
        verts = table[f]
        if len(verts) != 1:
            raise AssumptionViolation(
                f"hyperplanes {sorted(f)} meet in {len(verts)} vertices; "
                "facets must correspond to single vertices",
                assumption=2,
            )
        (facet_vertex[f],) = verts
    if len(maximal) != len(g.vertices):
        raise AssumptionViolation(
            f"{len(maximal)} facets for {len(g.vertices)} graph vertices",
            assumption=2,
        )
    facets = sorted(maximal, key=lambda f: sorted(map(_name_key, f)))
    return SimplicialComplex(names, faces, facets, facet_vertex, n - 1)


def _subsets(s):
    items = sorted(s)
    out = [frozenset()]
    for x in items:
        out += [f | {x} for f in out]
    return out


def _minimal_new_faces(prior_facets, sigma):
    new = [
        f
        for f in _subsets(sigma)
        if not any(f <= tau for tau in prior_facets)
    ]
    minimal = [
        f for f in new if not any(other < f for other in new)
    ]
    return new, minimal


def find_shelling(
    complex_: SimplicialComplex, order=None, budget=None
) -> ShellingData:
    """A shelling order with its minimal new faces.

    With ``order`` given, that exact facet order is verified.  Otherwise a
    backtracking search runs with greedy preference for facets glued along
    a single ridge, deterministic tie-breaking, and a node budget taken
    from GKM_SEARCH_BUDGET when not passed explicitly.
    """
    facets = list(complex_.facets)
    if order is not None:
        order = [frozenset(f) for f in order]
        if sorted(map(sorted, order)) != sorted(map(sorted, facets)):
            raise GkmError("proposed order is not a permutation of the facets")
        mus = []
        for j, sigma in enumerate(order):
            _, minimal = _minimal_new_faces(order[:j], sigma)
            if len(minimal) != 1:
                raise NotShellable(
                    f"facet {sorted(sigma)} at position {j + 1} has "
                    f"{len(minimal)} minimal new faces"
                )
            mus.append(minimal[0])
        return ShellingData(order, mus)
    if budget is None:
        budget = int(os.environ.get("GKM_SEARCH_BUDGET", DEFAULT_SEARCH_BUDGET))
    nodes = 0
    dead = set()
    prefix = []
    mus = []

    def extend():
        nonlocal nodes
        if len(prefix) == len(facets):
            return True
        state = frozenset(prefix)
        if state in dead:
            return False
        nodes += 1
        if nodes > budget:
            raise NotShellable(
                f"search budget of {budget} nodes exhausted",
                budget_exhausted=True,
            )
        candidates = []
        for f in facets:
            if f in state:
                continue
            _, minimal = _minimal_new_faces(prefix, f)
            if len(minimal) == 1:
                candidates.append((len(minimal[0]), sorted(f), f, minimal[0]))
        for _, _, f, mu in sorted(candidates, key=lambda c: (c[0], c[1])):
            prefix.append(f)
            mus.append(mu)
            if extend():
                return True
            prefix.pop()
            mus.pop()
        dead.add(state)
        return False

    if not extend():
        raise NotShellable("exhaustive search found no shelling order")
    return ShellingData(list(prefix), list(mus))


def klm_canonical_order(names):
    """The canonical facet order for the three-direction arrangement
    family (X rows with Y then Z columns, then Y rows with Z columns)."""
    xs = sorted((n for n in names if n.startswith("X")), key=_name_key)
    ys = sorted((n for n in names if n.startswith("Y")), key=_name_key)
    zs = sorted((n for n in names if n.startswith("Z")), key=_name_key)
    if not (xs and ys and zs) or len(xs) + len(ys) + len(zs) != len(names):
        return None
    order = []
    for x in xs:
        order += [frozenset((x, y)) for y in ys]
        order += [frozenset((x, z)) for z in zs]
    for y in ys:
        order += [frozenset((y, z)) for z in zs]
    return order


# -- characteristic functions ---------------------------------------------------


def characteristic_function(g: GkmGraph, hyperplane, halfspace) -> tuple:
    """The covector pairing to 1 with the halfspace normal and to 0 with
    the hyperplane's own labels, checked at every vertex."""
    n = g.rank
    x = g.residual
    lam = None
    for p in sorted(hyperplane.vertices):
        in_l = [d for d in g.darts_at(p) if d in hyperplane.dart_ids]
        reps = []
        used = set()
        for d in in_l:
            if d in used:
                continue
            partner = next(
                o
                for o in in_l
                if o != d and g.axial(o) == vec_sub(x, g.axial(d))
            )
            used.add(d)
            used.add(partner)
            reps.append(d)
        normal = halfspace.normals.get(p)
        if normal is None:
            raise GkmError(
                f"vertex {p!r} is not a boundary vertex of the halfspace"
            )
        rows = [list(g.axial(d)[:-1]) for d in reps]
        rows.append(list(g.axial(normal)[:-1]))
        rhs = [0] * (n - 1) + [1]
        sol = solve_integer(rows, rhs)
        if sol is None:
            raise InconsistentLambda(
                f"no covector solves the duality system at {p!r}"
            )
        if lam is None:
            lam = sol
        elif lam != sol:
            raise InconsistentLambda(
                f"characteristic covector differs between vertices: "
                f"{lam} at earlier vertices, {sol} at {p!r}"
            )
    return lam


# -- the assembled context -------------------------------------------------------


@dataclass
class ShellingContext:
    graph: GkmGraph
    names: list  # hyperplane names in generator order
    complex: SimplicialComplex
    shelling: ShellingData
    lambdas: dict  # name -> covector
    taus: dict  # name -> forgetful Thom class (CohomologyClass)
    orientation: dict  # name -> recorded normal dart of the positive side
    min_nonfaces: list  # minimal non-faces: monomial ideal generators

    @property
    def ngens(self):
        return len(self.names)

    def gen_index(self, name):
        return self.names.index(name)

    def facet_point(self, facet):
        return self.complex.facet_vertex[facet]

    def monomial_poly(self, names):
        mono = [0] * self.ngens
        for n in names:
            mono[self.gen_index(n)] += 1
        return IntPolynomial(self.ngens, {tuple(mono): 1})

    def localize_at(self, poly: IntPolynomial, vertex) -> IntPolynomial:
        images = [self.taus[n].values[vertex] for n in self.names]
        return poly.substitute(images)

    def lift_coefficient(self, coeff: IntPolynomial) -> IntPolynomial:
        """Image of an H^*(BT^n) element inside the presentation ring,
        via u = sum <u, lambda(L)> L."""
        images = []
        for j in range(self.graph.rank):
            entries = {}
            for i, name in enumerate(self.names):
                c = self.lambdas[name][j]
                if c:
                    mono = tuple(
                        int(t == i) for t in range(self.ngens)
                    )
                    entries[mono] = c
            images.append(IntPolynomial(self.ngens, entries))
        return coeff.substitute(images)

    def reduce_mod_ideal(self, poly: IntPolynomial) -> IntPolynomial:
        keep = {}
        for mono, c in poly.terms.items():
            support = {
                self.names[i] for i, e in enumerate(mono) if e
            }
            if any(f <= support for f in self.min_nonfaces):
                continue
            keep[mono] = c
        return IntPolynomial(self.ngens, keep)

    @cached_property
    def localizations(self) -> FacetLocalizations:
        """The localization maps of the facet points, built on first use."""
        return FacetLocalizations(self)


class FacetLocalizations:
    """Localization at the facet points, in shelling order, in the n
    equivariant variables.

    ``images[k]`` maps each generator index whose Thom value at the k-th
    facet point is nonzero to that value.  Building it checks the lift
    identity sum_L lambda(L)_j tau_L(p) = e_j at every point, which is
    what makes a_i * x_{mu_i} localize to a_i * x_{mu_i}(p).
    """

    def __init__(self, ctx: ShellingContext):
        n = ctx.graph.rank
        self.nvars = n
        self.points = [ctx.facet_point(sigma) for sigma in ctx.shelling.order]
        self.images = []
        for p in self.points:
            images = {}
            for g, name in enumerate(ctx.names):
                value = ctx.taus[name].values[p]
                if not value.is_zero():
                    images[g] = value
            for j in range(n):
                total = IntPolynomial.zero(n)
                for g, value in images.items():
                    total = total + ctx.lambdas[ctx.names[g]][j] * value
                if total != IntPolynomial.variable(n, j):
                    raise InconsistentLambda(
                        f"the characteristic covectors do not lift e{j + 1} "
                        f"at {p!r}: sum of lambda_{j + 1}(L) tau_L is "
                        f"{total.to_string(coords_varnames(n, False))}"
                    )
            self.images.append(images)
        basis = module_basis(ctx)
        self.mus = [tuple(ctx.gen_index(name) for name in mu) for mu in basis]
        self.divisors = [
            [ctx.taus[name].values[p].linear_coeffs() for name in mu]
            for p, mu in zip(self.points, basis)
        ]
        # the facets containing mu_i: in a shelling, i and some later ones
        self.carriers = [
            [
                k
                for k, images in enumerate(self.images)
                if all(g in images for g in mu)
            ]
            for mu in self.mus
        ]
        self._basis_values = {}

    def localize(self, poly: IntPolynomial, k) -> IntPolynomial:
        """rho at the k-th facet point; monomials with a generator that
        vanishes there are skipped."""
        images = self.images[k]
        out = IntPolynomial.zero(self.nvars)
        for mono, c in poly.terms.items():
            term = IntPolynomial.constant(self.nvars, c)
            for g, e in enumerate(mono):
                if e:
                    if g not in images:
                        break
                    term = term * images[g] ** e
            else:
                out = out + term
        return out

    def basis_value(self, i, k) -> IntPolynomial:
        """x_{mu_i} at the k-th facet point, for k among its carriers."""
        key = (i, k)
        value = self._basis_values.get(key)
        if value is None:
            value = IntPolynomial.constant(self.nvars, 1)
            for g in self.mus[i]:
                value = value * self.images[k][g]
            self._basis_values[key] = value
        return value


def shelling_context(g: GkmGraph, facet_order=None) -> ShellingContext:
    """Discover hyperplanes, fix orientations, find a shelling.

    Arrangement-generated graphs use the canonical facet order of the
    family (then verified); anything else goes through the search.
    """
    hyperplanes = all_hyperplanes(g)
    names = sorted((h.name for h in hyperplanes), key=_name_key)
    by_name = {h.name: h for h in hyperplanes}
    complex_ = build_complex(g, hyperplanes)
    if facet_order is None and g.meta.get("hyperplane_names"):
        facet_order = klm_canonical_order(names)
        if facet_order is not None and sorted(map(sorted, facet_order)) != sorted(
            map(sorted, complex_.facets)
        ):
            facet_order = None
    shelling = find_shelling(complex_, order=facet_order)
    lambdas = {}
    taus = {}
    orientation = {}
    for name in names:
        pos, _neg = choose_positive_halfspace(g, by_name[name])
        lambdas[name] = characteristic_function(g, by_name[name], pos)
        taus[name] = thom_class_forgetful(g, by_name[name], pos)
        first = sorted(pos.normals)[0]
        orientation[name] = pos.normals[first]
    min_nonfaces = minimal_empty_families(
        {h.name: h.vertices for h in hyperplanes}
    )
    return ShellingContext(
        g, names, complex_, shelling, lambdas, taus, orientation, min_nonfaces
    )


# -- module basis and expansion ---------------------------------------------------


def module_basis(ctx: ShellingContext):
    """The monomials x_{mu_i}, in shelling order; x_{mu_1} = 1."""
    return [tuple(sorted(mu, key=_name_key)) for mu in ctx.shelling.minimal_faces]


def basis_monomial_name(names_tuple):
    return "*".join(names_tuple) if names_tuple else "1"


@dataclass
class BasisExpansion:
    coefficients: dict  # basis index -> IntPolynomial in n variables

    def to_dict(self, ctx: ShellingContext, varnames):
        basis = module_basis(ctx)
        return {
            basis_monomial_name(basis[i]): c.to_string(varnames)
            for i, c in sorted(self.coefficients.items())
            if not c.is_zero()
        }


def express_in_basis(ctx: ShellingContext, poly: IntPolynomial) -> BasisExpansion:
    """Coefficients a_i with poly = sum a_i * x_{mu_i}.

    The input, reduced modulo the Stanley-Reisner ideal, is localized once
    at every facet point through the cached facet localizations; the
    expansion then runs on those localizations alone (see ``_expand``).
    """
    if poly.nvars != ctx.ngens:
        raise GkmError("polynomial is not in the hyperplane generators")
    r = ctx.reduce_mod_ideal(poly)
    maps = ctx.localizations
    locs = [maps.localize(r, k) for k in range(len(maps.points))]
    return _expand(maps, locs)


def _expand(maps: FacetLocalizations, locs) -> BasisExpansion:
    """Coefficients from the localizations ``locs`` of a ring element at
    the facet points, in shelling order (consumed).

    Down the shelling order: a_i is the exact quotient of locs[i] by the
    factors of x_{mu_i}(p_i), and a_i * x_{mu_i}(p_k) is subtracted at every
    facet k containing mu_i.  Every localization must end at zero
    (injectivity of localization), which is asserted.
    """
    coeffs = {}
    for i, num in enumerate(locs):
        if num.is_zero():
            continue
        a = divide_exact(num, maps.divisors[i])
        coeffs[i] = a
        for k in maps.carriers[i]:
            locs[k] = locs[k] - a * maps.basis_value(i, k)
    if any(not r.is_zero() for r in locs):
        raise InexactDivision(
            "expansion remainder does not localize to zero; the input "
            "is not in the ring or the shelling is invalid"
        )
    return BasisExpansion(coeffs)


# -- ordinary cohomology ------------------------------------------------------------


def ordinary_cohomology(ctx: ShellingContext):
    """Graded Z-basis (the x_{mu_i}) and the full structure-constant
    table, both equivariant and with the polynomial part killed."""
    basis = module_basis(ctx)
    maps = ctx.localizations
    zero = IntPolynomial.zero(ctx.graph.rank)
    degrees = [len(b) for b in basis]
    ranks = {}
    for d in degrees:
        ranks[d] = ranks.get(d, 0) + 1
    equivariant = {}
    ordinary = {}
    for i in range(len(basis)):
        for j in range(i, len(basis)):
            both = set(maps.carriers[i]).intersection(maps.carriers[j])
            expansion = _expand(
                maps,
                [
                    maps.basis_value(i, k) * maps.basis_value(j, k)
                    if k in both
                    else zero
                    for k in range(len(maps.points))
                ],
            )
            key = f"{basis_monomial_name(basis[i])}*{basis_monomial_name(basis[j])}"
            eq = {}
            ord_ = {}
            for idx, c in sorted(expansion.coefficients.items()):
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


def hilbert_rank(ctx: ShellingContext, k: int) -> int:
    """Predicted rank of the degree-2k forgetful piece from the free
    module structure with basis degrees |mu_i|."""
    n = ctx.graph.rank
    total = 0
    for mu in ctx.shelling.minimal_faces:
        d = k - len(mu)
        if d >= 0:
            total += comb(d + n - 1, n - 1)
    return total


def relation_for_hyperplane(ctx: ShellingContext, facet, name):
    """The linear relation rewriting a facet hyperplane in terms of the
    hyperplanes off the facet plus a polynomial-ring element.

    Returns ``(coeffs, u)`` with sum coeffs[L] * L = u in the ring, where
    coeffs[name] == 1 and the other hyperplanes of the facet are absent.
    """
    facet = frozenset(facet)
    if name not in facet:
        raise GkmError(f"{name!r} is not a vertex of the facet")
    if facet not in ctx.complex.facet_vertex:
        raise GkmError("not a facet of the hyperplane complex")
    p = ctx.facet_point(facet)
    u = ctx.taus[name].values[p].linear_coeffs()
    coeffs = {name: 1}
    for other in ctx.names:
        if other in facet:
            continue
        c = sum(a * b for a, b in zip(u, ctx.lambdas[other]))
        if c:
            coeffs[other] = c
    return coeffs, u
