"""Independent reference computations that only the tests use.

The runtime expands in facet coordinates and never substitutes, divides by
a linear form or inverts a matrix; these are the ring-path versions of
those steps, kept as oracles to check the fast paths against.  A
union-find over the dart list checks the graph search of
``graph.components``.  A halfspace pair re-validated at every vertex
checks the pair that ``halfspace_pair`` validates at the hyperplane.  The
solver's coefficient vectors turn into ``{vertex: IntPolynomial}``
classes and back, for the dict-based congruence check
``class_satisfies_congruences``.
"""

from gkmgraphs import intlinalg
from gkmgraphs.errors import (
    AssumptionOneViolation,
    DimensionError,
    InexactDivision,
)
from gkmgraphs.cohomology import CohomologyClass
from gkmgraphs.graph import components
from gkmgraphs.hyperplanes import (
    Halfspace,
    _excluded_pairs,
    _orientation_classes,
    _validate_pre_halfspace,
    thom_class,
)
from gkmgraphs.polynomials import IntPolynomial, graded_piece_basis


# -- solver classes as polynomials -------------------------------------------


def vector_to_class(g, vec, degree, forgetful=False) -> CohomologyClass:
    """The class with the solver's coefficient vector ``vec`` of the
    degree-``degree`` piece: one chunk per vertex, in ``g.vertices``
    order."""
    nvars = g.rank if forgetful else g.rank + 1
    monos = graded_piece_basis(nvars, degree)
    width = len(monos)
    return CohomologyClass(
        {
            v: IntPolynomial(
                nvars, dict(zip(monos, vec[i * width : (i + 1) * width]))
            )
            for i, v in enumerate(g.vertices)
        },
        nvars,
    )


def class_to_vector(cls, vertex_order, monos):
    """The coefficient vector of a class, the inverse of
    ``vector_to_class``."""
    return [
        cls.values[v].coefficient(m) for v in vertex_order for m in monos
    ]


# -- connected components --------------------------------------------------


def union_find_components(g, vertices, dart_ids=None):
    """``{vertex: smallest vertex of its component}`` of the subgraph on
    ``vertices``: every dart with both ends in ``vertices`` whose id and
    opposite are in ``dart_ids`` (any dart when None) joins its ends."""
    parent = {v: v for v in vertices}

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for d in g.darts.values():
        if d.source not in parent or d.target not in parent:
            continue
        if dart_ids is not None and not (
            d.id in dart_ids and d.opposite in dart_ids
        ):
            continue
        a, b = find(d.source), find(d.target)
        parent[max(a, b)] = min(a, b)
    return {v: find(v) for v in vertices}


# -- halfspace pairs ---------------------------------------------------------


def revalidated_halfspace_pair(g, hyperplane):
    """``hyperplanes.halfspace_pair`` with a full re-validation of each
    half: the pre-halfspace axioms at every vertex and every dart, and one
    scan of the components of Gamma - L per component root."""
    excluded = _excluded_pairs(g, hyperplane)
    color = _orientation_classes(g, hyperplane, excluded)
    comp = components(g, set(g.vertices) - hyperplane.vertices)
    side_of_comp = {}
    for v in sorted(excluded):
        for d in excluded[v]:
            t = g.darts[d].target
            if t is None or t in hyperplane.vertices:
                continue
            root = comp[t]
            prev = side_of_comp.get(root)
            if prev is not None and prev != color[d]:
                raise AssumptionOneViolation(
                    "a component outside the hyperplane is reachable from "
                    "both normal orientations",
                    hyperplane=hyperplane.name,
                    check="component_sides",
                )
            side_of_comp[root] = color[d]
    halves = []
    for side in (0, 1):
        verts = set(hyperplane.vertices)
        darts = set(hyperplane.dart_ids)
        normals = {}
        for v in excluded:
            for d in excluded[v]:
                if color[d] == side:
                    darts.add(d)
                else:
                    normals[v] = d
        for root, s in side_of_comp.items():
            if s != side:
                continue
            for v, r in comp.items():
                if r == root:
                    verts.add(v)
                    darts.update(g.darts_at(v))
        h = Halfspace(hyperplane, frozenset(verts), frozenset(darts), normals)
        _validate_pre_halfspace(g, h)
        if len(set(components(g, h.vertices, h.dart_ids).values())) > 1:
            raise AssumptionOneViolation(
                "candidate halfspace is not connected",
                hyperplane=hyperplane.name,
                check="halfspace_connected",
            )
        halves.append(h)
    a, b = halves
    if (a.vertices & b.vertices) != hyperplane.vertices or (
        a.dart_ids & b.dart_ids
    ) != hyperplane.dart_ids:
        raise AssumptionOneViolation(
            "halfspace pair does not intersect exactly in the hyperplane",
            hyperplane=hyperplane.name,
            check="intersection",
        )
    if (a.vertices | b.vertices) != set(g.vertices) or (
        a.dart_ids | b.dart_ids
    ) != set(g.darts):
        raise AssumptionOneViolation(
            "halfspace pair does not cover the graph",
            hyperplane=hyperplane.name,
            check="cover",
        )
    ta, tb = thom_class(g, a), thom_class(g, b)
    x = g.residual
    for v in g.vertices:
        if tuple(p + q for p, q in zip(ta[v], tb[v])) != x:
            raise AssumptionOneViolation(
                "Thom classes of the pair do not sum to the residual class",
                hyperplane=hyperplane.name,
                check="thom_sum",
            )
    halves.sort(key=Halfspace.sort_key)
    return halves[0], halves[1]


# -- exact division and unimodular inverses -----------------------------------


def unimodular_inverse(u):
    """Inverse of a unimodular integer matrix (det = +-1)."""
    n = len(u)
    h, t = intlinalg.hermite_normal_form([list(r) for r in u], transform=True)
    if h != [[int(i == j) for j in range(n)] for i in range(n)]:
        raise DimensionError("matrix is not unimodular")
    return t


def divide_exact_by_linear(poly: IntPolynomial, coeffs):
    """Exact quotient poly / <linear form>, or None when not divisible.

    A unimodular change of coordinates sends the (primitive part of the)
    linear form to the first variable, where divisibility is a per-monomial
    check, and the quotient is mapped back.
    """
    n = poly.nvars
    if len(coeffs) != n:
        raise DimensionError("linear form has the wrong arity")
    if all(c == 0 for c in coeffs):
        raise ValueError("division by the zero form")
    if poly.is_zero():
        return IntPolynomial.zero(n)
    h, u = intlinalg.hermite_normal_form([[c] for c in coeffs], transform=True)
    content = h[0][0]
    # substitution t_j = sum_i u[i][j] s_i turns the form into content * s_1
    fwd = [
        IntPolynomial.linear_form([u[i][j] for i in range(n)]) for j in range(n)
    ]
    quotient_terms = {}
    for mono, coeff in poly.substitute(fwd).terms.items():
        if mono[0] == 0 or coeff % content != 0:
            return None
        quotient_terms[(mono[0] - 1,) + mono[1:]] = coeff // content
    uinv = unimodular_inverse(u)
    back = [
        IntPolynomial.linear_form([uinv[i][j] for i in range(n)])
        for j in range(n)
    ]
    return IntPolynomial(n, quotient_terms).substitute(back)


def divide_exact(poly: IntPolynomial, linear_factors):
    """Divide by a product of linear forms, raising when not exact."""
    out = poly
    for coeffs in linear_factors:
        nxt = divide_exact_by_linear(out, coeffs)
        if nxt is None:
            raise InexactDivision(
                f"{poly.to_string()} is not divisible by the linear form {coeffs}"
            )
        out = nxt
    return out


# -- the ring path of a shelling context --------------------------------------


def monomial_poly(ctx, names):
    """The monomial of the named generators in the ring of a context."""
    mono = [0] * ctx.ngens
    for n in names:
        mono[ctx.gen_index(n)] += 1
    return IntPolynomial(ctx.ngens, {tuple(mono): 1})


def localize_at(ctx, poly: IntPolynomial, vertex) -> IntPolynomial:
    """A ring element at a vertex, in e: every generator replaced by its
    Thom value there."""
    return poly.substitute(
        [IntPolynomial.linear_form(ctx.taus[n][vertex]) for n in ctx.names]
    )


def lift_coefficient(ctx, coeff: IntPolynomial) -> IntPolynomial:
    """Image of an H^*(BT^n) element inside the presentation ring, via
    u = sum <u, lambda(L)> L."""
    images = []
    for j in range(ctx.graph.rank):
        entries = {}
        for i, name in enumerate(ctx.names):
            c = ctx.lambdas[name][j]
            if c:
                entries[tuple(int(t == i) for t in range(ctx.ngens))] = c
        images.append(IntPolynomial(ctx.ngens, entries))
    return coeff.substitute(images)


def expand_by_division(ctx, poly: IntPolynomial) -> dict:
    """The coefficients a_i of poly = sum a_i x_{mu_i}, found in e: down the
    shelling order, a_i is the exact quotient of the localization at the
    i-th facet point by the Thom values that make up x_{mu_i} there."""
    points = [ctx.facet_point(sigma) for sigma in ctx.shelling.order]
    mus = ctx.shelling.minimal_faces
    locs = [localize_at(ctx, poly, p) for p in points]
    coeffs = {}
    for i, p in enumerate(points):
        if locs[i].is_zero():
            continue
        a = divide_exact(locs[i], [ctx.taus[name][p] for name in mus[i]])
        coeffs[i] = a
        x_mu = monomial_poly(ctx, mus[i])
        for k, q in enumerate(points):
            locs[k] = locs[k] - a * localize_at(ctx, x_mu, q)
    assert all(loc.is_zero() for loc in locs)
    return coeffs
