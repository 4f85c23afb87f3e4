"""Independent reference computations that only the tests use.

The runtime expands in facet coordinates and never substitutes, divides by
a linear form or inverts a matrix; these are the ring-path versions of
those steps, kept as oracles to check the fast paths against.  A
union-find over the dart list checks the graph search of
``graph.components``.  A halfspace pair re-validated at every vertex
checks the pair that ``halfspace_pair`` validates at the hyperplane.

The runtime holds a class as a coefficient vector (the solver) or as its
``{vertex: vector}`` of lattice vectors (the degree-2 generators of the
presentation rings).  Here a class is a :class:`CohomologyClass`, a
``{vertex: IntPolynomial}`` dictionary with pointwise sums and
products, checked against the congruences by
``class_satisfies_congruences``; the solver's vectors and the rings'
generators turn into such classes and back.
"""

from gkmgraphs import intlinalg
from gkmgraphs.cohomology import _divides, _label_map
from gkmgraphs.errors import (
    AssumptionOneViolation,
    CongruenceFailure,
    DimensionError,
    InexactDivision,
)
from gkmgraphs.graph import components
from gkmgraphs.hyperplanes import (
    Halfspace,
    _excluded_pairs,
    _orientation_classes,
    _validate_pre_halfspace,
    thom_class,
)
from gkmgraphs.polynomials import (
    IntPolynomial,
    graded_piece_basis,
    linear_terms,
)


def linear_form(coeffs) -> IntPolynomial:
    """The degree-1 polynomial with the given coefficient vector."""
    return IntPolynomial(len(coeffs), linear_terms(coeffs))


def lattice_rank(vectors) -> int:
    """Rank of the subgroup of Z^n generated by the given vectors: the rank
    of the matrix with these rows."""
    rows = list(vectors)
    intlinalg._check_rect(rows)
    return intlinalg.rank(intlinalg._sparse(rows), len(rows[0])) if rows else 0


# -- classes as polynomials ------------------------------------------------


class CohomologyClass:
    def __init__(self, values, nvars):
        self.values = values  # vertex -> IntPolynomial
        self.nvars = nvars

    def __getitem__(self, v):
        return self.values[v]

    def __mul__(self, other):
        if isinstance(other, CohomologyClass):
            return CohomologyClass(
                {v: self.values[v] * other.values[v] for v in self.values},
                self.nvars,
            )
        return CohomologyClass(
            {v: self.values[v] * other for v in self.values}, self.nvars
        )

    __rmul__ = __mul__

    def __add__(self, other):
        return CohomologyClass(
            {v: self.values[v] + other.values[v] for v in self.values},
            self.nvars,
        )

    def __sub__(self, other):
        return CohomologyClass(
            {v: self.values[v] - other.values[v] for v in self.values},
            self.nvars,
        )

    def __eq__(self, other):
        return (
            isinstance(other, CohomologyClass) and self.values == other.values
        )

    def is_zero(self):
        return all(p.is_zero() for p in self.values.values())

    def homogeneous_component(self, d):
        return CohomologyClass(
            {
                v: IntPolynomial(
                    p.nvars, {m: c for m, c in p.terms.items() if sum(m) == d}
                )
                for v, p in self.values.items()
            },
            self.nvars,
        )

    def to_strings(self, varnames=None):
        return {
            v: p.to_string(varnames) for v, p in sorted(self.values.items())
        }


def constant_class(vertices, nvars, c=1) -> CohomologyClass:
    return CohomologyClass(
        {v: IntPolynomial.constant(nvars, c) for v in vertices}, nvars
    )


def vector_class(values) -> CohomologyClass:
    """Degree-2 class from vertexwise lattice vectors, in as many variables
    as the vectors have coordinates."""
    nvars = len(next(iter(values.values())))
    return CohomologyClass(
        {v: linear_form(a) for v, a in values.items()}, nvars
    )


def chi_class(g) -> CohomologyClass:
    return vector_class({v: g.residual for v in g.vertices})


def forgetful_thom_class(g, hyperplane, h):
    """The x-forgetful Thom class tau_L built from its definition: 0 off
    the hyperplane L and, on L, the normal label of ``h``, a halfspace of
    L, without its residual coordinate.  Checked against every congruence
    with the labels cut to n coordinates."""
    n = g.rank
    values = {}
    for v in g.vertices:
        if v not in hyperplane.vertices:
            values[v] = (0,) * n
        elif v in h.normals:
            values[v] = g.axial(h.normals[v])[:n]
        else:
            raise CongruenceFailure(
                f"vertex {v!r} of the hyperplane is not a boundary vertex "
                "of the chosen halfspace"
            )
    if not class_satisfies_congruences(g, vector_class(values)):
        raise CongruenceFailure("the forgetful Thom class fails a congruence")
    return values


def evaluate_generator(ring, monomial) -> CohomologyClass:
    """Image of a formal generator monomial of a presentation ring,
    computed pointwise.  ``monomial`` maps generator names to exponents."""
    some = next(iter(ring.values.values()))
    out = constant_class(some, len(next(iter(some.values()))))
    for name, exp in sorted(monomial.items()):
        for _ in range(exp):
            out = out * vector_class(ring.values[name])
    return out


def reduced_relations(ring, forgetful):
    """The variables and relations of a presentation ring, each relation
    the ``{exponents: coefficient}`` terms of the product of its family:
    Z[G-tilde] as it is, and Z[G] over X, H_1..H_m with each Hbar_i
    replaced by X - H_i, read off the generator names."""
    if forgetful:
        names = list(ring.generators)
    else:
        names = [n for n in ring.generators if not n.startswith("Hbar")]
    nv = len(names)
    images = {n: IntPolynomial.variable(nv, i) for i, n in enumerate(names)}
    if not forgetful:
        for n in ring.generators[len(names) :]:
            images[n] = images["X"] - images["H" + n[len("Hbar") :]]
    rels = []
    for fam in ring.monomial_relations:
        p = IntPolynomial.constant(nv, 1)
        for name in fam:
            p = p * images[name]
        rels.append(p.terms)
    return names, rels


def _label_divides(maps, alpha, terms) -> bool:
    """Does the linear form ``alpha`` divide the polynomial with the given
    ``{monomial: coefficient}`` terms?  It does when it divides each
    homogeneous component."""
    components = {}
    for m, c in terms.items():
        components.setdefault(sum(m), {})[m] = c
    for d, part in components.items():
        lmap = _label_map(maps, alpha, d)
        monos = graded_piece_basis(len(alpha), d)
        if not _divides(lmap, [part.get(m, 0) for m in monos]):
            return False
    return True


def class_satisfies_congruences(g, cls: CohomologyClass) -> bool:
    """Does every edge label divide the difference of the values across
    the edge?  The labels are cut to the class's ``nvars``, so a forgetful
    class meets the labels without their residual coordinate.  The label
    maps are kept in the graph's ``label_maps``."""
    maps = g.label_maps
    for eid in g.canonical_edges():
        e = g.darts[eid]
        here, there = cls[e.source].terms, cls[e.target].terms
        if here == there:
            continue
        diff = dict(here)
        for m, c in there.items():
            diff[m] = diff.get(m, 0) - c
        if not _label_divides(maps, e.axial[: cls.nvars], diff):
            return False
    return True


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
    return [cls.values[v].terms.get(m, 0) for v in vertex_order for m in monos]


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
        return IntPolynomial(n)
    h, u = intlinalg.hermite_normal_form([[c] for c in coeffs], transform=True)
    content = h[0][0]
    # substitution t_j = sum_i u[i][j] s_i turns the form into content * s_1
    fwd = [
        linear_form([u[i][j] for i in range(n)]) for j in range(n)
    ]
    quotient_terms = {}
    for mono, coeff in poly.substitute(fwd).terms.items():
        if mono[0] == 0 or coeff % content != 0:
            return None
        quotient_terms[(mono[0] - 1,) + mono[1:]] = coeff // content
    uinv = unimodular_inverse(u)
    back = [
        linear_form([uinv[i][j] for i in range(n)])
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
        [linear_form(ctx.taus[n][vertex]) for n in ctx.names]
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
