"""Independent reference computations that only the tests use.

The runtime expands in facet coordinates and never substitutes or divides
by a linear form; these are the ring-path versions of those steps, kept
as oracles to check the fast paths against.  An integer solver by forward
substitution (``solve_integer``) solves the pair, opposite and congruence
conditions on the residual coefficients, rebuilt from a generated graph
(``residual_system``), and so checks the residuals that ``gen klm``
transports along its connection.  A union-find over the dart list checks the graph search of
``graph.components``.  The 2 x 2 and 3 x 3 minors of the labels at every
vertex (``independence_offenders``) check the independence axioms that
``validate_axial`` proves at the vertices modeled on T*C^n and decides by
rank at the others.  A halfspace pair re-validated at every vertex,
against the paper's pre-halfspace definition
(``validate_pre_halfspace``), checks the pair that ``halfspace_pair``
builds from what the hyperplane closure proved, with the normal pair at
each vertex looked up in the graph's pair table and the normal darts
coloured by sweeps of the hyperplane's edges repeated until nothing
changes, where the runtime colours them in one traversal;
the paper's opposite pre-halfspace is built directly from one half
(``opposite_side``).  The hyperplane complex built from the whole family
table, every subset of the names through each vertex, checks the facets
that ``build_complex`` takes from the names through each vertex alone,
and the minimal new faces found among every subset of a facet, along a
whole order (``shelling_by_subsets``), check the restrictions that
``find_shelling`` tests by bitmasks.  The faces of that
complex, counted by size from the names through each vertex
(``f_vector``), give the graded ranks of its Stanley-Reisner ring in
closed form (``stanley_reisner_rank``); the degrees of a shelling's
minimal new faces give the ranks of the free module it spans
(``hilbert_rank``), and ``relation_for_hyperplane`` writes a facet
hyperplane by the others.  Divisibility by a label is decided here by
the columns of its map, with a modulus per image coefficient
(``_divides``), where the solver reads the map's rows.

Some checks the runtime no longer makes, as the axioms that
``validate_axial`` checks at the door prove them; they are kept here, to
show that they hold on every valid graph the tests generate.  The
connection maps pairs to pairs (``pairs_to_pairs``); a closure pushed
across every edge reaches each vertex with one dart set
(``closure_across_every_edge``); the maximal faces of the hyperplane
complex all have n names (``complex_by_table``); and the matrix T_p of
the forgetful Thom values at a vertex is unimodular
(``tau_matrix_is_unimodular``).  Each raises ``OracleFailure`` or returns
False where its statement fails.

The runtime holds a class as a coefficient vector (the solver) or as its
``{vertex: vector}`` of lattice vectors (the degree-2 generators of the
presentation rings).  Here a class is a :class:`CohomologyClass`, a
``{vertex: IntPolynomial}`` dictionary with pointwise sums and
products, checked against the congruences by
``class_satisfies_congruences``; the solver's vectors and the rings'
generators turn into such classes and back.
"""

from collections import Counter
from itertools import combinations
from math import comb

from gkmgraphs import intlinalg
from gkmgraphs.cohomology import _label_map
from gkmgraphs.errors import (
    AssumptionOneViolation,
    AssumptionViolation,
    CongruenceFailure,
    DimensionError,
    GkmError,
    InexactDivision,
)
from gkmgraphs.graph import components
from gkmgraphs.hyperplanes import (
    Arrangement,
    Halfspace,
    Hyperplane,
    _name_key,
    _subsets,
    hyperplane_through,
    nonempty_intersection_table,
    thom_class,
)
from gkmgraphs.intlinalg import congruent
from gkmgraphs.polynomials import (
    IntPolynomial,
    graded_piece_basis,
    linear_terms,
)


class OracleFailure(GkmError):
    """A statement that the runtime proves from the axioms of
    ``validate_axial``, found false by an oracle here."""


def linear_form(coeffs) -> IntPolynomial:
    """The degree-1 polynomial with the given coefficient vector."""
    return IntPolynomial(len(coeffs), linear_terms(coeffs))


def lattice_rank(vectors) -> int:
    """Rank of the subgroup of Z^n generated by the given vectors: the rank
    of the matrix with these rows."""
    rows = list(vectors)
    intlinalg._check_rect(rows)
    return intlinalg.rank(intlinalg._sparse(rows), len(rows[0])) if rows else 0


def hnf_nonzero_rows(rows):
    """The nonzero rows of the Hermite form of ``rows``: the Hermite basis
    of the lattice they span."""
    return [r for r in intlinalg.hermite_normal_form(rows) if any(r)]


def solve_integer(rows, rhs):
    """One integer solution z of M z = rhs, or None if none exists.

    The transpose is brought to Hermite form H = U M^T, so M z = rhs with
    z = U^T y becomes H^T y = rhs; H is in row echelon form, so H^T is
    solved by forward substitution on its pivot columns."""
    rows = [list(r) for r in rows]
    if not rows:
        return ()
    intlinalg._check_rect(rows)
    n = len(rows[0])
    h = intlinalg._sparse(zip(*rows))
    u = intlinalg._identity(n)
    order, r = intlinalg._echelon(h, len(rows), u)
    residual = list(rhs)
    z = [0] * n
    for i in order[:r]:
        row = h[i]
        col = min(row)
        y, rem = divmod(residual[col], row[col])
        if rem:
            return None
        if y:
            for j, a in row.items():
                residual[j] -= y * a
            for j, a in u[i].items():
                z[j] += y * a
    if any(residual):
        return None
    return tuple(z)


def residual_system(g, base):
    """The conditions on the residual (last) coefficients of the labels of
    ``g``, read from the graph alone, as rows ``{dart id: coefficient}``
    and their right-hand sides:

    - each pair of ``g.pairs`` sums to 1;
    - each edge dart and its opposite sum to 0;
    - across each edge e, each dart d and its image d' under
      ``g.connection`` differ by c times e, where the forgetful labels
      give c;
    - the darts at ``base`` whose forgetful labels are unit vectors are
      0, the local model e_i, x - e_i.
    """
    n = g.rank
    rows, rhs = [], []

    def row(entries, b):
        r = Counter()
        for did, c in entries:
            r[did] += c
        rows.append({did: c for did, c in r.items() if c})
        rhs.append(b)

    def forget(did):
        return g.axial(did)[:n]

    for pairs in g.pairs.values():
        for a, b in pairs:
            row([(a, 1), (b, 1)], 1)
    for eid in g.edge_dart_ids():
        row([(eid, 1), (g.darts[eid].opposite, 1)], 0)
        for d, image in g.connection[eid].items():
            c = intlinalg.is_multiple_of(
                intlinalg.vec_sub(forget(d), forget(image)), forget(eid)
            )
            row([(d, 1), (image, -1), (eid, -c)], 0)
    units = {tuple(int(i == j) for j in range(n)) for i in range(n)}
    for did in g.darts_at(base):
        if forget(did) in units:
            row([(did, 1)], 0)
    return rows, rhs


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


def _divides(lmap, monos, diff) -> bool:
    """Does the label of ``lmap`` divide the polynomial with the
    coefficient vector ``diff`` over the monomials ``monos``?  The map's
    columns send ``diff`` to its coefficients in s: each one free of s_1
    must be 0, and each other one a multiple of the content (see
    ``_label_map``).  The solver reads the same test off the map's rows."""
    image = {}
    for i, d in enumerate(diff):
        if d:
            for k, c in lmap.columns[i].items():
                image[k] = image.get(k, 0) + d * c
    content = lmap.content
    for k, c in image.items():
        m = content if monos[k][0] and content else 0
        if c % m if m else c:
            return False
    return True


def _label_divides(alpha, terms) -> bool:
    """Does the linear form ``alpha`` divide the polynomial with the given
    ``{monomial: coefficient}`` terms?  It does when it divides each
    homogeneous component."""
    components = {}
    for m, c in terms.items():
        components.setdefault(sum(m), {})[m] = c
    for d, part in components.items():
        lmap = _label_map(alpha, d)
        monos = graded_piece_basis(len(alpha), d)
        if not _divides(lmap, monos, [part.get(m, 0) for m in monos]):
            return False
    return True


def class_satisfies_congruences(g, cls: CohomologyClass) -> bool:
    """Does every edge label divide the difference of the values across
    the edge?  The labels are cut to the class's ``nvars``, so a forgetful
    class meets the labels without their residual coordinate."""
    for eid in g.canonical_edges():
        e = g.darts[eid]
        here, there = cls[e.source].terms, cls[e.target].terms
        if here == there:
            continue
        diff = dict(here)
        for m, c in there.items():
            diff[m] = diff.get(m, 0) - c
        if not _label_divides(e.axial[: cls.nvars], diff):
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


# -- independence of labels ------------------------------------------------


def _first_nonzero(vector):
    return next((i for i, a in enumerate(vector) if a), None)


def independent_by_minors(u, *rest) -> bool:
    """Are two or three integer vectors linearly independent?

    Decided by 2 x 2 and 3 x 3 minors through pivot columns, which is
    fraction-free elimination: with p the first nonzero column of u, the
    entries u_p v_j - v_p u_j are the 2 x 2 minors through column p, and
    v is independent of u when one of them is nonzero.  For three
    vectors, the same entries of v and of w form two rows whose 2 x 2
    minors through the pivot column q of the first are u_p times the
    3 x 3 minors through columns p and q.
    """
    p = _first_nonzero(u)
    if p is None:
        return False
    a = u[p]
    if len(rest) == 1:
        (v,) = rest
        return any(a * y != v[p] * x for x, y in zip(u, v))
    v, w = ([a * y - r[p] * x for x, y in zip(u, r)] for r in rest)
    q = _first_nonzero(v)
    return q is not None and any(v[q] * z != w[q] * y for y, z in zip(v, w))


def independence_offenders(g):
    """``{check: offenders}`` of ``pairwise_independence`` and
    ``three_independence``, every pair and triple of darts at every
    vertex tested by its minors, with no vertex taken as modeled."""
    return {
        name: [
            f"{v}:{','.join(subset)}"
            for v in g.vertices
            for subset in combinations(g.darts_at(v), size)
            if not independent_by_minors(*(g.axial(d) for d in subset))
        ]
        for name, size in (
            ("pairwise_independence", 2),
            ("three_independence", 3),
        )
    }


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


# -- what the axioms prove ---------------------------------------------------


def pairs_to_pairs(g):
    """Raise OracleFailure unless the connection maps every pair of
    ``g.pairs`` at the source of an edge onto a pair at its target, which
    the ``graph`` module docstring proves from the independence axioms."""
    conn = g.connection
    for eid in g.edge_dart_ids():
        e = g.darts[eid]
        target_pairs = {frozenset(p) for p in g.pairs[e.target]}
        for a, b in g.pairs[e.source]:
            if frozenset((conn[eid][a], conn[eid][b])) not in target_pairs:
                raise OracleFailure(
                    f"connection across {eid!r} does not map the pair "
                    f"({a!r}, {b!r}) to a pair"
                )


def closure_across_every_edge(g, vertex, excluded_pair):
    """``hyperplanes.hyperplane_through`` with the dart set of each vertex
    pushed across every edge of the closure, not only the first that
    reaches its target, and raising OracleFailure when two edges bring a
    vertex two sets (the ``hyperplanes`` module docstring proves that they
    never do)."""
    table = {vertex: frozenset(g.darts_at(vertex)) - set(excluded_pair)}
    stack = [vertex]
    while stack:
        v = stack.pop()
        for eid in sorted(table[v]):
            q = g.darts[eid].target
            if q is None:
                continue
            image = frozenset(g.connection[eid][d] for d in table[v])
            if q not in table:
                table[q] = image
                stack.append(q)
            elif table[q] != image:
                raise OracleFailure(
                    f"connection closure is inconsistent at vertex {q!r}"
                )
    return Hyperplane(frozenset(table), frozenset().union(*table.values()), "")


def tau_matrix_is_unimodular(taus, names, p):
    """Is T_p, the matrix whose rows are the forgetful Thom values
    tau_L(p) of the hyperplanes ``names``, unimodular: is its Hermite
    form the identity?"""
    rows = [list(taus[name][p]) for name in sorted(names)]
    n = len(rows)
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    return intlinalg.hermite_normal_form(rows) == identity


# -- halfspace pairs ---------------------------------------------------------


def validate_pre_halfspace(g, h: Halfspace):
    """Raise AssumptionOneViolation unless ``h`` is a pre-halfspace, the
    paper's definition checked at every vertex and edge: each vertex keeps
    2n - 1 or 2n of its darts, every dart starts inside, one vertex is a
    boundary vertex, and across each edge, the connection restricted to
    the kept darts is a bijection (c1) or, from a boundary vertex to an
    interior one, an injection, with the boundary vertex's normal label
    congruent to x modulo the edge's label (c2)."""
    n = g.rank
    darts = h.dart_ids
    inside = {
        v: {d for d in g.darts_at(v) if d in darts} for v in sorted(h.vertices)
    }
    for v, kept in inside.items():
        if len(kept) not in (2 * n - 1, 2 * n):
            raise AssumptionOneViolation(
                f"vertex {v!r} keeps {len(kept)} darts, expected "
                f"{2 * n - 1} or {2 * n}",
                check="valence",
            )
    for did in darts:
        if g.darts[did].source not in h.vertices:
            raise AssumptionOneViolation(
                f"dart {did!r} has source outside the halfspace",
                check="dart_source",
            )
    if all(len(kept) == 2 * n for kept in inside.values()):
        raise AssumptionOneViolation(
            "pre-halfspace needs at least one boundary vertex",
            check="boundary_exists",
        )
    conn = g.connection
    x = g.residual
    for eid in sorted(darts):
        e = g.darts[eid]
        if e.is_leg or e.opposite not in darts:
            continue
        src_set, tgt_set = inside[e.source], inside[e.target]
        image = {conn[eid][d] for d in src_set}
        if len(src_set) == len(tgt_set):
            if image != tgt_set:
                raise AssumptionOneViolation(
                    f"restricted connection across {eid!r} is not a "
                    "bijection",
                    check="closure_c1",
                )
        elif len(src_set) < len(tgt_set):
            if not image <= tgt_set:
                raise AssumptionOneViolation(
                    f"restricted connection across {eid!r} is not "
                    "injective into the target darts",
                    check="closure_c2",
                )
            normal = h.normals.get(e.source)
            if normal is None or not congruent(g.axial(normal), x, e.axial):
                raise AssumptionOneViolation(
                    f"normal congruence fails across {eid!r}",
                    check="normal_congruence",
                )


def orientation_by_sweeps(g, hyperplane, excluded):
    """``hyperplanes._orientation_classes`` by repeated sweeps: every edge
    of L is swept again until no colour changes, checking the normal
    pair's image on each edge and, at the end, that the two darts at each
    vertex got different colours."""
    color = {}
    first = sorted(hyperplane.vertices)[0]
    color[excluded[first][0]] = 0
    color[excluded[first][1]] = 1
    conn = g.connection
    edges_in_l = [
        d
        for d in sorted(hyperplane.dart_ids)
        if not g.darts[d].is_leg and g.darts[d].opposite in hyperplane.dart_ids
        and g.darts[d].target in hyperplane.vertices
    ]
    changed = True
    while changed:
        changed = False
        for eid in edges_in_l:
            src, tgt = g.darts[eid].source, g.darts[eid].target
            for d in excluded[src]:
                img = conn[eid][d]
                if img not in excluded[tgt]:
                    raise AssumptionOneViolation(
                        f"connection image of normal dart {d!r} leaves the "
                        "normal pair",
                        check="normal_closure",
                    )
                if d in color:
                    if img in color:
                        if color[img] != color[d]:
                            raise AssumptionOneViolation(
                                "normal darts cannot be oriented "
                                "consistently",
                                check="orientation",
                            )
                    else:
                        color[img] = color[d]
                        changed = True
    missing = [
        d for v in excluded for d in excluded[v] if d not in color
    ]
    if missing:
        # L is connected, so propagation reaches every boundary vertex
        raise AssumptionOneViolation(
            "normal darts not reached by propagation; hyperplane "
            "is not connected",
            check="connectivity",
        )
    for v, (d1, d2) in excluded.items():
        if color[d1] == color[d2]:
            raise AssumptionOneViolation(
                f"both normal darts at {v!r} received the same orientation",
                check="orientation",
            )
    return color


def revalidated_halfspace_pair(g, hyperplane):
    """``hyperplanes.halfspace_pair`` with a full re-validation of each
    half: the pre-halfspace axioms at every vertex and every dart, and one
    scan of the components of Gamma - L per component root."""
    excluded = {}
    for v in sorted(hyperplane.vertices):
        extra = tuple(d for d in g.darts_at(v) if d not in hyperplane.dart_ids)
        if extra not in g.pairs[v]:
            raise AssumptionOneViolation(
                f"the darts at {v!r} off the hyperplane are not a pair",
                check="excluded_pair",
            )
        excluded[v] = extra
    color = orientation_by_sweeps(g, hyperplane, excluded)
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
        h = Halfspace(frozenset(verts), frozenset(darts), normals)
        validate_pre_halfspace(g, h)
        if len(set(components(g, h.vertices, h.dart_ids).values())) > 1:
            raise AssumptionOneViolation(
                "candidate halfspace is not connected",
                check="halfspace_connected",
            )
        halves.append(h)
    a, b = halves
    if (a.vertices & b.vertices) != hyperplane.vertices or (
        a.dart_ids & b.dart_ids
    ) != hyperplane.dart_ids:
        raise AssumptionOneViolation(
            "halfspace pair does not intersect exactly in the hyperplane",
            check="intersection",
        )
    if (a.vertices | b.vertices) != set(g.vertices) or (
        a.dart_ids | b.dart_ids
    ) != set(g.darts):
        raise AssumptionOneViolation(
            "halfspace pair does not cover the graph",
            check="cover",
        )
    ta, tb = thom_class(g, a), thom_class(g, b)
    x = g.residual
    for v in g.vertices:
        if tuple(p + q for p, q in zip(ta[v], tb[v])) != x:
            raise AssumptionOneViolation(
                "Thom classes of the pair do not sum to the residual class",
                check="thom_sum",
            )
    halves.sort(key=Halfspace.sort_key)
    return halves[0], halves[1]


def opposite_side(g, h: Halfspace) -> Halfspace:
    """The unique pre-halfspace I with H u I = Gamma and tau_H + tau_I =
    chi, built directly from H."""
    def partner(v, d):
        return next(b if a == d else a for a, b in g.pairs[v] if d in (a, b))

    boundary_planes = []
    normals = {}
    for v, nd in sorted(h.normals.items()):
        normals[v] = partner(v, nd)
        boundary_planes.append(hyperplane_through(g, v, (nd, normals[v])))
    verts = set(g.vertices) - set(h.vertices)
    darts = set(g.darts) - set(h.dart_ids)
    for plane in boundary_planes:
        verts |= plane.vertices
        darts |= plane.dart_ids
    out = Halfspace(frozenset(verts), frozenset(darts), normals)
    validate_pre_halfspace(g, out)
    return out


# -- the hyperplane complex by subset enumeration -----------------------------


def intersection(g, planes):
    """The common vertices of the hyperplanes ``planes`` and their common
    darts that start at one of them, as ``(vertices, dart_ids)``."""
    vertices = frozenset.intersection(*(h.vertices for h in planes))
    darts = frozenset.intersection(*(h.dart_ids for h in planes))
    return vertices, frozenset(d for d in darts if g.darts[d].source in vertices)


def complex_faces(arr):
    """Every face of the hyperplane complex, the empty face included: the
    families of names with a common vertex, from the whole family table."""
    return set(nonempty_intersection_table(arr.through)) | {frozenset()}


def f_vector(g):
    """``[f_-1, f_0, f_1, ...]``: the number of faces of the hyperplane
    complex of each size, the families of names with a common vertex,
    every subset of the names through each vertex."""
    faces = set()
    for names in Arrangement(g).through.values():
        for size in range(len(names) + 1):
            faces.update(map(frozenset, combinations(sorted(names), size)))
    sizes = Counter(map(len, faces))
    return [sizes[i] for i in range(max(sizes) + 1)]


def stanley_reisner_rank(f, k):
    """The rank of the degree-k piece of the Stanley-Reisner ring of a
    complex with f-vector ``f``: 1 at k = 0, and the sum of f_{i-1}
    C(k-1, i-1) over i for k >= 1 (Stanley, *Combinatorics and Commutative
    Algebra*, ch. II, Thm 1.4)."""
    if k == 0:
        return 1
    return sum(f[i] * comb(k - 1, i - 1) for i in range(1, len(f)))


def maximal_faces(faces):
    """The faces of a subset-closed family that no single name extends
    (the extended ones are the faces less one name)."""
    extended = {f - {name} for f in faces for name in f}
    return [f for f in faces if f not in extended]


def complex_by_table(arr):
    """``shelling.build_complex`` from the whole family table: its facets,
    in canonical order, and their vertices, as ``(facets,
    facet_vertex)``, with the same error where two vertices share a
    facet.  It also checks what the runtime takes from the pair table:
    that every maximal face has n names (purity) and that the facets are
    as many as the vertices, raising OracleFailure where either fails."""
    n = arr.graph.rank
    table = nonempty_intersection_table(arr.through)
    maximal = maximal_faces(set(table) | {frozenset()})
    short = [f for f in maximal if len(f) != n]
    if short:
        raise OracleFailure(
            "maximal faces of sizes "
            f"{sorted({len(f) for f in short})} found, expected {n}; the "
            "graph is not modeled on the expected local chart"
        )
    facets = sorted(maximal, key=lambda f: sorted(map(_name_key, f)))
    facet_vertex = {}
    for f in facets:
        verts = table[f]
        if len(verts) != 1:
            raise AssumptionViolation(
                f"hyperplanes {sorted(f)} meet in {len(verts)} vertices; "
                "facets must correspond to single vertices",
                assumption=2,
            )
        (facet_vertex[f],) = verts
    if len(facets) != len(arr.graph.vertices):
        raise OracleFailure(
            f"{len(facets)} facets for {len(arr.graph.vertices)} graph vertices"
        )
    return facets, facet_vertex


def minimal_new_faces_by_subsets(prior_facets, sigma):
    """The minimal subsets of ``sigma`` that lie in no prior facet, from
    the list of every subset."""
    new = [
        f
        for f in _subsets(sigma)
        if not any(f <= tau for tau in prior_facets)
    ]
    return [f for f in new if not any(other < f for other in new)]


def shelling_by_subsets(order):
    """The minimal new face of each facet of ``order``, found among every
    subset of the facet, or None when some facet has not exactly one, so
    that ``order`` is no shelling."""
    mus = []
    for j, sigma in enumerate(order):
        new = minimal_new_faces_by_subsets(order[:j], sigma)
        if len(new) != 1:
            return None
        mus.append(new[0])
    return mus


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


# -- the free module of a shelling context -----------------------------------


def hilbert_rank(ctx, k: int) -> int:
    """Predicted rank of the degree-2k forgetful piece from the free
    module structure with basis degrees |mu_i|."""
    n = ctx.graph.rank
    total = 0
    for mu in ctx.shelling.minimal_faces:
        d = k - len(mu)
        if d >= 0:
            total += comb(d + n - 1, n - 1)
    return total


def relation_for_hyperplane(ctx, facet, name):
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
    u = ctx.taus[name][ctx.complex.facet_vertex[facet]]
    coeffs = {name: 1}
    for other in ctx.names:
        if other in facet:
            continue
        c = sum(a * b for a, b in zip(u, ctx.lambdas[other]))
        if c:
            coeffs[other] = c
    return coeffs, u


# -- the ring path of a shelling context --------------------------------------


def monomial_poly(ctx, names):
    """The monomial of the named generators in the ring of a context."""
    mono = [0] * len(ctx.names)
    for n in names:
        mono[ctx.names.index(n)] += 1
    return IntPolynomial(len(ctx.names), {tuple(mono): 1})


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
                entries[tuple(int(t == i) for t in range(len(ctx.names)))] = c
        images.append(IntPolynomial(len(ctx.names), entries))
    return coeff.substitute(images)


def expand_by_division(ctx, poly: IntPolynomial) -> dict:
    """The coefficients a_i of poly = sum a_i x_{mu_i}, found in e: down the
    shelling order, a_i is the exact quotient of the localization at the
    i-th facet point by the Thom values that make up x_{mu_i} there."""
    points = [ctx.complex.facet_vertex[sigma] for sigma in ctx.shelling.order]
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
