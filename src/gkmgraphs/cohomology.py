"""Graph equivariant cohomology, three ways.

* a congruence-relation solver that computes each graded piece as the
  kernel of an exact integer linear system,
* presentation rings built from halfspaces/hyperplanes and their
  empty-intersection families, evaluated through Thom classes,
* and the graded-rank comparison between the two, which is what "verify
  the isomorphism" means at desk scale.

Classes are plain ``{vertex: IntPolynomial}`` dictionaries wrapped in
:class:`CohomologyClass`, and both theories run on the same
:class:`GkmGraph`.  A class's ``nvars`` selects its theory: n+1 variables
(e1..en, x) for the full theory, checked against the full labels, and n
variables for the x-forgetful one, checked against the labels with their
residual coordinate erased.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, prod
from typing import NamedTuple

from .errors import AssumptionViolation, CongruenceFailure, GkmError
from .graph import GkmGraph
from .hyperplanes import (
    AssumptionReport,
    _name_key,
    all_hyperplanes,
    check_assumptions,
    choose_positive_halfspace,
    forgetful_thom_class,
    minimal_empty_families,
    thom_class,
)
from .intlinalg import (
    hermite_normal_form,
    kernel_basis,
    rank,
    same_lattice,
)
from .polynomials import IntPolynomial, graded_piece_basis


@dataclass
class CohomologyClass:
    values: dict  # vertex -> IntPolynomial
    nvars: int

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
            {v: p.homogeneous_component(d) for v, p in self.values.items()},
            self.nvars,
        )

    def to_strings(self, varnames=None):
        return {
            v: p.to_string(varnames) for v, p in sorted(self.values.items())
        }


def _nvars(g: GkmGraph, forgetful: bool) -> int:
    """The variables of a theory's classes: n forgetful, n+1 full."""
    return g.rank if forgetful else g.rank + 1


def constant_class(vertices, nvars, c=1) -> CohomologyClass:
    return CohomologyClass(
        {v: IntPolynomial.constant(nvars, c) for v in vertices}, nvars
    )


def vector_class(values) -> CohomologyClass:
    """Degree-2 class from vertexwise lattice vectors, in as many variables
    as the vectors have coordinates."""
    nvars = len(next(iter(values.values())))
    return CohomologyClass(
        {v: IntPolynomial.linear_form(a) for v, a in values.items()}, nvars
    )


def chi_class(g: GkmGraph) -> CohomologyClass:
    return vector_class({v: g.residual for v in g.vertices})


class _LabelMap(NamedTuple):
    content: int
    monos: list  # column order: the degree-k monomials in t
    restrict: list  # rows of the s_1-free monomials: restriction to ker alpha
    residue: list  # rows of the other monomials, which need content | entry


def _label_map(maps, alpha, degree):
    """The action of the label ``alpha`` on degree-``degree`` coefficient
    vectors, computed once per (label, degree) and kept in ``maps`` (a
    graph's ``label_maps``).

    The transform U of the Hermite form of the column alpha is unimodular
    with U alpha = (content, 0, ..., 0), so the substitution
    t_j = sum_i U[i][j] s_i turns alpha into content * s_1.  The map sends
    the coefficients of a polynomial in t to its coefficients in s; alpha
    divides the polynomial exactly when every s_1-free entry is 0 and every
    entry is a multiple of the content.  A zero label divides only 0.
    """
    key = (alpha, degree)
    lmap = maps.get(key)
    if lmap is None:
        n = len(alpha)
        h, u = hermite_normal_form([[a] for a in alpha], transform=True)
        content = h[0][0]
        images = [
            IntPolynomial.linear_form([u[i][j] for i in range(n)])
            for j in range(n)
        ]
        one = IntPolynomial.constant(n, 1)
        monos = graded_piece_basis(n, degree)
        columns = [
            prod((images[j] ** e for j, e in enumerate(m)), start=one)
            for m in monos
        ]
        restrict, residue = [], []
        for target in monos:
            row = [col.coefficient(target) for col in columns]
            (residue if target[0] and content else restrict).append(row)
        lmap = maps[key] = _LabelMap(content, monos, restrict, residue)
    return lmap


def _dot(row, vec):
    return sum(a * b for a, b in zip(row, vec))


def _label_divides(maps, alpha, terms) -> bool:
    """Does the linear form ``alpha`` divide the polynomial with the given
    ``{monomial: coefficient}`` terms?  It does when it divides each
    homogeneous component."""
    components = {}
    for m, c in terms.items():
        components.setdefault(sum(m), {})[m] = c
    for d, part in components.items():
        lmap = _label_map(maps, alpha, d)
        vec = [part.get(m, 0) for m in lmap.monos]
        if any(_dot(row, vec) for row in lmap.restrict):
            return False
        if lmap.content > 1 and any(
            _dot(row, vec) % lmap.content for row in lmap.residue
        ):
            return False
    return True


def class_satisfies_congruences(g: GkmGraph, cls: CohomologyClass) -> bool:
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


def assert_congruences(g: GkmGraph, cls: CohomologyClass, what="class"):
    if not class_satisfies_congruences(g, cls):
        raise CongruenceFailure(f"{what} violates a congruence relation")


# -- the solver -----------------------------------------------------------------

# The largest system the CLI hands to the solver, in unknowns (columns):
# one per coefficient of a degree-k monomial at each vertex.  On L(5,5,5)
# (75 vertices, 3 variables) degree 5 has 1575 columns and takes 2.6 s;
# degree 6 has 2100 and takes 79 s (2 vCPUs, CPython 3.11).
SOLVER_MAX_COLUMNS = 2000


def solver_columns(g: GkmGraph, degree: int, forgetful: bool = False) -> int:
    """The unknowns of ``cohomology_basis(g, degree, forgetful)`` before its
    mod-content witnesses: C(nvars + degree - 1, degree) per vertex."""
    nvars = _nvars(g, forgetful)
    return comb(nvars + degree - 1, degree) * len(g.vertices)


def class_to_vector(cls: CohomologyClass, vertex_order, monos):
    out = []
    for v in vertex_order:
        poly = cls.values[v]
        out.extend(poly.coefficient(m) for m in monos)
    return out


def _vector_to_class(vec, vertices, nvars, monos):
    values = {}
    width = len(monos)
    for i, v in enumerate(vertices):
        chunk = vec[i * width : (i + 1) * width]
        values[v] = IntPolynomial(nvars, {m: c for m, c in zip(monos, chunk)})
    return CohomologyClass(values, nvars)


def _edge_row(ncols, source, target, row):
    out = [0] * ncols
    for i, a in enumerate(row):
        out[source + i] += a
        out[target + i] -= a
    return out


def cohomology_basis(g, degree: int, forgetful: bool = False):
    """Hermite-reduced Z-basis of the degree-2k graded piece.

    The unknowns are the vertexwise coefficients of the degree-k monomials.
    An edge pq with label alpha asks that alpha divide phi(p) - phi(q)
    (Goresky-Kottwitz-MacPherson).  Through the label's map (see
    ``_label_map``) that is linear: the restriction rows R of alpha enter
    the system as +R on p and -R on q.  Only a label with content c > 1
    adds more: each of its other rows r gives the congruence
    r (phi(p) - phi(q)) = c y with one extra unknown y.  The extra unknowns
    are determined by phi and their columns come last, so the
    Hermite-reduced kernel, cut to the phi columns, is already the
    Hermite-reduced basis of the graded piece.  Each class is checked
    again against the same label maps.  Returns ``(classes, rank)``.
    """
    if degree < 0:
        raise GkmError("degree must be nonnegative")
    nvars = _nvars(g, forgetful)
    monos = graded_piece_basis(nvars, degree)
    width = len(monos)
    offset = {v: i * width for i, v in enumerate(g.vertices)}
    nphi = len(g.vertices) * width
    rows, mod_rows = [], []
    for eid in g.canonical_edges():
        e = g.darts[eid]
        lmap = _label_map(g.label_maps, e.axial[:nvars], degree)
        source, target = offset[e.source], offset[e.target]
        rows.extend(_edge_row(nphi, source, target, r) for r in lmap.restrict)
        if lmap.content > 1:
            mod_rows.extend(
                (_edge_row(nphi, source, target, r), lmap.content)
                for r in lmap.residue
            )
    nmod = len(mod_rows)
    system = [row + [0] * nmod for row in rows]
    for i, (row, content) in enumerate(mod_rows):
        row.extend(-content if j == i else 0 for j in range(nmod))
        system.append(row)
    kern = kernel_basis(system, ncols=nphi + nmod)
    classes = [_vector_to_class(k, g.vertices, nvars, monos) for k in kern]
    for cls in classes:
        assert_congruences(g, cls, what="solver output")
    return classes, len(classes)


# -- presentation rings -----------------------------------------------------------


@dataclass
class PresentationRing:
    forgetful: bool
    generators: list  # generator names in enumeration order
    linear_relations: list  # list of {gen name: coeff}
    monomial_relations: list  # list of frozensets of generator names
    values: dict = field(repr=False)  # gen name -> CohomologyClass
    hyperplane_of: dict = field(default_factory=dict)
    # the report the ring was built under; not part of the presentation
    assumptions: AssumptionReport = field(default=None, repr=False)


def presentation_ring(
    g: GkmGraph, forgetful: bool = False, require_assumptions: bool = True
) -> PresentationRing:
    """Z[G] (generators X, H_i, Hbar_i) or Z[G-tilde] (generators = the
    hyperplanes), with relations derived from empty intersections.

    With ``require_assumptions`` the graph must pass both of the structure
    assumptions; verification runs relax assumption (2) because the
    comparison with the solver is still meaningful when it fails.
    """
    hyperplanes = all_hyperplanes(g)
    report = check_assumptions(g, hyperplanes)
    if not report.ok1:
        raise AssumptionViolation(
            "assumption (1) fails; halfspace generators are not defined",
            assumption=1,
        )
    if require_assumptions and not report.ok2:
        raise AssumptionViolation(
            "assumption (2) fails: some hyperplane intersection is "
            "disconnected",
            assumption=2,
        )
    order = sorted((h.name for h in hyperplanes), key=_name_key)
    by_name = {h.name: h for h in hyperplanes}
    pos = {}
    neg = {}
    for name in order:
        pos[name], neg[name] = choose_positive_halfspace(
            g, by_name[name], report.pairs[name]
        )
    if forgetful:
        values = {
            name: vector_class(
                forgetful_thom_class(g, by_name[name], pos[name])
            )
            for name in order
        }
        families = minimal_empty_families(
            {name: set(by_name[name].vertices) for name in order}
        )
        return PresentationRing(
            True, list(order), [], families, values,
            {name: name for name in order}, report,
        )
    values = {"X": chi_class(g)}
    hyperplane_of = {}
    named_sets = {}
    for i, name in enumerate(order):
        hn, hbn = f"H{i + 1}", f"Hbar{i + 1}"
        values[hn] = vector_class(thom_class(g, pos[name]))
        values[hbn] = vector_class(thom_class(g, neg[name]))
        hyperplane_of[hn] = name
        hyperplane_of[hbn] = name
        named_sets[hn] = set(pos[name].vertices)
        named_sets[hbn] = set(neg[name].vertices)
    generators = ["X"] + [f"H{i + 1}" for i in range(len(order))] + [
        f"Hbar{i + 1}" for i in range(len(order))
    ]
    linear = [
        {f"H{i + 1}": 1, f"Hbar{i + 1}": 1, "X": -1}
        for i in range(len(order))
    ]
    families = minimal_empty_families(named_sets)
    return PresentationRing(
        False, generators, linear, families, values, hyperplane_of, report
    )


def evaluate_generator(ring: PresentationRing, monomial) -> CohomologyClass:
    """Image of a formal generator monomial, computed pointwise.

    ``monomial`` maps generator names to exponents.
    """
    some = next(iter(ring.values.values()))
    out = constant_class(some.values, some.nvars)
    for name, exp in sorted(monomial.items()):
        for _ in range(exp):
            out = out * ring.values[name]
    return out


# -- graded verification ------------------------------------------------------------


def _reduced_full_relations(ring: PresentationRing):
    """Relations of Z[G] after eliminating Hbar_i = X - H_i.

    Returns (gen names, relation polynomials) over Z[X, H_1..H_m].
    """
    m = (len(ring.generators) - 1) // 2
    gens = ["X"] + [f"H{i + 1}" for i in range(m)]
    nv = len(gens)
    x_poly = IntPolynomial.variable(nv, 0)
    images = {"X": x_poly}
    for i in range(m):
        h = IntPolynomial.variable(nv, i + 1)
        images[f"H{i + 1}"] = h
        images[f"Hbar{i + 1}"] = x_poly - h
    rels = []
    for fam in ring.monomial_relations:
        p = IntPolynomial.constant(nv, 1)
        for name in sorted(fam):
            p = p * images[name]
        rels.append(p)
    return gens, rels


def _ideal_rank_full(rels, ngens, k):
    monos = graded_piece_basis(ngens, k)
    mono_index = {m: i for i, m in enumerate(monos)}
    rows = []
    for rel in rels:
        d = rel.degree()
        if d > k:
            continue
        for m in graded_piece_basis(ngens, k - d):
            shift = {
                tuple(a + b for a, b in zip(mm, m)): c
                for mm, c in rel.terms.items()
            }
            row = [0] * len(monos)
            for mm, c in shift.items():
                row[mono_index[mm]] = c
            rows.append(row)
    return rank(rows)


def graded_pieces(g: GkmGraph, max_degree: int, forgetful: bool = False):
    """The solver's graded pieces ``cohomology_basis(g, k, forgetful)`` for
    k = 0..max_degree, as a list of ``(classes, rank)``."""
    return [
        cohomology_basis(g, k, forgetful=forgetful)
        for k in range(max_degree + 1)
    ]


def verify_iso(
    g: GkmGraph, max_degree: int = 4, forgetful: bool = False, pieces=None
):
    """Graded-rank comparison between the solver and the presentation ring.

    For each degree k <= max_degree the report records the solver rank, the
    rank of the presentation ring's degree-k piece, and the rank of the
    span of evaluated generator monomials; the theorems predict all three
    are equal.  Also reports the assumption status (assumption (2) may
    fail, in which case a strict deficit is the expected outcome).
    ``pieces`` are the ``graded_pieces`` of the same theory when the
    caller has solved them already.
    """
    ring = presentation_ring(g, forgetful=forgetful, require_assumptions=False)
    if pieces is None:
        pieces = graded_pieces(g, max_degree, forgetful)
    assumptions = ring.assumptions
    nvars = _nvars(g, forgetful)
    vertex_order = list(g.vertices)
    if forgetful:
        gen_names = list(ring.generators)
        families = [frozenset(f) for f in ring.monomial_relations]
    else:
        gen_names, rels = _reduced_full_relations(ring)
    gens = [ring.values[n] for n in gen_names]
    ngens = len(gen_names)
    # Psi of the degree-k monomials, grown by one generator per degree.  The
    # forgetful table keeps only the monomials outside the monomial ideal:
    # a monomial's lower neighbour has a smaller support, so it is outside
    # the ideal whenever the monomial is.
    table = {(0,) * ngens: constant_class(vertex_order, nvars)}
    per_degree = {}
    for k in range(max_degree + 1):
        if k:
            grown = {}
            for mono in graded_piece_basis(ngens, k):
                i = next(j for j, e in enumerate(mono) if e)
                lower = table.get(mono[:i] + (mono[i] - 1,) + mono[i + 1 :])
                if lower is None:
                    continue
                if forgetful:
                    support = {gen_names[j] for j, e in enumerate(mono) if e}
                    if any(f <= support for f in families):
                        continue
                grown[mono] = lower * gens[i]
            table = grown
        _, solver_rank = pieces[k]
        nmono = comb(ngens + k - 1, k)
        if forgetful:
            pres_rank = len(table)
        else:
            pres_rank = nmono - _ideal_rank_full(rels, ngens, k)
        monos = graded_piece_basis(nvars, k)
        image_rank = rank(
            [class_to_vector(c, vertex_order, monos) for c in table.values()]
        )
        per_degree[k] = {
            "solver_rank": solver_rank,
            "presentation_rank": pres_rank,
            "image_rank": image_rank,
            "monomials": nmono,
            "surjective": image_rank == solver_rank,
            "injective": image_rank == pres_rank,
            "match": solver_rank == pres_rank == image_rank,
        }
    return {
        "forgetful": forgetful,
        "assumption1_ok": assumptions.ok1,
        "assumption2_ok": assumptions.ok2,
        "degrees": per_degree,
        "ok": all(d["match"] for d in per_degree.values()),
    }


# -- kernel of the forgetful map -----------------------------------------------------


def kernel_forgetful_check(
    g: GkmGraph, max_degree: int = 3, pieces=None
) -> bool:
    """Degreewise check that the kernel of the forgetful map on classes is
    exactly chi times the previous graded piece.  ``pieces`` are the
    full-theory ``graded_pieces`` up to at least ``max_degree`` when the
    caller has solved them already."""
    if pieces is None:
        pieces = graded_pieces(g, max_degree)
    chi = chi_class(g)
    nfull = g.rank + 1
    prev_basis = []
    for k in range(max_degree + 1):
        classes, _ = pieces[k]
        monos = graded_piece_basis(nfull, k)
        fmonos = graded_piece_basis(g.rank, k)
        # forgetful image: substitute x = 0
        fmat = []
        for cls in classes:
            row = []
            for v in g.vertices:
                poly = cls.values[v]
                for fm in fmonos:
                    row.append(poly.coefficient(fm + (0,)))
            fmat.append(row)
        if fmat:
            # coefficient vectors c with sum_i c_i * fmat[i] = 0
            transposed = [list(col) for col in zip(*fmat)]
            coeff_kernel = kernel_basis(transposed, ncols=len(fmat))
        else:
            coeff_kernel = []
        kernel_vectors = []
        for coeffs in coeff_kernel:
            acc = None
            for c, cls in zip(coeffs, classes):
                if c == 0:
                    continue
                term = cls * c
                acc = term if acc is None else acc + term
            if acc is None:
                continue
            kernel_vectors.append(
                class_to_vector(acc, list(g.vertices), monos)
            )
        chi_products = [
            class_to_vector(chi * b, list(g.vertices), monos)
            for b in prev_basis
        ]
        if not same_lattice(kernel_vectors, chi_products):
            return False
        prev_basis = classes
    return True
