"""Graph equivariant cohomology, three ways.

* a congruence-relation solver that computes each graded piece as the
  kernel of an exact integer linear system,
* presentation rings built from halfspaces/hyperplanes and their
  empty-intersection families, evaluated through Thom classes,
* and the graded-rank comparison between the two, which is what "verify
  the isomorphism" means at desk scale.

The solver's classes are integer coefficient vectors: the coefficients
of the degree-k monomials in ``graded_piece_basis`` order, vertex after
vertex.  They stay vectors through the kernel check of the forgetful map
and the printed output.  The rank comparison reads only ranks, so where
no classes are needed it takes the rank of the solver's system
(``solver_rank``) without solving it.

The presentation rings' generators are degree-2 classes, each its
checked ``{vertex: vector}`` of lattice vectors: the Thom classes as
``thom_class`` returns them, the forgetful ones cut to their first n
coordinates, and the residual vector at every vertex for X.  Their
relations are ``{exponents: coefficient}`` terms in the ring's variables,
whose leading terms give the standard monomials that the comparison walks.

Both theories run on the same :class:`GkmGraph`: n+1 variables (e1..en,
x) for the full theory, checked against the full labels, and n variables
for the x-forgetful one, checked against the labels with their residual
coordinate erased.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache, reduce
from math import comb
from operator import add, mul

from .errors import AssumptionViolation, CongruenceFailure, GkmError
from .graph import GkmGraph
from .hyperplanes import (
    _name_key,
    all_hyperplanes,
    check_assumptions,
    choose_positive_halfspace,
    minimal_empty_families,
    thom_class,
)
from .intlinalg import hermite_normal_form, kernel_basis, rank, same_lattice
from .polynomials import graded_piece_basis, linear_terms, mul_terms


def _nvars(g: GkmGraph, forgetful: bool) -> int:
    """The variables of a theory's classes: n forgetful, n+1 full."""
    return g.rank if forgetful else g.rank + 1


@lru_cache(maxsize=None)
def _raise_table(nvars, degree):
    """Multiplication by a variable on monomials: row i lists, for each
    variable t_j, the position of m_i * t_j among the degree + 1
    monomials, where m_i is the i-th of degree ``degree`` (both in
    ``graded_piece_basis`` order)."""
    index = {m: i for i, m in enumerate(graded_piece_basis(nvars, degree + 1))}
    return tuple(
        tuple(index[m[:j] + (m[j] + 1,) + m[j + 1 :]] for j in range(nvars))
        for m in graded_piece_basis(nvars, degree)
    )


# content: the content of the label; columns: per degree-k monomial in t,
# its image [(s position, coefficient)]; moduli: per degree-k monomial in
# s, 0, the content or 1 (see ``_label_map``); rows: (modulus, [(t
# position, coefficient)]) for each modulus != 1
_LabelMap = namedtuple("_LabelMap", "content columns moduli rows")


def _label_map(maps, alpha, degree):
    """The action of the label ``alpha`` on degree-``degree`` coefficient
    vectors, computed once per (label, degree) and kept in ``maps`` (a
    graph's ``label_maps``).

    The transform U of the Hermite form of the column alpha is unimodular
    with U alpha = (content, 0, ..., 0), so the substitution
    t_j = sum_i U[i][j] s_i turns alpha into content * s_1.  The map sends
    the coefficients of a polynomial in t to its coefficients in s; alpha
    divides the polynomial exactly when every s_1-free entry is 0
    (modulus 0) and every other entry is a multiple of the content
    (modulus c; 1 asks nothing).  A zero label divides only 0.  The image
    of a monomial is the image of the monomial one degree lower, times the
    image of one of its variables.
    """
    key = (alpha, degree)
    lmap = maps.get(key)
    if lmap is None:
        n = len(alpha)
        if degree == 1:
            h, u = hermite_normal_form([[a] for a in alpha], transform=True)
            content = h[0][0]
            columns = [
                [(i, u[i][j]) for i in range(n) if u[i][j]] for j in range(n)
            ]
        else:
            linear = _label_map(maps, alpha, 1)
            content, columns = linear.content, [[(0, 1)]]
            if degree > 1:
                lower = _label_map(maps, alpha, degree - 1).columns
                columns = _raise_columns(lower, linear.columns, degree - 1)
        moduli = [
            content if m[0] and content else 0
            for m in graded_piece_basis(n, degree)
        ]
        rows = [[] for _ in moduli]
        for i, column in enumerate(columns):
            for k, c in column:
                rows[k].append((i, c))
        rows = [(mod, row) for mod, row in zip(moduli, rows) if mod != 1]
        lmap = maps[key] = _LabelMap(content, columns, moduli, rows)
    return lmap


def _raise_columns(lower, images, degree):
    """The images of the degree + 1 monomials, from the images ``lower``
    of those of degree ``degree`` and the images of the variables."""
    up = _raise_table(len(images), degree)
    columns = [None] * comb(len(images) + degree, degree + 1)
    for i, row in enumerate(up):
        for j, pos in enumerate(row):
            if columns[pos] is None:
                image = {}
                for t, c in lower[i]:
                    targets = up[t]
                    for k, a in images[j]:
                        image[targets[k]] = image.get(targets[k], 0) + c * a
                columns[pos] = [(k, c) for k, c in image.items() if c]
    return columns


def _divides(lmap, diff) -> bool:
    """Does the label of ``lmap`` divide the polynomial with the
    coefficient vector ``diff``?"""
    image = {}
    for i, d in enumerate(diff):
        if d:
            for k, c in lmap.columns[i]:
                image[k] = image.get(k, 0) + d * c
    moduli = lmap.moduli
    for k, c in image.items():
        m = moduli[k]
        if c % m if m else c:
            return False
    return True


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


def _edges(g: GkmGraph, nvars: int, degree: int, width: int):
    """``(source offset, target offset, label map)`` of every edge that is
    not a loop, for the degree-``degree`` coefficient vectors of
    ``nvars`` variables, ``width`` coefficients per vertex."""
    offset = {v: i * width for i, v in enumerate(g.vertices)}
    out = []
    for eid in g.canonical_edges():
        e = g.darts[eid]
        if e.source != e.target:  # a loop asks nothing
            lmap = _label_map(g.label_maps, e.axial[:nvars], degree)
            out.append((offset[e.source], offset[e.target], lmap))
    return out


def _congruence_system(g: GkmGraph, degree: int, forgetful: bool):
    """The congruence system of the degree-``degree`` piece (see
    ``cohomology_basis``) as ``(rows, ncols, edges, width)``: its sparse
    rows, its number of unknowns (the phi columns first, then one
    witness per congruence), and the ``_edges`` and ``width`` of its
    coefficient vectors."""
    if degree < 0:
        raise GkmError("degree must be nonnegative")
    nvars = _nvars(g, forgetful)
    width = comb(nvars + degree - 1, degree)
    edges = _edges(g, nvars, degree, width)
    rows = []
    ncols = len(g.vertices) * width
    for p, q, lmap in edges:
        for modulus, row in lmap.rows:
            eq = {p + i: a for i, a in row}
            eq.update((q + i, -a) for i, a in row)
            if modulus:
                eq[ncols] = -modulus
                ncols += 1
            rows.append(eq)
    return rows, ncols, edges, width


def cohomology_basis(g, degree: int, forgetful: bool = False):
    """Hermite-reduced Z-basis of the degree-2k graded piece.

    The unknowns are the vertexwise coefficients of the degree-k monomials
    (``graded_piece_basis`` order, vertex after vertex in ``g.vertices``
    order).  An edge pq with label alpha asks that alpha divide
    phi(p) - phi(q) (Goresky-Kottwitz-MacPherson).  Through the label's
    map (see ``_label_map``) that is linear: each row R of modulus 0
    enters the system as +R on p and -R on q.  Only a label with content
    c > 1 adds more: each of its rows r of modulus c gives the congruence
    r (phi(p) - phi(q)) = c y with one extra unknown y.  The extra
    unknowns are determined by phi and their columns come last, so the
    Hermite-reduced kernel, cut to the phi columns, is already the
    Hermite-reduced basis of the graded piece.  Each class is checked
    again, edge by edge, against the same label maps.

    Returns ``(classes, rank)``, each class the tuple of its coefficients.
    """
    rows, ncols, edges, width = _congruence_system(g, degree, forgetful)
    nphi = len(g.vertices) * width
    classes = [k[:nphi] for k in kernel_basis(rows, ncols)]
    for vec in classes:
        if not _vector_satisfies_congruences(vec, edges, width):
            raise CongruenceFailure(
                "solver output violates a congruence relation"
            )
    return classes, len(classes)


def solver_rank(g: GkmGraph, degree: int, forgetful: bool = False) -> int:
    """The rank of ``cohomology_basis(g, degree, forgetful)``, without its
    classes: the unknowns of the same system less its rank.  The
    witnesses are determined by phi, so the kernel has as many
    dimensions as the graded piece."""
    rows, ncols, _, _ = _congruence_system(g, degree, forgetful)
    return ncols - rank(rows, ncols)


def _vector_satisfies_congruences(vec, edges, width) -> bool:
    """Does each edge's label divide the difference of the two chunks of
    the coefficient vector ``vec``?  ``edges`` and ``width`` are those of
    ``_edges``."""
    for p, q, lmap in edges:
        here, there = vec[p : p + width], vec[q : q + width]
        if here != there and not _divides(
            lmap, [a - b for a, b in zip(here, there)]
        ):
            return False
    return True


# -- presentation rings -----------------------------------------------------------


class PresentationRing:
    def __init__(self, generators, eliminated, relations, vertex_sets, values, report):
        self.generators = generators  # generator names in enumeration order
        # eliminated generator -> {variable: coefficient}; the rest are variables
        self.eliminated = eliminated
        self.monomial_relations = relations  # frozensets of generator names
        # generator of a relation -> the vertices of its halfspace/hyperplane
        self.vertex_sets = vertex_sets
        self.values = values  # gen name -> {vertex: vector}
        # the report the ring was built under; not part of the presentation
        self.assumptions = report


def presentation_ring(g: GkmGraph, forgetful: bool = False) -> PresentationRing:
    """Z[G] (generators X, H_i, Hbar_i) or Z[G-tilde] (generators = the
    hyperplanes), with relations derived from empty intersections.  Z[G]
    eliminates Hbar_i = X - H_i, so its variables are X and the H_i.

    Assumption (1) must hold; assumption (2) is only recorded in
    ``assumptions``, as the comparison with the solver still means
    something when it fails.
    """
    hyperplanes = all_hyperplanes(g)
    report = check_assumptions(g, hyperplanes)
    if not report.ok1:
        raise AssumptionViolation(
            "assumption (1) fails; halfspace generators are not defined",
            assumption=1,
        )
    order = sorted((h.name for h in hyperplanes), key=_name_key)
    by_name = {h.name: h for h in hyperplanes}
    halves = [
        choose_positive_halfspace(g, by_name[name], report.pairs[name])
        for name in order
    ]
    eliminated = {}
    if forgetful:
        generators = list(order)
        values = {
            name: {v: t[: g.rank] for v, t in thom_class(g, pos).items()}
            for name, (pos, _) in zip(order, halves)
        }
        sets = {name: set(by_name[name].vertices) for name in order}
    else:
        m = len(order)
        generators = ["X"] + [f"H{i}" for i in range(1, m + 1)]
        generators += [f"Hbar{i}" for i in range(1, m + 1)]
        values = {"X": {v: g.residual for v in g.vertices}}
        sets = {}
        for hn, hbn, halfspaces in zip(generators[1:], generators[m + 1 :], halves):
            for name, h in zip((hn, hbn), halfspaces):
                values[name] = thom_class(g, h)
                sets[name] = set(h.vertices)
            eliminated[hbn] = {"X": 1, hn: -1}
    families = minimal_empty_families(sets)
    return PresentationRing(generators, eliminated, families, sets, values, report)


# -- graded verification ------------------------------------------------------------


def _relations_vanish(ring: PresentationRing) -> bool:
    """Does Psi kill every relation of ``ring``?  It does when no family
    has a common vertex and each generator's class, Psi of its linear
    form, is zero off its vertex set."""
    sets, values = ring.vertex_sets, ring.values
    if any(set.intersection(*map(sets.get, f)) for f in ring.monomial_relations):
        return False
    nonzero = {u: {v for v, t in values[u].items() if any(t)} for u in values}
    for name, inside in sets.items():
        form = ring.eliminated.get(name, {name: 1}).items()
        # Psi of the form is zero where each of its variables is
        for v in set().union(*(nonzero[u] for u, _ in form)) - inside:
            if any(map(sum, zip(*([c * a for a in values[u][v]] for u, c in form)))):
                return False
    return True


def _leading_monomials(ring, images):
    """The leading monomial of each relation in degrevlex with
    H_1 > ... > H_m > X, X being variable 0: the product of the leading
    terms of its factors, H_i for Hbar_i = X - H_i."""
    first = {
        n: max(terms, key=lambda e: [-a for a in e[:1] + e[:0:-1]])
        for n, terms in images.items()
    }
    return [tuple(map(sum, zip(*map(first.get, f)))) for f in ring.monomial_relations]


def _ideal_rank_full(rels, ngens, k):
    """The rank of the degree-k piece of the ideal of the homogeneous
    relations ``rels`` (terms dicts): each relation times each monomial of
    the complementary degree is one sparse row, built from the relation's
    terms."""
    index = {m: i for i, m in enumerate(graded_piece_basis(ngens, k))}
    shifts = {}  # degree -> its monomials
    rows = []
    for rel in rels:
        d = k - sum(next(iter(rel)))  # the degree of the multipliers
        if d >= 0 and d not in shifts:
            shifts[d] = graded_piece_basis(ngens, d)
        for m in shifts.get(d, ()):
            rows.append({index[tuple(map(add, mm, m))]: c for mm, c in rel.items()})
    return rank(rows, len(index))


def _times_linear(vec, forms, up, nwidth):
    """The sparse coefficient vector (``{position: coefficient}``) of a
    class times the class that is the linear form ``forms[v]``
    ([(variable, coefficient)]) at each vertex v.  ``up`` is the
    ``_raise_table`` of the class's degree and ``nwidth`` the number of
    monomials one degree up."""
    width = len(up)
    out = {}
    for pos, a in vec.items():
        v, i = divmod(pos, width)
        base = v * nwidth
        targets = up[i]
        for j, c in forms[v]:
            t = base + targets[j]
            out[t] = out.get(t, 0) + a * c
    return {t: c for t, c in out.items() if c}


def verify_iso(g: GkmGraph, max_degree: int = 4, forgetful: bool = False, pieces=()):
    """Graded-rank comparison between the solver and the presentation ring.

    For each degree k <= max_degree the report records the solver rank, the
    rank of the presentation ring's degree-k piece, and the rank of the
    span of evaluated generator monomials; the theorems predict all three
    are equal.  Also reports the assumption status (assumption (2) may
    fail, in which case a strict deficit is the expected outcome).

    Only ranks are computed.  ``pieces`` are the solver's pieces
    ``cohomology_basis(g, k, forgetful)``, k = 0, 1, ..., that the caller
    has solved already, and give their solver ranks; every higher degree
    takes ``solver_rank``, which builds no classes.

    Both theories walk the standard monomials S_k: the degree-k monomials
    in the ring's variables that no relation's leading monomial divides
    (Cox-Little-O'Shea, *Ideals, Varieties, and Algorithms*, ch. 5 Sec. 3).
    S_k spans the degree-k piece R_k and Psi kills every relation, so the
    image rank is rank Psi(S_k) <= dim R_k <= |S_k|.  The presentation rank
    is |S_k| where Psi is injective on S_k or every relation is a monomial,
    and the Macaulay rank of ``_ideal_rank_full`` in any other degree.
    """
    ring = presentation_ring(g, forgetful=forgetful)
    if not _relations_vanish(ring):
        raise CongruenceFailure("a presentation relation is not zero on the graph")
    names = [n for n in ring.generators if n not in ring.eliminated]
    ngens = len(names)
    images = {  # each generator as terms in the variables
        n: linear_terms([ring.eliminated.get(n, {n: 1}).get(u, 0) for u in names])
        for n in ring.generators
    }
    leads = set(_leading_monomials(ring, images))
    # each variable as its linear form at every vertex, [(variable, coefficient)]
    forms = [
        [[(j, c) for j, c in enumerate(ring.values[n][v]) if c] for v in g.vertices]
        for n in names
    ]
    nvars = _nvars(g, forgetful)
    nverts = len(g.vertices)
    # Psi of S_k, as sparse coefficient vectors.  S is closed under
    # division, so each monomial m of S_k grows once, by its first variable
    # x_i, from its lower neighbour m / x_i in S_{k-1}.  A leading monomial
    # that divides m is m itself or divides some m / x_j, so m is in S_k
    # when it is no leading monomial and each m / x_j (j > i) is in S_{k-1}.
    table = {(0,) * ngens: {v: 1 for v in range(nverts)}}
    per_degree = {}
    for k in range(max_degree + 1):
        width = comb(nvars + k - 1, k)
        if k:
            up = _raise_table(nvars, k - 1)
            grown = {}
            for mono, lower in table.items():
                first = next((j for j, e in enumerate(mono) if e), ngens - 1)
                for i in range(first + 1):
                    m = mono[:i] + (mono[i] + 1,) + mono[i + 1 :]
                    if m not in leads and all(
                        m[:j] + (m[j] - 1,) + m[j + 1 :] in table
                        for j in range(i + 1, ngens)
                        if m[j]
                    ):
                        grown[m] = _times_linear(lower, forms[i], up, width)
            table = grown
        srank = pieces[k][1] if k < len(pieces) else solver_rank(g, k, forgetful)
        nmono = comb(ngens + k - 1, k)
        image_rank = rank(list(table.values()), nverts * width)
        pres_rank = len(table)
        if image_rank < pres_rank:  # Psi is not injective on S_k
            rels = [
                reduce(mul_terms, map(images.get, sorted(f)))
                for f in ring.monomial_relations
            ]
            if any(len(rel) > 1 for rel in rels):
                pres_rank = nmono - _ideal_rank_full(rels, ngens, k)
        per_degree[k] = {
            "solver_rank": srank,
            "presentation_rank": pres_rank,
            "image_rank": image_rank,
            "monomials": nmono,
            "surjective": image_rank == srank,
            "injective": image_rank == pres_rank,
            "match": srank == pres_rank == image_rank,
        }
    return {
        "forgetful": forgetful,
        "assumption1_ok": ring.assumptions.ok1,
        "assumption2_ok": ring.assumptions.ok2,
        "degrees": per_degree,
        "ok": all(d["match"] for d in per_degree.values()),
    }


# -- kernel of the forgetful map -----------------------------------------------------


def kernel_forgetful_check(g: GkmGraph, max_degree: int, pieces) -> bool:
    """Degreewise check that the kernel of the forgetful map on classes is
    exactly chi times the previous graded piece.  ``pieces`` are the
    full-theory pieces ``cohomology_basis(g, k)`` for k = 0 up to at least
    ``max_degree``."""
    n = g.rank
    nverts = len(g.vertices)
    prev = []
    for k in range(max_degree + 1):
        classes, _ = pieces[k]
        width = comb(n + k, k)
        # the forgetful image sets x = 0: it keeps the x-free coefficients
        free = [i for i, m in enumerate(graded_piece_basis(n + 1, k)) if not m[-1]]
        kept = [v * width + i for v in range(nverts) for i in free]
        # coefficient vectors c with sum_i c_i * image(classes[i]) = 0
        image_columns = [
            {i: vec[j] for i, vec in enumerate(classes) if vec[j]}
            for j in kept
        ]
        kernel_vectors = []
        for coeffs in kernel_basis(image_columns, len(classes)):
            acc = [0] * (nverts * width)
            for c, vec in zip(coeffs, classes):
                if c:
                    acc = [a + c * b for a, b in zip(acc, vec)]
            kernel_vectors.append(acc)
        # chi is the residual variable x at every vertex, so chi * b moves
        # each coefficient of b to its monomial times x
        chi_products = []
        if prev:
            shifted = [
                v * width + row[n]
                for v in range(nverts)
                for row in _raise_table(n + 1, k - 1)
            ]
            for b in prev:
                out = [0] * (nverts * width)
                for j, a in zip(shifted, b):
                    out[j] = a
                chi_products.append(out)
        if not same_lattice(kernel_vectors, chi_products):
            return False
        prev = classes
    return True
