"""Complex construction, shellings, characteristic covectors, module
bases, expansion and structure constants."""

import sys
from functools import lru_cache
from itertools import combinations, permutations, product
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gkmgraphs.cohomology import cohomology_basis, presentation_ring
from gkmgraphs.errors import InconsistentLambda, InexactDivision, NotShellable
import gkmgraphs.shelling as shelling
from gkmgraphs.fixtures import FIXTURE_IDS, KlmSpec, fixture, gen_klm
from gkmgraphs.graph import graph_from_dict
from gkmgraphs.hyperplanes import (
    Arrangement,
    all_hyperplanes,
    nonempty_intersection_table,
)
from gkmgraphs.polynomials import IntPolynomial
from oracles import (
    complex_by_table,
    complex_faces,
    expand_by_division,
    hilbert_rank,
    lift_coefficient,
    localize_at,
    maximal_faces,
    minimal_new_faces_by_subsets,
    monomial_poly,
    relation_for_hyperplane,
    shelling_by_subsets,
)
from gkmgraphs.shelling import (
    FacetLocalizations,
    SimplicialComplex,
    _expand,
    _restriction,
    basis_monomial_name,
    build_complex,
    characteristic_functions,
    express_in_basis,
    find_shelling,
    module_basis,
    ordinary_cohomology,
    shelling_context,
)


def klm_ctx(k, l, m):
    return shelling_context(gen_klm(KlmSpec(k, l, m)))


@lru_cache(maxsize=None)
def named_ctx(name):
    if name.startswith("L"):
        return klm_ctx(*map(int, name[1:]))
    return shelling_context(fixture(name))


def test_complex_of_disjoint_points():
    g = fixture("fig8_line5")
    c = build_complex(Arrangement(g))
    assert all(len(f) == 1 for f in c.facets)
    assert len(c.facets) == 5


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(
        st.sampled_from("abcdefgh"),
        st.frozensets(st.integers(0, 6)),
        max_size=8,
    )
)
def test_the_complex_from_one_table_matches_the_search_of_all_families(sets):
    """The table built vertex by vertex holds exactly the families with a
    common vertex, each with its common vertices, and the faces that no
    single name extends are the faces inside no other face."""
    names = sorted(sets)
    brute = {}
    for size in range(1, len(names) + 1):
        for family in combinations(names, size):
            common = frozenset.intersection(*(sets[n] for n in family))
            if common:
                brute[frozenset(family)] = common
    through = {}
    for name, vertices in sets.items():
        for v in vertices:
            through[v] = through.get(v, frozenset()) | {name}
    table = nonempty_intersection_table(through)
    assert table == brute
    faces = set(table) | {frozenset()}
    by_pairs = {f for f in faces if not any(f < other for other in faces)}
    maximal = maximal_faces(faces)
    assert len(maximal) == len(by_pairs) and set(maximal) == by_pairs


def renamed_pentagon():
    """fig7_pentagon with its hyperplanes named A, C, E, B, D: the third
    facet of the lexicographic order, {B, D}, meets neither of the first
    two, so that order is no shelling."""
    pentagon = fixture("fig7_pentagon")
    through = Arrangement(pentagon).through
    rename = {"L1": "A", "L2": "C", "L3": "E", "L4": "B", "L5": "D"}
    doc = pentagon.to_dict()
    doc["hyperplane_names"] = {
        rename[name]: sorted(v for v, names in through.items() if name in names)
        for name in rename
    }
    return graph_from_dict(doc)


def graph_named(name):
    """A figure, ``local_model(n)``, the renamed pentagon
    (``pentagon-ACEBD``), the rung ``Lklm``, or the rung without its
    hyperplane names (``Lklm-unnamed``: L1, L2, ..., past L9 on the larger
    rungs)."""
    if name == "pentagon-ACEBD":
        return renamed_pentagon()
    if name.endswith("-unnamed"):
        doc = graph_named(name[: -len("-unnamed")]).to_dict()
        del doc["hyperplane_names"], doc["positive_normals"]
        return graph_from_dict(doc)
    if name.startswith("L"):
        return gen_klm(KlmSpec(*map(int, name[1:])))
    return fixture(name)


def _outcome(build, arr):
    """What ``build(arr)`` returns, or the type, text and assumption of
    what it raises."""
    try:
        return build(arr)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "assumption", None)


@pytest.mark.parametrize(
    "name",
    list(FIXTURE_IDS)
    + [f"local_model({n})" for n in range(1, 9)]
    + [f"L{k}{l}{m}" for k in range(1, 5) for l in range(1, 5) for m in range(1, 5)]
    + ["L433-unnamed", "L444-unnamed"],
)
def test_the_facets_match_the_maximal_faces_of_the_whole_table(name):
    """The maximal sets among the names through each vertex are the
    maximal faces of the whole family table: the same facets in the same
    order, the same vertices, and the same error where there is one."""
    arr = Arrangement(graph_named(name))
    assert _outcome(build_complex, arr) == _outcome(complex_by_table, arr)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 3),
    st.dictionaries(
        st.integers(0, 7),
        st.frozensets(st.sampled_from("abcde"), min_size=1),
        max_size=8,
    ),
    st.integers(0, 2),
)
@example(2, {}, 1)
@example(2, {0: frozenset("ab"), 1: frozenset("a"), 2: frozenset("bc")}, 0)
@example(2, {0: frozenset("ab"), 1: frozenset("ab")}, 0)
def test_the_facets_of_any_names_through_the_vertices_match_the_whole_table(
    rank, through, unnamed
):
    """On names through the vertices that no graph need have (nested
    sets, several vertices with one set, sets of other sizes than the
    rank, vertices on no hyperplane), the maximal sets are the maximal
    faces of the whole table, with the same errors."""
    vertices = list(through) + [f"v{i}" for i in range(unnamed)]
    arr = SimpleNamespace(
        graph=SimpleNamespace(rank=rank, vertices=vertices),
        names=sorted(frozenset().union(*through.values())),
        through=through,
    )
    assert _outcome(build_complex, arr) == _outcome(complex_by_table, arr)


def _restriction_after(prior, sigma):
    """``_restriction`` of ``sigma`` after the facets ``prior``, with each
    name's mask taken over ``prior`` and ``sigma``."""
    holders = {}
    for i, f in enumerate(prior + [sigma]):
        for v in f:
            holders[v] = holders.get(v, 0) | 1 << i
    return _restriction(holders, (1 << len(prior)) - 1, sigma)


facet_families = st.lists(st.frozensets(st.sampled_from("abcdef")), max_size=6)


@settings(max_examples=300, deadline=None)
@given(facet_families, st.frozensets(st.sampled_from("abcdef"), min_size=1))
@example([], frozenset("abc"))
@example([frozenset("abcd")], frozenset("abc"))
@example([frozenset("ab"), frozenset("abc"), frozenset()], frozenset("abc"))
def test_minimal_new_faces_are_the_minimal_subsets_in_no_prior_facet(
    prior, sigma
):
    """``_restriction`` gives sigma's minimal subset in no prior facet when
    there is exactly one, and None when there are several or none: the
    empty face with no prior facet, and None when sigma lies in a prior
    facet.  This holds for any prior family, not only for complexes."""
    want = minimal_new_faces_by_subsets(prior, sigma)
    assert _restriction_after(prior, sigma) == (
        want[0] if len(want) == 1 else None
    )


@pytest.mark.parametrize(
    "name",
    [
        "fig2_left",
        "fig2_right",
        "fig7_pentagon",
        "fig8_line5",
        "pentagon-ACEBD",
        "L212",
        "L322",
        "L333",
        "L212-unnamed",
        "L333-unnamed",
        "L433-unnamed",
    ],
)
def test_the_shelling_matches_the_subset_enumeration(name):
    """Along the order that ``find_shelling`` returns, each minimal new
    face it keeps is the one minimal subset of its facet in no earlier
    facet: on the figures that shell, on the renamed pentagon, whose
    search backtracks, and on named and unnamed rungs.  fig2_right fails
    assumption (1), so its complex is shelled without a context."""
    shell = find_shelling(build_complex(Arrangement(graph_named(name))))
    assert shelling_by_subsets(shell.order) == shell.minimal_faces


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([2, 3]).flatmap(
        lambda size: st.lists(
            st.frozensets(st.integers(0, 6), min_size=size, max_size=size),
            min_size=1,
            max_size=7,
            unique=True,
        )
    )
)
@example([frozenset("ab"), frozenset("cd")])
@example([frozenset("ab"), frozenset("cd"), frozenset("bc")])
def test_the_search_shells_exactly_the_shellable_complexes(facets):
    """On a random pure complex, facets of size 2 or 3 on at most 7 names,
    ``find_shelling`` returns an order whose minimal new faces are those
    of the subset enumeration, and raises ``NotShellable`` exactly when no
    permutation of the facets is a shelling.  The brute force grows the
    sets of facets that some shelling order starts with, one facet at a
    time, each test by the subset enumeration."""
    starts = {frozenset()}
    for _ in facets:
        starts = {
            prior | {f}
            for prior in starts
            for f in facets
            if f not in prior
            and len(minimal_new_faces_by_subsets(list(prior), f)) == 1
        }
    c = SimplicialComplex(facets, {})
    if starts:
        shell = find_shelling(c)
        assert sorted(map(sorted, shell.order)) == sorted(map(sorted, facets))
        assert shelling_by_subsets(shell.order) == shell.minimal_faces
    else:
        with pytest.raises(NotShellable, match="no shelling order"):
            find_shelling(c)


def test_complex_of_pentagon_is_five_cycle():
    g = fixture("fig7_pentagon")
    c = build_complex(Arrangement(g))
    assert len(c.facets) == 5
    assert all(len(f) == 2 for f in c.facets)
    edges = {tuple(sorted(f)) for f in c.facets}
    # each hyperplane appears in exactly two facets: a 5-cycle
    from collections import Counter

    count = Counter(n for e in edges for n in e)
    assert set(count.values()) == {2}


def test_complex_refuses_disconnected_intersections():
    from gkmgraphs.errors import AssumptionViolation

    with pytest.raises(AssumptionViolation) as ei:
        build_complex(Arrangement(fixture("fig11_sphere")))
    assert ei.value.assumption == 2


def test_complex_facet_count_matches_vertex_count_for_klm():
    for spec in ((1, 1, 1), (2, 1, 2), (2, 2, 2)):
        arr = Arrangement(gen_klm(KlmSpec(*spec)))
        c = build_complex(arr)
        k, l, m = spec
        assert len(c.facets) == k * l + k * m + l * m
        # number of 1-simplices equals the number of graph vertices
        ones = [f for f in complex_faces(arr) if len(f) == 2]
        assert len(ones) == k * l + k * m + l * m


def test_pentagon_shelling_follows_the_cyclic_pattern():
    g = fixture("fig7_pentagon")
    c = build_complex(Arrangement(g))
    # walk the 5-cycle in order: the minimal new faces come out as
    # (empty, vertex, vertex, vertex, full edge)
    adjacency = {}
    for f in c.facets:
        a, b = sorted(f)
        adjacency.setdefault(a, []).append(f)
        adjacency.setdefault(b, []).append(f)
    start = sorted(c.facets, key=lambda f: sorted(f))[0]
    order = [start]
    seen = {start}
    while len(order) < 5:
        last = order[-1]
        nxt = [
            f
            for v in sorted(last)
            for f in adjacency[v]
            if f not in seen
        ]
        order.append(nxt[0])
        seen.add(nxt[0])
    mus = shelling_by_subsets(order)
    assert mus[0] == frozenset()
    assert [len(mu) for mu in mus] == [0, 1, 1, 1, 2]
    assert mus[4] == order[4]


def test_line_points_shellable_in_any_order():
    g = fixture("fig8_line5")
    c = build_complex(Arrangement(g))
    for order in permutations(c.facets):
        assert shelling_by_subsets(order) == [frozenset(), *order[1:]]


def test_klm_212_canonical_shelling_mu_sequence():
    ctx = klm_ctx(2, 1, 2)
    order = [sorted(f) for f in ctx.shelling.order]
    assert order == [
        ["X1", "Y1"], ["X1", "Z1"], ["X1", "Z2"], ["X2", "Y1"],
        ["X2", "Z1"], ["X2", "Z2"], ["Y1", "Z1"], ["Y1", "Z2"],
    ]
    mus = [sorted(f) for f in ctx.shelling.minimal_faces]
    assert mus == [
        [], ["Z1"], ["Z2"], ["X2"],
        ["X2", "Z1"], ["X2", "Z2"], ["Y1", "Z1"], ["Y1", "Z2"],
    ]


def test_klm_canonical_order_verifies_for_other_sizes():
    for spec in ((2, 2, 2), (3, 2, 1), (1, 3, 2)):
        ctx = klm_ctx(*spec)
        assert len(ctx.shelling.order) == len(ctx.complex.facets)


def test_the_search_runs_within_a_small_recursion_limit():
    """The search keeps its own stack: with the recursion limit 40 frames
    above the caller's depth, it still shells the unnamed L(5,5,5), whose
    75 facets a search by recursion would take one frame each."""
    c = build_complex(Arrangement(graph_named("L555-unnamed")))
    assert len(c.facets) == 75
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 40)
    try:
        shell = find_shelling(c)
    finally:
        sys.setrecursionlimit(limit)
    assert shelling_by_subsets(shell.order) == shell.minimal_faces


def test_a_named_graph_whose_lexicographic_order_fails_is_searched():
    """On the renamed pentagon, the third facet of the lexicographic order
    has two minimal new faces, so the search backtracks; the context
    takes the shelling it finds."""
    g = renamed_pentagon()
    c = build_complex(Arrangement(g))
    assert shelling_by_subsets(c.facets[:2]) is not None
    assert len(minimal_new_faces_by_subsets(c.facets[:2], c.facets[2])) == 2
    shell = find_shelling(c)
    assert shell.order[:2] == c.facets[:2] and shell.order != c.facets
    assert shelling_context(g).shelling == shell


@pytest.mark.parametrize(
    "name",
    [f"L{k}{l}{m}-unnamed" for k, l, m in product(range(1, 5), repeat=3)]
    + [f"local_model({n})" for n in range(2, 6)],
)
def test_an_unnamed_graph_gets_its_built_order_without_a_search(
    monkeypatch, name
):
    """On every unnamed rung in [1..4]^3 and on local_model(2..5), the
    context runs the search once, and its first descent takes the built
    facet order with one restriction test per facet and no backtracking.
    Each minimal new face it keeps is the one minimal subset of its facet
    that lies in no earlier facet of that order."""
    calls, tests = [], []

    def spy(complex_):
        calls.append(complex_)
        return find_shelling(complex_)

    def counted(*args):
        tests.append(args)
        return _restriction(*args)

    monkeypatch.setattr(shelling, "find_shelling", spy)
    monkeypatch.setattr(shelling, "_restriction", counted)
    ctx = shelling_context(graph_named(name))
    order = ctx.complex.facets
    assert calls == [ctx.complex]
    assert len(tests) == len(order)
    assert ctx.shelling.order == order
    assert shelling_by_subsets(order) == ctx.shelling.minimal_faces


def test_not_shellable_complex_is_reported():
    # two disjoint edges: the second facet always introduces two minimal
    # vertices at once
    c = SimplicialComplex(
        facets=[frozenset(("a", "b")), frozenset(("c", "d"))],
        facet_vertex={},
    )
    with pytest.raises(NotShellable, match="no shelling order"):
        find_shelling(c)
    assert shelling_by_subsets(c.facets) is None
    assert shelling_by_subsets(c.facets[::-1]) is None


@pytest.mark.parametrize(
    "budget, message",
    [
        (117, "exhaustive search found no shelling order"),
        (116, "search budget of 116 restriction tests exhausted"),
    ],
)
def test_a_dead_prefix_is_searched_once(monkeypatch, budget, message):
    """Five edges on one vertex and an edge apart: every order of the
    star's edges extends, and the sixth edge extends no prefix.  The
    search learns each set of star edges dead once, in 117 restriction
    tests; without the memo of dead prefixes it would run 656."""
    star = [frozenset({0, k}) for k in range(1, 6)]
    c = SimplicialComplex(star + [frozenset({8, 9})], {})
    monkeypatch.setattr(shelling, "SEARCH_BUDGET", budget)
    with pytest.raises(NotShellable, match=f"^{message}$"):
        find_shelling(c)


def test_shelling_interval_partition_and_ordering_facts():
    """Every face lies in exactly one interval [mu_i, sigma_i], and a
    minimal face only appears in facets at or after its own position."""
    for ctx in (
        klm_ctx(2, 1, 2),
        shelling_context(fixture("fig7_pentagon")),
        shelling_context(fixture("fig8_line5")),
    ):
        order = ctx.shelling.order
        mus = ctx.shelling.minimal_faces
        for face in complex_faces(Arrangement(ctx.graph)):
            homes = [
                i
                for i in range(len(order))
                if mus[i] <= face <= order[i]
            ]
            assert len(homes) == 1, (sorted(face), homes)
        for i, mu in enumerate(mus):
            for j, sigma in enumerate(order):
                if mu <= sigma:
                    assert j >= i


@pytest.mark.parametrize("name", ["fig7_pentagon", "fig8_line5", "L212"])
def test_minimal_nonfaces_match_the_enumeration_of_all_subsets(name):
    """The monomial relations of Z[G-tilde] are the minimal non-faces of
    the hyperplane complex: they generate its Stanley-Reisner ideal."""
    ctx = named_ctx(name)
    faces = complex_faces(Arrangement(ctx.graph))
    brute = [
        frozenset(c)
        for size in range(1, len(ctx.names) + 1)
        for c in combinations(sorted(ctx.names), size)
        if frozenset(c) not in faces
        and all(frozenset(c) - {n} in faces for n in c)
    ]
    assert brute
    ring = presentation_ring(ctx.graph, forgetful=True)
    assert ring.monomial_relations == brute


def test_characteristic_functions_of_klm():
    ctx = klm_ctx(2, 1, 2)
    assert ctx.lambdas == {
        "X1": (1, 0), "X2": (1, 0), "Y1": (0, 1),
        "Z1": (-1, -1), "Z2": (-1, -1),
    }


def test_characteristic_function_rank_one():
    ctx = named_ctx("fig8_line5")
    lambdas = characteristic_functions(ctx.complex, ctx.taus)
    assert lambdas == ctx.lambdas
    assert all(lam in ((1,), (-1,)) for lam in lambdas.values())


def test_characteristic_function_consistency_across_vertices():
    # the context checks the lift identity at every facet point
    ctx = shelling_context(fixture("fig7_pentagon"))
    assert characteristic_functions(ctx.complex, ctx.taus) == ctx.lambdas


def test_characteristic_function_detects_corruption():
    ctx = klm_ctx(2, 1, 2)
    tau = ctx.taus["X1"]
    # flip tau_X1 at its last vertex, so the covector solved at the first
    # facet no longer lifts there
    v = max(p for p, a in tau.items() if any(a))
    ctx.taus["X1"] = {**tau, v: tuple(-a for a in tau[v])}
    with pytest.raises(InconsistentLambda):
        FacetLocalizations(ctx)


def test_each_covector_is_dual_to_the_thom_values_at_every_vertex():
    """lambda(L) . tau_M(v) = delta_LM at every vertex v of every L."""
    ctx = named_ctx("fig7_pentagon")
    planes = {h.name: h for h in all_hyperplanes(ctx.graph)}
    for name_l, lam in ctx.lambdas.items():
        for v in planes[name_l].vertices:
            for name_m, tau in ctx.taus.items():
                dot = sum(a * b for a, b in zip(lam, tau[v]))
                assert dot == int(name_l == name_m), (name_l, name_m, v)


@pytest.mark.parametrize(
    "facets, taus",
    [
        ([("A", "B")], {"A": {"p0": (1, 0)}, "B": {"p0": (0, 2)}}),
        # C alone is new at the second facet, and lambda = (0, 1) solves
        # its row of the duality system there, but T_p has determinant 2
        (
            [("A", "B"), ("A", "C")],
            {
                "A": {"p0": (1, 0), "p1": (2, 0)},
                "B": {"p0": (0, 1), "p1": (0, 0)},
                "C": {"p0": (0, 0), "p1": (0, 1)},
            },
        ),
    ],
    ids=["first-facet", "second-facet"],
)
def test_a_facet_whose_tau_matrix_is_not_unimodular_is_refused(facets, taus):
    """The covectors are the columns of T_p^-1, which is integral only
    when T_p is unimodular; a facet whose Hermite form is not the
    identity is refused, whichever of its names are new."""
    facets = [frozenset(f) for f in facets]
    points = {f: f"p{i}" for i, f in enumerate(facets)}
    point = points[facets[-1]]
    with pytest.raises(
        InconsistentLambda,
        match=f"no covector solves the duality system at '{point}'",
    ):
        characteristic_functions(SimplicialComplex(facets, points), taus)


def test_module_basis_examples():
    ctx = klm_ctx(2, 1, 2)
    names = [basis_monomial_name(b) for b in module_basis(ctx)]
    assert names == ["1", "Z1", "Z2", "X2", "X2*Z1", "X2*Z2", "Y1*Z1", "Y1*Z2"]
    g = fixture("fig8_line5")
    ctx8 = shelling_context(g)
    names8 = {basis_monomial_name(b) for b in module_basis(ctx8)}
    assert names8 == {"1", "L2", "L3", "L4", "L5"}


def test_module_basis_degrees_give_solver_ranks():
    for spec in ((1, 1, 1), (2, 1, 2)):
        ctx = klm_ctx(*spec)
        for k in range(4):
            _, rank = cohomology_basis(ctx.graph, k, forgetful=True)
            assert rank == hilbert_rank(ctx, k)
    ctx7 = shelling_context(fixture("fig7_pentagon"))
    for k in range(4):
        _, rank = cohomology_basis(ctx7.graph, k, forgetful=True)
        assert rank == hilbert_rank(ctx7, k)


def poly_of(ctx, *names_exps):
    mono = [0] * len(ctx.names)
    for name, e in names_exps:
        mono[ctx.names.index(name)] += e
    return IntPolynomial(len(ctx.names), {tuple(mono): 1})


def named_expansion(ctx, poly):
    """The nonzero coefficients of ``poly`` by basis monomial name, as
    strings in e1, e2."""
    basis = module_basis(ctx)
    return {
        basis_monomial_name(basis[i]): c.to_string(["e1", "e2"])
        for i, c in express_in_basis(ctx, poly).items()
        if not c.is_zero()
    }


def test_expansion_of_z1_squared():
    ctx = klm_ctx(2, 1, 2)
    named = named_expansion(ctx, poly_of(ctx, ("Z1", 2)))
    assert named == {"Z1": "-e2", "Y1*Z1": "1"}


def test_expansion_of_x2_squared():
    ctx = klm_ctx(2, 1, 2)
    named = named_expansion(ctx, poly_of(ctx, ("X2", 2)))
    assert named == {"X2": "e1", "X2*Z1": "1", "X2*Z2": "1"}


def test_basis_idempotence():
    ctx = klm_ctx(2, 1, 2)
    basis = module_basis(ctx)
    for i, b in enumerate(basis):
        exp = express_in_basis(ctx, monomial_poly(ctx, b))
        nonzero = {
            j: c for j, c in exp.items() if not c.is_zero()
        }
        assert set(nonzero) == {i}
        assert nonzero[i] == IntPolynomial.constant(ctx.graph.rank, 1)


def test_expansion_reconstructs_under_localization():
    ctx = klm_ctx(2, 1, 2)
    f = poly_of(ctx, ("X2", 1), ("Z1", 1)) + 2 * poly_of(ctx, ("Y1", 2))
    exp = express_in_basis(ctx, f)
    basis = module_basis(ctx)
    recon = IntPolynomial(len(ctx.names))
    for i, c in exp.items():
        recon = recon + lift_coefficient(ctx, c) * monomial_poly(ctx, basis[i])
    for sigma in ctx.shelling.order:
        p = ctx.complex.facet_vertex[sigma]
        assert localize_at(ctx, f, p) == localize_at(ctx, recon, p)


@st.composite
def ring_elements(draw):
    """A context and a polynomial of degree <= 3 in its generators."""
    name = draw(st.sampled_from(["L212", "L322", "fig7_pentagon", "fig8_line5"]))
    ctx = named_ctx(name)
    terms = draw(
        st.lists(
            st.tuples(
                st.lists(st.sampled_from(ctx.names), max_size=3),
                st.integers(-5, 5),
            ),
            max_size=5,
        )
    )
    poly = IntPolynomial(len(ctx.names))
    for gens, c in terms:
        poly = poly + c * monomial_poly(ctx, gens)
    return ctx, poly


@settings(max_examples=40, deadline=None)
@given(ring_elements())
def test_expansion_agrees_with_the_ring_path(case):
    """sum lift(a_i) * x_{mu_i}, formed in the ring of hyperplane
    generators, localizes to the input at every vertex."""
    ctx, f = case
    exp = express_in_basis(ctx, f)
    basis = module_basis(ctx)
    recon = IntPolynomial(len(ctx.names))
    for i, c in exp.items():
        recon = recon + lift_coefficient(ctx, c) * monomial_poly(ctx, basis[i])
    for v in ctx.graph.vertices:
        assert localize_at(ctx, recon, v) == localize_at(ctx, f, v)


@settings(max_examples=40, deadline=None)
@given(ring_elements())
def test_facet_coordinate_expansion_matches_the_division_oracle(case):
    """The coefficients found by exponent shifts in facet coordinates are
    those of exact division by the Thom values in the e_j."""
    ctx, f = case
    assert express_in_basis(ctx, f) == expand_by_division(ctx, f)


def test_a_localization_that_is_not_divisible_is_refused():
    ctx = klm_ctx(2, 1, 2)
    maps = ctx.localizations
    i = next(i for i, mu in enumerate(ctx.shelling.minimal_faces) if mu)
    # a constant at the i-th point lacks the exponents of x_{mu_i}
    with pytest.raises(InexactDivision, match="not divisible"):
        _expand(maps, {i: {(0,) * ctx.graph.rank: 1}})
    # x_{mu_i}, y^{mu_i} at the facets that contain mu_i, expands to itself;
    # a subtraction that lands on a facet already passed leaves a
    # remainder, which the final check catches
    def x_mu():
        return {k: {exps: 1} for k, exps in maps.carriers[i].items()}

    one = IntPolynomial.constant(ctx.graph.rank, 1)
    assert _expand(maps, x_mu()) == {i: one}
    maps.carriers[i] = {0: (0,) * ctx.graph.rank, **maps.carriers[i]}
    with pytest.raises(InexactDivision, match="remainder"):
        _expand(maps, {k: loc for k, loc in x_mu().items() if k})


def test_expansion_rejects_a_lambda_that_does_not_lift(monkeypatch):
    ctx = klm_ctx(2, 1, 2)
    lam = ctx.lambdas["X1"]
    monkeypatch.setitem(ctx.lambdas, "X1", (lam[0] + 1,) + lam[1:])
    with pytest.raises(InconsistentLambda):
        FacetLocalizations(ctx)


def test_localization_matrix_is_triangular_with_nonzero_diagonal():
    for ctx in (klm_ctx(2, 1, 2), shelling_context(fixture("fig7_pentagon"))):
        basis = module_basis(ctx)
        for i, sigma in enumerate(ctx.shelling.order):
            p = ctx.complex.facet_vertex[sigma]
            for j in range(len(basis)):
                val = localize_at(ctx, monomial_poly(ctx, basis[j]), p)
                if j > i:
                    assert val.is_zero()
                if j == i:
                    assert not val.is_zero()


def test_algebra_unit_identity():
    # sum_i <e_j, lambda(L_i)> tau_{L_i} localizes to e_j at every vertex
    for ctx in (klm_ctx(2, 1, 2), shelling_context(fixture("fig8_line5"))):
        n = ctx.graph.rank
        for j in range(n):
            for v in ctx.graph.vertices:
                total = [0] * n
                for name in ctx.names:
                    c = ctx.lambdas[name][j]
                    total = [t + c * a for t, a in zip(total, ctx.taus[name][v])]
                assert total == [int(i == j) for i in range(n)]


def test_relation_for_hyperplane_klm():
    ctx = klm_ctx(2, 1, 2)
    facet = frozenset({"X1", "Y1"})
    coeffs, u = relation_for_hyperplane(ctx, facet, "X1")
    assert u == (1, 0)
    assert coeffs == {"X1": 1, "X2": 1, "Z1": -1, "Z2": -1}
    coeffs, u = relation_for_hyperplane(ctx, facet, "Y1")
    assert u == (0, 1)
    assert coeffs == {"Y1": 1, "Z1": -1, "Z2": -1}


def test_relation_for_hyperplane_rank_one():
    ctx = shelling_context(fixture("fig8_line5"))
    facet = ctx.shelling.order[0]
    (name,) = facet
    coeffs, u = relation_for_hyperplane(ctx, facet, name)
    # sum of <u, lambda> L over all hyperplanes equals u
    assert all(c == ctx.lambdas[n][0] * u[0] for n, c in coeffs.items())


def test_ordinary_cohomology_212():
    ctx = klm_ctx(2, 1, 2)
    table = ordinary_cohomology(ctx)
    assert table["ordinary_ranks"] == {"0": 1, "1": 3, "2": 4}
    assert table["ordinary_products"]["X2*X2"] == {"X2*Z1": 1, "X2*Z2": 1}
    assert table["ordinary_products"]["Z1*Z1"] == {"Y1*Z1": 1}
    assert table["ordinary_products"]["Z1*Z2"] == {}
    assert table["ordinary_products"]["Z2*Z2"] == {"Y1*Z2": 1}


@st.composite
def _rung_renamed(draw):
    """A rung L(k,l,m) with k, l, m <= 5, its spec, and how its hyperplanes
    are named: as ``gen klm`` names them, each name prefixed, the names
    permuted across the three directions, or not at all."""
    spec = draw(st.tuples(*[st.integers(1, 5)] * 3))
    naming = draw(st.sampled_from(["klm", "prefixed", "permuted", "unnamed"]))
    doc = gen_klm(KlmSpec(*spec)).to_dict()
    names = sorted(doc["hyperplane_names"])
    if naming == "unnamed":
        del doc["hyperplane_names"], doc["positive_normals"]
    elif naming != "klm":
        rename = (
            {n: "A" + n for n in names}
            if naming == "prefixed"
            else dict(zip(names, draw(st.permutations(names))))
        )
        for key in ("hyperplane_names", "positive_normals"):
            doc[key] = {rename[n]: v for n, v in doc[key].items()}
    return spec, graph_from_dict(doc)


@settings(max_examples=40, deadline=None)
@given(_rung_renamed())
def test_betti_numbers_of_a_rung_have_their_closed_form(case):
    """On L(k,l,m), N = k + l + m lines with P = kl + km + lm crossings, the
    minimal new faces of the shelling number (1, N - 2, P - N + 1) by
    size, the h-vector of the arrangement, and so do the ordinary ranks
    of the structure-constant table: on the verified lexicographic order
    of a named rung, whatever its names, and on the search's order of an
    unnamed one.  The arithmetic shares no code with ``build_complex`` or
    ``find_shelling``."""
    (k, l, m), g = case
    n, p = k + l + m, k * l + k * m + l * m
    expected = [1, n - 2, p - n + 1]
    ctx = shelling_context(g)
    sizes = [len(mu) for mu in ctx.shelling.minimal_faces]
    assert [sizes.count(d) for d in range(3)] == expected
    assert len(sizes) == sum(expected)
    ranks = ordinary_cohomology(ctx)["ordinary_ranks"]
    assert ranks == {str(d): c for d, c in enumerate(expected)}


@pytest.mark.parametrize(
    "name",
    ["fig2_left", "fig7_pentagon", "fig8_line5"]
    + [f"local_model({n})" for n in range(2, 5)]
    + ["L111", "L212", "L222", "L333"],
)
def test_every_pair_of_basis_elements_has_its_own_product_key(name):
    """A key ``"A*B"`` joins two basis names that may hold ``*``
    themselves, so two pairs could share one key and the later would
    overwrite the earlier.  On the figures that shell, local_model(2..4)
    and four rungs, both product tables have one key per unordered pair:
    N(N + 1)/2 for N basis elements (378 on L333)."""
    table = ordinary_cohomology(shelling_context(graph_named(name)))
    n = len(table["basis"])
    assert len(table["equivariant_products"]) == n * (n + 1) // 2
    assert len(table["ordinary_products"]) == n * (n + 1) // 2


def test_the_pentagon_pairing_into_the_top_class_is_unimodular():
    """fig7_pentagon is the cotangent bundle of a toric surface, whose
    zero section is compact, so Poincare duality makes the ordinary
    pairing of degree 1 with degree 1 into the top class unimodular.  In
    basis order L3, L5, L4, into L4*L5, it is [[0, 0, 1], [0, -1, 1],
    [1, 1, 0]], of determinant 1 by Leibniz's formula."""
    table = ordinary_cohomology(shelling_context(fixture("fig7_pentagon")))
    basis, degrees = table["basis"], table["degrees"]
    ones = [b for b, d in zip(basis, degrees) if d == 1]
    (top,) = [b for b, d in zip(basis, degrees) if d == 2]
    assert (ones, top) == (["L3", "L5", "L4"], "L4*L5")
    products = table["ordinary_products"]

    def pair(a, b):
        a, b = sorted((a, b), key=basis.index)
        return products[f"{a}*{b}"].get(top, 0)

    pairing = [[pair(a, b) for b in ones] for a in ones]
    assert pairing == [[0, 0, 1], [0, -1, 1], [1, 1, 0]]
    det = 0
    for perm in permutations(range(3)):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(3), 2))
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term *= pairing[i][j]
        det += term
    assert det in (1, -1)


def test_ordinary_structure_constants_all_one():
    for spec in ((1, 1, 1), (2, 1, 2), (2, 2, 2), (3, 2, 1)):
        table = ordinary_cohomology(klm_ctx(*spec))
        for prods in table["ordinary_products"].values():
            assert all(c == 1 for c in prods.values())
