"""Solver, forgetful theory, presentation rings and the graded comparison."""

import json
import random
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gkmgraphs.cohomology as cohomology
from gkmgraphs.cohomology import (
    cohomology_basis,
    kernel_forgetful_check,
    presentation_ring,
    solver_rank,
    verify_iso,
)
from gkmgraphs.errors import AssumptionViolation, CongruenceFailure
from gkmgraphs.fixtures import (
    FIXTURE_IDS,
    KlmSpec,
    fixture,
    gen_klm,
    local_model,
)
from gkmgraphs.graph import Dart, GkmGraph, load_graph, serialize
from gkmgraphs.hyperplanes import (
    _name_key,
    all_hyperplanes,
    choose_positive_halfspace,
    thom_class,
)
from gkmgraphs.polynomials import IntPolynomial
from oracles import (
    CohomologyClass,
    _label_divides,
    chi_class,
    class_satisfies_congruences,
    class_to_vector,
    constant_class,
    divide_exact_by_linear,
    evaluate_generator,
    forgetful_thom_class,
    linear_form,
    reduced_relations,
    vector_class,
    vector_to_class,
)


def test_rank_zero_is_one_for_every_valid_graph():
    for g in (
        fixture("fig2_left"),
        fixture("fig7_pentagon"),
        fixture("fig8_line5"),
        local_model(2),
        gen_klm(KlmSpec(2, 1, 2)),
    ):
        classes, rank = cohomology_basis(g, 0)
        assert rank == 1
        assert classes == [(1,) * len(g.vertices)]
        assert vector_to_class(g, classes[0], 0) == constant_class(
            g.vertices, g.rank + 1
        )


def test_solver_output_satisfies_congruences():
    g = fixture("fig7_pentagon")
    for k in (1, 2):
        classes, _ = cohomology_basis(g, k)
        for vec in classes:
            assert class_satisfies_congruences(g, vector_to_class(g, vec, k))


def _doubled(fixture_id, dart_ids):
    """The fixture with the labels of the given darts doubled.  The stored
    connection is dropped: it no longer fits the doubled labels."""
    g = fixture(fixture_id)
    darts = [
        Dart(
            d.id, d.source, d.target, d.opposite, tuple(2 * a for a in d.axial)
        )
        if d.id in dart_ids
        else d
        for d in g.darts.values()
    ]
    return GkmGraph(g.rank, darts)


# Bases recorded from the earlier solver, which had one quotient unknown
# per edge and lower-degree monomial: degrees 0..3, one tuple of vertex
# values per class.
DOUBLED_SPHERE_BASES = {
    False: [
        [("1", "1")],
        [("t1", "t1"), ("t2", "t2"), ("t3", "t3")],
        [("t1^2", "t1^2"), ("t1*t2", "t1*t2"), ("t1*t3", "t1*t3"),
         ("t2^2", "t2^2"), ("t2*t3", "t2*t3"), ("t3^2", "t3^2"),
         ("0", "2*t1*t2")],
        [("t1^3", "t1^3"), ("t1^2*t2", "t1^2*t2"), ("t1^2*t3", "t1^2*t3"),
         ("t1*t2^2", "t1*t2^2"), ("t1*t2*t3", "t1*t2*t3"),
         ("t1*t3^2", "t1*t3^2"), ("t2^3", "t2^3"), ("t2^2*t3", "t2^2*t3"),
         ("t2*t3^2", "t2*t3^2"), ("t3^3", "t3^3"), ("0", "2*t1^2*t2"),
         ("0", "2*t1*t2^2"), ("0", "2*t1*t2*t3")],
    ],
    True: [
        [("1", "1")],
        [("t1", "t1"), ("t2", "t2")],
        [("t1^2", "t1^2"), ("t1*t2", "t1*t2"), ("t2^2", "t2^2"),
         ("0", "2*t1*t2")],
        [("t1^3", "t1^3"), ("t1^2*t2", "t1^2*t2"), ("t1*t2^2", "t1*t2^2"),
         ("t2^3", "t2^3"), ("0", "2*t1^2*t2"), ("0", "2*t1*t2^2")],
    ],
}

DOUBLED_LINE_FORGETFUL_BASES = [
    [("1", "1", "1", "1", "1")],
] + [
    [(t, t, "0", "0", "0"), ("0", f"2*{t}", "0", "0", "0"),
     ("0", "0", t, "0", "0"), ("0", "0", "0", t, "0"),
     ("0", "0", "0", "0", t)]
    for t in ("t1", "t1^2", "t1^3")
]


@pytest.mark.parametrize("forgetful", [False, True])
def test_non_primitive_label_bases(forgetful):
    """An edge label of content 2 keeps a mod-2 condition beside its
    restriction rows; the bases are the recorded ones."""
    g = _doubled("fig11_sphere", ("bot:eL", "top:eL"))
    for k, expected in enumerate(DOUBLED_SPHERE_BASES[forgetful]):
        classes, rank = cohomology_basis(g, k, forgetful=forgetful)
        assert [
            tuple(vector_to_class(g, c, k, forgetful).to_strings().values())
            for c in classes
        ] == expected
        assert rank == len(expected)


def test_rank_one_forgetful_bases_with_a_non_primitive_label():
    """With one variable ker alpha = 0, so a piece of degree k >= 1 has no
    restriction rows; only the doubled label adds a condition (mod 2)."""
    g = _doubled("fig8_line5", ("p1:e", "p2:w"))
    for k, expected in enumerate(DOUBLED_LINE_FORGETFUL_BASES):
        classes, rank = cohomology_basis(g, k, forgetful=True)
        assert [
            tuple(vector_to_class(g, c, k, True).to_strings().values())
            for c in classes
        ] == expected
        assert rank == len(expected)


@st.composite
def _label_and_poly(draw):
    n = draw(st.integers(2, 4))
    base = draw(st.tuples(*[st.integers(-3, 3)] * n).filter(any))
    alpha = tuple(draw(st.integers(1, 3)) * a for a in base)
    content = gcd(*alpha)
    factor = draw(st.sampled_from([alpha, tuple(a // content for a in alpha)]))
    monos = st.tuples(*[st.integers(0, 2)] * n).filter(lambda m: sum(m) <= 2)
    quotient = IntPolynomial(
        n, draw(st.dictionaries(monos, st.integers(-3, 3), max_size=4))
    )
    noise_monos = st.tuples(*[st.integers(0, 3)] * n).filter(
        lambda m: sum(m) <= 3
    )
    noise = IntPolynomial(
        n, draw(st.dictionaries(noise_monos, st.integers(-2, 2), max_size=2))
    )
    return alpha, linear_form(factor) * quotient + noise


@settings(max_examples=200, deadline=None)
@given(_label_and_poly())
def test_label_map_divisibility_agrees_with_exact_division(case):
    """The label-map test against exact division, an independent oracle."""
    alpha, f = case
    expected = divide_exact_by_linear(f, alpha) is not None
    assert _label_divides({}, alpha, f.terms) == expected


@pytest.mark.parametrize(
    "graph, degree, forgetful",
    [
        (lambda: fixture("fig2_left"), 0, False),
        (lambda: fixture("fig2_left"), 2, False),
        (lambda: fixture("fig7_pentagon"), 1, True),
        (lambda: _doubled("fig11_sphere", ("bot:eL", "top:eL")), 1, False),
    ],
    ids=["fig2-0", "fig2-2", "fig7-1-forgetful", "doubled-sphere-1"],
)
def test_solver_check_rejects_a_corrupted_kernel(
    monkeypatch, graph, degree, forgetful
):
    """One coefficient off in the kernel must not reach the output."""
    real = cohomology.kernel_basis

    def corrupted(*args, **kwargs):
        kern = real(*args, **kwargs)
        first = list(kern[0])
        first[0] += 1
        return [tuple(first)] + kern[1:]

    monkeypatch.setattr(cohomology, "kernel_basis", corrupted)
    with pytest.raises(CongruenceFailure, match="solver output"):
        cohomology_basis(graph(), degree, forgetful=forgetful)


@pytest.mark.parametrize(
    "graph",
    [
        lambda: fixture("fig2_left"),
        lambda: fixture("fig7_pentagon"),
        lambda: gen_klm(KlmSpec(2, 1, 2)),
        lambda: _doubled("fig11_sphere", ("bot:eL", "top:eL")),
    ],
    ids=["fig2", "fig7", "L212", "doubled-sphere"],
)
@pytest.mark.parametrize("forgetful", [False, True], ids=["full", "forgetful"])
def test_vector_check_agrees_with_the_polynomial_check(graph, forgetful):
    """Each coefficient of each solver class of degrees 0..2, bumped in
    turn by 1 and by 2: the solver's check on coefficient vectors and
    ``class_satisfies_congruences`` on the polynomial class agree.  Both
    verdicts occur: some bumps add a multiple of every label at a
    vertex."""
    g = graph()
    nvars = g.rank if forgetful else g.rank + 1
    verdicts = set()
    for k in range(3):
        classes, _ = cohomology_basis(g, k, forgetful=forgetful)
        width = len(classes[0]) // len(g.vertices)
        edges = cohomology._edges(g, nvars, k, width)
        for vec in classes:
            assert cohomology._vector_satisfies_congruences(vec, edges, width)
            for i in range(len(vec)):
                for step in (1, 2):
                    bumped = vec[:i] + (vec[i] + step,) + vec[i + 1 :]
                    verdict = cohomology._vector_satisfies_congruences(
                        bumped, edges, width
                    )
                    cls = vector_to_class(g, bumped, k, forgetful)
                    assert verdict == class_satisfies_congruences(g, cls)
                    verdicts.add(verdict)
    assert verdicts == {False, True}


def test_degree_one_rank_matches_presentation_both_ways():
    g = fixture("fig2_left")
    # full: 7 generators modulo 3 linear relations
    _, rank = cohomology_basis(g, 1, forgetful=False)
    assert rank == 4
    _, rank = cohomology_basis(g, 1, forgetful=True)
    assert rank == 3


def test_klm212_forgetful_degree_one_rank():
    g = gen_klm(KlmSpec(2, 1, 2))
    _, rank = cohomology_basis(g, 1, forgetful=True)
    # free module with basis degrees (0,1,1,1,2,2,2,2): 2*1 + 3
    assert rank == 5


def test_forgetful_labels():
    g = fixture("fig2_left")
    labels = {g.axial(d)[: g.rank] for d in g.darts_at("p")}
    assert labels == {(1, 0), (0, 1), (-1, 0), (0, -1)}
    lm = local_model(2)
    assert {lm.axial(d)[: lm.rank] for d in lm.darts_at("o")} == {
        (1, 0), (0, 1), (-1, 0), (0, -1)
    }
    sphere = fixture("fig11_sphere")
    top = {sphere.axial(d)[: sphere.rank] for d in sphere.darts_at("top")}
    assert top == {(1, 0), (0, 1), (-1, 0), (0, -1)}


def test_class_arity_picks_its_labels():
    """A forgetful class (n variables) is checked against the labels with
    their residual coordinate erased; the same vectors padded with a zero
    x coordinate are checked against the full labels, which they fail."""
    g = gen_klm(KlmSpec(2, 1, 2))
    planes = all_hyperplanes(g)
    failing = 0
    for h in planes:
        pos, _ = choose_positive_halfspace(g, h)
        values = {v: t[: g.rank] for v, t in thom_class(g, pos).items()}
        tau = vector_class(values)
        assert tau.nvars == g.rank
        assert class_satisfies_congruences(g, tau)
        padded = vector_class({v: a + (0,) for v, a in values.items()})
        assert padded.nvars == g.rank + 1
        failing += not class_satisfies_congruences(g, padded)
    assert failing == 4 and len(planes) == 5


def test_forgetful_thom_class_of_vertical_line():
    g = fixture("fig2_left")
    planes = {h.name: h for h in all_hyperplanes(g)}
    vertical = planes["L2"]
    a, b = choose_positive_halfspace(g, vertical)
    # pick the side whose normals point left (q is its interior vertex)
    left_pointing = a if "q" in a.vertices else b
    tau = {v: t[:2] for v, t in thom_class(g, left_pointing).items()}
    assert tau == {"p": (0, -1), "q": (0, 0), "r": (1, -1)}


def test_presentation_ring_forgetful_relations_for_klm():
    g = gen_klm(KlmSpec(2, 1, 2))
    ring = presentation_ring(g, forgetful=True)
    assert ring.generators == ["X1", "X2", "Y1", "Z1", "Z2"]
    fams = {frozenset(f) for f in ring.monomial_relations}
    assert fams == {
        frozenset({"X1", "X2"}),
        frozenset({"Z1", "Z2"}),
        frozenset({"X1", "Y1", "Z1"}),
        frozenset({"X1", "Y1", "Z2"}),
        frozenset({"X2", "Y1", "Z1"}),
        frozenset({"X2", "Y1", "Z2"}),
    }


def test_presentation_ring_forgetful_relations_for_points_on_a_line():
    g = fixture("fig8_line5")
    ring = presentation_ring(g, forgetful=True)
    fams = {frozenset(f) for f in ring.monomial_relations}
    names = ring.generators
    assert fams == {
        frozenset({a, b}) for a in names for b in names if a < b
    }


def test_presentation_ring_full_shape():
    g = fixture("fig2_left")
    ring = presentation_ring(g, forgetful=False)
    assert ring.generators[0] == "X"
    assert len(ring.generators) == 7
    # every relation family has empty common intersection by construction
    assert ring.monomial_relations
    # H_i + Hbar_i evaluates to chi
    chi = chi_class(g)
    for i in (1, 2, 3):
        s = vector_class(ring.values[f"H{i}"]) + vector_class(
            ring.values[f"Hbar{i}"]
        )
        assert s == chi


def test_presentation_ring_requires_assumptions():
    with pytest.raises(AssumptionViolation) as ei:
        presentation_ring(fixture("fig2_right"))
    assert ei.value.assumption == 1
    # assumption (2) is only recorded: verification compares anyway
    ring = presentation_ring(fixture("fig11_sphere"), forgetful=True)
    assert not ring.assumptions.ok2
    assert ring.monomial_relations == []


def test_evaluate_generator():
    g = fixture("fig2_left")
    ring = presentation_ring(g)
    assert evaluate_generator(ring, {"X": 1}) == chi_class(g)
    # a relation monomial evaluates to the zero class
    fam = min(ring.monomial_relations, key=len)
    cls = evaluate_generator(ring, {name: 1 for name in fam})
    assert cls.is_zero()
    # H_i * Hbar_i is supported exactly on the hyperplane, the i-th in
    # name order
    hp_of = min((h.name for h in all_hyperplanes(g)), key=_name_key)
    planes = {h.name: h for h in all_hyperplanes(g)}
    prod = evaluate_generator(ring, {"H1": 1, "Hbar1": 1})
    for v in g.vertices:
        if v in planes[hp_of].vertices:
            assert not prod.values[v].is_zero()
        else:
            assert prod.values[v].is_zero()


def test_localize():
    g = fixture("fig2_left")
    c = constant_class(g.vertices, g.rank + 1, 5)
    five = IntPolynomial.constant(3, 5)
    assert dict(c.values) == {v: five for v in g.vertices}


# the figures, local_model(2..4) and the ladder rungs up to L(3,3,3)
RANK_GRAPHS = [
    *FIXTURE_IDS,
    *(f"local_model({n})" for n in (2, 3, 4)),
    *("111", "212", "222", "322", "333"),
]


@pytest.mark.parametrize("graph", RANK_GRAPHS)
@pytest.mark.parametrize("forgetful", [False, True], ids=["full", "forgetful"])
def test_solver_rank_is_the_rank_of_the_solved_piece(graph, forgetful):
    """The rank of the congruence system without its classes is the rank
    of the Hermite-reduced basis, degree by degree up to 5."""
    if graph.isdigit():
        g = gen_klm(KlmSpec(*map(int, graph)))
    else:
        g = fixture(graph)
    for k in range(6):
        assert solver_rank(g, k, forgetful) == cohomology_basis(
            g, k, forgetful
        )[1]


@pytest.mark.parametrize("graph", RANK_GRAPHS)
def test_forgetful_classes_are_the_cut_thom_classes(graph):
    """The forgetful ring's generators and the shelling's tau_L, each the
    positive Thom class with x cut off, are the forgetful Thom classes
    built from their definition.  fig2_right has no halfspace generators,
    and fig11_sphere, which fails assumption (2), no shelling."""
    from gkmgraphs.shelling import shelling_context

    if graph.isdigit():
        g = gen_klm(KlmSpec(*map(int, graph)))
    else:
        g = fixture(graph)
    if graph == "fig2_right":
        with pytest.raises(AssumptionViolation) as ei:
            presentation_ring(g, forgetful=True)
        assert ei.value.assumption == 1
        return
    expected = {}
    for h in all_hyperplanes(g):
        pos, _ = choose_positive_halfspace(g, h)
        expected[h.name] = forgetful_thom_class(g, h, pos)
    assert presentation_ring(g, forgetful=True).values == expected
    if graph == "fig11_sphere":
        with pytest.raises(AssumptionViolation) as ei:
            shelling_context(g)
        assert ei.value.assumption == 2
        return
    assert shelling_context(g).taus == expected


def test_verify_iso_positive_fixtures_small():
    for g in (fixture("fig2_left"), fixture("fig8_line5")):
        for forgetful in (False, True):
            rep = verify_iso(g, max_degree=3, forgetful=forgetful)
            assert rep["ok"], rep


def test_verify_iso_hilbert_cross_check_klm111():
    from gkmgraphs.shelling import hilbert_rank, shelling_context

    g = gen_klm(KlmSpec(1, 1, 1))
    ctx = shelling_context(g)
    rep = verify_iso(g, max_degree=4, forgetful=True)
    assert rep["ok"]
    for k, row in rep["degrees"].items():
        assert row["solver_rank"] == hilbert_rank(ctx, k)


def test_verify_iso_detects_missing_generator_on_sphere_graph():
    rep = verify_iso(fixture("fig11_sphere"), max_degree=2, forgetful=True)
    assert not rep["assumption2_ok"]
    assert rep["degrees"][2]["solver_rank"] == 4
    assert rep["degrees"][2]["image_rank"] == 3
    assert rep["degrees"][2]["surjective"] is False
    # degree 1 still matches; the failure starts at degree 2
    assert rep["degrees"][1]["match"]


@st.composite
def _renamed_rung(draw):
    """A rung L(k,l,m) with k, l, m <= 3 whose hyperplane names (and the
    positive normals kept under them) are permuted, so that its generators
    H_1..H_m, or its forgetful generators, come in another order."""
    spec = KlmSpec(*(draw(st.integers(1, 3)) for _ in range(3)))
    doc = json.loads(serialize(gen_klm(spec)))
    names = sorted(doc["hyperplane_names"])
    rename = dict(zip(names, draw(st.permutations(names))))
    for key in ("hyperplane_names", "positive_normals"):
        doc[key] = {rename[n]: v for n, v in doc[key].items()}
    return load_graph(json.dumps(doc))


@settings(max_examples=25, deadline=None)
@given(_renamed_rung(), st.booleans())
def test_standard_monomials_count_the_presentation(g, forgetful):
    """|S_k|, the standard monomials of the leading monomials, is the
    Macaulay rank count (monomials less the rank of the relations' degree-k
    piece) in both theories to degree 5.  ``verify_iso`` reports |S_k| as
    the presentation rank, and takes no fallback on these rungs."""
    with mock.patch.object(
        cohomology, "_ideal_rank_full", wraps=cohomology._ideal_rank_full
    ) as fallback:
        rep = verify_iso(g, max_degree=5, forgetful=forgetful)
    assert fallback.call_count == 0
    assert rep["ok"]
    names, rels = reduced_relations(presentation_ring(g, forgetful), forgetful)
    for k, row in rep["degrees"].items():
        macaulay = cohomology._ideal_rank_full(rels, len(names), k)
        assert row["presentation_rank"] == row["monomials"] - macaulay


@pytest.mark.parametrize("source", [["--fixture", "fig7_pentagon"], ["@222"]])
def test_a_withheld_leading_monomial_takes_the_fallback(
    monkeypatch, capsys, tmp_path, source
):
    """Without the leading monomial of least degree, S_k holds one
    monomial too many in that degree, so Psi cannot be injective on it:
    the Macaulay rank runs there, and the document is the same."""
    from gkmgraphs.cli import main

    if source == ["@222"]:
        path = tmp_path / "L222.json"
        path.write_text(serialize(gen_klm(KlmSpec(2, 2, 2))))
        source = [str(path)]
    argv = ["verify-iso", *source, "--max-degree", "4"]
    expected = main(argv), capsys.readouterr().out
    leading = cohomology._leading_monomials
    withheld = []

    def withhold(*args):
        leads = leading(*args)
        withheld.append(min(leads, key=sum))
        return [lead for lead in leads if lead != withheld[-1]]

    degrees = []
    full = cohomology._ideal_rank_full
    monkeypatch.setattr(cohomology, "_leading_monomials", withhold)
    monkeypatch.setattr(
        cohomology,
        "_ideal_rank_full",
        lambda rels, ngens, k: degrees.append(k) or full(rels, ngens, k),
    )
    assert (main(argv), capsys.readouterr().out) == expected
    assert expected[0] == 0
    assert sum(withheld[0]) in degrees


def test_the_certificate_refuses_a_relation_that_psi_does_not_kill(monkeypatch):
    """``_relations_vanish`` holds on a good ring.  It fails on a family
    with a common vertex, and on a generator whose class, through its
    linear form, is not zero off its vertex set: for Hbar_i = X - H_i that
    is H_i changed at a vertex of its halfspace off its hyperplane.
    ``verify_iso`` then raises."""
    g = gen_klm(KlmSpec(2, 1, 2))
    for forgetful in (False, True):
        assert cohomology._relations_vanish(presentation_ring(g, forgetful))
    ring = presentation_ring(g)
    ring.monomial_relations.append(frozenset({"H1"}))
    assert not cohomology._relations_vanish(ring)
    ring = presentation_ring(g)
    sets = ring.vertex_sets
    # a vertex of some H_i's halfspace off the hyperplane, where X - H_i is 0
    v = min(set.union(*(sets[f"H{i}"] - sets[f"Hbar{i}"] for i in (1, 2, 3))))
    h = next(f"H{i}" for i in (1, 2, 3) if v in sets[f"H{i}"] - sets[f"Hbar{i}"])
    x = ring.values["X"][v]
    ring.values[h] = {**ring.values[h], v: tuple(2 * a for a in x)}
    assert not cohomology._relations_vanish(ring)
    monkeypatch.setattr(cohomology, "presentation_ring", lambda g, forgetful: ring)
    with pytest.raises(CongruenceFailure):
        verify_iso(g, max_degree=1)


def test_kernel_of_forgetful_map_is_chi_ideal():
    for fid in ("fig2_left", "fig8_line5"):
        g = fixture(fid)
        pieces = [cohomology_basis(g, k) for k in range(4)]
        assert kernel_forgetful_check(g, 3, pieces)


def test_chi_multiples_lie_in_kernel_trivially():
    g = fixture("fig2_left")
    chi = chi_class(g)
    planes = all_hyperplanes(g)
    pos, _ = choose_positive_halfspace(g, planes[0])
    tau = vector_class(thom_class(g, pos))
    prod = chi * tau
    # forgetful image of chi * tau vanishes
    for v in g.vertices:
        assert prod.values[v].substitute(
            [IntPolynomial.variable(2, 0), IntPolynomial.variable(2, 1),
             IntPolynomial(2)]
        ).is_zero()


def test_homogeneous_decomposition_of_mixed_degree_classes():
    """A mixed-degree product of Thom classes splits into homogeneous
    pieces, each of which is itself a class lying in the solver basis."""
    from gkmgraphs.intlinalg import hnf_nonzero_rows, same_lattice
    from gkmgraphs.polynomials import graded_piece_basis

    g = fixture("fig2_left")
    ring = presentation_ring(g)
    one = constant_class(g.vertices, g.rank + 1)
    mixed = (one + vector_class(ring.values["H1"])) * (
        chi_class(g) + vector_class(ring.values["H2"])
    )
    for k in range(3):
        piece = mixed.homogeneous_component(k)
        assert class_satisfies_congruences(g, piece)
        classes, _ = cohomology_basis(g, k)
        monos = graded_piece_basis(g.rank + 1, k)
        span = hnf_nonzero_rows(classes)
        vec = class_to_vector(piece, list(g.vertices), monos)
        assert same_lattice(span, span + [vec])


def test_psi_well_defined_and_diagram_commutes():
    """Evaluation kills every relation, and forgetting x after evaluating
    agrees with evaluating the hyperplane image of a monomial."""
    g = fixture("fig2_left")
    full = presentation_ring(g, forgetful=False)
    forg = presentation_ring(g, forgetful=True)
    m = len(forg.generators)
    # linear relations map to zero
    chi = chi_class(g)
    for i in range(1, m + 1):
        assert (
            vector_class(full.values[f"H{i}"])
            + vector_class(full.values[f"Hbar{i}"])
            == chi
        )
    for fam in full.monomial_relations:
        assert evaluate_generator(full, {n: 1 for n in fam}).is_zero()

    def forget(cls):
        images = [IntPolynomial.variable(2, 0), IntPolynomial.variable(2, 1),
                  IntPolynomial(2)]
        return CohomologyClass(
            {v: p.substitute(images) for v, p in cls.values.items()}, 2
        )

    rng = random.Random(7)
    gens = list(full.generators)
    for _ in range(12):
        mono = {}
        for _ in range(rng.randrange(1, 4)):
            name = rng.choice(gens)
            mono[name] = mono.get(name, 0) + 1
        lhs = forget(evaluate_generator(full, mono))
        # phi' then phi: X -> 0, H_i -> L_i, Hbar_i -> -L_i
        rhs = constant_class(g.vertices, g.rank)
        zero = False
        sign = 1
        for name, e in mono.items():
            if name == "X":
                zero = True
                break
            # H_i and Hbar_i belong to the i-th hyperplane in name order,
            # the i-th forgetful generator
            if name.startswith("Hbar"):
                sign *= (-1) ** e
            lname = forg.generators[int(name.lstrip("Hbar")) - 1]
            for _ in range(e):
                rhs = rhs * vector_class(forg.values[lname])
        if zero:
            assert lhs.is_zero()
        else:
            assert lhs == rhs * sign
