"""Graph loading, structural validation, axial axioms, connections."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkmgraphs.errors import (
    AmbiguousConnection,
    NoValidConnection,
    ParseError,
    StructuralError,
)
from gkmgraphs.fixtures import (
    FIXTURE_IDS,
    KlmSpec,
    fixture,
    gen_klm,
    local_model,
)
from gkmgraphs.graph import (
    Dart,
    GkmGraph,
    components,
    derive_connection,
    load_graph,
    pair_decomposition,
    serialize,
    validate_axial,
)
from gkmgraphs.hyperplanes import Arrangement, check_assumptions
from oracles import independence_offenders, union_find_components


def replace_axial(g, dart_id, axial, keep_connection=False):
    darts = [
        Dart(d.id, d.source, d.target, d.opposite, tuple(axial))
        if d.id == dart_id
        else d
        for d in g.darts.values()
    ]
    conn = g.connection if keep_connection else None
    return GkmGraph(g.rank, darts, connection=conn, meta=g.meta)


def test_fixture_shapes():
    g = fixture("fig2_left")
    assert g.rank == 2
    assert len(g.vertices) == 3
    assert len(g.canonical_edges()) == 3
    assert sum(d.is_leg for d in g.darts.values()) == 6


def test_local_model_is_valid():
    for n in (1, 2, 3):
        g = local_model(n)
        assert len(g.vertices) == 1
        assert sum(d.is_leg for d in g.darts.values()) == 2 * n
        assert validate_axial(g).ok


def test_all_builtin_fixtures_validate():
    for fid in FIXTURE_IDS:
        assert validate_axial(fixture(fid)).ok, fid


def test_roundtrip_serialization():
    for fid in FIXTURE_IDS:
        g = fixture(fid)
        assert load_graph(serialize(g)) == g


def test_parse_error_reports_context():
    with pytest.raises(ParseError):
        load_graph("not json at all {")
    with pytest.raises(ParseError) as ei:
        load_graph(json.dumps({"rank": 2, "vertices": []}))
    assert ei.value.field == "darts"


def test_wrong_valence_is_structural_error():
    # a rank-2 vertex with only 3 darts
    obj = json.loads(serialize(local_model(2)))
    obj["darts"] = obj["darts"][:3]
    with pytest.raises(StructuralError, match="valence"):
        load_graph(json.dumps(obj))


def test_dangling_opposite_is_structural_error():
    darts = [
        Dart("a:e", "a", "b", "missing", (1, 0)),
        Dart("a:w", "a", None, None, (-1, 1)),
        Dart("b:w", "b", "a", "a:e", (-1, 0)),
        Dart("b:e", "b", None, None, (1, 1)),
    ]
    with pytest.raises(StructuralError):
        GkmGraph(1, darts)


def test_disconnected_graph_rejected():
    darts = []
    for v in ("a", "b"):
        darts.append(Dart(f"{v}:e", v, None, None, (1, 0)))
        darts.append(Dart(f"{v}:w", v, None, None, (-1, 1)))
    with pytest.raises(StructuralError, match="connected"):
        GkmGraph(1, darts)


def test_validate_axial_checks_named_failures():
    g = fixture("fig2_left")

    # negating a leg label breaks the congruence relation on its edge
    mutated = replace_axial(g, "p:w", (0, 1, -1))
    failed = validate_axial(mutated).failed_checks()
    assert "congruence" in failed

    # an opposite dart that is not +-alpha
    mutated = replace_axial(g, "q:w", (0, -2, 0))
    assert "opposite_sign" in validate_axial(mutated).failed_checks()

    # proportional labels at one vertex
    lm = local_model(2)
    mutated = replace_axial(lm, "o:m1", (-2, 0, 0))
    failed = validate_axial(mutated).failed_checks()
    assert "pairwise_independence" in failed or "pair_decomposition" in failed

    # a dart carrying the residual vector itself
    mutated = replace_axial(lm, "o:p1", (0, 0, 1))
    mutated = replace_axial(mutated, "o:m1", (0, 0, 0))
    assert "residual_not_realized" in validate_axial(mutated).failed_checks()

    # labels that span a finite-index sublattice only
    mutated = replace_axial(lm, "o:p1", (2, 0, 0))
    mutated = replace_axial(mutated, "o:m1", (-2, 0, 1))
    assert "span" in validate_axial(mutated).failed_checks()


def test_derived_connection_is_checked_on_its_edge_darts():
    """A derived connection sends every dart but the edge dart to a
    congruent one; the edge dart goes to its opposite, so ``validate``
    still checks that congruence."""
    g = fixture("fig8_line5")
    doubled = tuple(2 * a for a in g.axial("p1:e"))
    report = validate_axial(replace_axial(g, "p1:e", doubled)).to_dict()
    (congruence,) = (c for c in report["checks"] if c["check"] == "congruence")
    assert congruence["offenders"] == ["p1:e:p1:e"]


# the inputs of the independence differential test: the figures, the local
# models up to n = 4 and L(2,1,2)
_MUTATION_BASES = {
    **{fid: fixture(fid) for fid in FIXTURE_IDS},
    **{f"local_model({n})": local_model(n) for n in range(1, 5)},
    "L212": gen_klm(KlmSpec(2, 1, 2)),
}


def _independence_matches_the_oracle(g):
    """``validate_axial``'s two independence checks on g against the
    minors at every vertex, offenders in order; returns the oracle's."""
    expected = independence_offenders(g)
    for r in validate_axial(g).results:
        if r.name in expected:
            assert r.offenders == expected[r.name], r.name
            assert r.ok == (not expected[r.name]), r.name
    return expected


@st.composite
def _mutated_labels(draw):
    """A mutation input with one to three labels changed: a coordinate
    negated or bumped by +-1 or +-2, or two labels swapped; as the input
    and the new ``{dart: axial}``."""
    g = _MUTATION_BASES[draw(st.sampled_from(sorted(_MUTATION_BASES)))]
    axial = {d: list(g.axial(d)) for d in g.darts}
    ids = sorted(axial)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("negate", "bump", "swap")))
        d = draw(st.sampled_from(ids))
        if kind == "swap":
            e = draw(st.sampled_from(ids))
            axial[d], axial[e] = axial[e], axial[d]
            continue
        i = draw(st.integers(0, g.rank))
        if kind == "negate":
            axial[d][i] = -axial[d][i]
        else:
            axial[d][i] += draw(st.sampled_from((-2, -1, 1, 2)))
    return g, axial


@settings(max_examples=200, deadline=None)
@given(_mutated_labels())
def test_independence_checks_match_the_minors_oracle(mutation):
    """With a few labels mutated, ``validate_axial`` names the same
    pairwise and 3-independence offenders as the minors at every vertex,
    whether it proves the axioms at a vertex modeled on T*C^n or scans its
    subsets; with the connection derived, and with the input's connection
    stored when its congruences still hold."""
    g, axial = mutation
    darts = [d._replace(axial=tuple(axial[d.id])) for d in g.darts.values()]
    _independence_matches_the_oracle(GkmGraph(g.rank, darts, meta=g.meta))
    try:
        stored = GkmGraph(g.rank, darts, connection=g.connection, meta=g.meta)
    except NoValidConnection:
        return
    _independence_matches_the_oracle(stored)


@pytest.mark.parametrize(
    "base, labels, pairwise, three",
    [
        # proportional labels: no pairs, so the vertex is scanned
        (
            "local_model(2)",
            {"o:m1": (-2, 0, 0)},
            ["o:o:m1,o:p1"],
            ["o:o:m1,o:m2,o:p1", "o:o:m1,o:p1,o:p2"],
        ),
        # a zero label paired with x itself: the pairs sum to x, but their
        # representatives fail to span, so the vertex is scanned
        (
            "local_model(2)",
            {"o:p1": (0, 0, 0), "o:m1": (0, 0, 1)},
            ["o:o:m1,o:p1", "o:o:m2,o:p1", "o:o:p1,o:p2"],
            [
                "o:o:m1,o:m2,o:p1",
                "o:o:m1,o:m2,o:p2",
                "o:o:m1,o:p1,o:p2",
                "o:o:m2,o:p1,o:p2",
            ],
        ),
        # fig11_sphere with one leg sent into the plane of the two edge
        # labels
        (
            "fig11_sphere",
            {"top:lgL": (1, 1, 0)},
            [],
            ["top:top:eL,top:eR,top:lgL"],
        ),
    ],
    ids=["proportional", "zero_paired_with_x", "leg_in_edge_plane"],
)
def test_independence_offenders_are_reached(base, labels, pairwise, three):
    """Fixed mutations that reach each independence failure, so that the
    differential test above is never vacuous."""
    g = _MUTATION_BASES[base]
    for dart_id, axial in labels.items():
        g = replace_axial(g, dart_id, axial)
    assert _independence_matches_the_oracle(g) == {
        "pairwise_independence": pairwise,
        "three_independence": three,
    }


def test_derive_connection_matches_stored():
    """Derived from the full labels, the connection is the one each figure
    stores, and the one ``gen_klm`` derived from the forgetful labels; its
    maps across the two darts of an edge are inverse."""
    graphs = [fixture(fid) for fid in FIXTURE_IDS] + [
        gen_klm(KlmSpec(*spec))
        for spec in ((1, 1, 1), (2, 1, 2), (2, 2, 2), (3, 3, 3))
    ]
    for g in graphs:
        assert g._connection is not None
        forgotten = GkmGraph(g.rank, list(g.darts.values()), meta=g.meta)
        assert forgotten._connection is None
        conn = derive_connection(forgotten)
        assert conn == g.connection
        _assert_inverse(conn, g)


def _assert_inverse(conn, g):
    for eid in g.edge_dart_ids():
        opposite = g.darts[eid].opposite
        assert conn[opposite] == {v: k for k, v in conn[eid].items()}, eid


@settings(max_examples=200, deadline=None)
@given(_mutated_labels())
def test_derived_maps_stay_inverse_under_mutation(mutation):
    """``derive_connection`` does not check that the maps across an edge
    and its opposite are inverse; whenever it returns, they are."""
    g, axial = mutation
    darts = [d._replace(axial=tuple(axial[d.id])) for d in g.darts.values()]
    mutated = GkmGraph(g.rank, darts, meta=g.meta)
    try:
        conn = derive_connection(mutated)
    except (NoValidConnection, AmbiguousConnection):
        return
    _assert_inverse(conn, mutated)


def test_partners_are_congruent_modulo_both_labels_of_an_edge():
    """Across a:e, labelled (1, 0, 0), the legs a:p and a:q have the
    partners b:p and b:q modulo (1, 0, 0) alone; across b:w, labelled
    (0, 1, 0), b:p and b:q have a:q and a:p.  Those two maps are not
    inverse, so no connection exists: modulo both labels a:p has no
    partner."""
    leg = (None, None)
    darts = [
        Dart("a:e", "a", "b", "b:w", (1, 0, 0)),
        Dart("a:p", "a", *leg, (1, 0, 1)),
        Dart("a:q", "a", *leg, (0, 1, 1)),
        Dart("a:r", "a", *leg, (5, 7, 11)),
        Dart("b:w", "b", "a", "a:e", (0, 1, 0)),
        Dart("b:p", "b", *leg, (0, 0, 1)),
        Dart("b:q", "b", *leg, (1, 1, 1)),
        Dart("b:r", "b", *leg, (5, 7, 11)),
    ]
    with pytest.raises(NoValidConnection, match="'a:p' has no congruent"):
        derive_connection(GkmGraph(2, darts))


def test_edge_lists_are_kept_per_graph():
    """The edge dart lists are computed once, in sorted id order, and each
    call hands out its own copy."""
    for fid in FIXTURE_IDS:
        g = fixture(fid)
        edges = [d for d in sorted(g.darts) if not g.darts[d].is_leg]
        canonical = [d for d in edges if d < g.darts[d].opposite]
        assert g.edge_dart_ids() == edges
        assert g.canonical_edges() == canonical
        g.canonical_edges().clear()
        g.edge_dart_ids().clear()
        assert g.edge_dart_ids() == edges
        assert g.canonical_edges() == canonical


def test_connection_on_rank_one_line():
    g = fixture("fig8_line5")
    conn = g.connection
    # crossing an edge sends the backward dart to the forward dart
    assert conn["p1:e"]["p1:w"] == "p2:e"
    assert conn["p2:e"]["p2:w"] == "p3:e"


def test_repeated_axial_gives_ambiguous_connection():
    g = fixture("fig2_left")
    mutated = replace_axial(g, "q:e", (1, -1, 0))  # duplicates q:nw
    with pytest.raises(AmbiguousConnection):
        derive_connection(mutated)


def test_missing_partner_gives_no_valid_connection():
    g = fixture("fig2_left")
    mutated = replace_axial(g, "p:w", (0, 1, -1))
    with pytest.raises(NoValidConnection):
        derive_connection(mutated)


def test_stored_connection_is_verified_not_trusted():
    g = fixture("fig2_left")
    conn = {e: dict(m) for e, m in g.connection.items()}
    # swap two images to break bijectivity with the congruence
    conn["p:e"]["p:n"], conn["p:e"]["p:w"] = (
        conn["p:e"]["p:w"],
        conn["p:e"]["p:n"],
    )
    with pytest.raises((NoValidConnection, StructuralError)):
        GkmGraph(2, list(g.darts.values()), connection=conn)


def test_pair_decomposition_local_model():
    g = local_model(2)
    dec = pair_decomposition(g)
    assert sorted(dec["o"]) == [("o:m1", "o:p1"), ("o:m2", "o:p2")]


def test_pair_decomposition_fig2_left_bottom_vertex():
    g = fixture("fig2_left")
    dec = pair_decomposition(g)
    pairs = {frozenset(p) for p in dec["p"]}
    assert frozenset({"p:e", "p:w"}) in pairs  # e2*, x - e2*
    assert frozenset({"p:n", "p:s"}) in pairs  # e1*, x - e1*


def test_pair_decomposition_asserts_connection_preserves_pairs():
    # fig7: two pairs per vertex, and the check runs across all 5 edges
    g = fixture("fig7_pentagon")
    dec = pair_decomposition(g)
    assert all(len(ps) == 2 for ps in dec.values())


def test_serialization_is_byte_stable():
    g = fixture("fig7_pentagon")
    assert serialize(g) == serialize(load_graph(serialize(g)))


def _subgraphs(g):
    """The whole graph, the graph minus each hyperplane, each halfspace and
    each nonempty pairwise hyperplane intersection, as (vertices, darts);
    last, one dart per edge, which joins nothing without its opposite."""
    arr = Arrangement(g)
    planes = arr.hyperplanes
    yield set(g.vertices), None
    yield set(g.vertices), set(g.canonical_edges())
    for h in planes:
        yield set(g.vertices) - h.vertices, None
    for name, verdict in check_assumptions(arr).assumption1.items():
        if verdict["ok"]:
            for half in arr.pair(name):
                yield half.vertices, half.dart_ids
    for i, a in enumerate(planes):
        for b in planes[i + 1 :]:
            if a.vertices & b.vertices:
                yield a.vertices & b.vertices, a.dart_ids & b.dart_ids


@pytest.mark.parametrize(
    "graph",
    list(FIXTURE_IDS) + ["local_model(2)", "L212", "L322"],
)
def test_components_agree_with_union_find(graph):
    if graph.startswith("L"):
        g = gen_klm(KlmSpec(*map(int, graph[1:])))
    else:
        g = fixture(graph)
    for vertices, dart_ids in _subgraphs(g):
        got = components(g, vertices, dart_ids)
        assert got == union_find_components(g, vertices, dart_ids)
