"""Hyperplane discovery, halfspace pairs, Thom classes, assumptions."""

from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gkmgraphs.hyperplanes as hyperplanes
from gkmgraphs.errors import AssumptionOneViolation, GkmError
from gkmgraphs.fixtures import (
    FIXTURE_IDS,
    KlmSpec,
    fixture,
    gen_klm,
    local_model,
)
from gkmgraphs.graph import pair_decomposition
from gkmgraphs.hyperplanes import (
    Halfspace,
    Hyperplane,
    all_hyperplanes,
    check_assumptions,
    choose_positive_halfspace,
    halfspace_pair,
    hyperplane_through,
    intersect_hyperplanes,
    minimal_empty_families,
    opposite_side,
    thom_class,
    _validate_pre_halfspace,
    _subgraph_connected,
)


def by_name(g):
    return {h.name: h for h in all_hyperplanes(g)}


def test_vertical_hyperplane_of_the_triangle():
    g = fixture("fig2_left")
    # exclude the horizontal pair at p: what remains is the vertical line
    h = hyperplane_through(g, "p", ("p:e", "p:w"))
    assert h.vertices == {"p", "r"}
    assert h.dart_ids == {"p:n", "p:s", "r:s", "r:n"}


def test_local_model_hyperplane_is_remaining_legs():
    g = local_model(2)
    h = hyperplane_through(g, "o", ("o:p1", "o:m1"))
    assert h.vertices == {"o"}
    assert h.dart_ids == {"o:p2", "o:m2"}


def test_excluded_pair_must_be_a_pair():
    g = fixture("fig2_left")
    with pytest.raises(GkmError):
        hyperplane_through(g, "p", ("p:e", "p:n"))


def test_closure_failure_on_unmodeled_graph():
    """A labeled graph with a valid connection whose pairs break at one
    vertex: the closure iteration walks into a dart set that does not
    split into complementary pairs."""
    from gkmgraphs.errors import ClosureFailure
    from gkmgraphs.graph import Dart, GkmGraph

    darts = [
        Dart("a:E", "a", "b", "b:W", (1, 0, 0)),
        Dart("a:w", "a", None, None, (-1, 0, 1)),
        Dart("a:n", "a", None, None, (0, 1, 0)),
        Dart("a:s", "a", None, None, (0, -1, 1)),
        Dart("b:W", "b", "a", "a:E", (-1, 0, 0)),
        Dart("b:w", "b", None, None, (-3, 0, 1)),
        Dart("b:n", "b", None, None, (0, 1, 0)),
        Dart("b:s", "b", None, None, (0, -1, 1)),
    ]
    g = GkmGraph(2, darts)
    with pytest.raises(ClosureFailure):
        hyperplane_through(g, "a", ("a:n", "a:s"))


def test_hyperplane_counts():
    assert len(all_hyperplanes(fixture("fig2_left"))) == 3
    assert len(all_hyperplanes(fixture("fig7_pentagon"))) == 5
    assert len(all_hyperplanes(gen_klm(KlmSpec(2, 1, 2)))) == 5
    line = all_hyperplanes(fixture("fig8_line5"))
    assert len(line) == 5
    assert all(len(h.vertices) == 1 and not h.dart_ids for h in line)


def test_hyperplane_uniqueness_from_any_seed():
    g = fixture("fig7_pentagon")
    dec = pair_decomposition(g)
    seen = {}
    for v in g.vertices:
        for pair in dec.pairs[v]:
            h = hyperplane_through(g, v, pair)
            seen.setdefault(h.label, set()).add((h.vertices, h.dart_ids))
    assert len(seen) == 5
    assert all(len(s) == 1 for s in seen.values())


@pytest.mark.parametrize(
    "source",
    list(FIXTURE_IDS) + ["111", "212", "222", "322", "333", "433", "444"],
)
def test_all_hyperplanes_runs_one_closure_per_hyperplane(monkeypatch, source):
    """Skipping the seeds of hyperplanes already found leaves the list of
    the exhaustive seed loop unchanged, with one closure per hyperplane."""
    if source.isdigit():
        g = gen_klm(KlmSpec(*map(int, source)))
    else:
        g = fixture(source)
    dec = pair_decomposition(g)
    exhaustive = {}
    for v in g.vertices:
        for pair in dec.pairs[v]:
            h = hyperplane_through(g, v, pair)
            exhaustive.setdefault(h.label, h)
    calls = []

    def counting(*args):
        calls.append(args)
        return hyperplane_through(*args)

    monkeypatch.setattr(hyperplanes, "hyperplane_through", counting)
    found = all_hyperplanes(g)
    assert len(calls) == len(found)
    assert [(h.label, h.vertices, h.dart_ids) for h in found] == [
        (h.label, h.vertices, h.dart_ids)
        for h in sorted(exhaustive.values(), key=Hyperplane.sort_key)
    ]


def test_halfspace_pair_thom_values_on_the_vertical_line():
    g = fixture("fig2_left")
    vertical = by_name(g)["L2"]
    assert vertical.vertices == {"p", "r"}
    a, b = halfspace_pair(g, vertical)
    ta, tb = thom_class(g, a), thom_class(g, b)
    values = {
        frozenset(((v, ta[v]) for v in g.vertices)),
        frozenset(((v, tb[v]) for v in g.vertices)),
    }
    left = frozenset(
        {("p", (0, 1, 0)), ("q", (0, 0, 0)), ("r", (-1, 1, 0))}
    )
    right = frozenset(
        {("p", (0, -1, 1)), ("q", (0, 0, 1)), ("r", (1, -1, 1))}
    )
    assert values == {left, right}


def test_thom_sum_is_chi_on_every_fixture():
    for fid in ("fig2_left", "fig7_pentagon", "fig8_line5", "fig11_sphere"):
        g = fixture(fid)
        x = g.residual
        for h in all_hyperplanes(g):
            a, b = halfspace_pair(g, h)
            ta, tb = thom_class(g, a), thom_class(g, b)
            for v in g.vertices:
                assert tuple(s + t for s, t in zip(ta[v], tb[v])) == x


def test_halfspace_pair_fails_on_broken_grid():
    g = fixture("fig2_right")
    planes = by_name(g)
    failing = []
    for name, h in planes.items():
        try:
            halfspace_pair(g, h)
        except AssumptionOneViolation as exc:
            failing.append((name, exc.check))
    # exactly the four middle half-line hyperplanes fail
    assert len(failing) == 4
    assert all(check == "component_sides" for _, check in failing)
    assert all(len(planes[name].vertices) == 1 for name, _ in failing)


def test_halfspace_pair_on_rank_one_line_gives_rays():
    g = fixture("fig8_line5")
    planes = by_name(g)
    for name, h in planes.items():
        a, b = halfspace_pair(g, h)
        sizes = sorted((len(a.vertices), len(b.vertices)))
        (v,) = h.vertices
        i = int(v[1:])
        assert sizes == sorted((i, 6 - i))


def test_whole_graph_is_not_a_pre_halfspace():
    g = fixture("fig2_left")
    h = Halfspace(
        by_name(g)["L2"],
        frozenset(g.vertices),
        frozenset(g.darts),
        {},
    )
    with pytest.raises((AssumptionOneViolation, GkmError)):
        _validate_pre_halfspace(g, h)
        thom_class(g, h)


def test_middle_segment_pre_halfspace_is_not_a_halfspace():
    # the 2-point rank-1 graph: the bare edge is a pre-halfspace whose
    # opposite side (two legs) is disconnected
    g = fixture("fig8_line5")
    # build the analogous pre-halfspace on the p1-p2 edge restricted graph;
    # on the 5-point line take the middle three vertices' analogue instead:
    # H = closed segment p2..p4 with its two edge darts at the ends missing
    verts = frozenset({"p2", "p3", "p4"})
    darts = frozenset(
        {"p2:e", "p3:e", "p3:w", "p4:w", "p2:w", "p4:e"}
    ) - {"p2:w", "p4:e"}
    h = Halfspace(
        by_name(g)["L2"], verts, darts, {"p2": "p2:w", "p4": "p4:e"}
    )
    _validate_pre_halfspace(g, h)  # a genuine pre-halfspace
    opp = opposite_side(g, h)
    assert opp.vertices == {"p1", "p2", "p4", "p5"}
    assert not _subgraph_connected(g, opp.vertices, opp.dart_ids)
    # and the Thom classes still sum to chi
    th, ti = thom_class(g, h), thom_class(g, opp)
    for v in g.vertices:
        assert tuple(a + b for a, b in zip(th[v], ti[v])) == g.residual


def test_pre_halfspace_with_interior_vertex_on_triangle():
    # drop the two left-pointing legs of the triangle: p and r become
    # boundary vertices, q is interior and carries the residual value
    g = fixture("fig2_left")
    verts = frozenset({"p", "q", "r"})
    darts = frozenset(g.darts) - {"p:w", "r:nw"}
    h = Halfspace(
        by_name(g)["L2"], verts, darts, {"p": "p:w", "r": "r:nw"}
    )
    _validate_pre_halfspace(g, h)
    tc = thom_class(g, h)
    assert tc["p"] == (0, -1, 1)   # x - e2*
    assert tc["q"] == (0, 0, 1)    # x
    assert tc["r"] == (1, -1, 1)   # e1* - e2* + x


def test_intersections():
    g = fixture("fig2_left")
    hps = all_hyperplanes(g)
    assert intersect_hyperplanes(g, hps).is_empty
    g7 = fixture("fig7_pentagon")
    planes = by_name(g7)
    inter = intersect_hyperplanes(g7, [planes["L1"], planes["L2"]])
    assert inter.vertices == {"p1"} and inter.connected
    klm = gen_klm(KlmSpec(2, 2, 2))
    p = by_name(klm)
    assert intersect_hyperplanes(klm, [p["X1"], p["X2"]]).is_empty
    assert intersect_hyperplanes(klm, [p["X1"], p["Y2"]]).vertices == {
        "X1.Y2"
    }


def test_intersection_valence_drops_by_two():
    klm = gen_klm(KlmSpec(2, 1, 2))
    p = by_name(klm)
    inter = intersect_hyperplanes(klm, [p["X1"]])
    assert set(inter.valences(klm).values()) == {2}
    inter2 = intersect_hyperplanes(klm, [p["X1"], p["Y1"]])
    assert set(inter2.valences(klm).values()) == {0}


def test_check_assumptions_verdicts():
    assert check_assumptions(fixture("fig2_left")).ok
    rep = check_assumptions(fixture("fig2_right"))
    assert not rep.ok1 and rep.ok2
    rep = check_assumptions(fixture("fig11_sphere"))
    assert rep.ok1 and not rep.ok2
    bad = [k for k, v in rep.assumption2.items() if not v["ok"]]
    assert bad == ["L1&L2"]
    assert rep.assumption2["L1&L2"]["components"] == 2


def test_minimal_empty_families_on_klm():
    klm = gen_klm(KlmSpec(2, 1, 2))
    fams = minimal_empty_families(
        {h.name: set(h.vertices) for h in all_hyperplanes(klm)}
    )
    expected = {
        frozenset({"X1", "X2"}),
        frozenset({"Z1", "Z2"}),
        frozenset({"X1", "Y1", "Z1"}),
        frozenset({"X1", "Y1", "Z2"}),
        frozenset({"X2", "Y1", "Z1"}),
        frozenset({"X2", "Y1", "Z2"}),
    }
    assert set(fams) == expected


def test_minimal_empty_families_on_disjoint_points():
    g = fixture("fig8_line5")
    fams = minimal_empty_families(
        {h.name: set(h.vertices) for h in all_hyperplanes(g)}
    )
    assert all(len(f) == 2 for f in fams)
    assert len(fams) == 10  # all pairs of the five distinct points


def _brute_minimal_empty_families(sets):
    names = sorted(sets)

    def empty(family):
        return not frozenset.intersection(*(sets[n] for n in family))

    return [
        frozenset(c)
        for size in range(1, len(names) + 1)
        for c in combinations(names, size)
        if empty(c)
        and (size == 1 or not any(empty(set(c) - {n}) for n in c))
    ]


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(
        st.sampled_from("abcdefg"),
        st.frozensets(st.integers(0, 5)),
        max_size=7,
    )
)
@example({"a": frozenset(), "b": frozenset({1})})
@example({"a": frozenset(), "b": frozenset(), "c": frozenset()})
def test_minimal_empty_families_match_the_enumeration_of_all_families(sets):
    """Minimal transversals equal the inclusion-minimal families with no
    common point, in (size, sorted names) order; a name with an empty set
    is a singleton family and lies in no larger one."""
    assert minimal_empty_families(sets) == _brute_minimal_empty_families(
        sets
    )


def test_minimal_empty_families_of_the_halfspaces_of_l555():
    """The full theory's monomial ideal on L(5,5,5), whose nonempty
    halfspace families are far too many to list."""
    g = gen_klm(KlmSpec(5, 5, 5))
    sets = {}
    for i, h in enumerate(all_hyperplanes(g)):
        pos, neg = halfspace_pair(g, h)
        sets[f"H{i + 1}"] = pos.vertices
        sets[f"Hbar{i + 1}"] = neg.vertices
    fams = minimal_empty_families(sets)
    assert len(fams) == 155
    assert all(
        not frozenset.intersection(*(sets[n] for n in f)) for f in fams
    )


def test_choose_positive_halfspace_respects_metadata():
    klm = gen_klm(KlmSpec(1, 1, 1))
    planes = by_name(klm)
    pos, neg = choose_positive_halfspace(klm, planes["X1"])
    assert klm.meta["positive_normals"]["X1"] in pos.normals.values()
    # without metadata the sort-order-first half is positive
    g = fixture("fig2_left")
    pos, neg = choose_positive_halfspace(g, by_name(g)["L2"])
    assert pos.sort_key() <= neg.sort_key()
