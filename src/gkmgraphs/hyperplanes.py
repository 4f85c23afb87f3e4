"""Hyperplanes, halfspaces and Thom classes.

A hyperplane is found by connection closure from a seed vertex: remove one
pair of ``GkmGraph.pairs`` from the vertex's dart set and push the rest
across the edges with the connection, each vertex taking its set from the
first edge that reaches it.  On a graph that passes ``validate_axial``
(see ``graph``) any other edge would give the same set.  Let W be the
span of the labels kept at the seed, n - 1 pairs, so W holds x; as the
pair representatives and x form a basis, Z^(n+1) = W + Z nu for the
representative nu of the removed pair, whose labels are +-nu modulo W.
Across a kept edge dart e, alpha(e) lies in W and the connection keeps
labels modulo alpha(e), so it carries darts labelled in W onto darts
labelled in W, and darts labelled +-nu modulo W onto such darts.  So at
every vertex it reaches, whatever the path, the closure keeps exactly the
darts labelled in W.  As the connection maps pairs to pairs, the two
darts left out at each vertex of L, its normal pair, are a pair of
``g.pairs``: one is +nu and one -nu modulo W, and that sign is their
colour.  The connection keeps it across every edge of L, so one traversal
of L colours every normal dart.

The halfspace pair of a hyperplane L is built from what that closure
proved.  L is connected, as the closure reached it by a traversal, and
since the graph is connected and no dart of L leaves L, a normal dart
enters every component of the graph minus L.  Two checks remain, the
ones that can fail on a validated graph: each component of the graph
minus L must be entered by darts of one colour (``component_sides``,
which fig2_right fails), and each half's Thom class is checked against
every congruence.  That guard can fire only at a normal dart d from L to
L whose opposite has the label -alpha(d), and so the other colour; with
+alpha(d), as on fig11_sphere, the two ends agree.

The pre-halfspace axioms hold unchecked.  Each vertex of L keeps its
2n - 2 darts of L and one normal dart, and is a boundary vertex; every
other vertex of a half keeps all its darts, and every dart starts inside.
Across an edge of L the connection keeps the kept darts by the colouring.
Across a normal dart whose target is on L it maps that dart's pair onto
its opposite's pair, so L's darts onto L's darts.  From L to a vertex off
it, the injection and the normal congruence follow from the pair summing
to x, as does the Thom sum x on L (off L the classes are x and 0).  Each
half is connected: L is, and each component joins L by the normal dart
that gave it its side.  The halves meet exactly in L: components, colours
and L's darts are pairwise disjoint.  So a wrong assignment can only
surface as a reported violation, never as a silently wrong halfspace.

The x-forgetful Thom class tau_L is a halfspace's checked Thom class with
the residual coordinate cut off (both halves label every vertex of L, and
x is 0 elsewhere), still checked: a - b = c alpha survives the cut.

An ``Arrangement`` holds what the assumption check, the presentation
rings and the shelling read of the hyperplanes, each built once.  Only the
assumption report lists the families with a common vertex, the subsets of
the names through each vertex.  The shelling's facets are the sets of
names through each vertex.  The rings' relations, the minimal families
with no common vertex, are minimal transversals
(``minimal_empty_families``).
"""

from __future__ import annotations

import json
from collections import namedtuple

from .errors import (
    AssumptionOneViolation,
    CongruenceFailure,
    GkmError,
    Oversized,
)
from .graph import GkmGraph, components
from .intlinalg import congruent


class Hyperplane(namedtuple("Hyperplane", "vertices dart_ids name")):
    """A hyperplane: its vertex set, its dart set and its name ("" until
    ``all_hyperplanes`` names it)."""

    __slots__ = ()

    @property
    def label(self):
        """The first 12 hex digits of the SHA-256 of the sorted vertex and
        dart ids: a name that does not depend on the enumeration."""
        # imported here: only the ``hyperplanes`` listing prints labels
        import hashlib

        blob = json.dumps([sorted(self.vertices), sorted(self.dart_ids)])
        return hashlib.sha256(blob.encode()).hexdigest()[:12]

    def sort_key(self):
        return (sorted(self.vertices), sorted(self.dart_ids))


class Halfspace:
    def __init__(self, vertices, dart_ids, normals):
        self.vertices = vertices
        self.dart_ids = dart_ids
        self.normals = normals  # boundary vertex -> dart id
        # the checked Thom class, set by the first ``thom_class`` call
        self.thom = None

    sort_key = Hyperplane.sort_key


# -- hyperplane discovery ------------------------------------------------------


def hyperplane_through(g: GkmGraph, vertex, excluded_pair) -> Hyperplane:
    """The unique hyperplane whose dart set at `vertex` omits the given
    1-dimensional pair, one of ``g.pairs`` at `vertex`; built by connection
    closure (see the module docstring)."""
    if tuple(sorted(excluded_pair)) not in g.pairs[vertex]:
        raise GkmError(
            "excluded darts are not a 1-dimensional pair at the seed vertex"
        )
    table = {vertex: frozenset(g.darts_at(vertex)) - set(excluded_pair)}
    stack = [vertex]
    conn = g.connection
    while stack:
        v = stack.pop()
        for eid in sorted(table[v]):
            q = g.darts[eid].target
            if q is not None and q not in table:
                table[q] = frozenset(conn[eid][d] for d in table[v])
                stack.append(q)
    return Hyperplane(frozenset(table), frozenset().union(*table.values()), "")


def _name_key(name):
    """Sort key of hyperplane names: X2 before X10, L-names by number.  The
    number is compared by its length and digits, not converted: a name
    may end in digits of other scripts, or in more than ``int`` takes."""
    i = 0
    while i < len(name) and not name[i].isdigit():
        i += 1
    head, tail = name[:i], name[i:]
    if tail.isascii() and tail.isdigit():
        digits = tail.lstrip("0")
        return (head, len(digits), digits)
    return (name, -1, "")


def all_hyperplanes(g: GkmGraph):
    """All hyperplanes, deduplicated and deterministically named.

    Seeds are every (vertex, pair); one closure runs per hyperplane.  A
    seed (w, p) is skipped when a hyperplane already found keeps exactly
    the darts at w outside p: by the uniqueness of ``hyperplane_through``
    its closure would rebuild that hyperplane.
    Each ``positive_normals`` entry must name a hyperplane and record one
    of its normal darts, so every command refuses the same documents.
    """
    seen = {}
    covered = set()  # (vertex, excluded darts) of the hyperplanes found
    for v in g.vertices:
        for pair in g.pairs[v]:
            if (v, frozenset(pair)) in covered:
                continue
            h = hyperplane_through(g, v, pair)
            seen.setdefault((h.vertices, h.dart_ids), h)
            for w in h.vertices:
                covered.add((w, frozenset(g.darts_at(w)) - h.dart_ids))
    ordered = sorted(seen.values(), key=Hyperplane.sort_key)
    planes = {h.vertices for h in ordered}
    by_vertexset = {}
    for name, vs in (g.meta.get("hyperplane_names") or {}).items():
        other = by_vertexset.setdefault(frozenset(vs), name)
        if other != name:
            raise GkmError(
                f"hyperplane names {other!r} and {name!r} name one vertex set"
            )
        if frozenset(vs) not in planes:
            raise GkmError(f"hyperplane_names entry {name!r} names no hyperplane")
    by_name = {}
    for i, h in enumerate(ordered):
        name = by_vertexset.get(h.vertices, f"L{i + 1}")
        if name in by_name:
            raise GkmError(f"two hyperplanes are named {name!r}")
        by_name[name] = h._replace(name=name)
    for name, normal in (g.meta.get("positive_normals") or {}).items():
        h = by_name.get(name)
        if h is None:
            raise GkmError(f"positive_normals entry {name!r} names no hyperplane")
        # the darts at L's vertices off L are the normals of its two halves
        d = g.darts.get(normal)
        if d is None or d.source not in h.vertices or normal in h.dart_ids:
            raise GkmError(
                f"recorded normal {normal!r} is not a normal of either "
                f"halfspace of {name}"
            )
    return list(by_name.values())


# -- families with a common vertex ------------------------------------------------


def _subsets(items):
    """Every subset of ``items``, as frozensets, the empty set first."""
    out = [frozenset()]
    for x in sorted(items):
        out += [f | {x} for f in out]
    return out


def nonempty_intersection_table(through):
    """All families with a common vertex, keyed by frozenset of names, each
    with its common vertices: the nonempty subsets of the names that
    ``through`` gives each vertex, 2^m - 1 at a vertex on m names."""
    table = {}
    for v, names in through.items():
        for fam in _subsets(names)[1:]:
            table.setdefault(fam, set()).add(v)
    return {fam: frozenset(common) for fam, common in table.items()}


def minimal_empty_families(named_vertex_sets):
    """Inclusion-minimal nonempty name families whose members have no
    common vertex, ordered by size and then by sorted names.

    A family has no common vertex exactly when, for every vertex v, it
    holds a name whose set misses v.  So the families sought are the
    minimal transversals of the hypergraph whose edges are, per vertex,
    the names that miss it.  Berge's incremental algorithm (Berge,
    *Hypergraphs*, 1989) builds them edge by edge on bitmasks of names and
    never lists a nonempty family.  One extra edge of all names, a vertex
    in no set, rules out the empty family without changing the others; so
    a name with an empty set comes out as a singleton, and with no
    vertices at all every singleton does.
    """
    names = sorted(named_vertex_sets)
    everything = (1 << len(names)) - 1
    inside = {}  # vertex -> mask of the names whose set contains it
    for i, name in enumerate(names):
        for v in named_vertex_sets[name]:
            inside[v] = inside.get(v, 0) | (1 << i)
    edges = {everything & ~mask for mask in inside.values()} | {everything}
    transversals = [0]
    for edge in sorted(edges):
        kept = [t for t in transversals if t & edge]
        bits = [1 << i for i in range(len(names)) if edge >> i & 1]
        # (t|x) & edge == x, so a kept transversal inside t|x holds x; two
        # grown sets are never nested, so no second minimization is needed
        holders = {x: [h for h in kept if h & x] for x in bits}
        grown = [
            t | x
            for t in transversals
            if not t & edge
            for x in bits
            if not any(h & (t | x) == h for h in holders[x])
        ]
        transversals = kept + grown
    families = [
        frozenset(names[i] for i in range(len(names)) if t >> i & 1)
        for t in transversals
    ]
    return sorted(families, key=lambda f: (len(f), sorted(f)))


# -- halfspaces -----------------------------------------------------------------


def _orientation_classes(g, hyperplane, excluded):
    """2-colour the normal darts as the module docstring does: the pair
    of the first vertex, then across one edge of L into each vertex."""
    conn = g.connection
    edges = {}  # vertex of L -> the edge darts of L leaving it
    for eid in sorted(hyperplane.dart_ids):
        e = g.darts[eid]
        if not e.is_leg:
            edges.setdefault(e.source, []).append(eid)
    first = min(hyperplane.vertices)
    color = dict(zip(excluded[first], (0, 1)))
    reached = {first}
    stack = [first]
    while stack:
        v = stack.pop()
        for eid in edges.get(v, ()):
            t = g.darts[eid].target
            if t not in reached:
                reached.add(t)
                stack.append(t)
                for d in excluded[v]:
                    color[conn[eid][d]] = color[d]
    return color


def halfspace_pair(g: GkmGraph, hyperplane: Hyperplane):
    """The unique (halfspace, opposite side) pair meeting in the
    hyperplane L, an ``all_hyperplanes`` closure.

    Each half is L, the normal darts of one colour, and the components of
    Gamma - L that those darts enter, with all their darts.  Two checks
    can fail: a component entered by both colours (``component_sides``),
    and the Thom classes' congruences.  The closure proves the rest (see
    the module docstring).

    Raises AssumptionOneViolation whenever existence or uniqueness fails;
    the pair is ordered by sort key, so the result is deterministic.
    """
    excluded = {  # the normal pair at each vertex of L
        v: tuple(d for d in g.darts_at(v) if d not in hyperplane.dart_ids)
        for v in sorted(hyperplane.vertices)
    }
    color = _orientation_classes(g, hyperplane, excluded)
    comp = components(g, set(g.vertices) - hyperplane.vertices)
    members = {}  # root of a component of Gamma - L -> its vertices
    for v, root in comp.items():
        members.setdefault(root, []).append(v)
    side_of_comp = {}
    for ds in excluded.values():
        for d in ds:
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
    normal_of = ({}, {})  # colour -> {vertex of L: its dart of that colour}
    for v, ds in excluded.items():
        for d in ds:
            normal_of[color[d]][v] = d
    halves = []
    for side in (0, 1):
        verts = set(hyperplane.vertices)
        darts = set(hyperplane.dart_ids) | set(normal_of[side].values())
        for root, s in side_of_comp.items():
            if s == side:
                verts.update(members[root])
                darts.update(d for v in members[root] for d in g.darts_at(v))
        h = Halfspace(frozenset(verts), frozenset(darts), normal_of[1 - side])
        # the one guard for a normal edge whose ends on L differ in colour
        thom_class(g, h)
        halves.append(h)
    halves.sort(key=Halfspace.sort_key)
    return halves[0], halves[1]


# -- Thom classes ----------------------------------------------------------------


def thom_class(g: GkmGraph, h: Halfspace) -> dict:
    """Degree-2 class ``{vertex: vector}`` of a (pre-)halfspace of ``g``; 0
    outside, x inside, normal label on the boundary.  Checked against every
    congruence relation, once: the checked class is kept on the halfspace,
    and later calls return it."""
    if h.thom is not None:
        return h.thom
    n = g.rank
    x = g.residual
    zero = (0,) * (n + 1)
    values = {}
    for v in g.vertices:
        if v not in h.vertices:
            values[v] = zero
        elif v in h.normals:
            values[v] = g.axial(h.normals[v])
        else:
            values[v] = x
    assert_class_congruences(g, values)
    h.thom = values
    return values


def assert_class_congruences(g: GkmGraph, values):
    """Raise CongruenceFailure unless the vertexwise degree-2 values satisfy
    every edge congruence: for a degree-2 class, alpha divides a - b
    exactly when a - b is an integer multiple of alpha."""
    for eid in g.canonical_edges():
        e = g.darts[eid]
        a, b = values[e.source], values[e.target]
        if a != b and not congruent(a, b, e.axial):
            raise CongruenceFailure(
                f"congruence fails on edge {eid!r}: {a} vs {b} mod {e.axial}"
            )


# -- the arrangement ---------------------------------------------------------------


class Arrangement:
    """The hyperplanes of a graph in ``all_hyperplanes`` order, their
    ``names`` in generator order, ``by_name`` and ``through``; each
    halfspace pair is built on its first ``pair`` call and kept."""

    def __init__(self, g: GkmGraph):
        self.graph = g
        self.hyperplanes = all_hyperplanes(g)
        self.names = sorted((h.name for h in self.hyperplanes), key=_name_key)
        self.by_name = {h.name: h for h in self.hyperplanes}
        self.through = {}  # vertex -> the names of the hyperplanes through it
        for h in self.hyperplanes:
            for v in h.vertices:
                self.through[v] = self.through.get(v, frozenset()) | {h.name}
        self._pairs = {}  # name -> its halfspace_pair

    def pair(self, name):
        """The ``halfspace_pair`` of the hyperplane ``name``."""
        if name not in self._pairs:
            self._pairs[name] = halfspace_pair(self.graph, self.by_name[name])
        return self._pairs[name]

    def oriented(self, name):
        """The halfspace pair of ``name``, positive side first.

        Graphs generated from arrangements carry the choice in their
        metadata, a normal dart that ``all_hyperplanes`` checked; otherwise
        the sort-order first halfspace is the positive one.  The Thom class
        of the hyperplane flips sign with this choice, so reports record
        which convention was used.
        """
        pos, neg = self.pair(name)
        recorded = (self.graph.meta.get("positive_normals") or {}).get(name)
        if recorded in neg.normals.values():
            pos, neg = neg, pos
        return pos, neg

    def tau(self, name):
        """The x-forgetful Thom class of ``name``: the positive side's,
        cut to n coordinates."""
        n = self.graph.rank
        pos, _ = self.oriented(name)
        return {v: t[:n] for v, t in thom_class(self.graph, pos).items()}


# -- assumptions ----------------------------------------------------------------


class AssumptionReport:
    def __init__(self, assumption1, assumption2):
        self.assumption1 = assumption1
        self.assumption2 = assumption2
        self.ok1 = all(r["ok"] for r in assumption1.values())
        self.ok2 = all(r["ok"] for r in assumption2.values())
        self.ok = self.ok1 and self.ok2

    def to_dict(self):
        return {
            "ok": self.ok,
            "assumption1": {"ok": self.ok1, "per_hyperplane": self.assumption1},
            "assumption2": {"ok": self.ok2, "per_subset": self.assumption2},
        }


# The largest family table of assumption (2), in families: 2^m - 1 at a
# vertex on m hyperplanes, so local_model(14) has 16383.  On
# local_model(n), ``assumptions`` took 0.13 s at n = 12, 0.45 s at n = 14
# and 1.9 s / 90 MB at n = 16, about 4 times more per step of 2 (CLI
# subprocesses, 2 vCPUs, CPython 3.11).
FAMILY_TABLE_MAX = 16_384


def check_assumptions(arr: Arrangement) -> AssumptionReport:
    """Assumption (1) via halfspace pairs, assumption (2) via connectivity
    of every nonempty hyperplane intersection: the common vertices of a
    family and the darts common to its hyperplanes that start there.  A
    family table of more than ``FAMILY_TABLE_MAX`` families is refused
    before any of this work."""
    g = arr.graph
    size = sum(2 ** len(names) - 1 for names in arr.through.values())
    if size > FAMILY_TABLE_MAX:
        raise Oversized(
            f"the assumption (2) table has {size} families, more than the "
            f"{FAMILY_TABLE_MAX} accepted",
            "family_table_size",
        )
    a1 = {}
    for h in arr.hyperplanes:
        try:
            arr.pair(h.name)
            a1[h.name] = {"ok": True}
        except AssumptionOneViolation as exc:
            a1[h.name] = {"ok": False, "check": exc.check, "reason": str(exc)}
    table = nonempty_intersection_table(arr.through)
    a2 = {}
    for fam in sorted(table, key=lambda f: (len(f), sorted(f))):
        if len(fam) < 2:
            continue
        vertices = table[fam]
        darts = frozenset.intersection(*(arr.by_name[n].dart_ids for n in fam))
        darts = frozenset(d for d in darts if g.darts[d].source in vertices)
        count = len(set(components(g, vertices, darts).values()))
        verdict = {"ok": count <= 1}
        if count > 1:
            verdict.update(components=count, vertices=sorted(vertices))
        a2["&".join(sorted(fam))] = verdict
    return AssumptionReport(a1, a2)
