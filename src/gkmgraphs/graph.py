"""Graphs with legs, axial functions and connections.

A graph is stored as a set of darts: an edge contributes two mutually
opposite darts, a leg contributes a single dart with no opposite and no
target.  Every dart carries an axial value in Z^(n+1) whose last coordinate
is the residual (x) direction.  All iteration is in sorted id order so that
derived data and serializations are reproducible bit for bit.

``validate_axial`` checks the axioms of the paper, and every command but
``validate`` refuses a graph that fails it, with its report, before any
work but a size cap.  So the code past that gate takes them as given: the
darts at each vertex pair up to x, the pair representatives and x form a
basis of Z^(n+1), the labels at each vertex are pairwise and
3-independent, alpha(opposite) = +-alpha(dart) on every edge, and the
connection is the one the congruence relations allow (Guillemin-Zara,
*1-skeleta, Betti numbers, and equivariant cohomology*, 2001).  The pair
table that the check builds is kept as ``GkmGraph.pairs``.

The connection maps pairs to pairs.  Let {a, b} be a pair at the source
of an edge dart e with opposite dart o, a' and b' the images of a and b
across e, and c the partner of a'.  Modulo alpha(e) = +-alpha(o),
alpha(c) = x - alpha(a') is congruent to x - alpha(a) = alpha(b), so to
alpha(b').  Were c not b', two or three labels would be dependent: those
of c, b' and o if the three differ, of c and o if b' is o, and of b and e
at the source if c is o (b is not e, as b' is not o).  The independence
axioms forbid each, so c is b'.
"""

from __future__ import annotations

import json
from collections import namedtuple
from itertools import combinations

from .errors import (
    AmbiguousConnection,
    NoPartner,
    NoValidConnection,
    ParseError,
    StructuralError,
)
from .intlinalg import Vec, congruent, is_multiple_of, vec_sub
from . import intlinalg

META_KEYS = ("hyperplane_names", "positive_normals", "comment")


class Dart(namedtuple("Dart", "id source target opposite axial")):
    """A dart: its id, source vertex, target vertex and opposite dart id
    (both None for a leg) and its axial value in Z^(n+1)."""

    __slots__ = ()

    @property
    def is_leg(self):
        return self.opposite is None


class CheckResult:
    def __init__(self, name, ok, offenders, message):
        self.name = name
        self.ok = ok
        self.offenders = offenders
        self.message = message

    def to_dict(self):
        return {
            "check": self.name,
            "ok": self.ok,
            "offenders": sorted(self.offenders),
            "message": self.message,
        }


class ValidationReport:
    def __init__(self, results):
        self.results = results

    @property
    def ok(self):
        return all(r.ok for r in self.results)

    def failed_checks(self):
        return [r.name for r in self.results if not r.ok]

    def to_dict(self):
        return {"ok": self.ok, "checks": [r.to_dict() for r in self.results]}


class GkmGraph:
    """Immutable 2n-valent graph with legs and lattice-valued axial labels.

    The constructor enforces the purely structural invariants (valence,
    opposite involution, connectivity).  The axial-function axioms are the
    business of :func:`validate_axial`, which reports instead of raising.
    """

    def __init__(self, rank, darts, connection=None, meta=None):
        self.rank = int(rank)
        if self.rank < 1:
            raise StructuralError("rank must be at least 1")
        self.darts = {}
        for d in darts:
            if d.id in self.darts:
                raise StructuralError(f"duplicate dart id {d.id!r}")
            self.darts[d.id] = d
        self.vertices = tuple(sorted({d.source for d in self.darts.values()}))
        self.meta = dict(meta) if meta else {}
        self._darts_at = {v: [] for v in self.vertices}
        for did in sorted(self.darts):
            self._darts_at[self.darts[did].source].append(did)
        self._check_structure()
        self._edge_dart_ids = [
            d for d in sorted(self.darts) if not self.darts[d].is_leg
        ]
        self._canonical_edges = [
            d for d in self._edge_dart_ids if d < self.darts[d].opposite
        ]
        self._connection = None
        self._pairs = None
        if connection is not None:
            self._connection = {e: dict(m) for e, m in connection.items()}
            _verify_connection(self, self._connection)

    # -- structure ---------------------------------------------------------

    def _check_structure(self):
        n = self.rank
        for d in self.darts.values():
            if len(d.axial) != n + 1:
                raise StructuralError(
                    f"dart {d.id!r} has axial of length {len(d.axial)}, "
                    f"expected {n + 1}"
                )
            if (d.target is None) != (d.opposite is None):
                raise StructuralError(
                    f"dart {d.id!r} must have target and opposite together"
                )
            if d.opposite is not None:
                if d.opposite == d.id:
                    raise StructuralError(f"dart {d.id!r} is its own opposite")
                opp = self.darts.get(d.opposite)
                if opp is None:
                    raise StructuralError(
                        f"dart {d.id!r} has dangling opposite {d.opposite!r}"
                    )
                if opp.opposite != d.id:
                    raise StructuralError(
                        f"opposite of opposite of {d.id!r} is not itself"
                    )
                if opp.source != d.target or opp.target != d.source:
                    raise StructuralError(
                        f"darts {d.id!r}/{opp.id!r} do not swap source and target"
                    )
            if d.target is not None and d.target not in self._darts_at:
                raise StructuralError(
                    f"dart {d.id!r} targets unknown vertex {d.target!r}"
                )
        for v, ids in self._darts_at.items():
            if len(ids) != 2 * n:
                raise StructuralError(
                    f"vertex {v!r} has valence {len(ids)}, expected {2 * n}"
                )
        self._check_connected()

    def _check_connected(self):
        if not self.vertices:
            raise StructuralError("graph has no vertices")
        if len(set(components(self, set(self.vertices)).values())) != 1:
            raise StructuralError("underlying graph is not connected")

    # -- accessors ----------------------------------------------------------

    def darts_at(self, v):
        return list(self._darts_at[v])

    def axial(self, dart_id) -> Vec:
        return self.darts[dart_id].axial

    def edge_dart_ids(self):
        return list(self._edge_dart_ids)

    def canonical_edges(self):
        """One dart id per unoriented edge (the lexicographically smaller)."""
        return list(self._canonical_edges)

    @property
    def residual(self) -> Vec:
        return (0,) * self.rank + (1,)

    @property
    def connection(self):
        if self._connection is None:
            self._connection = derive_connection(self)
        return self._connection

    @property
    def pairs(self):
        """The pair table ``{vertex: [(a, b), ...]}`` of darts whose labels
        sum to x: the one a passing ``validate_axial`` built, else built
        on first use."""
        if self._pairs is None:
            self._pairs = {v: _pairs_at(self, v) for v in self.vertices}
        return self._pairs

    # -- equality / serialization -------------------------------------------

    def to_dict(self):
        out = {
            "rank": self.rank,
            "vertices": list(self.vertices),
            "darts": [
                {
                    "id": d.id,
                    "from": d.source,
                    "to": d.target,
                    "opposite": d.opposite,
                    "axial": list(d.axial),
                }
                for _, d in sorted(self.darts.items())
            ],
        }
        if self._connection is not None:
            out["connection"] = {
                e: dict(sorted(m.items()))
                for e, m in sorted(self._connection.items())
            }
        for key in META_KEYS:
            if key in self.meta:
                out[key] = self.meta[key]
        return out

    def __eq__(self, other):
        return isinstance(other, GkmGraph) and self.to_dict() == other.to_dict()

    def __repr__(self):
        return (
            f"GkmGraph(rank={self.rank}, vertices={len(self.vertices)}, "
            f"darts={len(self.darts)})"
        )


def components(g: GkmGraph, vertices, dart_ids=None):
    """Connected components of the subgraph on the vertex set ``vertices``
    as ``{vertex: root}``, the root of a component being its smallest
    vertex.  An edge counts when its dart is in ``dart_ids`` (any dart when
    None), its opposite is too, and its target is in ``vertices``."""
    comp = {}
    for v in sorted(vertices):
        if v in comp:
            continue
        comp[v] = v
        stack = [v]
        while stack:
            for did in g._darts_at[stack.pop()]:
                d = g.darts[did]
                t = d.target
                if (
                    t in vertices
                    and t not in comp
                    and (
                        dart_ids is None
                        or (did in dart_ids and d.opposite in dart_ids)
                    )
                ):
                    comp[t] = v
                    stack.append(t)
    return comp


def serialize(g: GkmGraph) -> str:
    return json.dumps(g.to_dict(), sort_keys=True, indent=1) + "\n"


def _is_int(value) -> bool:
    """Is ``value`` a JSON integer?  JSON's true and false are not."""
    return isinstance(value, int) and not isinstance(value, bool)


# the optional fields that are JSON objects: (key, what their values are,
# the test of a value); null reads as absent
_OBJECT_FIELDS = (
    ("connection", "objects", lambda m: isinstance(m, dict)),
    (
        "hyperplane_names",
        "arrays of strings",
        lambda vs: isinstance(vs, list) and all(isinstance(v, str) for v in vs),
    ),
    ("positive_normals", "strings", lambda d: isinstance(d, str)),
)


def graph_from_dict(obj) -> GkmGraph:
    for key in ("rank", "vertices", "darts"):
        if key not in obj:
            raise ParseError(f"missing field {key!r}", field=key)
    rank = obj["rank"]
    if not _is_int(rank):
        raise ParseError("rank must be an integer", field="rank")
    for key in ("vertices", "darts"):
        if not isinstance(obj[key], list):
            raise ParseError(f"{key} must be an array", field=key)
    # every vertex has 2 * rank darts; refused before a message formats a
    # rank too long for str()
    if rank > len(obj["darts"]):
        raise ParseError(
            "rank is larger than the number of darts", field="rank"
        )
    for key, what, leaf in _OBJECT_FIELDS:
        value = obj.get(key)
        if value is not None and not (
            isinstance(value, dict) and all(map(leaf, value.values()))
        ):
            raise ParseError(f"{key} must be an object of {what}", field=key)
    darts = []
    for i, rec in enumerate(obj["darts"]):
        try:
            axial = rec["axial"]
            if not isinstance(axial, list) or not all(map(_is_int, axial)):
                raise TypeError("axial must be an array of integers")
            darts.append(
                Dart(
                    id=str(rec["id"]),
                    source=str(rec["from"]),
                    target=None if rec.get("to") is None else str(rec["to"]),
                    opposite=(
                        None
                        if rec.get("opposite") is None
                        else str(rec["opposite"])
                    ),
                    axial=tuple(axial),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(
                f"bad dart record at index {i}: {exc}", field="darts"
            ) from None
    declared = set(map(str, obj["vertices"]))
    actual = {d.source for d in darts}
    if declared != actual:
        raise ParseError(
            "vertex list does not match dart sources "
            f"(extra: {sorted(declared - actual)}, "
            f"missing: {sorted(actual - declared)})",
            field="vertices",
        )
    meta = {k: obj[k] for k in META_KEYS if k in obj}
    return GkmGraph(rank, darts, connection=obj.get("connection"), meta=meta)


def load_graph(text: str) -> GkmGraph:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: line {exc.lineno}: {exc.msg}") from None
    except RecursionError:
        raise ParseError(
            "not valid JSON: arrays or objects nested too deeply"
        ) from None
    except ValueError:  # more digits than int() converts
        raise ParseError(
            "not valid JSON: an integer with too many digits"
        ) from None
    if not isinstance(obj, dict):
        raise ParseError("top level must be a JSON object")
    return graph_from_dict(obj)


# -- connection ---------------------------------------------------------------


def derive_connection(g: GkmGraph):
    """The unique connection satisfying the congruence relations.

    Across an edge dart e, a dart d at its source is paired with a dart d'
    at its target, other than the opposite dart, whose label is congruent
    to d's modulo alpha(e) and modulo alpha(opposite).  The two moduli
    agree when alpha(opposite) = +-alpha(e), as ``opposite_sign`` asks;
    asking for both makes d and d' partners across the opposite dart as
    well.  For a 3-independent axial function each dart has at most one
    partner, which is how uniqueness in the small is detected (two
    partners raise AmbiguousConnection).

    The maps across e and across its opposite are inverse, with no pass
    to check it: d' is d's only partner across e, and d is a partner of d'
    across the opposite dart, so it is d''s only one.  Modulo alpha(e)
    alone that fails: where alpha(opposite) is no multiple of alpha(e),
    nor alpha(e) of it, the two maps found that way need not be inverse.
    """
    conn = {}
    for eid in g.edge_dart_ids():
        e = g.darts[eid]
        w, w_opp = e.axial, g.axial(e.opposite)
        # nothing but the edge dart itself may map to the opposite dart
        candidates = [
            (c, g.axial(c)) for c in g._darts_at[e.target] if c != e.opposite
        ]
        mapping = {eid: e.opposite}
        used = set()
        for did in g._darts_at[e.source]:
            if did == eid:
                continue
            a = g.axial(did)
            images = [
                c
                for c, b in candidates
                if congruent(a, b, w) and congruent(a, b, w_opp)
            ]
            if not images:
                raise NoValidConnection(
                    f"dart {did!r} has no congruent partner across {eid!r}"
                )
            if len(images) > 1:
                raise AmbiguousConnection(
                    f"dart {did!r} has {len(images)} congruent partners "
                    f"across {eid!r}"
                )
            img = images[0]
            if img in used:
                raise NoValidConnection(
                    f"two darts map to {img!r} across {eid!r}"
                )
            used.add(img)
            mapping[did] = img
        conn[eid] = mapping
    return conn


def _verify_connection(g: GkmGraph, conn):
    for eid, mapping in conn.items():
        e = g.darts.get(eid)
        if e is None or e.is_leg:
            raise StructuralError(
                f"stored connection entry {eid!r} is not an edge dart"
            )
        for did, img in mapping.items():
            if not isinstance(img, str):
                raise StructuralError(
                    f"stored connection across {eid!r} sends {did!r} to "
                    "something that is not a dart id"
                )
    for eid in g.edge_dart_ids():
        e = g.darts[eid]
        mapping = conn.get(eid)
        if mapping is None:
            raise StructuralError(f"stored connection misses edge dart {eid!r}")
        src = set(g.darts_at(e.source))
        if set(mapping) != src or set(mapping.values()) != set(
            g.darts_at(e.target)
        ):
            raise StructuralError(
                f"stored connection across {eid!r} is not a bijection "
                "between the dart sets"
            )
        if mapping[eid] != e.opposite:
            raise StructuralError(
                f"stored connection across {eid!r} does not send it to its "
                "opposite"
            )
        for did, img in mapping.items():
            if not congruent(g.axial(did), g.axial(img), e.axial):
                raise NoValidConnection(
                    f"stored connection violates the congruence relation on "
                    f"{eid!r} at {did!r}"
                )
    for eid, mapping in conn.items():
        opp = g.darts[eid].opposite
        if {v: k for k, v in conn[opp].items()} != mapping:
            raise StructuralError(
                f"stored connection across {eid!r} is not inverse to {opp!r}"
            )


# -- axial validation ----------------------------------------------------------


def _pairs_at(g: GkmGraph, v):
    """Match darts at v into pairs whose axial values sum to x."""
    x = g.residual
    ids = g.darts_at(v)
    unused = set(ids)
    pairs = []
    for did in ids:
        if did not in unused:
            continue
        want = vec_sub(x, g.axial(did))
        partners = [
            o for o in unused if o != did and g.axial(o) == want
        ]
        if len(partners) != 1:
            raise NoPartner(
                f"dart {did!r} at vertex {v!r} has {len(partners)} partners "
                "with complementary axial value"
            )
        other = partners[0]
        unused.discard(did)
        unused.discard(other)
        pairs.append((min(did, other), max(did, other)))
    return pairs


def validate_axial(g: GkmGraph) -> ValidationReport:
    """Run every axial-function axiom and collect the outcomes.

    A vertex is modeled on T*C^n when its darts pair up to x and the pair
    representatives with x form a basis of Z^(n+1): in that basis its
    labels are e_i and x - e_i, any two or three of which are linearly
    independent.  So the independence checks scan only the other vertices,
    and decide each subset by its rank.
    """
    x = g.residual

    pair_bad = []
    pair_table = {}
    for v in g.vertices:
        try:
            pair_table[v] = _pairs_at(g, v)
        except NoPartner as exc:
            pair_bad.append(f"{v}: {exc}")
    if not pair_bad:
        g._pairs = pair_table

    span_bad = []
    identity = [[int(i == j) for j in range(g.rank + 1)] for i in range(g.rank + 1)]
    for v, pairs in pair_table.items():
        reps = [g.axial(p) for p, _ in pairs]
        # n + 1 rows: when they span Z^(n+1), their Hermite form has no
        # zero row and is the identity
        if intlinalg.hermite_normal_form(reps + [x]) != identity:
            span_bad.append(v)

    modeled = set(pair_table).difference(span_bad)
    rows = {
        v: {d: dict(enumerate(g.axial(d))) for d in g.darts_at(v)}
        for v in g.vertices
        if v not in modeled
    }

    def dependent(size):
        return [
            f"{v}:{','.join(subset)}"
            for v, at in rows.items()
            for subset in combinations(at, size)
            if intlinalg.rank([at[d] for d in subset], g.rank + 1) < size
        ]

    congruence_message = "congruence relation must hold across every edge"
    try:
        g.connection
    except (NoValidConnection, AmbiguousConnection) as exc:
        congruence_bad = ["<no connection>"]
        congruence_message = f"no valid connection: {exc}"
    else:
        # a stored connection passed every congruence at load, and a
        # derived one sends each dart to a congruent one, except the edge
        # dart itself, which goes to its opposite: only that one is checked
        congruence_bad = [
            f"{eid}:{eid}"
            for eid in g.edge_dart_ids()
            if not congruent(
                g.axial(eid), g.axial(g.darts[eid].opposite), g.axial(eid)
            )
        ]

    # computed in the order the checks need each other, reported in the
    # order of the axioms
    checks = (
        (
            "opposite_sign",
            [
                eid
                for eid in g.canonical_edges()
                if is_multiple_of(g.axial(g.darts[eid].opposite), g.axial(eid))
                not in (1, -1)
            ],
            "alpha(opposite) must be +-alpha(dart) on every edge",
        ),
        (
            "pairwise_independence",
            dependent(2),
            "axial values at a vertex must be pairwise linearly independent",
        ),
        (
            "three_independence",
            dependent(3),
            "axial values at a vertex must be 3-linearly independent",
        ),
        ("congruence", congruence_bad, congruence_message),
        (
            "pair_decomposition",
            pair_bad,
            "darts at each vertex must split into pairs summing to x",
        ),
        (
            "span",
            span_bad,
            "pair representatives together with x must span Z^(n+1)",
        ),
        (
            "residual_not_realized",
            [d for d in sorted(g.darts) if g.axial(d) == x],
            "no dart may carry the residual vector x itself",
        ),
    )
    return ValidationReport(
        [CheckResult(name, not bad, bad, message) for name, bad, message in checks]
    )
