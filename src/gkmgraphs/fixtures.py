"""Built-in graphs: the figure fixtures and the three-direction line
arrangement family.

The five figure fixtures ship as canonical JSON files under ``data/``.  The
arrangement generator builds the graph from scratch: the direction of a dart
fixes the non-residual part of its label, and the residual coefficients are
the unique solution of a sparse integer system collecting the pair,
opposite and congruence constraints, pinned at the bottom-left vertex so
that the (1,1,1) arrangement reproduces the triangle fixture.  Each row has
at most three unknowns, so the system is solved by propagation, one
unknown per row from the pinned vertex outwards, and every row is checked
on the result.  ``local_model(n)`` and the line counts of ``gen_klm`` are
capped, so an oversized request is refused before anything is built.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources

from .errors import GkmError, StructuralError
from .graph import Dart, GkmGraph, load_graph, validate_axial
from .intlinalg import is_multiple_of, vec_sub

FIXTURE_IDS = (
    "fig2_left",
    "fig2_right",
    "fig7_pentagon",
    "fig8_line5",
    "fig11_sphere",
)

_LOCAL_MODEL_RE = re.compile(r"^local_model\((\d+)\)$")

# Size caps, refused up front: far above every test and benchmark input
# (local_model(6), L(5,5,5)), and low enough that validating the largest
# accepted graph takes seconds, not hours.
LOCAL_MODEL_MAX_N = 32
KLM_MAX_LINES = 30


def fixture(fixture_id: str) -> GkmGraph:
    """Load a built-in graph by id (``fig2_left``, ..., ``local_model(n)``)."""
    m = _LOCAL_MODEL_RE.match(fixture_id)
    if m:
        digits = m.group(1).lstrip("0")
        if len(digits) > len(str(LOCAL_MODEL_MAX_N)):
            # refused before int(), which is itself slow on a huge string
            raise GkmError(f"local model needs n <= {LOCAL_MODEL_MAX_N}")
        return local_model(int(digits or "0"))
    if fixture_id not in FIXTURE_IDS:
        raise GkmError(
            f"unknown fixture {fixture_id!r}; known: "
            + ", ".join(FIXTURE_IDS)
            + ", local_model(n)"
        )
    text = (
        resources.files("gkmgraphs")
        .joinpath(f"data/{fixture_id}.json")
        .read_text()
    )
    return load_graph(text)


def local_model(n: int) -> GkmGraph:
    """One vertex with 2n legs labeled e_1..e_n and x-e_1..x-e_n."""
    if n < 1:
        raise GkmError("local model needs n >= 1")
    if n > LOCAL_MODEL_MAX_N:
        raise GkmError(f"local model needs n <= {LOCAL_MODEL_MAX_N}")
    darts = []
    for i in range(n):
        plus = tuple(int(j == i) for j in range(n)) + (0,)
        minus = tuple(-int(j == i) for j in range(n)) + (1,)
        darts.append(Dart(f"o:p{i + 1}", "o", None, None, plus))
        darts.append(Dart(f"o:m{i + 1}", "o", None, None, minus))
    return GkmGraph(n, darts)


# -- the L_{k,l,m} family ------------------------------------------------------

# direction suffix -> (unit step in the plane, forgetful label (e1, e2))
_DIRECTIONS = {
    "e": ((1, 0), (0, 1)),
    "w": ((-1, 0), (0, -1)),
    "n": ((0, 1), (1, 0)),
    "s": ((0, -1), (-1, 0)),
    "se": ((1, -1), (-1, 1)),
    "nw": ((-1, 1), (1, -1)),
}

_LINE_KINDS = {
    # kind: (plus direction, minus direction, lambda covector)
    "X": ("e", "w", (1, 0)),
    "Y": ("n", "s", (0, 1)),
    "Z": ("se", "nw", (-1, -1)),
}


@dataclass(frozen=True)
class KlmSpec:
    k: int
    l: int
    m: int

    def __post_init__(self):
        if min(self.k, self.l, self.m) < 1:
            raise GkmError("k, l, m must all be at least 1")
        if max(self.k, self.l, self.m) > KLM_MAX_LINES:
            raise GkmError(f"k, l, m must all be at most {KLM_MAX_LINES}")


class _Line:
    def __init__(self, name, kind, vertex_ids):
        self.name = name
        self.kind = kind
        self.vertex_ids = vertex_ids  # ordered along the plus direction
        self.plus, self.minus, self.lam = _LINE_KINDS[kind]


def _klm_lines(spec: KlmSpec):
    k, l, m = spec.k, spec.l, spec.m
    # X_r: y = r-1; Y_s: x = s-1; Z_t: x + y = k + l - 2 + t.  The Z offsets
    # exceed every x + y value of an X/Y crossing, so no three lines meet,
    # and the resulting orderings along each line are the ones hard-coded
    # below (Y then Z crossings on an X line, etc).
    lines = []
    for r in range(1, k + 1):
        ids = [f"X{r}.Y{s}" for s in range(1, l + 1)]
        ids += [f"X{r}.Z{t}" for t in range(1, m + 1)]
        lines.append(_Line(f"X{r}", "X", ids))
    for s in range(1, l + 1):
        ids = [f"X{r}.Y{s}" for r in range(1, k + 1)]
        ids += [f"Y{s}.Z{t}" for t in range(1, m + 1)]
        lines.append(_Line(f"Y{s}", "Y", ids))
    for t in range(1, m + 1):
        ids = [f"Y{s}.Z{t}" for s in range(1, l + 1)]
        ids += [f"X{r}.Z{t}" for r in range(k, 0, -1)]
        lines.append(_Line(f"Z{t}", "Z", ids))
    return lines


def gen_klm(spec: KlmSpec) -> GkmGraph:
    """GKM graph of k horizontal, l vertical and m diagonal lines in
    general position, fully validated."""
    lines = _klm_lines(spec)
    dart_dirs, dart_rows = _klm_darts(lines)
    rows, rhs = _residual_system(lines, dart_dirs, dart_rows)
    residual = solve_by_propagation(rows, rhs)
    darts = []
    for did in sorted(dart_dirs):
        src, tgt, opp = dart_rows[did]
        f1, f2 = _DIRECTIONS[dart_dirs[did]][1]
        darts.append(Dart(did, src, tgt, opp, (f1, f2, residual[did])))
    meta = {
        "hyperplane_names": {
            line.name: sorted(set(line.vertex_ids)) for line in lines
        },
        "positive_normals": _positive_normals(lines),
    }
    g = GkmGraph(2, darts, meta=meta)
    g.connection  # derive and cache so serialization carries it
    report = validate_axial(g)
    if not report.ok:
        raise StructuralError(
            "generated arrangement graph fails validation: "
            + ", ".join(report.failed_checks())
        )
    return g


def _klm_darts(lines):
    """Direction suffix and (source, target, opposite) of every dart, both
    keyed by dart id."""
    dart_dirs = {}  # dart id -> direction suffix
    dart_rows = {}  # dart id -> (source, target, opposite)
    for line in lines:
        ids = line.vertex_ids
        for i, v in enumerate(ids):
            plus_id = f"{v}:{line.plus}"
            minus_id = f"{v}:{line.minus}"
            nxt = ids[i + 1] if i + 1 < len(ids) else None
            prv = ids[i - 1] if i - 1 >= 0 else None
            dart_dirs[plus_id] = line.plus
            dart_rows[plus_id] = (
                v,
                nxt,
                f"{nxt}:{line.minus}" if nxt else None,
            )
            dart_dirs[minus_id] = line.minus
            dart_rows[minus_id] = (
                v,
                prv,
                f"{prv}:{line.plus}" if prv else None,
            )
    return dart_dirs, dart_rows


def _positive_normals(lines):
    """Pick the normal dart fixing each line's halfspace orientation.

    At the line's first vertex, the recorded dart is the one whose
    forgetful label pairs to +1 with the line's characteristic covector.
    """
    by_vertex = {}
    for line in lines:
        for v in line.vertex_ids:
            by_vertex.setdefault(v, []).append(line)
    out = {}
    for line in lines:
        v0 = line.vertex_ids[0]
        other = next(ln for ln in by_vertex[v0] if ln.name != line.name)
        for suffix in (other.plus, other.minus):
            f = _DIRECTIONS[suffix][1]
            if f[0] * line.lam[0] + f[1] * line.lam[1] == 1:
                out[line.name] = f"{v0}:{suffix}"
                break
        else:
            raise StructuralError(f"no normal candidate for line {line.name}")
    return out


def _residual_system(lines, dart_dirs, dart_rows):
    """The sparse system of pair, opposite and congruence constraints on
    the residual (x) coefficients of all darts: rows ``{dart id:
    coefficient}`` and their right-hand sides.

    Every row has at most three unknowns, and the two pin rows fix the
    bottom-left vertex; from there some row always has one open unknown,
    so ``solve_by_propagation`` finds the unique solution one unknown per
    row, with no dense elimination.
    """
    rows, rhs = [], []

    def row(entries, b):
        r = {}
        for did, c in entries:
            r[did] = r.get(did, 0) + c
        rows.append({did: c for did, c in r.items() if c})
        rhs.append(b)

    darts_at = {}  # vertex -> its dart ids
    for did, (src, _, _) in dart_rows.items():
        darts_at.setdefault(src, []).append(did)
    for line in lines:
        for v in line.vertex_ids:
            row([(f"{v}:{line.plus}", 1), (f"{v}:{line.minus}", 1)], 1)
    for did, (_, tgt, opp) in dart_rows.items():
        if opp is not None:
            row([(did, 1), (opp, 1)], 0)
    forget = {did: _DIRECTIONS[d][1] for did, d in dart_dirs.items()}
    for eid, (src, tgt, opp) in dart_rows.items():
        if tgt is None:
            continue
        w = forget[eid]
        tangent_at_src = {eid, _sibling(eid, src, dart_dirs)}
        tangent_at_tgt = {opp, _sibling(opp, tgt, dart_dirs)}
        cross_src = [d for d in darts_at[src] if d not in tangent_at_src]
        cross_tgt = [d for d in darts_at[tgt] if d not in tangent_at_tgt]
        for d in cross_src:
            images = [
                d2
                for d2 in cross_tgt
                if is_multiple_of(vec_sub(forget[d], forget[d2]), w) is not None
            ]
            if len(images) != 1:
                raise StructuralError(
                    f"forgetful labels leave the connection across {eid} "
                    "ambiguous"
                )
            lam = is_multiple_of(vec_sub(forget[d], forget[images[0]]), w)
            row([(d, 1), (images[0], -1), (eid, -lam)], 0)
    # pin the bottom-left vertex to the standard local model
    first_x = lines[0]
    row([(f"{first_x.vertex_ids[0]}:{first_x.plus}", 1)], 0)
    first_y = next(ln for ln in lines if ln.kind == "Y")
    row([(f"{first_y.vertex_ids[0]}:{first_y.plus}", 1)], 0)
    return rows, rhs


def solve_by_propagation(rows, rhs):
    """The unique integer solution of the sparse rows ``{unknown:
    coefficient}`` = ``rhs``, keyed by unknown.

    A row with exactly one open unknown fixes it by exact division; the
    rows it appears in lose one open unknown, and the rows left with one
    go on the stack (a sparse triangular solve; Davis, *Direct Methods for
    Sparse Linear Systems*, 2006, ch. 3).  When every unknown is fixed
    this way the pivot rows form a triangular system, so the solution is
    unique.  Raises StructuralError when a division leaves a remainder,
    when propagation stalls with an unknown still open, or when any row
    fails on the solution.
    """
    rows_of = {}  # unknown -> indices of the rows it appears in
    for i, r in enumerate(rows):
        for u in r:
            rows_of.setdefault(u, []).append(i)
    open_count = [len(r) for r in rows]
    rest = list(rhs)  # right-hand side minus the fixed unknowns' part
    stack = [i for i, c in enumerate(open_count) if c == 1]
    sol = {}
    while stack:
        i = stack.pop()
        if open_count[i] != 1:
            continue  # its last unknown was fixed through another row
        u = next(u for u in rows[i] if u not in sol)
        q, r = divmod(rest[i], rows[i][u])
        if r:
            raise StructuralError(
                f"residual coefficient system has no integer solution at {u}"
            )
        sol[u] = q
        for j in rows_of[u]:
            rest[j] -= rows[j][u] * q
            open_count[j] -= 1
            if open_count[j] == 1:
                stack.append(j)
    if len(sol) != len(rows_of):
        raise StructuralError(
            "residual coefficient system is not determined by propagation "
            f"({len(rows_of) - len(sol)} unknowns left open)"
        )
    for r, b in zip(rows, rhs):
        if sum(c * sol[u] for u, c in r.items()) != b:
            raise StructuralError("residual coefficient system has no solution")
    return sol


def _sibling(dart_id, vertex, dart_dirs):
    """The other dart at `vertex` tangent to the same line."""
    v, suffix = dart_id.rsplit(":", 1)
    for plus, minus, _ in _LINE_KINDS.values():
        if suffix == plus:
            return f"{vertex}:{minus}"
        if suffix == minus:
            return f"{vertex}:{plus}"
    raise KeyError(dart_id)
