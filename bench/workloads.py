"""Workload definitions, seeded inputs and the exact-output gate.

A workload is a list of CLI command lines.  ``@KLM`` in a command stands
for the generated ``L_{k,l,m}`` graph file of that rung (``@333`` is
L(3,3,3)); a command containing `` | `` is a two-stage stdin pipe.  The
command string itself is the key of its reference entry in
``reference.json``.

Every run prepares ``VARIANTS`` renamed copies of each rung it needs; pass
``p`` of a run uses copy ``p % VARIANTS``, so a run averages over several
renamings instead of resting on one draw.  Seed 0 means no renaming.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import shlex
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_FILE = BENCH_DIR / "reference.json"
VARIANTS = 4

LADDER = ["111", "212", "222", "322", "333", "433", "444", "555"]
FIGURES = ["fig2_left", "fig2_right", "fig7_pentagon", "fig8_line5", "fig11_sphere"]


def _gen(rung):
    k, l, m = rung
    return f"gen klm --k {k} --l {l} --m {m}"


# Sizes are chosen so that one pass takes a few seconds on one core; see
# README.md for what each workload isolates.
WORKLOADS = {
    "solver": [
        "cohomology @322 --max-degree 3",
        "cohomology @433 --max-degree 2",
        "cohomology @444 --max-degree 3 --forgetful",
        "cohomology @555 --max-degree 2 --forgetful",
    ],
    "verify": [
        "verify-iso @322 --max-degree 3",
        "verify-iso @433 --max-degree 1",
        "verify-iso @555 --max-degree 2 --forgetful",
    ],
    "shelling": [
        "structure-constants @444",
        'express @444 --poly "(X1+Y1+Z1)^4"',
        'express @555 --poly "(X1+Y1+Z1)^3"',
        'express @555 --poly "X1*Y2*Z3-2*X3^2"',
        "basis --fixture fig7_pentagon",
        "structure-constants --fixture fig7_pentagon",
        "structure-constants --fixture fig8_line5",
    ],
    "front": (
        [
            c
            for r in LADDER
            for c in (_gen(r), f"validate @{r}", f"hyperplanes @{r}", f"assumptions @{r}")
        ]
        + [f"{c} --fixture {f}" for f in FIGURES for c in ("validate", "hyperplanes", "assumptions")]
        + [
            'validate --fixture "local_model(6)"',
            _gen("212") + " | basis",
            "basis --fixture fig11_sphere",
        ]
    ),
}

_RUNG_RE = re.compile(r"^@\d{3}$")


def rungs_of(commands):
    """The ladder rungs whose generated files the commands read."""
    out = set()
    for cmd in commands:
        for tok in shlex.split(cmd):
            if _RUNG_RE.match(tok):
                out.add(tok[1:])
    return sorted(out)


def stages(cmd, files):
    """argv lists of the command's pipe stages, with ``@KLM`` replaced by
    the path in ``files``."""
    return [
        [files[tok[1:]] if _RUNG_RE.match(tok) else tok for tok in shlex.split(part)]
        for part in cmd.split(" | ")
    ]


# -- seeded renaming -------------------------------------------------------------


def rename(doc, rng):
    """The same graph with vertex and dart ids replaced by a random
    bijection, applied through every field that names them.  Returns the
    renamed document and the map from new ids back to the original ones."""
    vids = list(doc["vertices"])
    dids = [d["id"] for d in doc["darts"]]
    vperm = rng.sample(range(len(vids)), len(vids))
    dperm = rng.sample(range(len(dids)), len(dids))
    vmap = {v: f"v{vperm[i]:04d}" for i, v in enumerate(vids)}
    dmap = {d: f"d{dperm[i]:05d}" for i, d in enumerate(dids)}

    def v(x):
        return None if x is None else vmap[x]

    def d(x):
        return None if x is None else dmap[x]

    out = {
        "rank": doc["rank"],
        "vertices": sorted(vmap.values()),
        "darts": sorted(
            (
                {"id": d(r["id"]), "from": v(r["from"]), "to": v(r["to"]),
                 "opposite": d(r["opposite"]), "axial": r["axial"]}
                for r in doc["darts"]
            ),
            key=lambda r: r["id"],
        ),
    }
    if "connection" in doc:
        out["connection"] = {
            d(e): {d(a): d(b) for a, b in m.items()} for e, m in doc["connection"].items()
        }
    if "hyperplane_names" in doc:
        out["hyperplane_names"] = {
            n: sorted(map(v, vs)) for n, vs in doc["hyperplane_names"].items()
        }
    if "positive_normals" in doc:
        out["positive_normals"] = {n: d(x) for n, x in doc["positive_normals"].items()}
    back = {new: old for old, new in vmap.items()}
    back.update({new: old for old, new in dmap.items()})
    return out, back


def variant_rng(seed, rung, variant):
    return random.Random(f"gkm-bench:{seed}:{rung}:{variant}")


def command_order(commands, seed, pass_index):
    """Seed 0 keeps the listed order; any other seed shuffles each pass."""
    order = list(commands)
    if seed:
        random.Random(f"gkm-bench-order:{seed}:{pass_index}").shuffle(order)
    return order


# -- exact-output gate ------------------------------------------------------------


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_references():
    return json.loads(REFERENCE_FILE.read_text())["commands"]


def _subcommand(cmd):
    return shlex.split(cmd.split(" | ")[-1])[0]


def canonical(cmd, stdout: bytes, back) -> bytes:
    """Renaming-invariant form of an output that names vertex or dart ids.

    Ids are mapped back through ``back``.  What may legitimately depend on
    the id order is left out: the Hermite-reduced cohomology basis itself
    (its rank, size and vertex set are kept) and hyperplane labels (a hash
    of the ids).
    """
    doc = json.loads(stdout)
    sub = _subcommand(cmd)
    if sub == "cohomology":
        doc["degrees"] = {
            k: {
                "rank": piece["rank"],
                "classes": len(piece["basis"]),
                "vertices": sorted({back.get(v, v) for c in piece["basis"] for v in c}),
            }
            for k, piece in doc["degrees"].items()
        }
    elif sub == "hyperplanes":
        doc["hyperplanes"] = sorted(
            (
                {"name": h["name"],
                 "vertices": sorted(back.get(x, x) for x in h["vertices"]),
                 "darts": sorted(back.get(x, x) for x in h["darts"])}
                for h in doc["hyperplanes"]
            ),
            key=lambda h: h["name"],
        )
    return json.dumps(doc, sort_keys=True).encode()


def needs_canonical(cmd):
    return bool(rungs_of([cmd])) and _subcommand(cmd) in ("cohomology", "hyperplanes")


def check(cmd, exit_code, stdout: bytes, back, ref) -> bool:
    """Does one command's result match its recorded reference?

    With no renaming (``back`` empty) the whole document must match byte
    for byte; on renamed input the commands that name ids are compared in
    canonical form and all others still byte for byte.
    """
    if exit_code != ref["exit"]:
        return False
    if not back or not needs_canonical(cmd):
        return sha256(stdout) == ref["stdout_sha256"]
    try:
        return sha256(canonical(cmd, stdout, back)) == ref["canonical_sha256"]
    except (ValueError, KeyError, TypeError, AttributeError):
        return False
