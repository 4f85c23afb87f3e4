"""Traced in-process run of a workload's commands.

Usage: ``python tracer.py SPEC OUT`` with ``gkmgraphs`` importable.  SPEC
is a JSON file ``{"commands": [[key, [argv, ...]], ...], "seconds": s,
"spans_file": path}`` (one argv per pipe stage).  The commands run through
``gkmgraphs.cli.main`` in this process, alternating untraced and traced
passes until ``seconds`` have gone (at least one of each).  Traced passes
run with wrappers on every public function of the package modules, also
where another module bound the function with ``from ... import``.  Each
wrapper records a span (name, start, end, parent) and per-call counters
in memory; the spans of the last traced pass are written to
``spans_file`` at the end, and the per-layer metrics to OUT.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import itertools
import json
import statistics
import sys
import time
import traceback

LAYERS = ["cli", "fixtures", "graph", "hyperplanes", "cohomology", "intlinalg", "polynomials", "shelling"]


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.command = 0
        self.cells = 0
        self.max_bits = 0
        self.kernel_cols = 0
        self.families = 0
        self.hyperplanes = set()  # (command, vertices, darts) seen by halfspace_pair
        self.pieces = set()  # (command, degree, forgetful) solved by cohomology_basis
        self.observers = {
            "intlinalg.hermite_normal_form": self._hnf,
            "intlinalg.kernel_basis": self._kernel,
            "hyperplanes.nonempty_intersection_table": self._families,
            "hyperplanes.halfspace_pair": self._halfspace_pair,
            "cohomology.cohomology_basis": self._piece,
        }

    # -- counters measured where the work happens --------------------------------

    def _hnf(self, args, kwargs, result):
        rows = args[0]
        if rows:
            self.cells += len(rows) * len(rows[0])
        mats = result if _arg(args, kwargs, 1, "transform", False) else (result,)
        for m in mats:
            if m and m[0]:
                big = max(map(abs, itertools.chain.from_iterable(m)))
                self.max_bits = max(self.max_bits, big.bit_length())

    def _kernel(self, args, kwargs, result):
        rows = args[0]
        ncols = _arg(args, kwargs, 1, "ncols")
        self.kernel_cols += ncols if ncols is not None else len(rows[0])

    def _families(self, args, kwargs, result):
        self.families += len(result)

    def _halfspace_pair(self, args, kwargs, result):
        h = _arg(args, kwargs, 1, "hyperplane")
        self.hyperplanes.add((self.command, h.vertices, h.dart_ids))

    def _piece(self, args, kwargs, result):
        degree = _arg(args, kwargs, 1, "degree")
        forgetful = bool(_arg(args, kwargs, 2, "forgetful", False))
        self.pieces.add((self.command, degree, forgetful))

    # -- spans ---------------------------------------------------------------------

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        observe = self.observers.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(args, kwargs, result)
                return result
            finally:
                stack.pop()
                span[2] = clock()

        return wrapper


def _targets(modules):
    """(owner, attribute, span name) for every public function defined in
    the package modules, plus ``IntPolynomial.substitute``."""
    out = []
    for layer, mod in modules.items():
        for attr, fn in inspect.getmembers(mod, inspect.isfunction):
            if not attr.startswith("_") and fn.__module__ == mod.__name__:
                out.append((mod, attr, f"{layer}.{attr}"))
    out.append((modules["polynomials"].IntPolynomial, "substitute", "polynomials.substitute"))
    return out


@contextlib.contextmanager
def installed(tracer, modules):
    """Install the wrappers, also over names bound by ``from ... import``,
    and restore every original on exit."""
    saved = []
    for owner, attr, name in _targets(modules):
        fn = getattr(owner, attr)
        wrapper = tracer.wrap(name, fn)
        holders = [owner] + [m for m in modules.values() if m is not owner]
        for holder in holders:
            for key, val in list(vars(holder).items()):
                if val is fn:
                    saved.append((holder, key, val))
                    setattr(holder, key, wrapper)
    try:
        yield
    finally:
        for holder, key, val in reversed(saved):
            setattr(holder, key, val)


def run_pass(cli, commands, tracer=None):
    """Run every command through ``cli.main`` once (looked up per call, so
    that the installed wrapper is the one that runs); return the pass wall
    time and each command's (exit code, stdout bytes)."""
    results = []
    real_out, real_in = sys.stdout, sys.stdin
    t0 = time.perf_counter()
    try:
        for i, (_, stage_argvs) in enumerate(commands):
            if tracer is not None:
                tracer.command = i
            data = ""
            for argv in stage_argvs:
                sys.stdin = io.StringIO(data)
                sys.stdout = io.StringIO()
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
                except Exception:
                    # what the interpreter would do with an uncaught error
                    traceback.print_exc()
                    code = 1
                data = sys.stdout.getvalue()
            results.append((code, data.encode()))
    finally:
        sys.stdout, sys.stdin = real_out, real_in
    return time.perf_counter() - t0, results


def layer_metrics(tracer):
    """Per-layer metrics of one traced pass, derived from its spans."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s = dict.fromkeys(LAYERS, 0.0)
    inclusive = {}
    calls = {}
    for i, (name, start, end, parent) in enumerate(spans):
        self_s[name.split(".", 1)[0]] += end - start - child_time[i]
        calls[name] = calls.get(name, 0) + 1
        # inclusive time counts only the outermost span of a recursive call
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            inclusive[name] = inclusive.get(name, 0.0) + end - start

    def t(name):
        return inclusive.get(name, 0.0)

    def n(name):
        return calls.get(name, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    m.update({
        "fixtures.gen_klm_s": t("fixtures.gen_klm"),
        "graph.load_graph_s": t("graph.load_graph"),
        "graph.validate_axial_s": t("graph.validate_axial"),
        "graph.derive_connection_calls": n("graph.derive_connection"),
        "graph.pair_decomposition_calls": n("graph.pair_decomposition"),
        "hyperplanes.all_hyperplanes_calls": n("hyperplanes.all_hyperplanes"),
        "hyperplanes.halfspace_pair_calls": n("hyperplanes.halfspace_pair"),
        "hyperplanes.halfspace_pair_per_hyperplane": ratio(
            n("hyperplanes.halfspace_pair"), len(tracer.hyperplanes)
        ),
        "hyperplanes.halfspace_pair_s": t("hyperplanes.halfspace_pair"),
        "hyperplanes.check_assumptions_s": t("hyperplanes.check_assumptions"),
        "hyperplanes.nonempty_families": tracer.families,
        "hyperplanes.minimal_empty_families_s": t("hyperplanes.minimal_empty_families"),
        "cohomology.cohomology_basis_calls": n("cohomology.cohomology_basis"),
        "cohomology.piece_reuse": ratio(len(tracer.pieces), n("cohomology.cohomology_basis")),
        "cohomology.cohomology_basis_s": t("cohomology.cohomology_basis"),
        "cohomology.assert_congruences_s": t("cohomology.assert_congruences"),
        "cohomology.presentation_ring_s": t("cohomology.presentation_ring"),
        "cohomology.verify_iso_s": t("cohomology.verify_iso"),
        "cohomology.kernel_forgetful_check_s": t("cohomology.kernel_forgetful_check"),
        "intlinalg.hnf_calls": n("intlinalg.hermite_normal_form"),
        "intlinalg.hnf_s": t("intlinalg.hermite_normal_form"),
        "intlinalg.hnf_cells": tracer.cells,
        "intlinalg.hnf_max_bits": tracer.max_bits,
        "intlinalg.kernel_cols": tracer.kernel_cols,
        "intlinalg.rank_ffge_calls": n("intlinalg.rank_ffge"),
        "intlinalg.rank_ffge_s": t("intlinalg.rank_ffge"),
        "intlinalg.solve_integer_calls": n("intlinalg.solve_integer"),
        "polynomials.divide_exact_by_linear_calls": n("polynomials.divide_exact_by_linear"),
        "polynomials.divide_exact_by_linear_s": t("polynomials.divide_exact_by_linear"),
        "polynomials.substitute_calls": n("polynomials.substitute"),
        "polynomials.substitute_s": t("polynomials.substitute"),
        "shelling.shelling_context_calls": n("shelling.shelling_context"),
        "shelling.shelling_context_s": t("shelling.shelling_context"),
        "shelling.find_shelling_s": t("shelling.find_shelling"),
        "shelling.express_in_basis_calls": n("shelling.express_in_basis"),
        "shelling.express_in_basis_s": t("shelling.express_in_basis"),
        "shelling.ordinary_cohomology_s": t("shelling.ordinary_cohomology"),
    })
    return m


def main(spec_path, out_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    modules = {layer: importlib.import_module(f"gkmgraphs.{layer}") for layer in LAYERS}
    commands = spec["commands"]
    deadline = time.perf_counter() + spec["seconds"]
    untraced, traced, per_pass = [], [], []
    while True:
        wall, _ = run_pass(modules["cli"], commands)
        untraced.append(wall)
        tracer = Tracer()
        with installed(tracer, modules):
            wall, results = run_pass(modules["cli"], commands, tracer)
        traced.append(wall)
        metrics = layer_metrics(tracer)
        metrics["trace.wall_s"] = wall
        metrics["trace.unattributed_s"] = wall - sum(metrics[f"{x}.self_s"] for x in LAYERS)
        per_pass.append(metrics)
        if time.perf_counter() + untraced[-1] + wall > deadline:
            break
    metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    metrics["cli.stdout_bytes"] = sum(len(out) for _, out in results)
    with open(spec["spans_file"], "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent"], "spans": tracer.spans}, fh)
    with open(out_path, "w") as fh:
        json.dump(
            {
                "metrics": metrics,
                "passes": len(per_pass),
                "results": [[code, out.decode()] for code, out in results],
            },
            fh,
        )


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
