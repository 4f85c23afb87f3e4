"""Tests of the benchmark itself: the output gate, the seeded inputs and
the tracer.  Run from the root of a source checkout:

    python3 bench/selftest.py
"""

from __future__ import annotations

import importlib
import json
import sys
import unittest
from pathlib import Path

import run as bench
import tracer
import workloads as wl

sys.path.insert(0, str(bench.SRC))


def prepared(workload, seed):
    r = bench.Run(workload, seed, 0.0)
    r.dir = bench.WORK / f"selftest-{workload}-s{seed}"
    r.setup_once()
    return r


def execute(r, cmd, variant=0):
    out = r.dir / "stdout"
    code, _, _, _, timed_out = r.spawn_and_reap(r.cli_argvs(cmd, variant), out, 60.0)
    assert not timed_out
    return code, out.read_bytes()


def corrupted(data, i):
    return data[:i] + bytes([data[i] ^ 1]) + data[i + 1 :]


class GateTest(unittest.TestCase):
    def test_every_corrupted_byte_of_a_whole_document_fails(self):
        r = prepared("shelling", 0)
        cmd = "structure-constants --fixture fig8_line5"
        code, data = execute(r, cmd)
        self.assertTrue(r.ok(cmd, 0, code, data))
        for i in range(len(data)):
            self.assertFalse(r.ok(cmd, 0, code, corrupted(data, i)), f"byte {i}")

    def test_wrong_exit_code_fails(self):
        r = prepared("front", 0)
        cmd = "assumptions --fixture fig2_right"
        code, data = execute(r, cmd)
        self.assertEqual(code, 1)
        self.assertTrue(r.ok(cmd, 0, code, data))
        self.assertFalse(r.ok(cmd, 0, 0, data))

    def test_renamed_output_is_checked_in_canonical_form(self):
        r = prepared("front", 5)
        cmd = "hyperplanes @322"
        code, data = execute(r, cmd)
        self.assertNotEqual(wl.sha256(data), r.refs[cmd]["stdout_sha256"])
        self.assertTrue(r.ok(cmd, 0, code, data))
        doc = json.loads(data)
        doc["hyperplanes"][0]["darts"].pop()
        self.assertFalse(r.ok(cmd, 0, code, json.dumps(doc).encode()))
        # a renamed vertex id that does not map back is caught
        i = data.index(b'"v0') + 2
        self.assertFalse(r.ok(cmd, 0, code, corrupted(data, i)))


class InputTest(unittest.TestCase):
    def test_seed_zero_is_the_generated_graph(self):
        r = prepared("front", 0)
        cmd = "gen klm --k 3 --l 3 --m 3"
        _, generated = execute(r, cmd)
        self.assertEqual((r.dir / "L333-0.json").read_bytes(), generated)

    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        def variant(seed):
            return Path(prepared("verify", seed).files[1]["322"]).read_bytes()

        first = variant(7)
        self.assertEqual(variant(7), first)
        self.assertNotEqual(variant(8), first)

    def test_renaming_is_a_bijection_through_every_field(self):
        r = prepared("verify", 3)
        doc = json.loads(Path(r.files[2]["322"]).read_text())
        back = r.backs[2]["322"]
        ids = set(doc["vertices"]) | {d["id"] for d in doc["darts"]}
        self.assertEqual(set(back), ids)
        self.assertEqual(len(set(back.values())), len(back))
        refs = {x for d in doc["darts"] for x in (d["from"], d["to"], d["opposite"]) if x}
        refs |= {x for m in doc["connection"].values() for kv in m.items() for x in kv}
        refs |= set(doc["connection"]) | set(doc["positive_normals"].values())
        refs |= {x for vs in doc["hyperplane_names"].values() for x in vs}
        self.assertLessEqual(refs, ids)


class TracerTest(unittest.TestCase):
    def test_self_times_cover_the_traced_pass_and_wrappers_come_off(self):
        r = prepared("front", 0)
        commands = [[c, wl.stages(c, r.files[0])] for c in wl.WORKLOADS["front"][:8]]
        modules = {x: importlib.import_module(f"gkmgraphs.{x}") for x in tracer.LAYERS}
        original = modules["cohomology"].kernel_basis
        t = tracer.Tracer()
        with tracer.installed(t, modules):
            self.assertIsNot(modules["cohomology"].kernel_basis, original)
            wall, results = tracer.run_pass(modules["cli"], commands, t)
        self.assertIs(modules["cohomology"].kernel_basis, original)
        for (cmd, _), (code, out) in zip(commands, results):
            self.assertTrue(r.ok(cmd, 0, code, out), cmd)
        m = tracer.layer_metrics(t)
        covered = sum(m[f"{x}.self_s"] for x in tracer.LAYERS)
        self.assertLessEqual(covered, wall)
        self.assertLess(wall - covered, 0.05 * wall)
        # `hyperplanes` and `assumptions` each discover the hyperplanes once
        self.assertEqual(m["hyperplanes.all_hyperplanes_calls"], 4)
        self.assertGreater(m["fixtures.gen_klm_s"], 0)


if __name__ == "__main__":
    unittest.main()
