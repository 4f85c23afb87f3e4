"""Record the expected output of every workload command.

Run from the root of a source checkout whose outputs define correctness:

    python3 bench/make_reference.py

It runs each command once on the unrenamed inputs (seed 0) and writes
``bench/reference.json``: exit code, SHA-256 of stdout and, for commands
whose output names vertex or dart ids, SHA-256 of its renaming-invariant
form.
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys

import run as bench
import workloads as wl


def main():
    sys.path.insert(0, str(bench.SRC))
    wl.load_references = dict  # no references exist yet
    refs = {}
    for name, commands in wl.WORKLOADS.items():
        r = bench.Run(name, 0, 0.0)
        r.setup_once()
        for cmd in commands:
            out = r.dir / "stdout"
            code, wall, _, _, timed_out = r.spawn_and_reap(r.cli_argvs(cmd, 0), out, 600.0)
            if timed_out:
                raise SystemExit(f"timed out: {cmd}")
            data = out.read_bytes()
            entry = {"exit": code, "stdout_sha256": wl.sha256(data), "stdout_bytes": len(data)}
            if wl.needs_canonical(cmd):
                entry["canonical_sha256"] = wl.sha256(wl.canonical(cmd, data, {}))
            refs[cmd] = entry
            print(f"{wall:7.3f} s  exit {code}  {cmd}", flush=True)
    sha = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=bench.ROOT, capture_output=True, text=True
    ).stdout.strip()
    doc = {
        "source_commit": sha or "unknown",
        "python": platform.python_version(),
        "commands": refs,
    }
    wl.REFERENCE_FILE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
