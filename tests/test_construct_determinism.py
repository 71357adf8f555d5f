"""Run labels must not depend on Python's string-hash randomization.

``construct_plan`` recovers the sibling order of the execution plan from
the run graph, and the three context coordinates ``(q1, q2, q3)`` are
positions in preorder traversals of that plan.  If any step iterated a
hash-ordered container of run vertices or module names, the same run would
receive different labels in different interpreter processes, and labels
persisted by one process would disagree with labels computed by another.
This test labels one run under three ``PYTHONHASHSEED`` values, each in a
fresh interpreter, and requires identical coordinates for every vertex.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.datasets.synthetic import generate_specification
from repro.workflow.execution import generate_run_with_size
from repro.workflow.serialization import run_to_json, specification_to_json

#: labels the stored run in a fresh interpreter and prints one
#: ``[module, instance, q1, q2, q3]`` row per vertex, in run order
LABEL_SCRIPT = """
import json, sys
from repro.skeleton.skl import SkeletonLabeler
from repro.workflow.serialization import run_from_json, specification_from_json

spec = specification_from_json(open(sys.argv[1]).read())
run = run_from_json(open(sys.argv[2]).read(), spec)
labeled = SkeletonLabeler(spec, "tcm").label_run(run)
rows = [
    [vertex.module, vertex.instance, *labeled.label_of(vertex).context]
    for vertex in run.vertices()
]
print(json.dumps(rows))
"""


def _label_in_subprocess(spec_path: Path, run_path: Path, hash_seed: str) -> list:
    source_root = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = os.pathsep.join(
        [str(source_root)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    completed = subprocess.run(
        [sys.executable, "-c", LABEL_SCRIPT, str(spec_path), str(run_path)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )
    return json.loads(completed.stdout)


def test_run_labels_are_identical_across_hash_seeds(tmp_path):
    # the paper's synthetic shape (nG=100 modules, mG=200 channels)
    spec = generate_specification(
        n_modules=100, n_edges=200, hierarchy_size=10, hierarchy_depth=4, seed=42
    )
    run = generate_run_with_size(spec, 1600, seed=7).run
    spec_path = tmp_path / "spec.json"
    run_path = tmp_path / "run.json"
    spec_path.write_text(specification_to_json(spec))
    run_path.write_text(run_to_json(run))

    labelings = {
        seed: _label_in_subprocess(spec_path, run_path, seed) for seed in ("0", "1", "2")
    }
    reference = labelings["0"]
    assert len(reference) == run.vertex_count
    assert len(reference) >= 1000
    for seed, rows in labelings.items():
        differing = [
            (expected[:2], got[2:], expected[2:])
            for expected, got in zip(reference, rows)
            if got != expected
        ]
        assert not differing, (
            f"PYTHONHASHSEED={seed} labels {len(differing)} vertices differently, "
            f"e.g. {differing[:3]}"
        )
