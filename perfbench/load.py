"""Load a workload's inputs through the package's own loaders.

``python3 perfbench/load.py <workload> <inputs.json>`` is the set-up probe:
a fresh interpreter that imports hyperstab and builds every input object the
workload will use, then exits. The benchmark worker calls ``load_inputs``
for the same objects.
"""

from __future__ import annotations

import json
import sys

import hyperstab
from hyperstab import RationalFunction, load_corpus, scenario_from_json_dict


def load_inputs(workload: str, path: str) -> dict:
    """Build package objects from the generated inputs file."""
    with open(path) as fh:
        spec = json.load(fh)
    out = {"corpus": load_corpus(spec["corpus"])}
    if workload == "grade_batch":
        out["plants"] = [RationalFunction(c["num"], c["den"]) for c in spec["cases"]]
    elif workload in ("affine_loops", "nonlinear_loops"):
        out["scenarios"] = [scenario_from_json_dict(c["scenario"]) for c in spec["cases"]]
    else:
        scenarios = []
        for name, file in spec["scenarios"]:
            with open(file) as fh:
                scenarios.append((name, scenario_from_json_dict(json.load(fh))))
        out["scenarios"] = scenarios
    return out


if __name__ == "__main__":
    load_inputs(sys.argv[1], sys.argv[2])
    print(hyperstab.__file__)
