"""The public names of the package, pinned: adding or removing one is a
deliberate one-line change here."""

import json
import os
import subprocess
import sys
import types

import hyperstab

PUBLIC = (
    "BoundChainAudit", "CorpusEntry", "DeviceKind", "DevicePopovStatus",
    "DeviceSpec", "EnergyTrace", "Excitation", "Grade", "ImpulseResponse",
    "PRClassification", "PoleInfo", "Polynomial", "PopovDeclaration",
    "RationalFunction", "Scenario", "Signal", "SimulationRun", "StabilityClass",
    "StateSpace", "TaxonomyLabel", "TaxonomyVerdict", "Verdict", "apply_device",
    "bundled_corpus_path", "classify_pr", "classify_taxonomy",
    "convergence_verdict", "convolve", "corpus_check", "device_popov_audit",
    "energy_balance_residual", "energy_trace", "freq_response",
    "frequency_energy", "hodograph_quadrant_check", "imaginary_axis_residues",
    "impulse_response", "inner_product", "input_integral", "inverse",
    "load_corpus", "phase_deviation", "power_balance_residual", "ratfun_new",
    "real_part_margin", "realize", "roots", "run_closed_loop",
    "scenario_from_json_dict", "simulate_forced", "stability_class", "times_s",
    "verify_bound_chain", "write_run_artifacts", "wspr_chain_constant",
)


def test_public_names_are_pinned():
    # the package resolves its names lazily: __all__ and dir() list them all
    # before any is used, and the globals hold exactly them once all are
    assert set(hyperstab.__all__) == set(PUBLIC) and len(hyperstab.__all__) == len(PUBLIC)
    listed = {name for name in dir(hyperstab) if not name.startswith("_")
              and not isinstance(vars(hyperstab).get(name), types.ModuleType)}
    assert listed == set(PUBLIC)
    for name in PUBLIC:
        scope: dict = {}
        exec(f"from hyperstab import {name}", scope)
        assert scope[name] is getattr(hyperstab, name)
    exposed = {name for name, value in vars(hyperstab).items()
               if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exposed == set(PUBLIC) and len(PUBLIC) == len(exposed)


STARTUP = '''
import json, sys
from importlib import resources

import hyperstab
from hyperstab import RationalFunction, classify_pr, load_corpus, scenario_from_json_dict

data = resources.files("hyperstab").joinpath("data")
entries = load_corpus(data.joinpath("corpus.json"))
agree = sum(classify_pr(entry.plant).grade is entry.expected_grade for entry in entries)
classify_pr(RationalFunction([1.0], [1.0, 1.0]))
scenarios = [scenario_from_json_dict(json.loads(path.read_text()))
             for path in data.joinpath("scenarios").iterdir() if path.name.endswith(".json")]
print(json.dumps({"entries": len(entries), "agree": agree, "scenarios": len(scenarios),
                  "scipy": sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))}))
'''


def test_grading_and_loading_leave_scipy_unloaded():
    # only running a loop needs ltisim and, through it, scipy; grading a plant
    # and loading the inputs of a run must not pay for its import
    src = os.path.dirname(os.path.dirname(hyperstab.__file__))
    done = subprocess.run([sys.executable, "-c", STARTUP], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    assert out["entries"] > 0 and out["agree"] == out["entries"]
    assert out["scenarios"] == 5
    assert out["scipy"] == []
