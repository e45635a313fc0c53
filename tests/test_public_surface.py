"""The public names of the package, pinned: adding or removing one is a
deliberate one-line change here."""

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
    exposed = {name for name, value in vars(hyperstab).items()
               if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exposed == set(PUBLIC) and len(PUBLIC) == len(exposed)
    for name in PUBLIC:
        scope: dict = {}
        exec(f"from hyperstab import {name}", scope)
        assert scope[name] is getattr(hyperstab, name)
