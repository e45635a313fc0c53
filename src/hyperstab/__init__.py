"""Positive-realness grading, energy audits and hyperstability simulation.

The package imports lazily (PEP 562): each public name is imported from its
home module on first use, so grading a plant or building a scenario loads
numpy only, and scipy comes in with the first name that needs ``ltisim``.
"""

__version__ = "0.1.0"

_HOMES = {
    name: home
    for home, names in {
        "corpus": ("CorpusEntry", "bundled_corpus_path", "corpus_check", "load_corpus"),
        "devices": ("DeviceKind", "DevicePopovStatus", "DeviceSpec", "PopovDeclaration",
                    "apply_device", "device_popov_audit"),
        "harness": ("BoundChainAudit", "SimulationRun", "Verdict", "convergence_verdict",
                    "run_closed_loop", "verify_bound_chain", "write_run_artifacts"),
        "ltisim": ("ImpulseResponse", "StateSpace", "convolve", "impulse_response",
                   "realize", "simulate_forced"),
        "ratfun": ("PoleInfo", "Polynomial", "RationalFunction", "StabilityClass",
                   "freq_response", "imaginary_axis_residues", "inverse", "ratfun_new",
                   "roots", "stability_class", "times_s"),
        "realness": ("Grade", "PRClassification", "classify_pr", "hodograph_quadrant_check",
                     "phase_deviation", "real_part_margin", "wspr_chain_constant"),
        "scenario": ("Excitation", "Scenario", "scenario_from_json_dict"),
        "signals": ("EnergyTrace", "Signal", "TaxonomyLabel", "TaxonomyVerdict",
                    "classify_taxonomy", "energy_balance_residual", "energy_trace",
                    "frequency_energy", "inner_product", "input_integral",
                    "power_balance_residual"),
    }.items()
    for name in names
}

__all__ = sorted(_HOMES)


def __getattr__(name):
    """Import a public name from its home module and keep it in the package,
    so that later lookups and ``from hyperstab import name`` bypass this."""
    try:
        home = _HOMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f"{__name__}.{home}"), name)
    return value


def __dir__():
    return list(__all__)
