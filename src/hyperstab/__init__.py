"""Positive-realness grading, energy audits and hyperstability simulation."""

from .devices import (
    DeviceKind,
    DevicePopovStatus,
    DeviceSpec,
    PopovDeclaration,
    apply_device,
    device_popov_audit,
)
from .harness import (
    BoundChainAudit,
    Excitation,
    Scenario,
    SimulationRun,
    Verdict,
    convergence_verdict,
    run_closed_loop,
    scenario_from_json_dict,
    verify_bound_chain,
    write_run_artifacts,
)
from .ltisim import (
    ImpulseResponse,
    StateSpace,
    convolve,
    impulse_response,
    realize,
    simulate_forced,
)
from .ratfun import (
    PoleInfo,
    Polynomial,
    RationalFunction,
    StabilityClass,
    freq_response,
    imaginary_axis_residues,
    inverse,
    ratfun_new,
    roots,
    stability_class,
    times_s,
)
from .realness import (
    Grade,
    PRClassification,
    classify_pr,
    hodograph_quadrant_check,
    phase_deviation,
    real_part_margin,
    wspr_chain_constant,
)
from .signals import (
    EnergyTrace,
    Signal,
    TaxonomyLabel,
    TaxonomyVerdict,
    classify_taxonomy,
    energy_balance_residual,
    energy_trace,
    frequency_energy,
    inner_product,
    input_integral,
    power_balance_residual,
)
from .corpus import CorpusEntry, bundled_corpus_path, corpus_check, load_corpus

__version__ = "0.1.0"
