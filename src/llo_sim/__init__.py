"""Simulation and security analysis for CV-QKD with a locally generated LO."""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DomainError,
    EstimationError,
    LLOSimError,
    NumericalDomainError,
    ScheduleError,
)
from .link_sim import (
    BPSKModulation,
    ChannelDetector,
    GaussianModulation,
    NoModulation,
    PulseBlock,
    PulseTrainConfig,
    QuadratureSample,
    RunSeeds,
    simulate_run,
)
from .noise_models import (
    LaserModel,
    PhaseTrajectory,
    coherence_time_from_linewidth,
    phase_noise_variance,
    sample_phase_trajectory,
    simulate_self_interference,
)
from .phase_recovery import (
    predicted_sigma_phi,
    recover_run,
    remap_quadratures,
    residual_variance,
    sigma_phi_from_quadratures,
    wrap_phase,
)
from .security import (
    EpsilonBudget,
    NoiseBudget,
    SecurityParams,
    asymptotic_key_rate,
    excess_noise_from_phase,
    finite_size_key_rate,
    g_function,
    holevo_bound,
    mutual_information,
    symplectic_eigenvalues,
    worst_case_holevo,
)

__all__ = [name for name in dir() if not name.startswith("_")]
