"""Discrimination of discordant, classically correlated and factorized
bipartite states from reduced-state trace distances."""

from .channels import (
    Projector,
    apply_local_system,
    dephase,
    half_wave_plate,
    phase_gate,
    phase_gate_evolve,
    system_eigenprojector,
)
from .linalg import (
    DensityMatrix,
    NumericalError,
    kron,
    partial_trace,
    trace_distance,
)
from .protocol import ClassificationResult, ProtocolConfig, classify, classify_simulated
from .states import FamilyParams, make_cc, make_f, make_qc, theta_ket
from .tomography import (
    MeasurementSetting,
    ReconstructedState,
    TomographyRecord,
    default_settings,
    linear_inversion,
    project_to_physical,
    reconstruct,
    simulate_counts,
)
from .witness import (
    WitnessReport,
    discord_T,
    witness_Td,
    witness_growth,
    zero_line_lambda,
    zero_line_residual,
)

__version__ = "0.1.0"

__all__ = [
    "ClassificationResult",
    "DensityMatrix",
    "FamilyParams",
    "MeasurementSetting",
    "NumericalError",
    "ProtocolConfig",
    "Projector",
    "ReconstructedState",
    "TomographyRecord",
    "WitnessReport",
    "apply_local_system",
    "classify",
    "classify_simulated",
    "default_settings",
    "dephase",
    "discord_T",
    "half_wave_plate",
    "kron",
    "linear_inversion",
    "make_cc",
    "make_f",
    "make_qc",
    "partial_trace",
    "phase_gate",
    "phase_gate_evolve",
    "project_to_physical",
    "reconstruct",
    "simulate_counts",
    "system_eigenprojector",
    "theta_ket",
    "trace_distance",
    "witness_Td",
    "witness_growth",
    "zero_line_lambda",
    "zero_line_residual",
]
