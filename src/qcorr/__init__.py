"""2-qubit quantum correlations toolkit.

Closed-form classical correlations, LAQC, quantum discord, and
concurrence for Bell-diagonal states; Markovian Kraus decoherence
channels; and brute-force measurement-basis oracles that verify every
closed form. The values that check their input hold read-only copies of
the arrays they are given, and the per-process caches and memos are keyed
by content, so the API is safe to call concurrently.
"""

from .bases import (
    ComplementaryAngles,
    JointDistribution,
    LocalBasisAngles,
    QubitBasis,
    complementary_qubit_basis,
    dephase_in_basis,
    joint_projective_distribution,
    local_basis_pair,
    local_qubit_basis,
    rotate_to_basis,
)
from .channels import (
    KrausChannel,
    TrajectoryPoint,
    apply_product_channel,
    correlation_trajectory,
    depolarized_werner_params,
    depolarizing_kraus,
    phase_damped_werner_params,
    phase_damping_kraus,
)
from .correlations import (
    CorrelationReport,
    classical_correlations_bd,
    concurrence,
    concurrence_werner,
    correlation_entropy_function,
    discord_bd,
    discord_werner,
    full_report,
    laqc_bd,
    mutual_information,
)
from .oracle import (
    ClosedFormAudit,
    GridSpec,
    OracleResult,
    audit_closed_forms,
    brute_force_discord,
    maximize_laqc,
    minimize_relative_entropy_basis,
)
from .qstate import (
    BellDiagonalParams,
    BlochParams,
    InvalidStateError,
    Violation,
    as_bell_params,
    bell_diagonal_state,
    bloch_compose,
    bloch_decompose,
    density_violations,
    partial_trace,
    relative_entropy,
    validate_density,
    von_neumann_entropy,
    werner_state,
)

__version__ = "0.1.0"

__all__ = [
    "BellDiagonalParams",
    "BlochParams",
    "ClosedFormAudit",
    "ComplementaryAngles",
    "CorrelationReport",
    "GridSpec",
    "InvalidStateError",
    "JointDistribution",
    "KrausChannel",
    "LocalBasisAngles",
    "OracleResult",
    "QubitBasis",
    "TrajectoryPoint",
    "Violation",
    "apply_product_channel",
    "as_bell_params",
    "audit_closed_forms",
    "bell_diagonal_state",
    "bloch_compose",
    "bloch_decompose",
    "brute_force_discord",
    "classical_correlations_bd",
    "complementary_qubit_basis",
    "concurrence",
    "concurrence_werner",
    "correlation_entropy_function",
    "correlation_trajectory",
    "density_violations",
    "dephase_in_basis",
    "depolarized_werner_params",
    "depolarizing_kraus",
    "discord_bd",
    "discord_werner",
    "full_report",
    "joint_projective_distribution",
    "laqc_bd",
    "local_basis_pair",
    "local_qubit_basis",
    "maximize_laqc",
    "minimize_relative_entropy_basis",
    "mutual_information",
    "partial_trace",
    "phase_damped_werner_params",
    "phase_damping_kraus",
    "relative_entropy",
    "rotate_to_basis",
    "validate_density",
    "von_neumann_entropy",
    "werner_state",
]
