"""Numerical laboratory for N two-level atoms coupled to a single field mode:
parity-resolved exact diagonalization, coherent and parity-projected
variational states in closed form, and cross-validation tooling.
"""
from .compare import (
    FidelityCurve,
    SmoothnessAudit,
    TableRow,
    VerificationReport,
    fidelity,
    fidelity_curve,
    figure_data,
    smoothness_audit,
    spectrum_dataset,
    variational_energy,
    variational_vector,
    verify_table,
)
from .dataset import Dataset
from .errors import (
    ConvergenceError,
    DickeLabError,
    ProjectionAnnihilationError,
    TruncationError,
)
from .model import (
    ModelParams,
    OperatorMatrix,
    SectorBasis,
    build_hamiltonian,
    build_sector_basis,
    gamma_critical,
)
from .observables import ObservableSet, eigen_observables, joint_distribution_exact
from .sas import (
    GaussianLimits,
    JointDistribution,
    SASStateVector,
    build_sas_state,
    coherent_observables,
    default_nu_max,
    gaussian_limits,
    gaussian_sup_distance,
    joint_distribution_sas,
    marginal_excited,
    marginal_photon,
    photon_number_coherent,
    table_closed_forms_coherent,
    table_closed_forms_sas,
    sas_observables,
    state_observables,
)
from .solver import (
    SpectralResult,
    converge_ground,
    lowest_eigenpairs,
)
from .surface import (
    CriticalClassification,
    CriticalPoint,
    FValue,
    NormalOddState,
    PhaseSpacePoint,
    classify_critical,
    coherent_sas_overlap,
    critical_points,
    energy_surface,
    f_function,
    k_ratio,
    lambda_statistics,
    minimum_energy,
    normal_odd_state,
    numeric_gradient,
    sas_energy_at_critical,
    sas_energy_surface,
    surface_gradient,
)

__version__ = "0.1.0"
