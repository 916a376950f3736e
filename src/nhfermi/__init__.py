"""Non-Hermitian fermionic ladder model: spectral analysis at finite
truncation, metric-operator Hermitization, pseudo-fermion diagonalization
on a finite-mode Fock space, and grand-canonical thermodynamics."""

from .errors import NumericalError, TruncationError
from .fock import (
    FockOperator,
    FockSpace,
    JointSpectrumPoint,
    PseudoFermionSet,
    annihilation_op,
    anticommutator,
    build_fock,
    build_pseudo_fermions,
    build_t_operators_fock,
    creation_op,
    diagonal_form_residual,
    joint_spectrum,
    number_op,
    one_particle_metric,
    physical_inner_fock,
    second_quantize,
    t_operators_combination,
)
from .figure import (
    BoundaryPolyline,
    ContainmentReport,
    CurveSpec,
    containment_check,
    default_figure_config,
    figure_records,
    generate_curve,
    hull_boundary,
)
from .metric import (
    MetricOperator,
    build_metric,
    conjugate_generator,
    hermitized_hamiltonian,
    ladder_sum_exp,
    physical_inner,
)
from .operators import (
    BiorthogonalSystem,
    TruncatedOperator,
    build_biorthogonal,
    build_generators,
    build_hamiltonian,
    build_t_operators,
    dense_biorthogonal,
    dense_spectrum,
    ground_vectors,
    ladder_couplings,
)
from .params import METRIC_GAMMA_BOUND, ModelParams, make_params, mode_energy
from .thermo import (
    ThermoPoint,
    dilog,
    em_expectations,
    exact_expectations,
    exact_log_z,
)

__version__ = "0.1.0"
