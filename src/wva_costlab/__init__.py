"""Cost accounting for postselected weak-value metrology on a qubit-qubit model.

The package simulates a two-level system coupled to a two-level meter through
exp(-i g A (x) M), computes quantum and classical Fisher information for the
coupling strength, quantifies the preparation/measurement cost tradeoff that
the initial state's l1 coherence bounds, and reproduces a seeded
photon-counting estimation experiment with maximum-likelihood readout.
"""

from .costs import (
    CostPoint,
    CostRates,
    TradeoffSample,
    boundary_curve,
    bound_rhs,
    classify_region,
    cost_point,
    default_alpha_grid,
    l1_coherence,
    leading_costs,
    preparation_coherence,
    tradeoff_slack,
)
from .errors import (
    ContractViolationError,
    EstimationUndefinedError,
    InfinitePreparationCostError,
    ModelDimensionError,
    NonTerminationError,
    OrthogonalPostselectionError,
    StepTooLargeError,
    UnsupportedInputError,
    VanishingPostselectionError,
    WvaError,
)
from .experiment import (
    CampaignReport,
    ExperimentConfig,
    FixedPostselected,
    FixedPrepared,
    TrialCounts,
    conditional_outcome_model,
    hwp_settings,
    mle_g,
    run_campaign,
    run_trial,
)
from .fisher import (
    cfi_discrete,
    qfi_mixed,
    qfi_product_coupling,
    qfi_pure,
    qfi_spectral_unitary,
)
from .postselect import (
    PostselectionResult,
    WvaSetup,
    fm_exact,
    fm_leading,
    in_weak_regime,
    near_orthogonal_postselection,
    optimal_postselection,
    postselect,
    postselect_mixed,
    postselected_meter_family,
    probabilistic_qfi,
    real_superposition_setup,
    weak_regime_margin,
    weak_value,
)
from .states import (
    BlochVector,
    DensityMatrix,
    HermitianOperator,
    Ket,
    ReferenceBasis,
    UnitaryOperator,
    bloch_angle,
    bloch_of,
    coupling_unitary,
    hermitian_eigs,
    overlap_sq,
    tensor,
)
from .verify import SUITE_NAMES, SuiteResult, run_suites

__version__ = "0.1.0"
