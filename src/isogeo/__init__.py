"""isogeo: a desk-scale laboratory for encoder geometry under input noise.

The package trains small encoder/decoder networks on a correlated-nuisance
Gaussian model under three objectives (plain ERM, projected-gradient
adversarial training, Gaussian perturbation matching), measures their
geometry (trajectory deviation index, embedding drift, Jacobian estimators,
anisotropy, Lipschitz tracking), and ships an executable verifier for every
provable identity of the model.
"""

from .data import (
    DiscreteNuisanceToy,
    GaussianNuisanceModel,
    LabeledBatch,
    bayes_predictor,
    discrete_nuisance_toy,
    sample,
    sample_blocks,
    sample_stack,
    signal_only_predictor,
    threshold_labels,
)
from .diagnostics import (
    DiagnosticsReport,
    Estimate,
    LipschitzEstimate,
    anisotropy_index,
    diagnose,
    directional_sensitivity,
    jac_frobenius,
    linearization_remainder,
    lipschitz_track,
    nuisance_subspace,
    tdi,
)
from .errors import (
    ConfigError,
    DegenerateDirectionError,
    IsogeoError,
    ShapeError,
    TrainingDivergedError,
    UndertrainedModelError,
    ValidationError,
)
from .linalg import gram_schmidt_project_out
from .network import (
    Layer,
    MlpEncoderDecoder,
    NetSpec,
    backward,
    forward_with_trace,
    init_network,
    input_gradient,
    load_params,
    save_params,
    stack_networks,
)
from .objectives import (
    PgdConfig,
    TrainConfig,
    TrainLog,
    WarmupSchedule,
    cap_rescale,
    cross_entropy_loss,
    mse_loss,
    multiscale_sigma,
    pgd_attack,
    pmh_loss,
    train,
    train_stack,
    warmup_weight,
)
from .rng import RngState, derive, gaussian_matrix, normal, normal_stack, uniform

__version__ = "0.1.0"
