"""Evolution-tree planning and one-to-many policy transfer over robot parameter spaces."""

from .errors import (
    BudgetExceededError,
    CorrespondenceConflictError,
    DegenerateDirectionError,
    EvoTreeError,
    InvalidInputError,
    OutOfHullError,
    PhaseFailureError,
    SimulationError,
    SpecValidationError,
)
from .evo_tree import EvolutionTreeResult, clamp_meta, evolution_tree
from .geometry import (
    Tree,
    geometric_median,
    lp_distance,
    minimum_spanning_tree,
    steiner_tree,
    tree_length,
)
from .robot_model import (
    Body,
    EvolutionSpace,
    Joint,
    MatchedSpace,
    Param,
    RobotSpec,
    build_evolution_space,
    compute_bounds,
    denormalize,
    instantiate,
    load_robot_spec,
    match_kinematics,
    normalize,
)
from .trainers import (
    CostModelTrainer,
    LinearGaussianPolicy,
    ToyMdpTrainer,
    pg_train_step,
    proportional_policy,
    toy_space,
)
from .transfer import (
    PhaseRecord,
    TransferConfig,
    TransferReport,
    aggregate_totals,
    estimate_reward_gradient,
    evolution_step,
    geom_median_baseline,
    herd_baseline,
    meta_evolve,
    phase_train,
)
