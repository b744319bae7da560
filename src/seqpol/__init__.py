"""seqpol: interpretable behavior-policy modeling over sequential decision logs.

Build hand-crafted history representations (truncation windows, running
aggregates) from patient trajectories, fit probabilistic policy models
(logistic regression, decision trees, integer risk scores, MLPs), and
evaluate them with stratified AUROC, calibration error, patient-level
bootstrap intervals and off-policy importance-weight diagnostics. A seeded
synthetic cohort generator with a known ground-truth policy makes the whole
pipeline verifiable end to end.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    ContractError,
    DataError,
    FitError,
    SeqpolError,
    UndefinedMetricError,
    UnsupportedModelError,
)
from .schema import (
    CohortSchema,
    EncodedFeature,
    Episode,
    EpisodeSet,
    Stage,
    VariableSpec,
)
from .dataset import (
    Preprocessor,
    apply_preprocessor,
    fit_preprocessor,
    load_episodes,
    save_episodes_jsonl,
    split_dataset,
)
from .staterep import (
    StateMatrix,
    StateSpec,
    aggregate_history,
    assemble_state,
    enumerate_standard_states,
    truncate_history,
)
from .metrics import (
    MetricEstimate,
    accuracy,
    auroc_binary,
    auroc_multiclass,
    bootstrap_ci,
    confusion_matrix,
    expected_calibration_error,
    static_calibration_error,
)
from .models import (
    HyperparamSpace,
    LogisticPolicy,
    MLPPolicy,
    PolicyModel,
    RiskScorePolicy,
    TreePolicy,
    fit_logreg,
    fit_mlp,
    fit_model,
    fit_riskscore,
    fit_tree,
    load_model,
    sample_hyperparams,
)
from .strata import (
    SubgroupAssignment,
    assign_severity_groups,
    filter_switch_states,
    tree_complexity_sweep,
)
from .ope import (
    InverseProductSeries,
    ProductCurve,
    inverse_probability_products,
    median_product_curve,
)
from .synthgen import GeneratorConfig, OracleTable, generate_cohort, oracle_probabilities
from .runner import (
    ExperimentConfig,
    ExperimentReport,
    render_report,
    run_experiment,
    select_best_candidate,
)
