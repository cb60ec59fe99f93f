"""evograph: incremental training, unseen-class detection, and temporal analysis for evolving graphs."""

from .graph import (
    FULL,
    UNLABELED,
    TaskView,
    TemporalGraph,
    build_task_sequence,
    induced_subgraph,
    start_timestamp,
)
from .dataio import dataset_fingerprint, load_dataset, save_dataset
from .tdiff import TimeDiffHistogram, history_sizes, k_hop_time_diffs, percentile
from .models import (
    BCE,
    CATEGORICAL,
    WEIGHTED_BCE,
    ModelState,
    TrainConfig,
    expand_output_layer,
    forward,
    glorot_init,
    init_model,
    load_checkpoint,
    loss_and_grad,
    loss_from_logits,
    model_inputs,
    save_checkpoint,
    sgc_precompute,
    train,
)
from .openworld import (
    DOC,
    GDOC,
    UNSEEN,
    DetectorConfig,
    Thresholds,
    class_weights,
    fit_thresholds,
    predict_open,
    sigmoid,
)
from .metrics import (
    MetricsReport,
    TaskRecord,
    avg_accuracy,
    drift_magnitude,
    forward_transfer,
    mcc,
    mean_ci95,
    open_macro_f1,
    symmetric_divergence,
)
from .synth import SynthConfig, generate
from .lifelong import (
    COLD,
    WARM,
    ExperimentConfig,
    label_rate_subsample,
    run_sequence,
    run_sequences,
    two_task_experiment,
)
from .errors import (
    ConfigError,
    DatasetError,
    EvographError,
    RunError,
    TaskSequenceError,
    ValidationError,
)

__version__ = "0.2.0"
