"""Risk calibration of naive Bayes classifiers, centralized and collaborative."""

from .calibration import LocalStep, lrc, ml, project, rc
from .data import (
    Continuous,
    DataError,
    Dataset,
    Discrete,
    FeatureSchema,
    dataset_from_table,
    infer_schema,
    load_csv,
    train_test_split,
    write_csv,
)
from .model import (
    COUNT_FLOOR,
    VAR_FLOOR,
    NBParams,
    Scorer,
    StatsVector,
    evaluate_many,
    param_map,
    posterior_matrix,
    predict_matrix,
    prob_stat_map,
    stat_map_dataset,
    uniform_init,
    zero_stats,
)
from .network import (
    Graph,
    RewireSchedule,
    add_random_edges,
    build_topology,
    chain,
    full_graph,
    neighbors,
    random_tree,
    read_edge_list,
    rewire,
    write_edge_list,
)
from .partition import (
    SPLITTERS,
    PartitionPlan,
    first_principal_component,
    global_sample,
    local_datasets,
    split_drift_x,
    split_drift_xy,
    split_drift_y,
    split_iid,
)
from .sim import (
    METRICS_COLUMNS,
    CRCResult,
    RoundMetrics,
    evaluate_round,
    m0_heuristic,
    run_crc,
)
from .synth import GENERATORS, categorical_mixture, gaussian_blobs, mixed_dataset

__version__ = "0.1.0"
