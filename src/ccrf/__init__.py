"""Fully-connected continuous CRFs over superpixel graphs.

Closed-form MAP inference through one symmetric positive-definite solve,
an exact Gaussian log-likelihood, and discriminative training under
task-specific losses, with a synthetic-experiment harness.
"""

from .crf import (
    PrecisionSystem,
    Workspace,
    assemble,
    map_backward,
    map_infer,
    nll,
    nll_backward,
)
from .datasets import Dataset, LabeledExample, load_dataset, save_dataset
from .gridio import read_f32grids, write_f32grids
from .graph import (
    ImageGrid,
    NodeGraph,
    SuperpixelSegmentation,
    build_graph,
    grid_segment,
    pool_features,
)
from .losses import (
    LossSpec,
    ls_loss,
    predict_labels,
    softmax_loss,
    tukey_loss,
    tukey_psi,
    tukey_rho,
)
from .metrics import depth_metrics, seg_metrics
from .networks import (
    Mlp,
    Model,
    PairwiseNet,
    build_model,
    load_checkpoint,
    mlp_backward,
    mlp_forward,
    pairwise_backward,
    pairwise_forward,
    save_checkpoint,
    softplus,
    softplus_inverse,
    unary_forward,
)
from .scenes import (
    CorruptionSpec,
    SyntheticSceneSpec,
    corrupt_dataset,
    gen_depth_scene,
    gen_segmentation_scene,
    synth_dataset,
)
from .training import (
    DivergenceError,
    TrainConfig,
    TrainHistory,
    evaluate,
    forward_loss,
    prepare_examples,
    sgd_step,
    train,
)

__version__ = "0.1.0"
