"""Graph contrastive learning toolkit.

Core pieces: an immutable graph/dataset model with TUDataset IO, four
parameterized graph augmentations, a float64 autodiff tensor engine, GCN/GIN
encoders with projection and classifier heads, the temperature-scaled
contrastive loss with its pretraining loop, and the evaluation pipelines
(pretrain-&-finetune, linear probe, augmentation grids and sweeps).
"""

from .augment import (
    AugmentationError,
    AugmentationPool,
    AugmentationSpec,
    apply_augmentation,
    attr_mask,
    default_pool,
    degree_biased_probs,
    edge_perturb,
    node_drop,
    sample_view_pair,
    subgraph_rw,
)
from .contrastive import LossCurve, PretrainConfig, cosine_sim, nt_xent, pretrain
from .graphs import (
    Graph,
    GraphDataset,
    degrees,
    induced_subgraph,
    load_tudataset,
    permute_nodes,
    save_tudataset,
    validate,
)
from .model import (
    EncoderConfig,
    GraphBatch,
    ModelParams,
    classify,
    encode,
    gcn_layer,
    gin_layer,
    init_params,
    load_checkpoint,
    make_batch,
    project,
    save_checkpoint,
)
from .pipelines import (
    EvalReport,
    ExperimentBase,
    GridResult,
    SplitSpec,
    SweepPoint,
    aug_grid,
    embed_dataset,
    finetune,
    linear_probe,
    loss_curve_compare,
    pattern_sweep,
    strength_sweep,
    train_from_scratch,
)
from .synth import make_corpus
from .tensor import Adam, Tensor, backward, finite_diff_check, no_grad

__version__ = "0.1.0"
