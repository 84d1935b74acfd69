"""Unsupervised domain adaptation by joint feature-label adversarial
alignment with a residual source classifier, on a self-contained
reverse-mode autodiff core.

Typical use:

    from dart import TrainConfig, build_model, train_loop, make_blobs_task
    from dart.rng import Prng, derive_seed, STREAM_INIT

    cfg = TrainConfig(total_steps=3000, seed=1)
    task = make_blobs_task(seed=1)
    model = build_model(cfg, Prng(derive_seed(cfg.seed, STREAM_INIT)))
    report = train_loop(model, task.source, task.target, cfg)
"""

from dart.errors import (
    ConfigError,
    ContractError,
    DartError,
    DataFormatError,
    NumericError,
)
from dart.evaluation import (
    EvalReport,
    Task,
    a_distance,
    accuracy,
    evaluate_model,
    make_blobs_task,
    run_ablation,
)
from dart.gradcheck import run_gradcheck
from dart.model import DartModel, load_checkpoint, save_checkpoint
from dart.training import (
    VARIANTS,
    TrainConfig,
    TrainReport,
    build_model,
    train_loop,
)

__version__ = "0.1.0"
