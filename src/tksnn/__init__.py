"""Spiking neural network training with temporal knowledge sharing.

A self-contained float32 library: reverse-mode autodiff with surrogate spike
gradients, discrete LIF dynamics, temporal self-distillation losses, a
deterministic trainer, and timestep-mismatch evaluation tooling.
"""

from .autodiff import GradTape, SurrogateSpec, Tensor, backward
from .lif import LifConfig, lif_sequence
from .network import Model, TemporalOutput, build_model, encode_static, unroll
from .tks import (
    AlphaSchedule,
    TeacherConfig,
    TeacherSignal,
    alpha_at,
    baseline_loss,
    ce_loss,
    final_loss,
    objective,
    select_teachers,
    teacher_signal,
    tks_loss,
)
from .trainer import AdamW, DataConfig, OptimConfig, RunConfig, cosine_lr, fit, train_epoch
from .evaluation import EvalReport, aurc, evaluate, timestep_sweep, top1_accuracy
from .data import (
    Dataset,
    EventStream,
    bin_events,
    build_dataset,
    load_events,
    load_idx,
    synth_temporal,
)

__version__ = "0.1.0"
