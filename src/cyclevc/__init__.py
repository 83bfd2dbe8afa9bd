"""Nonparallel voice conversion over mel-cepstral features.

Two generators learn opposite mappings between speakers' normalized
feature spaces; two discriminators and a cycle-consistency loss keep
those mappings honest without any aligned training pairs. Parallel
baselines (frame-wise MSE and a single-direction GAN) and the full
feature pipeline (delta augmentation, normalization, MLPG smoothing,
F0 transform) round out the toolkit.
"""

from .align import AlignmentPath, dtw_align, paired_frames
from .baselines import (
    GanBaselineConfig,
    MseBaselineConfig,
    ParallelTrainSet,
    train_gan_baseline,
    train_mse_baseline,
)
from .cyclegan import (
    CycleGanConfig,
    CycleGanModel,
    LOSS_FORMS,
    LossReport,
    build_model,
    cycle_loss,
    discriminator_loss,
    generator_loss,
    train,
)
from .errors import (
    DimensionMismatchError,
    FormatError,
    InsufficientDataError,
    NonFiniteError,
)
from .features import (
    AUGMENTED_DIM,
    DELTA_WINDOWS,
    FeatureKind,
    FeatureSequence,
    HIGH_DIM,
    LOW_DIM,
    LogF0Stats,
    MCEP_DIM,
    NormStats,
    compute_deltas,
    denormalize,
    fit_logf0_stats,
    fit_norm_stats,
    merge_mcep,
    normalize,
    read_ftr,
    split_mcep,
    transform_f0,
    write_ftr,
)
from .mlpg import GaussianTrajectory, mlpg_generate, postfilter
from .net import Mlp, forward, init_mlp, load_mlp, save_mlp
from .pipeline import (
    ConversionResult,
    SpeakerStats,
    SyntheticSpec,
    augment_lower,
    compute_speaker_stats,
    convert_utterance,
    generate_dataset,
    load_speaker_stats,
    mel_cepstral_distortion,
    prepare_parallel_frames,
    save_speaker_stats,
)
from .seeding import derive_rng, derive_seed

__version__ = "0.1.0"
