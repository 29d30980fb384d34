"""The accident-anticipation MDP: episodes, attention pipeline, rewards, and
the lockstep ``AccidentEnv`` that steps them for training and every eval."""

from .config import EnvConfig
from .episode import (
    BLOB_GAIN,
    BLOB_RAMP_FRAMES,
    BLOB_SIGMA,
    Episode,
    EpisodeFormatError,
    blob_onset,
    generate_episode,
    load_episode_file,
    write_episode_file,
)
from .mdp import AccidentEnv, StepResult
from .rewards import (
    accident_weight,
    fixation_window_active,
    reward_accident,
    reward_fixation,
)
from .saliency import (
    IMAGE_CENTER,
    SaliencyField,
    attention_features,
    cell_centers,
    normalize_fields,
)

__all__ = [
    "AccidentEnv",
    "BLOB_GAIN",
    "BLOB_RAMP_FRAMES",
    "BLOB_SIGMA",
    "EnvConfig",
    "Episode",
    "EpisodeFormatError",
    "IMAGE_CENTER",
    "SaliencyField",
    "StepResult",
    "accident_weight",
    "attention_features",
    "blob_onset",
    "cell_centers",
    "fixation_window_active",
    "generate_episode",
    "load_episode_file",
    "normalize_fields",
    "reward_accident",
    "reward_fixation",
    "write_episode_file",
]
