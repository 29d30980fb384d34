"""Continuous-action RL for dashcam accident anticipation.

Subpackages: numkit (networks on flat parameter vectors, MLP backprop, Adam),
env (episodes, attention pipeline, rewards, MDP), agents (DDPG/TD3/SAC/DARC),
metrics, harness (batch driver), cli.
"""

__version__ = "0.1.0"
