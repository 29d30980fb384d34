"""Pinned checkpoint bytes: one seeded tiny agent per algorithm.

C8 compares two runs of one version of the code with each other; these
digests compare versions. A change to the order of the parameters in the
flat vectors, to the initial draws, to the order of the random draws or to
the gradient phases changes the bytes ``Agent.save`` writes.

The digests of fresh agents take no BLAS or transcendental bits. The
digests after updates do: they were recorded with numpy 2.4.6's float32
gemm (its bundled OpenBLAS) and exp/tanh/logaddexp kernels on an x86-64
AVX-512 CPU, where OpenBLAS picks its ``SkylakeX`` kernel, and hold with one
or two BLAS threads. Other kernels round float32 products differently, so
their failure message names the kernel the run used: if only the updated
digests fail on another CPU, look at its BLAS kernel before the code.
"""

import ctypes
import glob
import hashlib
import os

import numpy as np
import pytest

from crashrl.agents import ALGOS, Agent, AgentConfig, Batch, update

OBS_DIM = 5
BATCH = 8
UPDATES = 4

FRESH_SHA256 = {
    "ddpg": "e41adaeae52d08b4731167cb316bd64a5de0de986d495fbf3f98fdfe8aef78ed",
    "td3": "6ac3f9315b27e20ce9f0e147d9b16527e182ddcebbb1ccf2524273551c9a5572",
    "sac": "86fc257c25f3764d72b54445f408b5fc66299bbf346ab9a92546ee1307f2abaf",
    "darc": "f9509a166b7c751b2941332d09b2c1995a93d577545026f4b0a05d0b3b1cfe27",
}
UPDATED_SHA256 = {
    "ddpg": "24cbcf39af48ef11ef1d75d2bc3e4f24ba812019fcc78b48976414147dc69ff4",
    "td3": "fe1d08a84ed485afacc7d930594659080a83299f428d70af8de356e7f9145f73",
    "sac": "f2319a261931f765c365abc38ac234b6ece75745bd474898ad296109484310e8",
    "darc": "35b00dacd3db703facf85e70afa620a2f0c3eba256decf92b90c0a0153639152",
}


def openblas_core(pattern="libscipy_openblas64_*") -> str:
    """The kernel numpy's bundled OpenBLAS runs on this CPU (e.g. ``SkylakeX``;
    ``OPENBLAS_CORETYPE`` forces another), or "unknown" without the library
    or its ``scipy_openblas_get_corename64_``."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", pattern)
    for path in sorted(glob.glob(libs)):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def tiny_agent(algo):
    cfg = AgentConfig(algo=algo, hidden_dims=(8, 6), batch_size=BATCH)
    return Agent(cfg, obs_dim=OBS_DIM, seed=11)


def batches(seed):
    rng = np.random.default_rng(seed)
    for _ in range(UPDATES):
        yield Batch(
            rng.uniform(0, 1, (BATCH, OBS_DIM)), rng.uniform(0, 1, (BATCH, 3)),
            rng.uniform(0, 1, (BATCH, 1)), rng.uniform(0, 1, (BATCH, OBS_DIM)),
            (rng.uniform(0, 1, (BATCH, 1)) < 0.25).astype(float),
        )


def saved_digest(agent, path):
    agent.save(path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("algo", ALGOS)
def test_fresh_checkpoint_bytes_are_pinned(tmp_path, algo):
    assert saved_digest(tiny_agent(algo), tmp_path / "ck.txt") == FRESH_SHA256[algo]


@pytest.mark.parametrize("algo", ALGOS)
def test_checkpoint_bytes_after_updates_are_pinned(tmp_path, algo):
    agent = tiny_agent(algo)
    for batch in batches(12):
        update(agent, batch)
    agent.total_env_steps = 40
    assert saved_digest(agent, tmp_path / "ck.txt") == UPDATED_SHA256[algo], (
        f"recorded on OpenBLAS's SkylakeX kernel; this run used {openblas_core()}"
    )


def test_the_failure_message_names_the_blas_kernel():
    core = openblas_core()
    assert core and core.isprintable()
    assert openblas_core("libgfortran-*") == "unknown"  # a library without the symbol
    assert openblas_core("no-such-library-*") == "unknown"
