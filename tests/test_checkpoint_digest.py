"""Pinned checkpoint bytes: one seeded tiny agent per algorithm.

C8 compares two runs of one version of the code with each other; these
digests compare versions. A change to the order of the parameters in the
flat vectors, to the initial draws, to the order of the random draws or to
the gradient phases changes the bytes ``Agent.save`` writes.

The digests of fresh agents take no BLAS or transcendental bits. The
digests after updates do: they were recorded with numpy 2.4.6's float32
gemm (its bundled OpenBLAS) and exp/tanh/logaddexp kernels on an x86-64
AVX-512 CPU, one row per OpenBLAS kernel, each forced with
``OPENBLAS_CORETYPE`` and read back with ``openblas_core()``, and hold with
one or two BLAS threads. Kernels round float32 products differently, so the
rows differ. A kernel without a row fails, naming itself: record its four
digests under that kernel, and if only the updated digests fail on a kernel
that has a row, look at the kernel before the code.
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
# The Sandybridge and Nehalem kernels round these products alike.
_SANDYBRIDGE_NEHALEM_SHA256 = {
    "ddpg": "83dccaf497a9befafe3379b353549486570e623b904dccb691c3046307c7e716",
    "td3": "6d88dbbbdb3c20497246e638c8e4af85690e647dbc7e1a9d8cd57cdc610b2847",
    "sac": "6c1f1279e75fdfae79197a91ff826df6fef730dad50745018f28c702b2869da1",
    "darc": "4d4474f197d40a12dba08abaaf7d97938852c50fbbef3c2d63c90342834b8405",
}
# Keyed by the kernel openblas_core() reports. On the AVX-512 CPU they were
# recorded on, a forced Cooperlake or SapphireRapids runs SkylakeX, Zen runs
# Haswell, Atom, Barcelona and Bobcat run Nehalem, Bulldozer and its
# successors run Sandybridge, and Prescott, Core2 and older run Katmai.
UPDATED_SHA256 = {
    "SkylakeX": {
        "ddpg": "24cbcf39af48ef11ef1d75d2bc3e4f24ba812019fcc78b48976414147dc69ff4",
        "td3": "fe1d08a84ed485afacc7d930594659080a83299f428d70af8de356e7f9145f73",
        "sac": "f2319a261931f765c365abc38ac234b6ece75745bd474898ad296109484310e8",
        "darc": "35b00dacd3db703facf85e70afa620a2f0c3eba256decf92b90c0a0153639152",
    },
    "Haswell": {
        "ddpg": "ef7d3f34962b9d45c75210adacab818d54a98d46884a5e445e7cf27d500c929b",
        "td3": "f52642f669bfeb6cfc54a70cf72e80e41ae7bc2a9bae4f8dc543054397f5e208",
        "sac": "8d6207b50ce023d2bbc9001a5c9d9c441c590933cd7724ded420cf02f65270a9",
        "darc": "c91848a7c0ad389bc290278d4486f546445042124d940ead06aa1951f398d03a",
    },
    "Sandybridge": _SANDYBRIDGE_NEHALEM_SHA256,
    "Nehalem": _SANDYBRIDGE_NEHALEM_SHA256,
    "Katmai": {
        "ddpg": "dc73853572e2f0bce81b1e1dfb0219d56faed8e34a7fed9aca29a1b7fde8ad59",
        "td3": "12d1dc08cbca3038d468f5a6e8750c59db271ebb4f95b183e806e8ef1e5047f0",
        "sac": "fee4a99e3908dbf37df24d3e0175507f41dc9c36f3f869d667630fed74bdb7de",
        "darc": "5ed6a5c56ef8487bd49cc991d27e74d9e99f13a83b44f08e6938255b089ba6a8",
    },
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


def pinned_update_digest(core, algo):
    """The digest after updates recorded on OpenBLAS kernel ``core``; a kernel
    without a row fails (never skips), naming the kernel."""
    if core not in UPDATED_SHA256:
        pytest.fail(
            f"no update digests recorded for OpenBLAS's {core} kernel; record "
            "its row of UPDATED_SHA256 on a CPU that runs it"
        )
    return UPDATED_SHA256[core][algo]


@pytest.mark.parametrize("algo", ALGOS)
def test_fresh_checkpoint_bytes_are_pinned(tmp_path, algo):
    assert saved_digest(tiny_agent(algo), tmp_path / "ck.txt") == FRESH_SHA256[algo]


@pytest.mark.parametrize("algo", ALGOS)
def test_checkpoint_bytes_after_updates_are_pinned(tmp_path, algo):
    agent = tiny_agent(algo)
    for batch in batches(12):
        update(agent, batch)
    agent.total_env_steps = 40
    core = openblas_core()
    assert saved_digest(agent, tmp_path / "ck.txt") == pinned_update_digest(core, algo), (
        f"differs from the digest recorded on OpenBLAS's {core} kernel"
    )


def test_the_failure_message_names_the_blas_kernel():
    core = openblas_core()
    assert core and core.isprintable()
    assert openblas_core("libgfortran-*") == "unknown"  # a library without the symbol
    assert openblas_core("no-such-library-*") == "unknown"


@pytest.mark.parametrize("core", ["unknown", "NoSuchKernel"])
def test_a_kernel_without_digests_fails_naming_it(core):
    with pytest.raises(pytest.fail.Exception, match=f"OpenBLAS's {core} kernel"):
        pinned_update_digest(core, "ddpg")
