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
    "td3": "88b6eef09906950a366c4e5ef80ad56d46455a9735aa854bd27ed3ee088504f1",
    "sac": "6c1f1279e75fdfae79197a91ff826df6fef730dad50745018f28c702b2869da1",
    "darc": "a7fb6e7ec5760c1fd252915bc54b618916db1edb7c0f117dfb46b097c50cea1c",
}
# Keyed by the kernel openblas_core() reports. On the AVX-512 CPU they were
# recorded on, a forced Cooperlake or SapphireRapids runs SkylakeX, Zen runs
# Haswell, Atom, Barcelona and Bobcat run Nehalem, Bulldozer and its
# successors run Sandybridge, and Prescott, Core2 and older run Katmai.
UPDATED_SHA256 = {
    "SkylakeX": {
        "ddpg": "24cbcf39af48ef11ef1d75d2bc3e4f24ba812019fcc78b48976414147dc69ff4",
        "td3": "6d4dc49dfb1e6d29dc194ffe55ce0792345a665060931ba2a7506e7bd83d34fa",
        "sac": "153c3251e6b350c7a6546b9b19ae70b83fe6f8e94c964c3fbc06009289d528be",
        "darc": "6c5ae93772947ec1b10a04046ce412f43e5e14d687d6c6d88bc000619a9e1bbe",
    },
    "Haswell": {
        "ddpg": "48d5d29ad6017f1284392e844bc3fcac2b5bb87ffccc29f107b69f8edb40eda3",
        "td3": "f2a3596959742bdec5941b5eeafd887aa755fbe57e4951e99ce169923f40183a",
        "sac": "8d6207b50ce023d2bbc9001a5c9d9c441c590933cd7724ded420cf02f65270a9",
        "darc": "4e973942c116fb32853ba289d9857de74780d53c72c82acd7bb24071e24a6655",
    },
    "Sandybridge": _SANDYBRIDGE_NEHALEM_SHA256,
    "Nehalem": _SANDYBRIDGE_NEHALEM_SHA256,
    "Katmai": {
        "ddpg": "1054bc0e9ddfe815bbba29c8e4962c3c47f3af3186a2d4645306ad3f1cd23902",
        "td3": "43bf6947087bc8a13afb4f4d9ab87ef1e3556387a5210bd633e8d24979d1506b",
        "sac": "dc0fe48c35f33af73455949ff6d3d7e8d6912b1068e314c17fcfc7686d18f7a5",
        "darc": "e4b266e1842361d7b116a9a3553bd7674bbdad29d17e1c0f1d697aade8382731",
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
