"""Process-wide seed policy for default random generators.

The paper's headline numbers are means over 100 *seeded* fault draws
(P_sa0:P_sa1 = 1.75:9.04), so nothing in this library is allowed to fall
back to OS entropy.  Every layer and device model that takes an optional
``rng`` resolves its default through this module:

* When the caller supplies a generator, it is used unchanged — explicit
  seeding always wins.
* When the caller supplies nothing, :func:`resolve_rng` returns a fresh
  generator spawned from a process-wide :class:`numpy.random.SeedSequence`
  rooted at :data:`DEFAULT_SEED`.  Successive defaults are *distinct*
  streams (two ``Conv2d`` layers built without an ``rng`` do not share
  weights) but the whole sequence is deterministic: the same construction
  order reproduces the same streams in every process.

The Monte Carlo evaluations take a ``seed``, never a live generator:
draw ``i`` runs on its own stream from :func:`draw_streams`, rooted at
:func:`resolve_base_seed`, so results do not depend on draw order or
worker count and any fault pattern can be rebuilt from its seed.

Tests that need a pristine default stream call :func:`reseed`, which
rewinds the root sequence (optionally to a different seed).

This module is the single sanctioned home of an ``np.random.default_rng``
call with a derived seed; ``repro.lint`` rule RL001 flags any *unseeded*
``np.random.default_rng()`` elsewhere in the tree.
"""

from __future__ import annotations

import zlib
from typing import List, Optional

import numpy as np

__all__ = [
    "DEFAULT_SEED",
    "resolve_rng",
    "resolve_base_seed",
    "draw_streams",
    "named_stream",
    "reseed",
]

#: Root seed for every default generator in the library.  Chosen once,
#: documented here, and never read from the environment — reproducibility
#: must not depend on shell state.
DEFAULT_SEED = 0

_root = np.random.SeedSequence(DEFAULT_SEED)


def resolve_rng(
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
) -> np.random.Generator:
    """Return ``rng`` if given, else a generator from the seed policy.

    Parameters
    ----------
    rng:
        An explicit generator; returned unchanged when not ``None``.
    seed:
        An explicit seed; when given (and ``rng`` is not), the result is
        ``np.random.default_rng(seed)`` — independent of the process-wide
        stream.
    """
    if rng is not None:
        return rng
    if seed is not None:
        return np.random.default_rng(seed)
    # Spawning advances the root sequence, so each default resolution
    # gets its own deterministic stream.
    return np.random.default_rng(_root.spawn(1)[0])


def resolve_base_seed(seed: Optional[int] = None) -> int:
    """Base seed for a Monte Carlo evaluation (defect draws, fleet devices).

    The caller's ``seed`` wins when given; otherwise one integer is drawn
    from the process-wide policy stream, so default evaluations remain
    deterministic per construction order (the same property
    :func:`resolve_rng` gives default generators).  The returned value is
    the root of the evaluation's per-draw streams — see
    :func:`draw_streams` — and is what run provenance records.
    """
    if seed is not None:
        return int(seed)
    return int(resolve_rng().integers(0, 2**31 - 1))


def draw_streams(base_seed: int, num_draws: int) -> List[np.random.SeedSequence]:
    """Independent per-draw seed streams for a Monte Carlo evaluation.

    Draw ``i`` gets ``SeedSequence(base_seed + i)`` — the stream behind
    ``np.random.default_rng(base_seed + i)``.  Because every stream is
    derived from ``(base_seed, i)`` alone, results are bit-identical no
    matter how draws are ordered or distributed across worker processes,
    and any single draw can be re-materialised later from its recorded
    scalar seed (``repro.parallel``'s determinism contract; the scheme
    matches the per-draw provenance the telemetry event log has always
    emitted).
    """
    if num_draws < 0:
        raise ValueError("num_draws must be >= 0")
    return [np.random.SeedSequence(base_seed + i) for i in range(num_draws)]


def named_stream(name: str) -> np.random.Generator:
    """Deterministic generator derived from a string name.

    The stream is a pure function of ``(DEFAULT_SEED, name)``: it does
    *not* consume or advance the process-wide policy stream, so creating
    one can never perturb the construction-order determinism that
    :func:`resolve_rng` defaults rely on.  Used for auxiliary randomness
    that must be reproducible but must not interact with experiment
    seeds — e.g. the per-histogram reservoir sampling in
    :mod:`repro.telemetry.metrics`.
    """
    digest = zlib.crc32(name.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence([DEFAULT_SEED, digest]))


def reseed(seed: int = DEFAULT_SEED) -> None:
    """Rewind the process-wide default stream to ``seed``.

    Subsequent :func:`resolve_rng` defaults replay from the start of the
    (possibly new) root sequence.  Intended for tests that need the
    default-construction order to be independent of what ran before.
    """
    global _root
    _root = np.random.SeedSequence(seed)
