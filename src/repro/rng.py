"""Deterministic random-number-generation helpers.

Reproducibility rule: *no module in this library ever calls*
``np.random.default_rng()`` *without a seed or uses the global NumPy state*.
Every stochastic component takes either a seed or a ``numpy.random.Generator``;
these helpers normalize between the two and derive independent child streams.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

SeedLike = Union[None, int, np.random.Generator, np.random.SeedSequence]

#: Seed used when a caller passes ``None``; fixed so default runs reproduce.
DEFAULT_SEED = 20220822  # ICPP 2022 conference date


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Normalize ``seed`` into a :class:`numpy.random.Generator`.

    ``None`` maps to :data:`DEFAULT_SEED` (deterministic default), an ``int``
    or :class:`~numpy.random.SeedSequence` seeds a fresh PCG64 generator, and
    an existing generator is returned unchanged.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        seed = DEFAULT_SEED
    return np.random.default_rng(seed)


def spawn(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """Derive ``n`` statistically independent child generators from ``rng``.

    Used when an experiment fans out over scenarios/strategies so each branch
    sees an identical, isolated stream regardless of evaluation order.
    """
    if n < 0:
        raise ValueError(f"cannot spawn {n} generators")
    seq = rng.bit_generator.seed_seq  # type: ignore[attr-defined]
    if not isinstance(seq, np.random.SeedSequence):  # pragma: no cover
        seq = np.random.SeedSequence(int(rng.integers(2**63)))
    return [np.random.default_rng(child) for child in seq.spawn(n)]


def derive_material(seed: SeedLike, *tokens: Union[int, str]) -> list[int]:
    """Entropy material for :func:`derive`, exposed for stream caching.

    The simulator derives one child stream per request by appending the
    request id to a fixed per-task prefix; computing the prefix once via
    this helper (and finishing with :mod:`repro.rng_vec`) avoids re-hashing
    the task tokens per request while producing byte-identical streams to
    ``derive(seed, *tokens, req_id)``.

    Note the generator case consumes one draw from ``seed`` exactly like
    :func:`derive` does.
    """
    if isinstance(seed, np.random.Generator):
        base = int(seed.integers(2**31))
    elif seed is None:
        base = DEFAULT_SEED
    elif isinstance(seed, np.random.SeedSequence):
        base = int(seed.generate_state(1)[0])
    else:
        base = int(seed)
    return [base] + [
        t if isinstance(t, int) else int.from_bytes(t.encode()[:8].ljust(8, b"\0"), "little")
        for t in tokens
    ]


def derive_seed(seed: SeedLike, *tokens: Union[int, str]) -> int:
    """A derived 63-bit integer seed for a named child stream.

    Used where a plain ``int`` must cross a process boundary (e.g. per-
    replication simulator seeds): deterministic in ``seed`` and ``tokens``,
    independent across distinct token tuples.
    """
    material = derive_material(seed, *tokens)
    state = np.random.SeedSequence(material).generate_state(1, np.uint64)
    return int(state[0]) & (2**63 - 1)


def derive(seed: SeedLike, *tokens: Union[int, str]) -> np.random.Generator:
    """Derive a named child stream, stable across runs and call order.

    ``derive(seed, "arrivals", 3)`` always yields the same stream for the
    same ``seed`` — unlike :func:`spawn`, which depends on spawn order.
    """
    return np.random.default_rng(np.random.SeedSequence(derive_material(seed, *tokens)))
