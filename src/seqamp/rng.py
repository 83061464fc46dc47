"""Reproducible random streams.

Every stochastic routine in the package draws from a named stream obtained
with :func:`stream`.  Streams are backed by the counter-based Philox4x64
bit generator, keyed by a 128-bit BLAKE2b hash of ``(seed, trial, purpose)``.
Because the key, not the call order, identifies a stream, trials and
purposes can be generated in any order (or in parallel) and still produce
bit-identical draws for a given master seed.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["complex_normal", "stream"]


def stream(seed: int, trial: int = 0, purpose: str = "") -> np.random.Generator:
    """Return an independent generator for (seed, trial, purpose).

    Parameters
    ----------
    seed : int
        Master experiment seed (64-bit range).
    trial : int
        Monte-Carlo trial index; each trial owns disjoint streams.
    purpose : str
        Free-form tag naming what the stream is for (e.g. ``"pilots"``,
        ``"activity"``), so adding a consumer never shifts existing draws.
    """
    tag = f"{int(seed)}/{int(trial)}/{purpose}".encode()
    key = int.from_bytes(hashlib.blake2b(tag, digest_size=16).digest(), "little")
    return np.random.Generator(np.random.Philox(key=key))


def complex_normal(rng: np.random.Generator, shape, scale: float = 1.0,
                   out: np.ndarray | None = None) -> np.ndarray:
    """``scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))``.

    Returns the same bits and leaves ``rng`` in the same state as that
    expression, but fills the real parts, then the imaginary parts, of an
    empty complex result through one real buffer: a peak of 1.5 times the
    result's size instead of twice it.  ``out``, a complex array of
    ``shape`` with any strides (the transpose of a C-ordered array, say),
    receives the result in place of a new array.
    """
    if out is None:
        out = np.empty(shape, dtype=complex)
    buf = np.empty(shape)
    for part in (out.real, out.imag):
        rng.standard_normal(out=buf)
        np.multiply(buf, scale, out=part)
    return out
