"""Seeded input generation, independent of ``pluveto.bench``.

Every input is drawn from a numpy ``Generator`` keyed by (seed, stream,
index), so one seed fixes every byte the program reads, and every job of a
run gets its own election.
"""

from __future__ import annotations

import numpy as np

# Streams keep the set-up inputs apart from the timed jobs' inputs.
JOB_STREAM = 1
SETUP_STREAM = 2


def rng_for(seed: int, stream: int, index: int) -> np.random.Generator:
    """The generator of job ``index`` in ``stream``.  Set-up inputs are the
    same whatever the seed, so that set-up time does not vary with it."""
    return np.random.default_rng([0 if stream == SETUP_STREAM else seed, stream, index])


def impartial_culture(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    """n independent uniform random permutations of 0..m-1."""
    return rng.permuted(np.tile(np.arange(m, dtype=np.int16), (n, 1)), axis=1)


def euclidean(rng: np.random.Generator, n: int, m: int, dim: int) -> np.ndarray:
    """Voters and candidates i.i.d. standard normal in R^dim; each voter
    ranks candidates by distance, ties broken by candidate index."""
    voters = rng.standard_normal((n, dim))
    cands = rng.standard_normal((m, dim))
    dist = np.linalg.norm(voters[:, None, :] - cands[None, :, :], axis=2)
    return np.argsort(dist, axis=1, kind="stable").astype(np.int16)


def rankings(rng: np.random.Generator, n: int, m: int, culture: str) -> np.ndarray:
    """``culture`` is ``ic`` or ``euclid<dim>``."""
    if culture == "ic":
        return impartial_culture(rng, n, m)
    if culture.startswith("euclid"):
        return euclidean(rng, n, m, int(culture[len("euclid"):]))
    raise ValueError(f"unknown culture {culture!r}")


def ballot_text(ranks: np.ndarray) -> str:
    n, m = ranks.shape
    labels = np.array([str(c) for c in range(m)], dtype=object)
    body = "\n".join(",".join(row) for row in labels[ranks].tolist())
    return f"{m}\n{n}\n{body}\n"


def simplex_weights(rng: np.random.Generator, size: int, top: int = 9) -> list[str]:
    """A point of the simplex as exact fractions with positive integer
    numerators up to ``top`` over their common sum."""
    parts = rng.integers(1, top + 1, size=size).tolist()
    total = sum(parts)
    return [f"{p}/{total}" for p in parts]


def write(path, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
