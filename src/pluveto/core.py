"""Election data model, ballot file I/O, and the elementary ranking queries.

An election is a set of voters, a set of candidates, and one strict ranking
of all candidates per voter.  Voters and candidates are addressed by dense
0-based indices everywhere; ballot files map names to indices in declaration
order, so serialization is deterministic.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Sequence

__all__ = [
    "Election",
    "WeightVector",
    "BallotParseError",
    "DuplicateCandidateError",
    "MissingCandidateError",
    "CountMismatchError",
    "TieError",
    "parse_election",
    "serialize_election",
    "top",
    "plurality_scores",
    "parse_fraction",
    "data_lines",
]

# The most entries (or bytes) one numpy block may hold: the triangle check,
# the committee q-costs and the induced committee rankings work in blocks.
_BLOCK_ENTRIES = 1 << 20


class BallotParseError(ValueError):
    """Malformed ballot file.  ``line`` is the 1-based offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class DuplicateCandidateError(BallotParseError):
    pass


class MissingCandidateError(BallotParseError):
    pass


class CountMismatchError(BallotParseError):
    pass


class TieError(BallotParseError):
    pass


@dataclass(frozen=True)
class Election:
    """An election: ``rankings[v]`` is voter v's permutation of 0..m-1,
    most-preferred first.

    Immutable after construction; all queries are pure functions, so one
    instance can be shared freely across threads.
    """

    rankings: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.rankings:
            raise ValueError("an election needs at least one voter")
        m = len(self.rankings[0])
        if m == 0:
            raise ValueError("an election needs at least one candidate")
        full = frozenset(range(m))
        for v, ranking in enumerate(self.rankings):
            if len(ranking) != m or set(ranking) != full:
                raise ValueError(
                    f"ranking of voter {v} is not a permutation of 0..{m - 1}: {ranking!r}"
                )

    @property
    def n(self) -> int:
        return len(self.rankings)

    @property
    def m(self) -> int:
        return len(self.rankings[0])

    @cached_property
    def positions(self) -> tuple[tuple[int, ...], ...]:
        """positions[v][c] = rank of candidate c under voter v (0 = best)."""
        out = []
        for ranking in self.rankings:
            pos = [0] * len(ranking)
            for i, c in enumerate(ranking):
                pos[c] = i
            out.append(tuple(pos))
        return tuple(out)

    def prefers(self, v: int, c: int, c2: int) -> bool:
        """True iff voter v ranks c strictly higher than c2."""
        pos = self.positions[v]
        return pos[c] < pos[c2]

    def weakly_prefers(self, v: int, c: int, c2: int) -> bool:
        """True iff voter v ranks c weakly higher than c2 (higher or equal)."""
        pos = self.positions[v]
        return pos[c] <= pos[c2]


def top(e: Election, v: int) -> int:
    """The top choice of voter v."""
    return e.rankings[v][0]


def plurality_scores(e: Election) -> tuple[int, ...]:
    """Number of first-place votes per candidate; entries sum to n."""
    scores = [0] * e.m
    for ranking in e.rankings:
        scores[ranking[0]] += 1
    return tuple(scores)


@dataclass(frozen=True)
class WeightVector:
    """A point of the probability simplex over some ground set, stored as
    exact rationals.  Exactness matters: the fractional veto rule's
    termination bound relies on weight differences never losing precision.
    """

    entries: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "entries", tuple(Fraction(x) for x in self.entries)
        )
        if any(x < 0 for x in self.entries):
            raise ValueError("weights must be non-negative")
        total = sum(self.entries, Fraction(0))
        if total != 1:
            raise ValueError(f"weights must sum to exactly 1, got {total}")

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> Fraction:
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    @property
    def support(self) -> frozenset[int]:
        return frozenset(i for i, x in enumerate(self.entries) if x > 0)

    @classmethod
    def uniform(cls, size: int) -> "WeightVector":
        return cls(tuple(Fraction(1, size) for _ in range(size)))

    @classmethod
    def point_mass(cls, index: int, size: int) -> "WeightVector":
        return cls(tuple(Fraction(1 if i == index else 0) for i in range(size)))

    @classmethod
    def from_counts(cls, counts: Sequence[int]) -> "WeightVector":
        total = sum(counts)
        if total <= 0:
            raise ValueError(f"counts must have a positive total, got {total}")
        return cls(tuple(Fraction(c, total) for c in counts))


def parse_fraction(text: str) -> Fraction:
    """``Fraction(text)``, refusing a decimal exponent of at least the integer
    digit limit, which Fraction would spend seconds expanding in full."""
    _, e, exponent = text.lower().rpartition("e")
    if e and 0 < sys.get_int_max_str_digits() <= abs(int(exponent)):
        raise ValueError(f"exponent of {text!r} exceeds the integer digit limit")
    return Fraction(text)


def data_lines(text: str) -> Iterator[tuple[int, str]]:
    """(1-based line number, stripped line) for each line of ``text`` that is
    neither blank nor a ``#`` comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def parse_election(text: str) -> Election:
    """Parse a ballot file.

    Format (UTF-8 text): first data line is the candidate count m, second is
    the voter count n, then n lines each holding a comma-separated permutation
    of 0..m-1, most-preferred first.  Lines starting with ``#`` are comments.

    Each ballot is checked once, by :class:`Election`; only a file that fails
    that one pass is read again line by line, to name its first bad line.
    """
    lines = [s for s in map(str.strip, text.splitlines()) if s and s[0] != "#"]
    try:
        m, n, *ballots = lines
        e = Election(tuple(tuple(map(int, b.split(","))) for b in ballots))
        if e.m == int(m) and e.n == int(n):
            return e
    except ValueError:
        pass
    return _parse_lines(text)


def _parse_lines(text: str) -> Election:
    header: list[int] = []
    ballots: list[tuple[int, ...]] = []
    for lineno, line in data_lines(text):
        if len(header) < 2:
            try:
                value = int(line)
            except ValueError:
                raise BallotParseError(f"expected an integer count, got {line!r}", lineno)
            if value < 1:
                raise BallotParseError(f"counts must be at least 1, got {value}", lineno)
            header.append(value)
            if len(header) == 2:
                m, n = header
            continue
        if len(ballots) >= n:
            raise CountMismatchError(
                f"expected {n} ballots but found more", lineno
            )
        ballots.append(_parse_ballot(line, m, lineno))
    if len(header) < 2:
        raise CountMismatchError("missing candidate/voter count header", 1)
    if len(ballots) != n:
        raise CountMismatchError(
            f"expected {n} ballots but found {len(ballots)}", len(text.splitlines())
        )
    return Election(tuple(ballots))


def _parse_ballot(line: str, m: int, lineno: int) -> tuple[int, ...]:
    if "=" in line:
        raise TieError("tied rankings are not supported", lineno)
    entries: list[int] = []
    for token in line.split(","):
        token = token.strip()
        try:
            c = int(token)
        except ValueError:
            raise BallotParseError(f"bad candidate token {token!r}", lineno)
        if not 0 <= c < m:
            raise MissingCandidateError(
                f"candidate {c} out of range 0..{m - 1}", lineno
            )
        if c in entries:
            raise DuplicateCandidateError(f"candidate {c} listed twice", lineno)
        entries.append(c)
    if len(entries) != m:
        missing = sorted(set(range(m)) - set(entries))
        raise MissingCandidateError(
            f"ballot omits candidate(s) {missing}", lineno
        )
    return tuple(entries)


def serialize_election(e: Election) -> str:
    """Emit the ballot file format parsed by :func:`parse_election`."""
    lines = [str(e.m), str(e.n)]
    lines.extend(",".join(str(c) for c in ranking) for ranking in e.rankings)
    return "\n".join(lines) + "\n"
