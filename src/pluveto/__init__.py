"""Veto-based voting rules for metric elections, with certificates.

The rules pick candidates (or candidate distributions, or committees) from
ranked ballots; the certify layer mechanically checks the 3-approximation
guarantees those rules carry via matchings, flows, and linear programs; the
bench layer generates random metric elections and runs experiments.
"""

from .core import (
    BallotParseError,
    Election,
    WeightVector,
    parse_election,
    plurality_scores,
    serialize_election,
    top,
)
from .rules import (
    Committee,
    FractionalTrace,
    VetoTrace,
    committee_select,
    fractional_veto,
    plurality_veto,
    randomized_veto,
)

__version__ = "0.1.0"

__all__ = [
    "BallotParseError",
    "Election",
    "WeightVector",
    "parse_election",
    "plurality_scores",
    "serialize_election",
    "top",
    "Committee",
    "FractionalTrace",
    "VetoTrace",
    "committee_select",
    "fractional_veto",
    "plurality_veto",
    "randomized_veto",
    "__version__",
]
