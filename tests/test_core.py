import pytest
from hypothesis import given, settings, strategies as st

from pluveto.core import (
    BallotParseError,
    CountMismatchError,
    DuplicateCandidateError,
    Election,
    MissingCandidateError,
    TieError,
    WeightVector,
    parse_election,
    plurality_scores,
    serialize_election,
    top,
)

from conftest import DEMO_RANKINGS


@st.composite
def elections(draw, max_voters=5, max_candidates=5):
    m = draw(st.integers(1, max_candidates))
    n = draw(st.integers(1, max_voters))
    rankings = draw(
        st.lists(st.permutations(range(m)), min_size=n, max_size=n)
    )
    return Election(tuple(tuple(r) for r in rankings))


def reference_parse_election(text):
    """The line-by-line parser that checked every ballot as it read it,
    kept as the reference for :func:`parse_election`."""
    header, ballots = [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
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
            raise CountMismatchError(f"expected {n} ballots but found more", lineno)
        ballots.append(reference_parse_ballot(line, m, lineno))
    if len(header) < 2:
        raise CountMismatchError("missing candidate/voter count header", 1)
    if len(ballots) != n:
        raise CountMismatchError(
            f"expected {n} ballots but found {len(ballots)}", lineno if text else 1
        )
    return Election(tuple(ballots))


def reference_parse_ballot(line, m, lineno):
    if "=" in line:
        raise TieError("tied rankings are not supported", lineno)
    entries = []
    for token in line.split(","):
        token = token.strip()
        try:
            c = int(token)
        except ValueError:
            raise BallotParseError(f"bad candidate token {token!r}", lineno)
        if not 0 <= c < m:
            raise MissingCandidateError(f"candidate {c} out of range 0..{m - 1}", lineno)
        if c in entries:
            raise DuplicateCandidateError(f"candidate {c} listed twice", lineno)
        entries.append(c)
    if len(entries) != m:
        missing = sorted(set(range(m)) - set(entries))
        raise MissingCandidateError(f"ballot omits candidate(s) {missing}", lineno)
    return tuple(entries)


# Tokens int() reads in some way: valid, signed, padded, underscored, a
# non-ASCII digit, and malformed.
ODD_TOKENS = ["x", "", " ", "1.0", "0x1", "+1", "-0", " 1 ", "1_0", "\u0663", "1e0"]


@st.composite
def mutated_ballot_texts(draw):
    """A serialized election with up to four edits: comments, blank or padded
    lines, ties, duplicate, missing, extra or out-of-range candidates, odd
    tokens, an extra or a dropped ballot, or a changed header count."""
    e = draw(elections(max_voters=6, max_candidates=6))
    lines = serialize_election(e).splitlines()
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from([
            "comment", "blank", "pad", "tie", "duplicate", "out_of_range",
            "drop_token", "extra_token", "odd_token", "extra_ballot",
            "drop_ballot", "header",
        ]))
        if not lines:
            lines.append("1")
        j = draw(st.integers(0, len(lines) - 1))
        tokens = lines[j].split(",")
        k = draw(st.integers(0, len(tokens) - 1))
        if kind == "comment":
            lines.insert(j, draw(st.sampled_from(["# note", "  #0,1", "#"])))
        elif kind == "blank":
            lines.insert(j, draw(st.sampled_from(["", "   ", "\t"])))
        elif kind == "pad":
            lines[j] = " " + lines[j].replace(",", " , ") + "\t"
        elif kind == "tie":
            lines[j] = lines[j].replace(",", "=", 1) if "," in lines[j] else lines[j] + "=0"
        elif kind == "duplicate":
            tokens[k] = tokens[-1 - k]
            lines[j] = ",".join(tokens)
        elif kind == "out_of_range":
            tokens[k] = draw(st.sampled_from([str(e.m), "-1", "99"]))
            lines[j] = ",".join(tokens)
        elif kind == "drop_token":
            del tokens[k]
            lines[j] = ",".join(tokens)
        elif kind == "extra_token":
            tokens.insert(k, draw(st.sampled_from(["0", str(e.m - 1), str(e.m)])))
            lines[j] = ",".join(tokens)
        elif kind == "odd_token":
            tokens[k] = draw(st.sampled_from(ODD_TOKENS))
            lines[j] = ",".join(tokens)
        elif kind == "extra_ballot":
            lines.insert(j, lines[-1])
        elif kind == "drop_ballot":
            del lines[j]
        else:
            lines[draw(st.integers(0, 1)) % len(lines)] = draw(
                st.sampled_from(["0", "-2", "x", str(e.n + 1), str(e.m + 1), "2 "])
            )
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n"]))


class TestElection:
    def test_counts(self, demo):
        assert demo.n == 4
        assert demo.m == 4

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            Election(((0, 1), (1, 1)))
        with pytest.raises(ValueError):
            Election(((0, 1), (0,)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Election(())

    def test_positions_invert_rankings(self, demo):
        for v, ranking in enumerate(demo.rankings):
            for i, c in enumerate(ranking):
                assert demo.positions[v][c] == i

    def test_preference_predicates(self, demo):
        assert demo.prefers(1, 0, 1)
        assert not demo.prefers(1, 1, 0)
        assert demo.weakly_prefers(1, 0, 0)
        assert not demo.prefers(1, 0, 0)


class TestQueries:
    def test_top_demo(self, demo):
        assert top(demo, 0) == 0
        assert top(demo, 3) == 3

    def test_top_single_candidate(self):
        e = Election(((0,), (0,)))
        assert top(e, 0) == 0 and top(e, 1) == 0

    def test_plurality_demo(self, demo):
        assert plurality_scores(demo) == (2, 1, 0, 1)

    def test_plurality_unanimous(self):
        e = Election(tuple(((0, 1, 2),) * 5))
        assert plurality_scores(e) == (5, 0, 0)

    def test_plurality_all_distinct(self):
        e = Election(((0, 1, 2), (1, 2, 0), (2, 0, 1)))
        assert plurality_scores(e) == (1, 1, 1)

    @given(elections())
    def test_plurality_sums_to_n(self, e):
        assert sum(plurality_scores(e)) == e.n


class TestBallotFiles:
    def test_parse_demo(self):
        text = "4\n4\n0,1,2,3\n0,2,3,1\n1,2,3,0\n3,1,0,2\n"
        assert parse_election(text).rankings == DEMO_RANKINGS

    def test_comments_and_blanks(self):
        text = "# demo\n2\n\n1\n# ballot\n0,1\n"
        e = parse_election(text)
        assert e.n == 1 and e.m == 2

    def test_smallest_election(self):
        e = parse_election("1\n1\n0\n")
        assert e.n == 1 and e.m == 1

    def test_duplicate_candidate(self):
        with pytest.raises(DuplicateCandidateError) as err:
            parse_election("3\n1\n0,0,1\n")
        assert err.value.line == 3

    def test_missing_candidate(self):
        with pytest.raises(MissingCandidateError):
            parse_election("3\n1\n0,1\n")

    def test_out_of_range_candidate(self):
        with pytest.raises(MissingCandidateError):
            parse_election("2\n1\n0,5\n")

    def test_count_mismatch_too_few(self):
        with pytest.raises(CountMismatchError):
            parse_election("2\n2\n0,1\n")

    def test_count_mismatch_too_many(self):
        with pytest.raises(CountMismatchError):
            parse_election("2\n1\n0,1\n1,0\n")

    def test_ties_rejected(self):
        with pytest.raises(TieError):
            parse_election("2\n1\n0=1\n")

    def test_bad_token_has_line_number(self):
        with pytest.raises(BallotParseError) as err:
            parse_election("2\n1\nzero,1\n")
        assert err.value.line == 3

    @given(elections())
    def test_round_trip(self, e):
        assert parse_election(serialize_election(e)) == e

    @given(st.text(alphabet="0123456789,=-#x \n", max_size=40))
    def test_rejection_is_typed_with_a_line(self, text):
        try:
            parse_election(text)
        except BallotParseError as exc:
            assert exc.line >= 1 and str(exc).startswith(f"line {exc.line}: ")


class TestParserMatchesReference:
    @staticmethod
    def outcome(parse, text):
        try:
            return parse(text)
        except BallotParseError as exc:
            return type(exc), exc.line, str(exc)

    @given(mutated_ballot_texts())
    @settings(max_examples=400)
    def test_same_election_or_same_error(self, text):
        expected = self.outcome(reference_parse_election, text)
        assert self.outcome(parse_election, text) == expected

    @given(st.text(alphabet="0123456789,=-#x \n", max_size=40))
    def test_same_outcome_on_any_text(self, text):
        expected = self.outcome(reference_parse_election, text)
        assert self.outcome(parse_election, text) == expected


class TestWeightVector:
    def test_must_sum_to_one(self):
        with pytest.raises(ValueError):
            WeightVector((0.5, 0.25))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            WeightVector((-1, 2))

    def test_uniform_and_point_mass(self):
        u = WeightVector.uniform(4)
        assert sum(u.entries) == 1 and len(set(u.entries)) == 1
        p = WeightVector.point_mass(2, 4)
        assert p[2] == 1 and p.support == {2}

    def test_from_counts(self):
        w = WeightVector.from_counts((2, 1, 0, 1))
        assert [str(x) for x in w] == ["1/2", "1/4", "0", "1/4"]

    def test_from_counts_rejects_zero_total(self):
        with pytest.raises(ValueError, match="positive total"):
            WeightVector.from_counts([0, 0])
