import pytest
from hypothesis import given, strategies as st

from pluveto.core import (
    BallotParseError,
    CountMismatchError,
    DuplicateCandidateError,
    Election,
    MissingCandidateError,
    TieError,
    WeightVector,
    bottom_among,
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

    def test_bottom_among_demo(self, demo):
        assert bottom_among(demo, 0, {0, 1, 3}) == 3
        assert bottom_among(demo, 1, {0, 1}) == 1

    def test_bottom_among_singleton(self, demo):
        for v in range(demo.n):
            for c in range(demo.m):
                assert bottom_among(demo, v, {c}) == c

    def test_bottom_among_empty_rejected(self, demo):
        with pytest.raises(ValueError):
            bottom_among(demo, 0, set())

    def test_plurality_demo(self, demo):
        assert plurality_scores(demo) == (2, 1, 0, 1)

    def test_plurality_unanimous(self):
        e = Election(tuple(((0, 1, 2),) * 5))
        assert plurality_scores(e) == (5, 0, 0)

    def test_plurality_all_distinct(self):
        e = Election(((0, 1, 2), (1, 2, 0), (2, 0, 1)))
        assert plurality_scores(e) == (1, 1, 1)

    @given(elections())
    def test_bottom_of_full_set_is_last(self, e):
        for v in range(e.n):
            assert bottom_among(e, v, range(e.m)) == e.rankings[v][-1]
            assert bottom_among(e, v, {top(e, v)}) == top(e, v)

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
