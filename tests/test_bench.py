import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from pluveto.bench import (
    ExperimentConfig,
    convex_hull_vertices,
    generate_euclidean,
    parse_config,
    peer_selection,
    potential_winners,
    report_to_csv,
    run_experiment,
)
from pluveto.certify.domination import domination_graph, has_perfect_matching
from pluveto.core import Election, plurality_scores, top
from pluveto.rules import plurality_veto

from helpers import consistent_with, is_valid


class TestGenerateEuclidean:
    def test_single_point(self):
        e, d = generate_euclidean(1, 1, 1, "uniform", 0)
        assert e.n == e.m == 1
        assert d[0][0] >= 0

    def test_determinism(self):
        a = generate_euclidean(6, 4, 3, "gaussian", 99)
        b = generate_euclidean(6, 4, 3, "gaussian", 99)
        assert a[0] == b[0] and a[1].d == b[1].d

    def test_different_seeds_differ(self):
        a = generate_euclidean(6, 4, 2, "gaussian", 1)
        b = generate_euclidean(6, 4, 2, "gaussian", 2)
        assert a[1].d != b[1].d

    def test_validator_and_consistency_property(self):
        for seed in range(200):
            e, d = generate_euclidean(
                1 + seed % 5, 1 + seed % 4, 1 + seed % 3, "uniform", seed
            )
            assert is_valid(d)
            assert consistent_with(d, e)

    def test_unknown_distribution(self):
        with pytest.raises(ValueError):
            generate_euclidean(2, 2, 2, "cauchy", 0)

    def test_rankings_sorted_by_distance(self):
        e, d = generate_euclidean(5, 5, 2, "gaussian", 4)
        for v in range(e.n):
            dists = [d[v][c] for c in e.rankings[v]]
            assert dists == sorted(dists)

    def test_index_breaks_distance_ties(self):
        # agent 0 is equidistant from agents 1 and 2; the lower index wins
        e, _, _ = peer_selection([0.0, 1.0, -1.0])
        assert e.rankings[0] == (0, 1, 2)


class TestPeerSelection:
    def test_two_agents(self):
        e, d, _ = peer_selection([(0.0, 0.0), (1.0, 0.0)])
        assert e.rankings == ((0, 1), (1, 0))

    def test_collinear_scalars(self):
        e, d, _ = peer_selection([0, 1, 3])
        assert e.rankings[1] == (1, 0, 2)
        assert d[1] == (1.0, 0.0, 2.0)

    def test_every_agent_tops_herself(self):
        e, _, _ = peer_selection(7, seed=3)
        assert all(top(e, v) == v for v in range(e.n))
        assert plurality_scores(e) == (1,) * e.n

    def test_sampled_defaults_deterministic(self):
        a = peer_selection(5, seed=8)
        b = peer_selection(5, seed=8)
        assert a[0] == b[0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            peer_selection([])


class TestPotentialWinners:
    def test_unanimous(self):
        e = Election(tuple(((1, 0, 2),) * 3))
        assert potential_winners(e) == {1}

    def test_strict_majority_unique_winner(self):
        e = Election(((1, 0, 2), (1, 2, 0), (1, 0, 2), (0, 2, 1), (2, 0, 1)))
        assert potential_winners(e) == {1}

    def test_exact_subset_of_superset(self):
        rng = random.Random(6)
        for _ in range(40):
            n, m = rng.randint(1, 6), rng.randint(1, 5)
            e = Election(
                tuple(tuple(rng.sample(range(m), m)) for _ in range(n))
            )
            # every potential winner's domination graph has a perfect matching
            superset = {
                c for c in range(e.m)
                if has_perfect_matching(domination_graph(e, c))[0]
            }
            assert potential_winners(e) <= superset

    def test_exact_capped(self):
        e = Election(tuple(((0, 1),) * 9))
        with pytest.raises(ValueError, match="capped"):
            potential_winners(e)


class TestConvexHull:
    def test_triangle_with_interior_points(self):
        pts = [(0, 0), (2, 0), (1, 1), (1, 0.2), (0.5, 0.3)]
        assert convex_hull_vertices(pts) == {0, 1, 2}

    def test_collinear_middle_not_a_vertex(self):
        pts = [(0, 0), (1, 0), (2, 0), (1, 1)]
        assert convex_hull_vertices(pts) == {0, 2, 3}

    def test_tiny_sets(self):
        assert convex_hull_vertices([(0, 0)]) == {0}
        assert convex_hull_vertices([(0, 0), (1, 1)]) == {0, 1}

    def test_vetoed_agent_is_hull_vertex(self):
        rng = random.Random(77)
        for _ in range(40):
            e, _, pts = peer_selection(rng.randint(1, 8), seed=rng.randint(0, 10**6))
            order = tuple(rng.sample(range(e.n), e.n))
            for r in plurality_veto(e, order).rounds:
                active_pts = [pts[c] for c in sorted(r.active)]
                hull = convex_hull_vertices(active_pts)
                assert sorted(r.active).index(r.vetoed) in hull


class TestExperiments:
    CFG = """
    # smoke config
    rules = plurality_veto, randomized_veto(1), random_dictatorship, committee_select
    instances = 8
    voters = 7
    candidates = 4
    dim = 2
    distribution = uniform
    seed = 5
    committee_size = 2
    committee_rank = 2
    """

    def test_parse_config(self):
        cfg = parse_config(self.CFG)
        assert cfg.rules[0] == "plurality_veto"
        assert cfg.instances == 8 and cfg.voters == 7

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError, match="unknown rule"):
            parse_config("rules = borda\ninstances = 1\nvoters = 2\ncandidates = 2\n")

    @pytest.mark.parametrize("rules", ["", ",", " , "])
    def test_empty_rule_list_rejected(self, rules):
        with pytest.raises(ValueError, match="at least one rule"):
            parse_config(f"rules = {rules}\ninstances = 1\nvoters = 2\ncandidates = 2\n")
        with pytest.raises(ValueError, match="at least one rule"):
            ExperimentConfig(rules=(), instances=1, voters=2, candidates=2)

    def test_missing_keys_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            parse_config("rules = plurality_veto\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            parse_config("colour = red\n")

    def test_repeated_key_names_both_lines(self):
        text = (
            "rules = plurality_veto\ninstances = 1\nvoters = 5\n"
            "# a later edit\nvoters = 6\ncandidates = 2\n"
        )
        with pytest.raises(ValueError, match=r"line 5: .*'voters' repeats line 3"):
            parse_config(text)

    def test_ratios_at_least_one(self):
        report = run_experiment(parse_config(self.CFG))
        assert all(r.ratio >= 1.0 - 1e-12 for r in report.records)

    def test_reports_bit_identical(self):
        cfg = parse_config(self.CFG)
        a = report_to_csv(run_experiment(cfg))
        b = report_to_csv(run_experiment(cfg))
        assert a == b

    def test_csv_shape(self):
        cfg = parse_config(self.CFG)
        lines = report_to_csv(run_experiment(cfg)).splitlines()
        assert lines[0] == "seed,rule,winner,cost,opt_cost,ratio"
        assert len(lines) == 1 + cfg.instances * len(cfg.rules)

    def test_single_voter_instance_ratio_one(self):
        cfg = ExperimentConfig(
            rules=("plurality_veto",), instances=3, voters=1, candidates=3,
        )
        report = run_experiment(cfg)
        assert all(r.ratio == 1.0 for r in report.records)

    def test_randomized_expectation_vs_manual(self):
        cfg = ExperimentConfig(
            rules=("random_dictatorship",), instances=1, voters=4, candidates=3,
            seed=2,
        )
        report = run_experiment(cfg)
        rec = report.records[0]
        e, d = generate_euclidean(4, 3, 2, "gaussian", 2 * 1_000_003)
        plu = plurality_scores(e)
        expected = sum(
            plu[c] / 4 * sum(d[v][c] for v in range(4)) for c in range(3)
        )
        assert rec.cost == pytest.approx(expected)


INT_KEYS = ["instances", "voters", "candidates", "dim", "seed",
            "committee_size", "committee_rank"]


def config_to_text(cfg: ExperimentConfig) -> str:
    """The ``key = value`` lines :func:`parse_config` reads, one per field."""
    lines = []
    for field in dataclasses.fields(cfg):
        value = getattr(cfg, field.name)
        lines.append(f"{field.name} = {', '.join(value) if field.name == 'rules' else value}")
    return "\n".join(lines) + "\n"


@st.composite
def configs(draw):
    candidates = draw(st.integers(1, 8))
    size = draw(st.integers(1, candidates))
    rule = st.sampled_from(["plurality_veto", "random_dictatorship", "committee_select"])
    rule |= st.integers(0, 99).map(lambda k: f"randomized_veto({k})")
    return ExperimentConfig(
        rules=tuple(draw(st.lists(rule, min_size=1, max_size=4, unique=True))),
        instances=draw(st.integers(1, 10**6)),
        voters=draw(st.integers(1, 10**6)),
        candidates=candidates,
        dim=draw(st.integers(1, 9)),
        distribution=draw(st.sampled_from(["uniform", "gaussian"])),
        seed=draw(st.integers(-(10**9), 10**9)),
        committee_size=size,
        committee_rank=draw(st.integers(size // 2 + 1, size)),
    )


config_line = st.one_of(
    st.tuples(
        st.sampled_from(["rules", "instances", "voters", "candidates", "dim",
                         "distribution", "seed", "committee_size", "committee_rank",
                         "colour", ""]),
        st.sampled_from([" = ", "=", " : ", " "]),
        st.text(alphabet="0123456789-+_ ,()abcdefghijklmnopqrstuvwxyz", max_size=20),
    ).map("".join),
    st.sampled_from(["", "# comment", "  ", "=", "rules = plurality_veto"]),
    st.text(max_size=20),
)


class TestConfigFuzz:
    @given(configs())
    def test_round_trip(self, cfg):
        assert parse_config(config_to_text(cfg)) == cfg

    @given(st.lists(config_line, max_size=12).map("\n".join))
    @settings(max_examples=300)
    def test_any_text_parses_or_raises_value_error(self, text):
        try:
            assert isinstance(parse_config(text), ExperimentConfig)
        except ValueError:
            pass

    @given(configs(), st.data())
    def test_a_bad_line_is_named(self, cfg, data):
        lines = config_to_text(cfg).splitlines()
        i = data.draw(st.integers(0, len(lines) - 1))
        kind = data.draw(st.sampled_from(["no_equals", "unknown_key", "repeat", "not_int"]))
        if kind == "no_equals":
            lines[i] = lines[i].replace("=", ":")
        elif kind == "unknown_key":
            lines[i] = "x" + lines[i]
        elif kind == "repeat":
            i = len(lines)
            lines.append(lines[data.draw(st.integers(0, i - 1))])
        else:
            key = data.draw(st.sampled_from(INT_KEYS))
            i = [line.partition(" = ")[0] for line in lines].index(key)
            lines[i] = f"{key} = {data.draw(st.sampled_from(['many', '1.5', '', '0x10']))}"
        with pytest.raises(ValueError) as err:
            parse_config("\n".join(lines))
        assert str(err.value).startswith(f"line {i + 1}: ")
