import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from pluveto.cli import main
from pluveto.core import parse_election
from pluveto.rules import fractional_veto

from conftest import REFERENCE_FLOW
from helpers import consistent_with, csv_metric, is_valid

DEMO_TEXT = "4\n4\n0,1,2,3\n0,2,3,1\n1,2,3,0\n3,1,0,2\n"


@pytest.fixture
def ballots(tmp_path):
    path = tmp_path / "demo.ballots"
    path.write_text(DEMO_TEXT)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRun:
    def test_winner_and_trace(self, ballots, capsys):
        code, out, _ = run_cli(capsys, "run", ballots, "--order", "0,1,2,3", "--trace")
        assert code == 0
        assert out.splitlines() == [
            "winner: 0",
            "1, 0, {0 1 3}, 3, 3",
            "2, 1, {0 1}, 1, 2",
            "3, 2, {0}, 0, 0",
            "4, 3, {0}, 0, 1",
        ]

    def test_byte_identical_reruns(self, ballots, capsys):
        first = run_cli(capsys, "run", ballots, "--trace")
        second = run_cli(capsys, "run", ballots, "--trace")
        assert first == second

    def test_all_orders(self, ballots, capsys):
        code, out, _ = run_cli(capsys, "run", ballots, "--all-orders")
        assert code == 0
        assert out.startswith("potential winners:")

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "run", "nope.ballots")
        assert code == 1 and "cannot read" in err

    def test_malformed_ballots(self, tmp_path, capsys):
        path = tmp_path / "bad.ballots"
        path.write_text("2\n1\n0,0\n")
        code, _, err = run_cli(capsys, "run", str(path))
        assert code == 1 and "line 3" in err

    def test_bad_order_flag(self, ballots, capsys):
        code, _, err = run_cli(capsys, "run", ballots, "--order", "0,1")
        assert code == 1 and "permutation" in err

    def test_all_orders_over_cap_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "nine.ballots"
        path.write_text("3\n9\n" + "0,1,2\n" * 9)
        code, _, err = run_cli(capsys, "run", str(path), "--all-orders")
        assert code == 1 and "capped at n = 8" in err and "n = 9" in err

    @pytest.mark.parametrize("flag", [["--order", "0,1,2,3"], ["--trace"]],
                             ids=["order", "trace"])
    def test_all_orders_rejects_flags_it_ignores(self, ballots, capsys, flag):
        code, out, err = run_cli(capsys, "run", ballots, "--all-orders", *flag)
        assert code == 1 and out == ""
        assert err == f"error: --all-orders runs every voter order; {flag[0]} does not apply\n"


class TestRandomize:
    def test_exact_fractions(self, ballots, capsys):
        code, out, _ = run_cli(capsys, "randomize", ballots, "--k", "1")
        assert code == 0
        assert out.splitlines() == ["0: 2/3", "1: 1/3", "2: 0/1", "3: 0/1"]

    def test_k_validation(self, ballots, capsys):
        code, _, err = run_cli(capsys, "randomize", ballots, "--k", "4")
        assert code == 1 and "--k" in err


class TestCertify:
    def test_all_pass_on_fresh_trace(self, ballots, capsys):
        code, out, _ = run_cli(capsys, "certify", ballots)
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") == 3

    def test_fractional_checks(self, ballots, tmp_path, capsys):
        p = tmp_path / "p.weights"
        p.write_text("1/4\n1/4\n1/4\n1/4\n")
        q = tmp_path / "q.weights"
        q.write_text("1/2\n1/4\n0\n1/4\n")
        code, out, _ = run_cli(
            capsys, "certify", ballots, "--p", str(p), "--q", str(q)
        )
        assert code == 0
        assert out.count("PASS") == 6

    def test_fractional_checks_follow_order(self, ballots, tmp_path, capsys, monkeypatch):
        # on these weights order 3,2,1,0 makes the fractional winner 3, index
        # order 0; both runs pass, so only the order passed in tells them apart
        orders = []

        def recording(e, p, q, order=None):
            orders.append(order)
            return fractional_veto(e, p, q, order)

        monkeypatch.setattr("pluveto.cli.fractional_veto", recording)
        p = tmp_path / "p.weights"
        p.write_text("1/4\n1/4\n1/4\n1/4\n")
        q = tmp_path / "q.weights"
        q.write_text("1/2\n1/4\n0\n1/4\n")
        code, out, _ = run_cli(
            capsys, "certify", ballots, "--order", "3,2,1,0", "--p", str(p), "--q", str(q)
        )
        assert code == 0 and out.count("PASS") == 6
        assert orders == [(3, 2, 1, 0)]

    def test_p_without_q_rejected(self, ballots, tmp_path, capsys):
        p = tmp_path / "p.weights"
        p.write_text("1\n")
        code, out, err = run_cli(capsys, "certify", ballots, "--p", str(p))
        assert code == 1 and "together" in err
        assert out == ""

    def test_bad_weights_file(self, ballots, tmp_path, capsys):
        p = tmp_path / "p.weights"
        p.write_text("1/4\n1/4\n")
        q = tmp_path / "q.weights"
        q.write_text("1\n0\n0\n0\n")
        code, out, err = run_cli(
            capsys, "certify", ballots, "--p", str(p), "--q", str(q)
        )
        assert code == 1 and "entries" in err
        assert out == ""

    @pytest.mark.parametrize("weight", ["1e10000000", "1E-10000000"])
    def test_huge_exponent_is_a_bad_weight(self, ballots, tmp_path, capsys, weight):
        # Fraction would spend seconds expanding 10**exponent; the line is
        # refused before that
        path = tmp_path / "w.weights"
        path.write_text(f"1/4\n{weight}\n1/4\n1/4\n")
        start = time.perf_counter()
        code, _, err = run_cli(capsys, "distortion", ballots, "--weights", str(path))
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert err == f"error: {path} line 2: bad weight {weight!r}\n"

    def test_exponent_within_the_digit_limit_is_read(self, ballots, tmp_path, capsys):
        path = tmp_path / "w.weights"
        path.write_text("25e-2\n2.5E-1\n0.025e1\n250e-3\n")
        code, _, err = run_cli(capsys, "distortion", ballots, "--weights", str(path))
        assert code == 0, err


class TestDistortion:
    def test_point_mass_value(self, ballots, capsys):
        code, out, _ = run_cli(capsys, "distortion", ballots, "--winner", "0")
        assert code == 0
        assert out.startswith("distortion: 2.333333333")

    def test_single_ballot_value_one(self, tmp_path, capsys):
        path = tmp_path / "single.ballots"
        path.write_text("1\n1\n0\n")
        code, out, _ = run_cli(
            capsys, "distortion", str(path), "--winner", "0", "--cstar", "0"
        )
        assert code == 0
        assert out.startswith("distortion: 1.000000000")

    def test_witness_written_and_consistent(self, ballots, tmp_path, capsys):
        out_path = tmp_path / "witness.csv"
        code, out, _ = run_cli(
            capsys, "distortion", ballots, "--winner", "0", "--out", str(out_path)
        )
        assert code == 0
        witness = csv_metric(out_path.read_text())
        assert is_valid(witness)
        assert consistent_with(witness, parse_election(DEMO_TEXT))

    def test_exactly_one_source_required(self, ballots, capsys):
        code, _, err = run_cli(capsys, "distortion", ballots)
        assert code == 1 and "exactly one" in err
        code, _, err = run_cli(
            capsys, "distortion", ballots, "--winner", "0", "--k", "1"
        )
        assert code == 1

    def test_order_without_k_rejected(self, ballots, tmp_path, capsys):
        weights = tmp_path / "w.weights"
        weights.write_text("1/4\n" * 4)
        for source in (["--winner", "0"], ["--weights", str(weights)]):
            code, out, err = run_cli(
                capsys, "distortion", ballots, *source, "--order", "3,2,1,0"
            )
            assert code == 1 and out == ""
            assert err == "error: --order applies only to the --k distribution\n"

    def test_k_distribution(self, ballots, capsys):
        code, out, _ = run_cli(capsys, "distortion", ballots, "--k", "1")
        assert code == 0
        value = float(out.split()[1])
        assert value <= 3 + 1e-6

    def test_over_cap_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "big.ballots"
        path.write_text("10\n11\n" + "0,1,2,3,4,5,6,7,8,9\n" * 11)
        code, _, err = run_cli(capsys, "distortion", str(path), "--winner", "0")
        assert code == 1 and "110 variables, over the cap of 100" in err

    def test_unbounded_weights_are_an_input_error(self, tmp_path, capsys):
        # nobody ranks candidate 2 first, so it can sit arbitrarily far away
        path = tmp_path / "two.ballots"
        path.write_text("3\n2\n0,1,2\n0,2,1\n")
        weights = tmp_path / "w.weights"
        weights.write_text("0\n0\n1\n")
        code, _, err = run_cli(
            capsys, "distortion", str(path), "--weights", str(weights)
        )
        assert code == 1
        assert err.startswith("error: distortion LP is unbounded")


class TestFlow:
    def test_build_and_verify_round_trip(self, ballots, tmp_path, capsys):
        flow_path = tmp_path / "demo.flow"
        code, out, _ = run_cli(
            capsys, "flow", ballots, "--k", "1", "--cstar", "3",
            "--out", str(flow_path),
        )
        assert code == 0
        assert "cost: 3/1" in out
        assert "PASS dual-feasibility" in out
        code2, out2, _ = run_cli(
            capsys, "flow", ballots, "--k", "1", "--cstar", "3",
            "--verify", str(flow_path),
        )
        assert code2 == 0
        assert "cost: 3/1" in out2

    def test_verify_reference_flow_costs(self, ballots, tmp_path, capsys):
        lines = [
            f"({t[0]},{t[1]})->({h[0]},{h[1]}): {a}"
            for (t, h), a in REFERENCE_FLOW.items()
        ]
        path = tmp_path / "reference.flow"
        path.write_text("\n".join(lines) + "\n")
        code, out, _ = run_cli(
            capsys, "flow", ballots, "--k", "1", "--cstar", "3",
            "--verify", str(path),
        )
        assert code == 0
        assert "voter 0: cost 4/3" in out
        assert "voter 1: cost 3/1" in out
        assert "voter 2: cost 8/3" in out
        assert "voter 3: cost 1/1" in out
        assert "cost: 3/1" in out

    def test_invalid_flow_fails(self, ballots, tmp_path, capsys):
        path = tmp_path / "broken.flow"
        path.write_text("(0,0)->(0,1): 1/2\n")
        code, out, _ = run_cli(
            capsys, "flow", ballots, "--k", "1", "--cstar", "3",
            "--verify", str(path),
        )
        assert code == 1
        assert "FAIL flow-verification" in out

    def test_dual_infeasible_flow_fails(self, ballots, tmp_path, capsys):
        # the reference flow plus sideways flow inside column c* = 3 is a
        # valid flow of cost 7/2, but its dual load on voter 1 is 4
        lines = [
            f"({t[0]},{t[1]})->({h[0]},{h[1]}): {a}"
            for (t, h), a in REFERENCE_FLOW.items()
        ]
        path = tmp_path / "sideways.flow"
        path.write_text("\n".join(lines + ["(0,3)->(1,3): 1/2"]) + "\n")
        code, out, _ = run_cli(
            capsys, "flow", ballots, "--k", "1", "--cstar", "3",
            "--verify", str(path),
        )
        assert code == 1
        assert "cost: 7/2" in out
        assert out.splitlines()[-1] == "FAIL dual-feasibility (objective 7/2)"

    @pytest.mark.parametrize("text, line", [
        ("(0,0)->(0,1): 1e10000000\n", 1),
        ("(0,0)->(0,1): 1e-1000000\n", 1),
        # two amounts into node (0,0): their sum's denominator has 5,001 digits
        (f"(1,0)->(0,0): 1/{10**2500 + 1}\n(2,0)->(0,0): 1/{10**2500 + 3}\n", 2),
    ], ids=["huge-exponent", "tiny-exponent", "long-denominators"])
    def test_unprintable_amounts_are_input_errors(self, ballots, tmp_path, capsys,
                                                  text, line):
        path = tmp_path / "huge.flow"
        path.write_text(text)
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "flow", ballots, "--k", "1", "--cstar", "3",
            "--verify", str(path),
        )
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert err.startswith(f"error: {path}: line {line}: ")

    def test_repeated_edge_is_an_input_error(self, ballots, tmp_path, capsys):
        path = tmp_path / "repeated.flow"
        path.write_text("(0,0)->(0,1): 1/4\n(0,0)->(0,1): 1/4\n")
        code, _, err = run_cli(
            capsys, "flow", ballots, "--k", "1", "--cstar", "3",
            "--verify", str(path),
        )
        assert code == 1
        assert "line 2" in err and "repeats line 1" in err


class TestCommittee:
    def test_select(self, ballots, capsys):
        code, out, _ = run_cli(
            capsys, "committee", ballots, "--size", "2", "--rank", "2"
        )
        assert code == 0
        assert out.strip() == "committee: 0 1"

    def test_low_rank_rejected(self, ballots, capsys):
        code, _, err = run_cli(
            capsys, "committee", ballots, "--size", "2", "--rank", "1"
        )
        assert code == 1 and "exceed" in err


class TestSimulate:
    CONFIG = (
        "rules = plurality_veto, randomized_veto(1)\n"
        "instances = 4\nvoters = 6\ncandidates = 3\n"
        "dim = 2\ndistribution = gaussian\nseed = 9\n"
    )

    def test_summary_and_csv(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(self.CONFIG)
        out_csv = tmp_path / "report.csv"
        code, out, _ = run_cli(
            capsys, "simulate", "--config", str(cfg), "--out", str(out_csv)
        )
        assert code == 0
        assert "plurality_veto:" in out
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "seed,rule,winner,cost,opt_cost,ratio"
        assert len(lines) == 9

    def test_seed_override_changes_report(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(self.CONFIG)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(a))
        run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(b),
                "--seed", "123")
        assert a.read_text() != b.read_text()

    def test_bad_config(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("rules = telepathy\ninstances = 1\nvoters = 1\ncandidates = 1\n")
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 1 and "unknown rule" in err

    def test_repeated_rule_is_an_input_error(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(self.CONFIG.replace(
            "randomized_veto(1)", "randomized_veto(1), plurality_veto"))
        out_csv = tmp_path / "report.csv"
        code, out, err = run_cli(
            capsys, "simulate", "--config", str(cfg), "--out", str(out_csv)
        )
        assert code == 1 and out == ""
        assert "'plurality_veto' is listed more than once" in err
        assert not out_csv.exists()

    def test_rule_with_leading_zero_is_unknown(self, tmp_path, capsys):
        # otherwise randomized_veto(01) would repeat randomized_veto(1)
        # under a second label
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(self.CONFIG.replace(
            "randomized_veto(1)", "randomized_veto(1), randomized_veto(01)"))
        out_csv = tmp_path / "report.csv"
        code, out, err = run_cli(
            capsys, "simulate", "--config", str(cfg), "--out", str(out_csv)
        )
        assert code == 1 and out == ""
        assert "unknown rule name 'randomized_veto(01)'" in err
        assert not out_csv.exists()

    @pytest.mark.parametrize(
        "line, message",
        [("distribution = cauchy", "unknown distribution"), ("dim = 0", "dim")],
    )
    def test_bad_sampling_config_is_an_input_error(
        self, tmp_path, capsys, line, message
    ):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "rules = plurality_veto\ninstances = 1\nvoters = 3\ncandidates = 2\n"
            + line + "\n"
        )
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 1 and err.startswith("error:") and message in err

    @pytest.mark.parametrize("rules", ["rules =", "rules = ,", "rules = , ,"])
    def test_empty_rule_list_is_an_input_error(self, tmp_path, capsys, rules):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(rules + "\ninstances = 1\nvoters = 3\ncandidates = 2\n")
        out_csv = tmp_path / "report.csv"
        code, out, err = run_cli(
            capsys, "simulate", "--config", str(cfg), "--out", str(out_csv)
        )
        assert code == 1 and out == ""
        assert err == f"error: {cfg}: rules must name at least one rule\n"
        assert not out_csv.exists()


weight_texts = st.one_of(
    st.lists(
        st.sampled_from(["1/4", "0.25", " 1/2 ", "0", "1", "3/4", "1/3", "2/3",
                         "-1/4", "1/0", "x", "", "# note", "+0.5", "1_0"]),
        max_size=6,
    ).map("\n".join),
    st.text(alphabet="0123456789/-+. #xeE\n", max_size=30),
    st.lists(st.integers(0, 5), min_size=4, max_size=4).filter(any).map(
        lambda counts: "# weights\n" + "\n".join(f"{c}/{sum(counts)}" for c in counts)
    ),
)


class TestWeightFilesFuzz:
    @pytest.mark.parametrize("flag", ["--p", "--q", "--weights"])
    @given(text=weight_texts)
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_weights_file_exits_0_or_1(self, ballots, tmp_path, capsys, flag, text):
        fuzzed = tmp_path / "fuzzed.txt"
        fuzzed.write_text(text)
        uniform = tmp_path / "uniform.txt"
        uniform.write_text("1/4\n" * 4)
        if flag == "--weights":
            argv = ["distortion", ballots, "--weights", str(fuzzed)]
        else:
            p, q = (fuzzed, uniform) if flag == "--p" else (uniform, fuzzed)
            argv = ["certify", ballots, "--p", str(p), "--q", str(q)]
        code, _, err = run_cli(capsys, *argv)
        assert code in (0, 1), err


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert run_cli(capsys, "dance")[0] == 1

    @pytest.mark.parametrize("command", ["distortion", "flow", "simulate"])
    def test_out_into_missing_directory_is_an_input_error(
        self, ballots, tmp_path, capsys, command
    ):
        out = str(tmp_path / "missing" / "out.txt")
        if command == "simulate":
            cfg = tmp_path / "exp.cfg"
            cfg.write_text(TestSimulate.CONFIG)
            argv = ["simulate", "--config", str(cfg)]
        elif command == "flow":
            argv = ["flow", ballots, "--k", "1", "--cstar", "3"]
        else:
            argv = ["distortion", ballots, "--winner", "0"]
        code, stdout, err = run_cli(capsys, *argv, "--out", out)
        assert code == 1
        assert stdout == ""
        assert err == f"error: cannot write {out}: No such file or directory\n"
        assert not (tmp_path / "missing").exists()

    def test_no_subcommand(self, capsys):
        assert run_cli(capsys)[0] == 1
