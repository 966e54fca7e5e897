"""Tests of the benchmark itself: each oracle accepts the program's real
output and rejects a corrupted copy of it, and every workload runs end to
end at tiny sizes.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

_HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(_HERE))
if not any(Path(p, "pluveto").is_dir() for p in sys.path if p):
    sys.path.insert(0, str(_HERE.parent / "src"))

import pluveto.cli as cli  # noqa: E402
from pvbench import inputs, oracles  # noqa: E402
from pvbench.workloads import WORKLOADS, call, run_workload  # noqa: E402


def _ballots(tmp_path, n, m, culture="ic", index=0):
    ranks = inputs.rankings(inputs.rng_for(7, 9, index), n, m, culture)
    path = str(tmp_path / f"e{index}.ballots")
    inputs.write(path, inputs.ballot_text(ranks))
    return ranks, path


def _run(argv):
    ok, outs = call(cli, [argv])
    assert ok, outs
    return outs[0]


def test_tally_oracle_rejects_swapped_winner(tmp_path):
    ranks, path = _ballots(tmp_path, 60, 5)
    run_out = _run(["run", path, "--trace"])
    rand_out = _run(["randomize", path, "--k", "30"])
    oracles.check_tally(ranks, 30, run_out, rand_out)
    winner = int(run_out.splitlines()[0].split()[1])
    swapped = run_out.replace(f"winner: {winner}", f"winner: {(winner + 1) % 5}", 1)
    with pytest.raises(oracles.OracleError):
        oracles.check_tally(ranks, 30, swapped, rand_out)


def test_distortion_oracle_rejects_value_off_by_1e_3(tmp_path):
    ranks, path = _ballots(tmp_path, 3, 4)
    out = _run(["distortion", path, "--k", "1"])
    oracles.check_distortion(ranks, 1, out)
    value = out.split()[1]
    shifted = out.replace(value, f"{float(value) + 1e-3:.9f}", 1)
    with pytest.raises(oracles.OracleError):
        oracles.check_distortion(ranks, 1, shifted)


def test_flow_oracle_rejects_changed_amount(tmp_path):
    ranks, path = _ballots(tmp_path, 12, 4, "euclid2")
    flow_path = str(tmp_path / "out.flow")
    out = _run(["flow", path, "--k", "5", "--cstar", "2", "--out", flow_path])
    text = Path(flow_path).read_text()
    assert oracles.check_flow(ranks, 5, 2, out, text) >= 1
    first, rest = text.split("\n", 1)
    edge, amount = first.rsplit(" ", 1)
    bumped = Fraction(amount) + Fraction(1, 7)
    changed = f"{edge} {bumped.numerator}/{bumped.denominator}\n{rest}"
    with pytest.raises(oracles.OracleError):
        oracles.check_flow(ranks, 5, 2, out, changed)


def test_matching_oracle_rejects_removed_edge():
    ranks = inputs.rankings(inputs.rng_for(7, 9, 3), 40, 5, "euclid2").tolist()
    winner = oracles.reference_winner(ranks)
    matching = oracles.perfect_matching(ranks, winner)
    oracles.check_matching(ranks, winner, matching)
    del matching[next(iter(matching))]
    with pytest.raises(oracles.OracleError):
        oracles.check_matching(ranks, winner, matching)


def test_certify_oracle_rejects_a_failed_check(tmp_path):
    ranks, path = _ballots(tmp_path, 20, 4, "euclid1")
    for name, size in (("p", 20), ("q", 4)):
        inputs.write(str(tmp_path / name), "\n".join(inputs.simplex_weights(
            inputs.rng_for(7, 9, size), size)) + "\n")
    out = _run(["certify", path, "--p", str(tmp_path / "p"), "--q", str(tmp_path / "q")])
    oracles.check_certify(ranks, out)
    with pytest.raises(oracles.OracleError):
        oracles.check_certify(ranks, out.replace("PASS fractional-steps", "FAIL fractional-steps"))


def test_simulate_oracle_rejects_changed_ratio(tmp_path):
    rules = ["plurality_veto", "random_dictatorship", "randomized_veto(3)", "committee_select"]
    config = tmp_path / "x.cfg"
    config.write_text(f"rules = {', '.join(rules)}\ninstances = 4\nvoters = 8\n"
                      "candidates = 4\nseed = 3\n")
    report = tmp_path / "x.csv"
    out = _run(["simulate", "--config", str(config), "--out", str(report)])
    summary = out.removesuffix(f"report written to {report}\n")
    text = report.read_text()
    oracles.check_simulate(rules, 4, summary, text)
    header, first, rest = text.split("\n", 2)
    fields = first.split(",")
    fields[-1] = repr(float(fields[-1]) * 1.001)
    with pytest.raises(oracles.OracleError):
        oracles.check_simulate(rules, 4, summary, "\n".join([header, ",".join(fields), rest]))


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("traced", [False, True])
def test_smoke(name, traced, tmp_path):
    result, _ = run_workload(cli, WORKLOADS[name], 1, 0, traced, str(tmp_path), smoke=True)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 3 + len(WORKLOADS[name].smoke)
    spec = json.loads((_HERE.parent / "BENCHMARK.json").read_text())
    expected = [(m["name"], m["unit"]) for m in spec["per_layer" if traced else "end_to_end"]]
    assert [(name, m["unit"]) for name, m in result["metrics"].items()] == expected
