"""The decision rule of ``scripts/perfbench_ab.py``, on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "perfbench_ab.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_ab", _PATH)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

PARENT = [1.50, 1.52, 1.48, 1.55, 1.51, 1.49, 1.53, 1.50, 1.54, 1.47]


def test_quartiles_are_inclusive():
    assert ab.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert ab.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_ties_count_for_neither_side():
    assert ab.wins([1.0, 2.0, 3.0], [0.5, 2.0, 3.5], "lower") == 1
    assert ab.wins([1.0, 2.0, 3.0], [0.5, 2.0, 3.5], "higher") == 1


def test_claim_holds_with_nine_wins_and_a_gap_beyond_the_iqr():
    change = [p - 0.25 for p in PARENT]
    change[3] = PARENT[3] + 0.01  # one lost pair: 9 of 10 still holds
    assert ab.wins(PARENT, change, "lower") == 9
    assert ab.claim_holds(PARENT, change, "lower")


def test_claim_fails_with_eight_wins():
    change = [p - 0.25 for p in PARENT]
    change[3] = PARENT[3] + 0.01
    change[5] = PARENT[5]  # a tie is not a win
    assert ab.wins(PARENT, change, "lower") == 8
    assert not ab.claim_holds(PARENT, change, "lower")


def test_claim_fails_when_the_gap_is_inside_the_parent_iqr():
    q1, _median, q3 = ab.quartiles(PARENT)
    change = [p - 0.9 * (q3 - q1) for p in PARENT]
    assert ab.wins(PARENT, change, "lower") == 10
    assert not ab.claim_holds(PARENT, change, "lower")


def test_claim_respects_the_metric_direction():
    rates = [10.0 + i for i in range(10)]
    assert ab.claim_holds(rates, [r + 20.0 for r in rates], "higher")
    assert not ab.claim_holds(rates, [r + 20.0 for r in rates], "lower")


@pytest.mark.parametrize(
    "change, expected",
    [
        ([p - 0.3 for p in PARENT], "better"),  # every run better than every run
        ([p + 0.01 for p in PARENT], "within"),
        ([p * 1.3 for p in PARENT], "regressed"),
    ],
)
def test_verdict_against_a_bound(change, expected):
    assert ab.verdict(PARENT, change, "lower", bound=0.25) == expected


def test_verdict_is_unresolved_when_the_spread_exceeds_the_bound():
    noisy = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0]
    assert ab.verdict(noisy, [1.5] * 10, "lower", bound=0.25) == "unresolved"


def test_odd_pair_counts_are_an_argument_error(tmp_path, capsys):
    """With an odd count one side would run first once more than the other."""
    for pairs in ("3", "1", "0"):
        with pytest.raises(SystemExit) as excinfo:
            ab.main(["--parent", str(tmp_path), "--workload", "mix", "--pairs", pairs])
        assert excinfo.value.code == 2
        assert "--pairs must be even" in capsys.readouterr().err


def test_slot_medians_show_a_first_run_bias(tmp_path, monkeypatch, capsys):
    """A host that slows whichever run goes second: both sides read the
    same median, and only the slot line shows the bias."""
    calls = []

    def fake_run_once(checkout, command, args):
        calls.append(checkout)
        return {"wall_s": 1.0 if len(calls) % 2 else 1.1}

    monkeypatch.setattr(ab, "run_once", fake_run_once)
    status = ab.main(["--parent", str(tmp_path), "--workload", "mix", "--pairs", "4"])
    out = capsys.readouterr().out
    assert status == 0
    assert len(calls) == 8
    assert "slots wall_s: first run of a pair 1, second 1.1 (+10.0%)" in out
    assert "parent 1.05 [1, 1.1]  change 1.05 [1, 1.1]" in out


def test_both_checkouts_are_compiled_before_any_run(tmp_path, monkeypatch, capsys):
    """setup_s times imports from src, so a side with a bytecode cache would
    read faster for no change of its own: both sides compile first."""
    events = []

    def fake_subprocess_run(argv, cwd=None, **kwargs):
        events.append(("compile", Path(cwd), argv[1:]))
        return ab.subprocess.CompletedProcess(argv, 0, "", "")

    def fake_run_once(checkout, command, args):
        events.append(("run", checkout))
        return {"wall_s": 1.0}

    monkeypatch.setattr(ab.subprocess, "run", fake_subprocess_run)
    monkeypatch.setattr(ab, "run_once", fake_run_once)
    parent = tmp_path / "parent"
    parent.mkdir()
    status = ab.main(["--parent", str(parent), "--workload", "mix", "--pairs", "2"])
    assert status == 0
    compileall = ["-m", "compileall", "-q", "src"]
    assert events[:2] == [
        ("compile", parent.resolve(), compileall),
        ("compile", ab.ROOT, compileall),
    ]
    assert [kind for kind, *_ in events[2:]] == ["run"] * 4
    assert "bytecode: src compiled in both checkouts" in capsys.readouterr().out
