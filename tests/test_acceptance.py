"""Acceptance gate: every numbered criterion at its stated tolerance.

Each test runs one criterion end to end (full path counts, fixed seeds) and
prints the criterion's own one-line verdict so the run log shows the whole
scoreboard.  These are the slow tests in the suite; the per-criterion runtime
budgets are enforced by the criterion frame itself.
"""

import time

import pytest

from mfbsde import acceptance

# the yardstick: each criterion's runtime budget (seconds) and tolerances
YARDSTICK = {
    1: (1.0, {"c1_linear_identity": 1e-12, "c1_root_identity": 1e-10}),
    2: (1.0, {"c2_sup_error": 1e-8}),
    3: (60.0, {"c3_mean_y": 0.02, "c3_mean_z": 0.03}),
    4: (60.0, {"c4_mean_abs_y": 0.02}),
    5: (None, {"c5_extra_relative": 0.01}),
    6: (None, {"c6_violation_rate": 0.005}),
    7: (120.0, {"c7_mean_y": 0.02}),
    8: (None, {}),
    9: (None, {"c9_mean_ratio": 0.9}),
    10: (None, {}),
}


def test_yardstick_covers_every_criterion():
    assert sorted(YARDSTICK) == sorted(acceptance.CRITERIA)


@pytest.mark.parametrize(
    "cid, limit, tolerances",
    [pytest.param(cid, *YARDSTICK[cid], id=str(cid)) for cid in sorted(acceptance.CRITERIA)],
)
def test_criterion(cid, limit, tolerances, capsys):
    res = acceptance.run_criterion(cid)
    with capsys.disabled():
        print()
        print(res.line())
    assert (res.limit, res.tolerances) == (limit, tolerances)
    assert res.passed, res.line()


def test_tolerances_are_reported_constants(monkeypatch):
    # the yardstick cannot be moved from the environment; the result
    # reports each tolerance as {key: value}
    monkeypatch.setenv("MFBSDE_TOL_C1_LINEAR_IDENTITY", "1.0")
    res = acceptance.run_criterion(1)
    assert res.tolerances == {"c1_linear_identity": 1e-12, "c1_root_identity": 1e-10}
    assert res.as_dict()["tolerances"] == res.tolerances


def test_frame_fails_a_passing_check_that_overruns_its_budget(monkeypatch):
    monkeypatch.setattr(acceptance, "CRITERIA", dict(acceptance.CRITERIA))

    @acceptance._criterion(99, "slow but right", limit=0.01, t_ok=1.0)
    def criterion_99(t_ok):
        time.sleep(0.02)
        return True, {"t_ok": t_ok}

    res = acceptance.run_criterion(99)
    assert criterion_99.__name__ == "criterion_99"
    assert res.runtime >= 0.02 and res.limit == 0.01
    assert not res.passed and res.line().startswith("FAIL criterion 99: slow but right")
    assert res.details == {"t_ok": 1.0} and res.tolerances == {"t_ok": 1.0}
