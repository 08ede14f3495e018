"""Constant chain, window widths, root identities, ODE envelope.

The point values below were frozen from independent evaluation of the
displayed formulas (symbolic simplification where possible, otherwise
high-precision arithmetic), so regressions in the chained code paths
cannot hide behind shared bugs.
"""

import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mfbsde import dsl
from mfbsde.certificates import (
    BRANCH_HORIZON,
    BRANCH_MASS,
    _ball_radius,
    _solve_root,
    build_chain,
    certify,
    ode_bound,
)
from mfbsde.config import load_config
from mfbsde.errors import InfeasibleCertificate, InvalidInput
from mfbsde.scenario import (
    FORM_SPLIT_LIPSCHITZ,
    ScenarioSpec,
    example_21,
    example_22,
    example_41,
    linear_scenario,
)

E = math.e
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


# ---------------------------------------------------------------------------
# frozen point values
# ---------------------------------------------------------------------------


def _beta(C, alpha):
    return build_chain(C, 1.0, alpha, 0.0, 1.0).beta


def test_beta_frozen_values():
    assert _beta(1.0, 0.0) == pytest.approx(1.0, rel=1e-15)
    # 0.5*0.5*1*(2*1.5)^3 = 27/4 at alpha = 1/2
    assert _beta(1.0, 0.5) == pytest.approx(6.75, rel=1e-12)
    assert _beta(0.0, 0.7) == 0.0


def test_beta_rejects_alpha_one():
    with pytest.raises(InvalidInput):
        _beta(1.0, 1.0)
    with pytest.raises(InvalidInput):
        _beta(1.0, -0.1)


def test_mu_pair_frozen_values():
    for gamma, pair in [(1.0, (2.0, 1.0)), (2.0, (1.5, 0.75))]:
        ch = build_chain(1.0, gamma, 0.0, 0.0, 1.0)
        assert (ch.mu1, ch.mu2) == pytest.approx(pair, rel=1e-15)


def _mu(C, gamma, alpha):
    return build_chain(C, gamma, alpha, 0.0, 1.0).mu


def test_mu_aggregate_frozen_values():
    # C=1, gamma=1, alpha=0: (beta + C*mu1)*gamma^-2 + 2*C*mu2 = 3 + 2
    assert _mu(1.0, 1.0, 0.0) == pytest.approx(5.0, rel=1e-14)
    # C=1, gamma=2, alpha=0: (1 + 1.5)/4 + 1.5
    assert _mu(1.0, 2.0, 0.0) == pytest.approx(2.125, rel=1e-14)


def test_moment_exponent_frozen_value():
    # C=gamma=T=1, alpha=0, xi=0, so delta=1/8: 6e + (1/2)(3e)^2 (1/2)/(1/8)
    got = build_chain(1.0, 1.0, 0.0, 0.0, 1.0).log_c_delta
    assert got == pytest.approx(6 * E + 18 * E * E, rel=1e-14)
    assert got == pytest.approx(149.312700751506, rel=1e-12)


def test_moment_constant_degenerate_generator():
    # C = 0 kills both exponent terms; the constant itself is exp(0) = 1
    ch = build_chain(0.0, 1.0, 0.3, 0.0, 2.0)
    assert ch.log_c_delta == 0.0
    assert ch.c_delta == 1.0


def test_canonical_margin_and_mass():
    # gamma=2, xi=0: delta = 4/8 exactly, k = 1/4 exactly
    chain = build_chain(1.0, 2.0, 0.0, 0.0, 1.0)
    assert chain.delta == 0.5
    assert chain.k == 0.25
    assert chain.delta * chain.k == pytest.approx(0.125, rel=0, abs=0)


def test_quadratic_root_frozen_value():
    # C=0 has no mass term (m*eps = 0), which decouples the quadratic:
    # delta=1/2, k=1/4, Delta=(1-4k*delta)^2=1/4, A=1
    ch = build_chain(0.0, 2.0, 0.0, 0.0, 1.0)
    assert ch.m_eps == 0.0
    assert ch.Delta == pytest.approx(0.25, rel=1e-15)
    assert ch.A == pytest.approx(1.0, rel=1e-15)


def test_solve_A_refuses_oversized_window():
    # m*eps far above k/8 (a window wider than the certified one): the
    # discriminant 1/4 - 2*m*eps/k is negative
    with pytest.raises(InfeasibleCertificate):
        _solve_root(50.0 / 0.25, 0.5, 0.25)


def test_ode_envelope_frozen_value():
    alpha_fn, lam = ode_bound(1.0, 1.0)
    assert lam == pytest.approx(26.447382564250224, rel=1e-12)
    # terminal value equals the driving constant
    assert float(alpha_fn(1.0)) == pytest.approx(1.0, rel=1e-14)
    # monotone decreasing towards the horizon
    t = np.linspace(0.0, 1.0, 11)
    vals = alpha_fn(t)
    assert np.all(np.diff(vals) < 0)
    assert float(alpha_fn(0.0)) == lam


# ---------------------------------------------------------------------------
# chain identities (property tests)
# ---------------------------------------------------------------------------

moderate = dict(min_value=0.0, max_value=2.0, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(
    C=st.floats(**moderate),
    gamma=st.floats(min_value=0.5, max_value=4.0),
    alpha=st.floats(min_value=0.0, max_value=0.9),
    xi=st.floats(min_value=0.0, max_value=1.0),
    T=st.floats(min_value=0.25, max_value=2.0),
)
# horizon branch: exp(log(T)) is one ulp above T here
@example(C=0.0, gamma=1.0, alpha=0.0, xi=0.0, T=0.36328125)
def test_chain_identities_moderate_regime(C, gamma, alpha, xi, T):
    ch = build_chain(C, gamma, alpha, xi, T)
    assert ch.Delta >= 0.0
    # the width may legitimately underflow (the moment constant explodes
    # for alpha near one), but it is never negative and never beyond T
    assert 0.0 <= ch.eps <= T
    # closed form of the slack: 1 - delta*A = (1 + 2*sqrt(Delta))/4
    assert ch.one_minus_delta_A == pytest.approx(
        ch.one_minus_delta_A_closed, rel=0, abs=1e-12
    )
    # the root actually solves k + m*eps/(1 - delta*A) = A/4
    assert ch.root_residual <= 1e-10
    # and never exceeds its ceiling 6k
    assert ch.A <= ch.A_ceiling * (1.0 + 1e-12)


@settings(max_examples=100, deadline=None)
@given(
    xi1=st.floats(min_value=0.0, max_value=3.0),
    xi2=st.floats(min_value=0.0, max_value=3.0),
)
def test_window_width_nonincreasing_in_terminal_bound(xi1, xi2):
    lo, hi = sorted((xi1, xi2))
    a = build_chain(0.5, 1.0, 0.2, lo, 1.0)
    b = build_chain(0.5, 1.0, 0.2, hi, 1.0)
    assert b.eps <= a.eps * (1.0 + 1e-12)


def test_width_capped_by_horizon():
    # C = 0 removes the Lipschitz and mass terms; the horizon binds
    ch = build_chain(0.0, 1.0, 0.0, 0.5, 0.75)
    assert ch.eps == 0.75
    assert ch.eps_branch == BRANCH_HORIZON


# ---------------------------------------------------------------------------
# log-scale saturation
# ---------------------------------------------------------------------------


def test_chain_survives_huge_terminal_bound():
    # gamma*xi = 1e11: every linear-scale constant saturates, the chain
    # stays finite in logs and the root identities hold exactly
    ch = build_chain(1.0, 1.0, 0.0, 1e11, 1.0)
    assert ch.delta == 0.0 and ch.eps == 0.0
    assert ch.eps_underflow
    assert math.isinf(ch.k) and ch.log_k == pytest.approx(1e11)
    assert ch.Delta == 0.0
    assert math.isinf(ch.A)
    assert ch.one_minus_delta_A == 0.25
    assert ch.root_residual == 0.0


def test_chain_degenerate_driver_extreme_bound():
    # C = 0 with a huge bound: mass term vanishes, Delta = 1/4 exactly
    ch = build_chain(0.0, 1.0, 0.0, 1e6, 2.0)
    assert ch.Delta == 0.25
    assert ch.one_minus_delta_A == 0.5
    assert ch.root_residual == 0.0


def test_moment_constant_overflow_flagged():
    ch = build_chain(0.25, 1.0, 0.5, 0.5, 0.5)
    # the power-growth instance pushes log(c_delta) past double range
    assert ch.c_delta_overflow
    assert math.isinf(ch.c_delta)
    assert math.isfinite(ch.log_c_delta)
    assert ch.eps_underflow and ch.eps == 0.0


@pytest.mark.parametrize(
    "C, gamma, T, log_m, log_eps",
    [
        (0.2, 0.4, 1e5, math.inf, -math.inf),
        (1e300, 0.4, 1.0, math.inf, -math.inf),
        # mu is about exp(1381.55) and k about exp(921.03): the window is a
        # normal double (values checked with mpmath at 50 digits)
        (1.0, 1e-200, 1.0, 1514.5540655771791, -595.59946992124068),
    ],
    ids=["exp(C*T)", "C^2", "gamma^-2"],
)
def test_chain_takes_out_of_range_powers_in_log_space(C, gamma, T, log_m, log_eps):
    # each case puts one power of the chain beyond doubles: the chain is
    # still built, and reports the window its logarithms give, an
    # underflowed one where the spread exp(C*T) leaves doubles
    ch = build_chain(C, gamma, 0.0, 1.0, T)
    assert ch.log_m == pytest.approx(log_m, rel=1e-12)
    assert ch.log_eps == pytest.approx(log_eps, rel=1e-12)
    assert ch.eps_underflow == (log_eps == -math.inf) == (ch.eps == 0.0)
    assert ch.eps_branch == BRANCH_MASS


def test_chain_takes_an_underflowed_moment_base_in_log_space():
    # (3/(1-alpha)) gamma C exp(C T) underflows to 0: its logarithm is taken
    # term by term, and mu * c_delta, about exp(1381.55), sets a window of
    # 1/8 (values checked with mpmath at 50 digits)
    ch = build_chain(1e-300, 1e-300, 0.0, 1.0, 1.0)
    assert ch.log_c_delta == 0.0 and ch.c_delta == 1.0 and not ch.c_delta_overflow
    assert ch.log_m == pytest.approx(1381.5510557964274, rel=1e-12)
    assert ch.log_eps == pytest.approx(-2.0794415416798359, rel=1e-12)
    assert ch.eps == pytest.approx(0.125, rel=1e-12)
    assert ch.eps_branch == BRANCH_MASS and not ch.eps_underflow


def test_ode_envelope_overflows_to_inf_without_a_warning():
    # exp(3 ctilde T) beyond doubles: the envelope is inf, quietly
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alpha_fn, lam = ode_bound(5.0, 1e5)
        assert lam == math.inf
        assert np.isinf(alpha_fn(np.array([0.0, 1.0]))).all()
        assert float(alpha_fn(1e5)) == 5.0


def test_out_of_range_powers_saturate():
    assert _beta(1e300, 0.0) == math.inf
    assert _mu(1.0, 1e-200, 0.0) == math.inf
    # a vanishing lead factor stays zero however large its scale
    assert _mu(0.0, 1e-200, 0.0) == 0.0


log_uniform = st.floats(min_value=-300.0, max_value=300.0).map(lambda e: 10.0**e)


@settings(max_examples=300, deadline=None)
@given(
    C=st.one_of(st.just(0.0), log_uniform),
    gamma=log_uniform,
    alpha=st.floats(min_value=0.0, max_value=0.9),
    xi=st.floats(min_value=0.0, max_value=1e11),
    T=st.floats(min_value=1e-3, max_value=1e5),
)
# mu saturates to inf here, while the window is a normal double
@example(C=1.0, gamma=1e-200, alpha=0.0, xi=1.0, T=1.0)
# C*T beyond doubles: both the Lipschitz and the mass term underflow
@example(C=1e300, gamma=1.0, alpha=0.0, xi=0.0, T=1e10)
def test_chain_holds_at_any_scale(C, gamma, alpha, xi, T):
    ch = build_chain(C, gamma, alpha, xi, T)
    assert not [k for k, v in ch.as_dict().items() if isinstance(v, float) and math.isnan(v)]
    assert ch.eps_underflow == (ch.eps == 0.0)
    assert ch.eps <= T
    if ch.eps >= sys.float_info.min:
        assert ch.log_eps == pytest.approx(math.log(ch.eps), rel=1e-12, abs=1e-12)
    if C > 0.0 and math.isfinite(ch.log_c_delta) and C * T <= 690.0 and gamma * xi <= 700.0:
        assert math.isfinite(ch.log_m) and math.isfinite(ch.log_eps)


def test_chain_dict_keeps_its_flags_boolean():
    d = certify(example_22()).chain.as_dict()
    assert d["c_delta_overflow"] is False
    assert d["c_delta_large"] is False
    assert d["eps_underflow"] is False
    assert build_chain(0.2, 0.4, 0.0, 1.0, 1e5).as_dict()["c_delta_overflow"] is True


# ---------------------------------------------------------------------------
# scenario-level certificates
# ---------------------------------------------------------------------------


def test_certify_time_dependent_example():
    cert = certify(example_22())
    assert cert.feasible_window
    assert cert.chain.eps > 0.0
    assert cert.ctilde == 5.0
    # envelope level for ctilde=5, T=1: -1/3 + (16/3)e^15
    assert cert.lam == pytest.approx(-1 / 3 + (16 / 3) * math.exp(15.0), rel=1e-12)
    assert cert.ball_radius > 0.0
    text = cert.report_text()
    assert "window width eps" in text
    assert "spot check" in text


def test_ball_radius_budget_keeps_the_terminal_spread_without_growth():
    # C = 0 still spreads the terminal bound: 3 e^{CT} gamma xi / (1 - alpha)
    # is 12 here, and the ceiling is half the budget, below sqrt(A)
    chain = build_chain(0.0, 1.0, 0.0, 4.0, 1.0)
    radius, ceiling = _ball_radius(chain)
    budget = chain.log_c_delta + 12.0 - math.log(chain.one_minus_delta_A)
    assert ceiling == pytest.approx(0.5 * budget, rel=1e-14)
    assert radius == ceiling == pytest.approx(6.346573590279973, rel=1e-12)
    assert math.sqrt(chain.A) == pytest.approx(14.778, abs=1e-3)


def test_certify_power_growth_reports_underflow():
    cert = certify(example_21(alpha=0.5, T=0.5, C=0.25, gamma=1.0))
    assert not cert.feasible_window
    assert cert.chain.eps_underflow
    assert math.isfinite(cert.chain.log_eps)
    assert "[underflows doubles]" in cert.report_text()


def test_certify_spot_check_refutes_undersized_constants():
    # the declared desk constants of the time-dependent example do not
    # envelope the driver; the spot check must say so rather than certify
    cert = certify(example_22())
    sc = cert.spot_check
    assert sc["status"] == "spot-checked"
    assert sc["growth_violations"] > 0
    assert sc["growth_max_ratio"] > 1.0


def test_certify_vector_example_within_declared_envelope():
    cert = certify(example_41())
    sc = cert.spot_check
    assert sc["growth_violations"] == 0
    assert sc["growth_max_ratio"] <= 1.0 + 1e-9
    # terminal components are sines/cosines: never beyond the declared bound
    assert sc["terminal_exceed_fraction"] == 0.0


def test_certify_unbounded_terminal_reports_tail_mass():
    cert = certify(linear_scenario(dbar=1.0, xi_bound=1.0))
    assert cert.spot_check["terminal_exceed_fraction"] > 0.1


def test_certificate_as_dict_round_trip():
    cert = certify(example_22())
    d = cert.as_dict()
    assert d["scenario"] == "ex2.2"
    assert d["chain"]["delta"] == cert.chain.delta
    assert isinstance(d["forms_asserted"], list)


# ---------------------------------------------------------------------------
# spot check: each form's displays from their definitions
# ---------------------------------------------------------------------------


def _scalar_scenario(forms, C, **generators):
    return ScenarioSpec(
        name="spot", n=1, d=1, T=1.0, terminal=dsl.parse("0", dsl.TERMINAL_VARS),
        C=C, gamma=1.0, alpha=0.0, xi_bound=1.0, forms=frozenset(forms),
        **{key: dsl.parse(text) for key, text in generators.items()},
    )


def _reference_spot_check(scenario):
    """The four spot-check numbers, from the displays as written: the
    growth display ``C(2 + |y| + |ybar| + |zbar|^(1+alpha)) + gamma/2
    |z|^2`` and the Lipschitz display of a single generator, and for a
    split pair each part's value against ``C`` and each part's Lipschitz
    bound, sample by sample, on the spot check's seed and draw order (two
    points, sharing the first point's time)."""
    P, n, d, T = 256, scenario.n, scenario.d, scenario.T
    C, gamma, alpha = scenario.C, scenario.gamma, scenario.alpha
    rng = np.random.default_rng(0)
    times, points = [], []
    for _ in range(2):
        times.append(rng.uniform(0.0, T, P))
        points.append([rng.uniform(-3.0, 3.0, shape)
                       for shape in ((P, n), (P, n), (P, d, n), (P, d, n))])
    # the Lipschitz displays have no time term: both points take the first time
    s = times[0]
    (y, yb, z, zb), (y2, yb2, z2, zb2) = points

    def size(a):
        return math.sqrt(float(np.sum(np.square(a))))

    def f(gen, i, y, yb, z, zb):
        return dsl.evaluate(gen, s[i], y, yb, z, zb, n=n, d=d)[0]

    growth, lipschitz = [], []
    for i in range(P):
        p, q = (y[i], yb[i], z[i], zb[i]), (y2[i], yb2[i], z2[i], zb2[i])
        dy, dyb, dz, dzb = (size(a - b) for a, b in zip(p, q))
        ny, nyb, nz, nzb = (size(a) for a in p)
        nz2, nzb2 = size(z2[i]), size(zb2[i])
        zero = (0.0 * y[i], 0.0 * yb[i], 0.0 * z[i], 0.0 * zb[i])
        if not scenario.is_split:
            g = scenario.f
            pairs_growth = [(size(f(g, i, *p)),
                             C * (2 + ny + nyb + nzb ** (1 + alpha)) + gamma / 2 * nz**2)]
            pairs_lip = [(size(f(g, i, *p) - f(g, i, *q)),
                          C * (dy + dyb + (1 + nzb**alpha + nzb2**alpha) * dzb
                               + (1 + nz + nz2) * dz))]
        else:
            f1, f2 = scenario.f1, scenario.f2
            if FORM_SPLIT_LIPSCHITZ in scenario.forms:
                f1_value = size(f(f1, i, *zero))
                lip1 = C * (dy + dyb + dz + dzb)
            else:
                f1_value = size(f(f1, i, y[i], yb[i], zero[2], zb[i]))
                lip1 = C * (dy + dyb + dzb + (1 + nz + nz2) * dz)
            pairs_growth = [(f1_value, C), (size(f(f2, i, *zero)), C)]
            pairs_lip = [(size(f(f1, i, *p) - f(f1, i, *q)), lip1),
                         (size(f(f2, i, *p) - f(f2, i, *q)),
                          C * (dy + dyb + (1 + nz + nz2 + nzb + nzb2) * (dz + dzb)))]
        growth.append(max(v / max(b, 1e-300) for v, b in pairs_growth))
        lipschitz.append(max(v / max(b, 1e-300) for v, b in pairs_lip))
    return {
        "growth_violations": sum(r > 1 + 1e-9 for r in growth),
        "growth_max_ratio": max(growth),
        "lipschitz_violations": sum(r > 1 + 1e-9 for r in lipschitz),
        "lipschitz_max_ratio": max(lipschitz),
    }


_SPOT_CASES = {
    **{name: lambda name=name: load_config(CONFIG_DIR / name)[0]
       for name in ("ex21.cfg", "ex22.cfg", "ex31.cfg", "ex41.cfg", "linear.cfg")},
    # both bounds are zero: the second part's Lipschitz value refutes C = 0
    "split-lip-C0": lambda: _scalar_scenario({"split-lip"}, 0.0, f1="0", f2="y"),
    # a driver that changes sign: |f(p) - f(q)| is not ||f(p)| - |f(q)||
    "sign-change": lambda: _scalar_scenario({"quad-growth"}, 1.0, f="3*y - 0.5*z"),
}


@pytest.mark.parametrize("case", sorted(_SPOT_CASES))
def test_spot_check_matches_the_displays_as_written(case):
    scenario = _SPOT_CASES[case]()
    got = certify(scenario).spot_check
    want = _reference_spot_check(scenario)
    for key in ("growth_violations", "lipschitz_violations"):
        assert got[key] == want[key], key
    for key in ("growth_max_ratio", "lipschitz_max_ratio"):
        assert got[key] == pytest.approx(want[key], rel=1e-12), key


def test_spot_check_shipped_config_figures():
    # the refutations ROADMAP item 4 quotes, and the linear driver's
    # Lipschitz ratio taken on |f(p) - f(q)|
    spot = {name: certify(load_config(CONFIG_DIR / name)[0]).spot_check
            for name in ("ex21.cfg", "ex22.cfg", "linear.cfg")}
    assert [spot[name]["lipschitz_violations"] for name in ("ex21.cfg", "ex22.cfg")] == [65, 68]
    assert [spot[name]["growth_violations"] for name in ("ex21.cfg", "ex22.cfg")] == [256, 256]
    assert spot["linear.cfg"]["lipschitz_max_ratio"] == pytest.approx(0.30438758488782214, rel=1e-12)


def test_spot_check_lipschitz_value_is_the_norm_of_the_difference():
    # a constant shift leaves f(p) - f(q) as it is; 3*y changes sign on the
    # sampled box, 3*y + 100 does not
    signed, shifted = (
        certify(_scalar_scenario({"quad-growth"}, 0.5, f=text)).spot_check
        for text in ("3*y", "3*y + 100")
    )
    assert signed["lipschitz_violations"] == shifted["lipschitz_violations"] > 0
    assert signed["lipschitz_max_ratio"] == pytest.approx(shifted["lipschitz_max_ratio"], rel=1e-12)


def test_spot_check_zero_bound_refutes_the_other_generator():
    # C = 0 with f1 = 0: the first part meets its zero bounds, and the
    # second part's nonzero Lipschitz value refutes C on every sample
    sc = certify(_scalar_scenario({"split-lip"}, 0.0, f1="0", f2="y")).spot_check
    assert (sc["growth_violations"], sc["growth_max_ratio"]) == (0, 0.0)
    assert sc["lipschitz_violations"] == 256
    assert sc["lipschitz_max_ratio"] > 1e300
