"""Solvability certificates: explicit constant chains and the ODE envelope.

Quantities such as the exponential moment constant grow doubly
exponentially in the structure constants, so the chain is evaluated in one
pass over logarithms: every constant is computed from its logarithm, and
each linear-scale field is the exponential of that logarithm, saturated to
0 or inf beyond doubles.  Overflow and underflow are *reported certificate
states*, never silent infinities: linear-scale fields carry the saturated
value together with a flag, and the logarithm is always available.

The chain (for declared constants ``C, gamma, alpha, xi_bound, T``):

* ``beta``: envelope rate from the power-growth Young estimate,
* ``mu1, mu2, mu``: coefficients of the quadratic-variation estimate,
* ``c_delta``: exponential moment constant for the canonical margin
  ``delta``,
* ``delta, eps``: canonical margin and certified window width,
* ``A``: the smaller root of ``delta*A^2 - (1 + 4*k*delta)*A + 4*k +
  4*m*eps = 0`` with ``k = gamma^-2 * exp(gamma*xi_bound)``; the fixed-point
  ball radius is ``sqrt(A)`` capped by the exponential-transform ceiling.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import dsl
from .core import row_norm
from .errors import InfeasibleCertificate, InvalidInput
from .scenario import FORM_SPLIT_LIPSCHITZ, ScenarioSpec

__all__ = [
    "ode_bound",
    "ConstantChain",
    "build_chain",
    "Certificate",
    "certify",
]

_LOG_MAX = math.log(np.finfo(np.float64).max)  # ~709.78
_LARGE_VALUE = 1e12  # report-as-large threshold for linear-scale constants
_SPOT_SAMPLES = 256  # random driver evaluations per spot check
_SPOT_SEED = 0


def _exp(log_value: float) -> float:
    """exp saturated to inf above the double range (and 0.0 below it)."""
    return math.inf if log_value > _LOG_MAX else math.exp(log_value)


def _check_params(C: float, gamma: float, alpha: float) -> None:
    if C < 0.0:
        raise InvalidInput("C must be >= 0")
    if not (gamma > 0.0):
        raise InvalidInput("gamma must be positive")
    if not (0.0 <= alpha < 1.0):
        raise InvalidInput("alpha must lie in [0, 1)")


def _spread(C: float, gamma: float, alpha: float, xi_bound: float, T: float) -> float:
    """The terminal spread ``3*exp(C*T)*gamma*xi_bound/(1-alpha)`` in the
    exponent of the mass constant ``m``: 0 for ``xi_bound = 0``, even where
    ``exp(C*T)`` leaves doubles."""
    if xi_bound == 0.0:
        return 0.0
    return _exp(math.log(3.0 / (1.0 - alpha)) + C * T + math.log(gamma) + math.log(xi_bound))


# ---------------------------------------------------------------------------
# Canonical chain
# ---------------------------------------------------------------------------

BRANCH_LIPSCHITZ = "lipschitz-term"
BRANCH_MASS = "mass-term"
BRANCH_HORIZON = "horizon-cap"


@dataclass(frozen=True)
class ConstantChain:
    """Full record of the certificate constant chain, log-safe."""

    C: float
    gamma: float
    alpha: float
    xi_bound: float
    T: float
    beta: float
    mu1: float
    mu2: float
    mu: float
    delta: float              # linear scale; 0.0 on underflow
    log_delta: float
    k: float                  # linear scale; inf on overflow
    log_k: float
    log_c_delta: float
    c_delta: float            # math.inf when overflowed
    c_delta_overflow: bool
    c_delta_large: bool
    log_m: float              # -inf when mu == 0
    eps: float                # linear scale; 0.0 on underflow
    log_eps: float
    eps_branch: str
    eps_underflow: bool
    m_eps: float              # m * eps, as r * k with r = m*eps/k
    Delta: float
    sqrt_Delta: float
    A: float
    one_minus_delta_A: float          # direct evaluation 1 - delta*A
    one_minus_delta_A_closed: float   # (1 + 2*sqrt(Delta)) / 4
    A_ceiling: float                  # 6 * k
    root_residual: float              # relative residual of k + m*eps/(1-delta*A) = A/4

    def as_dict(self) -> dict:
        return asdict(self)


def build_chain(
    C: float, gamma: float, alpha: float, xi_bound: float, T: float
) -> ConstantChain:
    """Evaluate the whole constant chain for one parameter tuple.

    The window width is the minimum of the Lipschitz term
    ``exp(-C*T)/(3C)``, the mass term ``k / (8*m)`` with
    ``m = mu * c_delta * exp(3*exp(C*T)*gamma*xi/(1-alpha))``, and the
    horizon ``T`` itself.  Every constant is taken as a logarithm, so the
    chain holds at any scale, and the root is solved through the ratio
    ``r = m*eps/k`` (:func:`_solve_root`), which is ``1/8`` exactly where
    the mass term binds.  Without a growth constant (``C = 0``) there is
    no moment exponent and no mass term.
    """
    _check_params(C, gamma, alpha)
    if xi_bound < 0.0:
        raise InvalidInput("xi_bound must be >= 0")
    if not (T > 0.0):
        raise InvalidInput("T must be positive")

    p, q = 2.0 / (1.0 - alpha), (1.0 + alpha) / (1.0 - alpha)
    log_C = math.log(C) if C > 0.0 else -math.inf
    log_gamma, log_T = math.log(gamma), math.log(T)

    # beta = (1-alpha)/2 * C^p * (2(1+alpha))^q; mu1 = (1-alpha)*c and
    # mu2 = (1+alpha)/2 * c with c = 1 + (1-alpha)/((1+alpha)*gamma);
    # mu = (beta + C*mu1) * gamma^-p + 2*C*mu2
    log_beta = math.log(0.5 * (1.0 - alpha)) + p * log_C + q * math.log(2.0 * (1.0 + alpha))
    log_c = float(np.logaddexp(0.0, math.log((1.0 - alpha) / (1.0 + alpha)) - log_gamma))
    log_mu = float(np.logaddexp(
        np.logaddexp(log_beta, log_C + math.log(1.0 - alpha) + log_c) - p * log_gamma,
        log_C + math.log(1.0 + alpha) + log_c,
    ))

    # delta = gamma^2 exp(-gamma*xi) / 8 and k = exp(gamma*xi) / gamma^2, so
    # delta*k = 1/8; the margin is squared from its root, which keeps it
    # exact where it is a power of two
    log_k = gamma * xi_bound - 2.0 * log_gamma
    log_delta = math.log(0.125) - log_k
    root_delta = gamma * math.exp(-0.5 * gamma * xi_bound)
    delta, k = root_delta * root_delta / 8.0, _exp(log_k)

    if C > 0.0:
        # log c_delta = 2T*b + (1-alpha)/2 * b^p * ((1+alpha)/(2 delta))^q * T
        # with b = 3/(1-alpha) * gamma * C * exp(C*T), whose log is summed
        # exactly: p amplifies its rounding
        log_b = math.fsum((math.log(3.0 / (1.0 - alpha)), log_gamma, log_C, C * T))
        log_c_delta = _exp(math.log(2.0) + log_b + log_T) + _exp(
            math.log(0.5 * (1.0 - alpha))
            + p * log_b
            + q * (math.log(0.5 * (1.0 + alpha)) - log_delta)
            + log_T
        )
        log_m = log_mu + log_c_delta + _spread(C, gamma, alpha, xi_bound, T)
    else:
        log_c_delta, log_m = 0.0, -math.inf
    c_delta = _exp(log_c_delta)

    # a moment constant beyond any floating scale makes the mass term bind;
    # it wins ties, so an underflow of both terms leaves r = 1/8 below
    log_mass = -math.inf if log_m == math.inf else log_k - math.log(8.0) - log_m
    log_eps, branch = min(
        (log_mass, BRANCH_MASS),
        (-C * T - math.log(3.0) - log_C, BRANCH_LIPSCHITZ),
        (log_T, BRANCH_HORIZON),
        key=lambda candidate: candidate[0],
    )
    # exp(log(T)) can land one ulp above T; the horizon branch is T itself
    eps = T if branch == BRANCH_HORIZON else _exp(log_eps)
    # r = m*eps/k = eps/(8 * mass term): exactly 1/8 where the mass term binds
    r = 0.125 if branch == BRANCH_MASS else 0.125 * _exp(log_eps - log_mass)
    Delta, sqrt_Delta, A, one_direct, one_closed, residual = _solve_root(r, delta, k)

    return ConstantChain(
        C=C,
        gamma=gamma,
        alpha=alpha,
        xi_bound=xi_bound,
        T=T,
        beta=_exp(log_beta),
        mu1=_exp(math.log(1.0 - alpha) + log_c),
        mu2=_exp(math.log(0.5 * (1.0 + alpha)) + log_c),
        mu=_exp(log_mu),
        delta=delta,
        log_delta=log_delta,
        k=k,
        log_k=log_k,
        log_c_delta=log_c_delta,
        c_delta=c_delta,
        c_delta_overflow=c_delta == math.inf,
        c_delta_large=c_delta > _LARGE_VALUE,
        log_m=log_m,
        eps=eps,
        log_eps=log_eps,
        eps_branch=branch,
        eps_underflow=eps == 0.0,
        m_eps=r * k if r else 0.0,  # no mass term: 0, even where k is inf
        Delta=Delta,
        sqrt_Delta=sqrt_Delta,
        A=A,
        one_minus_delta_A=one_direct,
        one_minus_delta_A_closed=one_closed,
        A_ceiling=6.0 * k,
        root_residual=residual,
    )


def _solve_root(r: float, delta: float, k: float):
    """Smaller root ``A`` of the margin quadratic, through the ratio
    ``r = m*eps/k``.

    The canonical margin has ``delta*k = 1/8``, so the quadratic is
    ``delta*A^2 - (3/2)*A + 4*k*(1 + r) = 0``, its discriminant is
    ``Delta = 1/4 - 2*r`` and ``A = 4*k*(3/2 - sqrt(Delta))``; the slack
    ``1 - delta*A`` is ``(1 + 2*sqrt(Delta))/4`` in closed form.  A window
    no wider than the certified one has ``r <= 1/8``; a wider one has a
    negative discriminant and is refused.  Where ``delta*A`` leaves the
    double range (0 times inf), the direct slack is the closed one.  The
    residual of ``k + m*eps/(1 - delta*A) = A/4`` is taken relative to
    ``A/4``, divided through by ``k``.
    """
    Delta = 0.25 - 2.0 * r
    if Delta < 0.0:
        raise InfeasibleCertificate(
            f"negative discriminant {Delta:.6g}; window exceeds the certified width"
        )
    sqrt_Delta = math.sqrt(Delta)
    A = 4.0 * k * (1.5 - sqrt_Delta)
    one_closed = 0.25 * (1.0 + 2.0 * sqrt_Delta)
    one_direct = 1.0 - delta * A
    if not math.isfinite(one_direct):
        one_direct = one_closed
    residual = abs(1.0 + r / one_direct - (1.5 - sqrt_Delta)) / (1.5 - sqrt_Delta)
    return Delta, sqrt_Delta, A, one_direct, one_closed, residual


# ---------------------------------------------------------------------------
# ODE envelope
# ---------------------------------------------------------------------------


def ode_bound(ctilde: float, T: float):
    """Closed-form envelope of ``a'(t) = -ctilde - 3*ctilde*a(t)``,
    ``a(T) = ctilde``:

        ``a(t) = -1/3 + (ctilde + 1/3) * exp(3*ctilde*(T - t))``

    Returns ``(alpha_fn, lam)`` where ``alpha_fn`` is vectorised over ``t``
    and ``lam = alpha_fn(0)`` bounds the squared state over the whole
    horizon."""
    if not (ctilde > 0.0):
        raise InvalidInput("ctilde must be positive")
    if not (T > 0.0):
        raise InvalidInput("T must be positive")
    coef = ctilde + 1.0 / 3.0

    def alpha_fn(t):
        t = np.asarray(t, dtype=np.float64)
        with np.errstate(over="ignore"):  # beyond doubles the envelope is inf
            return -1.0 / 3.0 + coef * np.exp(3.0 * ctilde * (T - t))

    lam = float(alpha_fn(0.0))
    return alpha_fn, lam


# ---------------------------------------------------------------------------
# Scenario-level certificate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Certificate:
    """Checkable record: constant chain, window widths, ball radius, flags.

    ``forms_asserted`` lists the structural hypotheses taken on the user's
    word; the growth/Lipschitz spot check samples the driver at random
    points and can only *refute* an assertion, never prove it.
    """

    scenario_name: str
    chain: ConstantChain
    ctilde: float
    lam: float
    log_eta: float            # certified stitching width at ball level sqrt(lam)
    eta: float
    ball_radius: float        # min(sqrt(A), exponential-transform ceiling)
    ball_radius_ceiling: float
    feasible_window: bool     # linear-scale eps is positive (no underflow)
    forms_asserted: tuple[str, ...]
    spot_check: dict | None = None

    def alpha_envelope(self, t):
        """The envelope ``alpha(t)`` of :func:`ode_bound` for ``ctilde`` on
        the certified horizon ``chain.T``, vectorised over ``t``."""
        alpha_fn, _ = ode_bound(self.ctilde, self.chain.T)
        return alpha_fn(t)

    def as_dict(self) -> dict:
        out = {
            "scenario": self.scenario_name,
            "chain": self.chain.as_dict(),
            "ctilde": self.ctilde,
            "lambda": self.lam,
            "eta": self.eta,
            "log_eta": self.log_eta,
            "ball_radius": self.ball_radius,
            "ball_radius_ceiling": self.ball_radius_ceiling,
            "feasible_window": self.feasible_window,
            "forms_asserted": list(self.forms_asserted),
            "spot_check": self.spot_check,
        }
        return out

    def report_text(self) -> str:
        ch = self.chain
        lines = [
            f"certificate for scenario '{self.scenario_name}'",
            f"  declared constants: C={ch.C:g} gamma={ch.gamma:g} "
            f"alpha={ch.alpha:g} |xi|={ch.xi_bound:g} T={ch.T:g}",
            f"  envelope rate beta            = {ch.beta:.12g}",
            f"  variation coefficients mu1/mu2 = {ch.mu1:.12g} / {ch.mu2:.12g}",
            f"  aggregate mu                  = {ch.mu:.12g}",
            f"  margin delta                  = {ch.delta:.12g}",
            f"  moment constant log(c_delta)  = {ch.log_c_delta:.12g}"
            + ("  [overflows doubles]" if ch.c_delta_overflow else
               ("  [large]" if ch.c_delta_large else f"  (= {ch.c_delta:.6g})")),
            f"  window width eps              = {ch.eps:.12g}"
            + f"  (log {ch.log_eps:.6g}, binding: {ch.eps_branch})"
            + ("  [underflows doubles]" if ch.eps_underflow else ""),
            f"  discriminant Delta            = {ch.Delta:.12g}",
            f"  quadratic root A              = {ch.A:.12g} (ceiling {ch.A_ceiling:.12g})",
            f"  root identity residual        = {ch.root_residual:.3e}",
            f"  ODE envelope ctilde           = {self.ctilde:.12g}, lambda = {self.lam:.12g}",
            f"  stitching width eta           = {self.eta:.12g} (log {self.log_eta:.6g})",
            f"  fixed-point ball radius       = {self.ball_radius:.12g}"
            f" (transform ceiling {self.ball_radius_ceiling:.12g})",
            f"  structural forms asserted     : "
            + (", ".join(self.forms_asserted) if self.forms_asserted else "(none)")
            + "  [user assertions, not derived]",
        ]
        if self.spot_check is not None:
            sc = self.spot_check
            lines.append(
                "  growth spot check             : "
                f"{sc['growth_violations']}/{sc['samples']} violations, "
                f"max ratio {sc['growth_max_ratio']:.4g}  [spot-checked only]"
            )
            lines.append(
                "  Lipschitz spot check          : "
                f"{sc['lipschitz_violations']}/{sc['samples']} violations, "
                f"max ratio {sc['lipschitz_max_ratio']:.4g}  [spot-checked only]"
            )
            lines.append(
                "  terminal bound spot check     : "
                f"fraction beyond declared bound {sc['terminal_exceed_fraction']:.4g}"
            )
        return "\n".join(lines)


def _ball_radius(chain: ConstantChain) -> tuple[float, float]:
    """Radius ``min(sqrt(A), ceiling)`` where the ceiling solves the
    exponential-transform budget ``phi(r) <= c_delta / (1 - delta*A)`` i.e.
    ``r <= (1-alpha)/(2 gamma) * (log c_delta + 3 e^{CT} gamma xi/(1-alpha)
    - log(1 - delta A))`` on the log scale."""
    base = math.sqrt(chain.A)
    budget = chain.log_c_delta + _spread(chain.C, chain.gamma, chain.alpha, chain.xi_bound, chain.T)
    ceiling = (1.0 - chain.alpha) / (2.0 * chain.gamma) * max(
        budget - math.log(chain.one_minus_delta_A), 0.0
    )
    if ceiling <= 0.0:
        ceiling = base
    return min(base, ceiling), ceiling


def certify(scenario: ScenarioSpec) -> Certificate:
    """Build the full certificate for a scenario.

    Everything derivable from the declared constants is computed; the
    structural form flags remain user assertions and are reported as such.
    A quick random spot check (256 draws at a fixed seed) compares the
    driver against the declared growth envelope and Lipschitz display of
    its structural form, at one point and at a pair of points, and
    estimates the terminal-bound exceedance mass.
    """
    chain = build_chain(
        scenario.C, scenario.gamma, scenario.alpha, scenario.xi_bound, scenario.T
    )
    ctilde = scenario.ctilde_effective()
    _, lam = ode_bound(ctilde, scenario.T)

    eta_chain = build_chain(
        scenario.C, scenario.gamma, scenario.alpha, math.sqrt(lam), scenario.T
    )
    radius, ceiling = _ball_radius(chain)

    spot = _spot_check(scenario, _SPOT_SAMPLES, _SPOT_SEED)

    return Certificate(
        scenario_name=scenario.name,
        chain=chain,
        ctilde=ctilde,
        lam=lam,
        log_eta=eta_chain.log_eps,
        eta=eta_chain.eps,
        ball_radius=radius,
        ball_radius_ceiling=ceiling,
        feasible_window=not chain.eps_underflow,
        forms_asserted=tuple(sorted(scenario.forms)),
        spot_check=spot,
    )


def _spot_check(scenario: ScenarioSpec, samples: int, seed: int) -> dict:
    """Sample the declared growth/Lipschitz displays for the scenario's
    structural form.  A violation here refutes the declared constants; a
    clean run proves nothing, hence the 'spot-checked' status.  A display
    is one ``(value, bound)`` pair per generator, and a sample's ratio is
    the largest ``value / max(bound, 1e-300)`` over its pairs, so a zero
    bound refutes any nonzero value."""
    rng = np.random.default_rng(seed)
    n, d = scenario.n, scenario.d
    C, gamma, alpha = scenario.C, scenario.gamma, scenario.alpha

    def draw():
        return (
            rng.uniform(0.0, scenario.T, samples),
            rng.uniform(-3.0, 3.0, (samples, n)),
            rng.uniform(-3.0, 3.0, (samples, n)),
            rng.uniform(-3.0, 3.0, (samples, d, n)),
            rng.uniform(-3.0, 3.0, (samples, d, n)),
        )

    def norm(a):
        return row_norm(a.reshape(samples, -1))[:, 0]

    def ev(gen, y, ybar, z, zbar):
        return dsl.evaluate(gen, s, y, ybar, z, zbar, n=n, d=d)

    s, y, ybar, z, zbar = draw()
    # the Lipschitz displays have no time term: the second point keeps s
    _, y2, ybar2, z2, zbar2 = draw()
    ny, nyb, nz, nzb = map(norm, (y, ybar, z, zbar))
    nz2, nzb2 = norm(z2), norm(zbar2)
    dy, dyb, dz, dzb = norm(y - y2), norm(ybar - ybar2), norm(z - z2), norm(zbar - zbar2)
    generators = scenario.generators()
    at_p = [ev(g, y, ybar, z, zbar) for g in generators]

    if not scenario.is_split:
        with np.errstate(over="ignore"):  # beyond doubles the bound is inf
            growth_bound = C * (2.0 + ny + nyb + nzb ** (1.0 + alpha)) + 0.5 * gamma * nz**2
        growth = [(norm(at_p[0]), growth_bound)]
        lip_bounds = [
            C * (dy + dyb + (1.0 + nzb**alpha + nzb2**alpha) * dzb + (1.0 + nz + nz2) * dz)
        ]
    else:
        f1, f2 = generators
        origin_y, origin_z = np.zeros_like(y), np.zeros_like(z)
        if FORM_SPLIT_LIPSCHITZ in scenario.forms:
            # boundedness at the origin; f1 Lipschitz in every slot
            f1_value = ev(f1, origin_y, origin_y, origin_z, origin_z)
            lip1_bound = C * (dy + dyb + dz + dzb)
        else:
            # quadratic-in-z first part: bounded in (y, ybar, zbar) at z = 0
            f1_value = ev(f1, y, ybar, origin_z, zbar)
            lip1_bound = C * (dy + dyb + dzb + (1.0 + nz + nz2) * dz)
        growth = [(norm(f1_value), C), (norm(ev(f2, origin_y, origin_y, origin_z, origin_z)), C)]
        lip_bounds = [lip1_bound, C * (dy + dyb + (1.0 + nz + nz2 + nzb + nzb2) * (dz + dzb))]
    lipschitz = [
        (norm(value - ev(g, y2, ybar2, z2, zbar2)), bound)
        for g, value, bound in zip(generators, at_p, lip_bounds)
    ]

    out = {"samples": samples}
    for name, display in (("growth", growth), ("lipschitz", lipschitz)):
        ratio = np.max([value / np.maximum(bound, 1e-300) for value, bound in display], axis=0)
        out[f"{name}_violations"] = int(np.sum(ratio > 1.0 + 1e-9))
        out[f"{name}_max_ratio"] = float(np.max(ratio))

    w = rng.standard_normal((4096, d)) * math.sqrt(scenario.T)
    xi = scenario.terminal_values(w)
    out["terminal_exceed_fraction"] = float(
        np.mean(row_norm(xi) > scenario.xi_bound * (1.0 + 1e-12))
    )
    out["status"] = "spot-checked"
    return out
