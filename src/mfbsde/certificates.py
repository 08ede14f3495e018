"""Solvability certificates: explicit constant chains and the ODE envelope.

Quantities such as the exponential moment constant grow doubly
exponentially in the structure constants, so the chain is evaluated in log
space wherever overflow is possible.  Overflow and underflow are *reported
certificate states*, never silent infinities: linear-scale fields carry the
clipped value together with a flag, and the exact logarithm is always
available.

The chain (for declared constants ``C, gamma, alpha, xi_bound, T``):

* ``beta``: envelope rate from the power-growth Young estimate,
* ``mu1, mu2, mu``: coefficients of the quadratic-variation estimate,
* ``c_delta``: exponential moment constant for a chosen margin ``delta``,
* ``delta, eps``: canonical margin and certified window width,
* ``A``: the smaller root of ``delta*A^2 - (1 + 4*k*delta)*A + 4*k +
  4*m*eps = 0`` with ``k = gamma^-2 * exp(gamma*xi_bound)``; the fixed-point
  ball radius is ``sqrt(A)`` capped by the exponential-transform ceiling.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InfeasibleCertificate, InvalidInput
from .scenario import FORM_QUAD_GROWTH, FORM_SPLIT_LIPSCHITZ, ScenarioSpec

__all__ = [
    "beta_const",
    "mu_consts",
    "mu_const",
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


def _safe_exp(log_value: float) -> float:
    """exp with saturation: inf above the double range, 0.0 below it."""
    if log_value > _LOG_MAX:
        return math.inf
    if log_value < -745.0:
        return 0.0
    return math.exp(log_value)


def _check_params(C: float, gamma: float, alpha: float) -> None:
    if C < 0.0:
        raise InvalidInput("C must be >= 0")
    if not (gamma > 0.0):
        raise InvalidInput("gamma must be positive")
    if not (0.0 <= alpha < 1.0):
        raise InvalidInput("alpha must lie in [0, 1)")


def beta_const(C: float, alpha: float) -> float:
    """Envelope rate ``(1-alpha)/2 * C^(2/(1-alpha)) * (2(1+alpha))^((1+alpha)/(1-alpha))``."""
    _check_params(C, 1.0, alpha)
    if C == 0.0:
        return 0.0
    q = (1.0 + alpha) / (1.0 - alpha)
    try:
        return 0.5 * (1.0 - alpha) * C ** (2.0 / (1.0 - alpha)) * (2.0 * (1.0 + alpha)) ** q
    except OverflowError:  # a power beyond doubles: the product in log space
        return _safe_exp(
            math.log(0.5 * (1.0 - alpha))
            + (2.0 / (1.0 - alpha)) * math.log(C)
            + q * math.log(2.0 * (1.0 + alpha))
        )


def mu_consts(gamma: float, alpha: float) -> tuple[float, float]:
    """Pair ``(mu1, mu2)`` of quadratic-variation coefficients."""
    _check_params(0.0, gamma, alpha)
    common = 1.0 + (1.0 - alpha) / ((1.0 + alpha) * gamma)
    return (1.0 - alpha) * common, 0.5 * (1.0 + alpha) * common


def mu_const(
    C: float, gamma: float, alpha: float, beta: float, mu1: float, mu2: float
) -> float:
    """Aggregate constant ``(beta + C*mu1) * gamma^(2/(alpha-1)) + 2*C*mu2``."""
    _check_params(C, gamma, alpha)
    lead = beta + C * mu1
    try:
        lead *= gamma ** (2.0 / (alpha - 1.0))
    except OverflowError:  # gamma so small that its power leaves doubles
        log_lead = math.log(lead) if lead else -math.inf
        lead = _safe_exp(log_lead + (2.0 / (alpha - 1.0)) * math.log(gamma))
    return lead + 2.0 * C * mu2


def _log_c_delta(
    C: float, gamma: float, alpha: float, T: float, log_delta: float
) -> float:
    """Logarithm of the exponential-moment constant, with the margin passed
    in log scale so that margins below the double range stay computable.
    The second term is itself an exponential in ``-log_delta`` and is
    saturated to inf when it leaves the double range (the chain then
    reports an underflowed window)."""
    _check_params(C, gamma, alpha)
    if not (T > 0.0):
        raise InvalidInput("T must be positive")
    if C == 0.0:
        return 0.0
    try:
        e_ct = math.exp(C * T)
    except OverflowError:  # exp(C*T) beyond doubles: both terms in log space
        first = _safe_exp(math.log((6.0 / (1.0 - alpha)) * gamma * C * T) + C * T)
        log_base = math.log((3.0 / (1.0 - alpha)) * gamma * C) + C * T
    else:
        first = (6.0 / (1.0 - alpha)) * gamma * C * T * e_ct
        base = (3.0 / (1.0 - alpha)) * gamma * C * e_ct
        if base > 0.0:
            log_base = math.log(base)
        else:  # gamma * C below doubles: the product in log space
            log_base = math.log(3.0 / (1.0 - alpha)) + math.log(gamma) + math.log(C) + C * T
    q = (1.0 + alpha) / (1.0 - alpha)
    log_second = (
        math.log(0.5 * (1.0 - alpha))
        + (2.0 / (1.0 - alpha)) * log_base
        + q * (math.log(0.5 * (1.0 + alpha)) - log_delta)
        + math.log(T)
    )
    return first + _safe_exp(log_second)


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
    m_eps: float              # m * eps, computed branch-aware
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
    horizon ``T`` itself.  The product ``m*eps`` is reconstructed from the
    binding branch rather than from the (possibly underflowed) linear
    ``eps``, which keeps the discriminant identities exact even when the
    constants overflow doubles.
    """
    _check_params(C, gamma, alpha)
    if xi_bound < 0.0:
        raise InvalidInput("xi_bound must be >= 0")
    if not (T > 0.0):
        raise InvalidInput("T must be positive")

    beta = beta_const(C, alpha)
    mu1, mu2 = mu_consts(gamma, alpha)
    mu = mu_const(C, gamma, alpha, beta, mu1, mu2)

    log_delta = math.log(0.125) + 2.0 * math.log(gamma) - gamma * xi_bound
    log_k = gamma * xi_bound - 2.0 * math.log(gamma)
    if -700.0 < log_delta < 700.0:
        delta = 0.125 * gamma**2 * math.exp(-gamma * xi_bound)
        k = math.exp(gamma * xi_bound) / gamma**2
    else:
        delta = _safe_exp(log_delta)
        k = _safe_exp(log_k)

    log_cd = _log_c_delta(C, gamma, alpha, T, log_delta)
    cd_over = log_cd > _LOG_MAX
    cd = math.inf if cd_over else math.exp(log_cd)
    cd_large = cd_over or cd > _LARGE_VALUE

    if mu > 0.0:
        try:
            spread = 3.0 * math.exp(C * T) * gamma * xi_bound / (1.0 - alpha)
        except OverflowError:  # exp(C*T) beyond doubles
            log_coef = math.log(3.0 * gamma * xi_bound / (1.0 - alpha)) if xi_bound else -math.inf
            spread = _safe_exp(log_coef + C * T)
        log_m = math.log(mu) + log_cd + spread
    else:
        log_m = -math.inf

    log_term1 = (-C * T) - math.log(3.0 * C) if C > 0.0 else math.inf
    if log_m == math.inf:
        # moment constant beyond any floating scale: the mass term binds
        log_term2 = -math.inf
    elif math.isfinite(log_m):
        log_term2 = log_k - math.log(8.0) - log_m
    else:  # mu == 0, i.e. C == 0: no mass term at all
        log_term2 = math.inf
    log_T = math.log(T)

    candidates = [
        (log_term1, BRANCH_LIPSCHITZ),
        (log_term2, BRANCH_MASS),
        (log_T, BRANCH_HORIZON),
    ]
    log_eps, branch = min(candidates, key=lambda p: p[0])
    # exp(log(T)) can land one ulp above T; the horizon branch is T itself
    eps = T if branch == BRANCH_HORIZON else _safe_exp(log_eps)
    underflow = eps == 0.0

    if branch == BRANCH_MASS:
        # binding mass term: m*eps collapses to k/8 identically
        m_eps = k / 8.0
    elif not math.isfinite(log_m):
        m_eps = 0.0
    else:
        m_eps = _safe_exp(log_m + log_eps)

    if math.isfinite(k) and log_delta > -600.0:
        Delta, sqrtD, A, one_direct, one_closed, resid = _solve_root_canonical(
            delta, k, m_eps
        )
    elif branch == BRANCH_MASS:
        # extreme scale, saturated root: delta*k = 1/8 identically, so the
        # discriminant vanishes and the smaller root sits at the ceiling
        # A = 6k; the residual of k + m*eps/(1 - delta*A) = A/4 is zero by
        # the same identity
        Delta, sqrtD = 0.0, 0.0
        A = _safe_exp(math.log(6.0) + log_k)
        one_direct = one_closed = 0.25
        resid = 0.0
    else:
        # extreme scale with a vanished mass term: the quadratic reduces to
        # delta*A^2 - (3/2)*A + 4k = 0 with root A = 4k and 1 - delta*A = 1/2
        Delta, sqrtD = 0.25, 0.5
        A = _safe_exp(math.log(4.0) + log_k)
        one_direct = one_closed = 0.5
        resid = 0.0

    return ConstantChain(
        C=C,
        gamma=gamma,
        alpha=alpha,
        xi_bound=xi_bound,
        T=T,
        beta=beta,
        mu1=mu1,
        mu2=mu2,
        mu=mu,
        delta=delta,
        log_delta=log_delta,
        k=k,
        log_k=log_k,
        log_c_delta=log_cd,
        c_delta=cd,
        c_delta_overflow=cd_over,
        c_delta_large=cd_large,
        log_m=log_m,
        eps=eps,
        log_eps=log_eps,
        eps_branch=branch,
        eps_underflow=underflow,
        m_eps=m_eps,
        Delta=Delta,
        sqrt_Delta=sqrtD,
        A=A,
        one_minus_delta_A=one_direct,
        one_minus_delta_A_closed=one_closed,
        A_ceiling=6.0 * k,
        root_residual=resid,
    )


def _solve_root_canonical(delta: float, k: float, m_eps: float):
    """Smaller root of the margin quadratic for the canonical ``delta``.

    The canonical margin satisfies ``4*k*delta = 1/2`` exactly in real
    arithmetic, so ``Delta = 1/4 - 16*delta*m_eps`` and
    ``A = (3/2 - sqrt(Delta)) / (2*delta)``.  When the mass term binds,
    ``16*delta*m_eps`` equals ``2*delta*k = 1/4`` up to a couple of ulps;
    the tiny negative residue is clipped to the exact boundary value 0.
    """
    Delta = 0.25 - 16.0 * delta * m_eps
    if Delta < 0.0:
        if Delta > -1e-13:
            Delta = 0.0
        else:
            raise InfeasibleCertificate(
                f"negative discriminant {Delta:.6g}; window exceeds the certified width"
            )
    sqrtD = math.sqrt(Delta)
    A = (1.5 - sqrtD) / (2.0 * delta)
    one_direct = 1.0 - delta * A
    one_closed = 0.25 * (1.0 + 2.0 * sqrtD)
    resid = abs(k + m_eps / one_direct - 0.25 * A) / (0.25 * A)
    return Delta, sqrtD, A, one_direct, one_closed, resid


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
    budget = chain.log_c_delta
    if math.isfinite(chain.log_m) and chain.mu > 0.0:
        budget = chain.log_m - math.log(chain.mu)
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
    driver against the declared growth envelope and estimates the
    terminal-bound exceedance mass.
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
    clean run proves nothing, hence the 'spot-checked' status."""
    from . import dsl  # local import to keep module load light

    rng = np.random.default_rng(seed)
    n, d = scenario.n, scenario.d
    C = scenario.C

    def draw():
        return (
            rng.uniform(0.0, scenario.T, samples),
            rng.uniform(-3.0, 3.0, (samples, n)),
            rng.uniform(-3.0, 3.0, (samples, n)),
            rng.uniform(-3.0, 3.0, (samples, d, n)),
            rng.uniform(-3.0, 3.0, (samples, d, n)),
        )

    def norms(y, ybar, z, zbar):
        return (
            np.linalg.norm(y, axis=1),
            np.linalg.norm(ybar, axis=1),
            np.linalg.norm(z.reshape(samples, -1), axis=1),
            np.linalg.norm(zbar.reshape(samples, -1), axis=1),
        )

    def ev(gen, s, y, ybar, z, zbar):
        vals = dsl.evaluate(gen, s, y, ybar, z, zbar, n=n, d=d)
        return np.linalg.norm(vals, axis=1)

    s, y, ybar, z, zbar = draw()
    s2, y2, ybar2, z2, zbar2 = draw()
    ny, nyb, nz, nzb = norms(y, ybar, z, zbar)
    ny2, nyb2, nz2, nzb2 = norms(y2, ybar2, z2, zbar2)
    dy = np.linalg.norm(y - y2, axis=1)
    dyb = np.linalg.norm(ybar - ybar2, axis=1)
    dz = np.linalg.norm((z - z2).reshape(samples, -1), axis=1)
    dzb = np.linalg.norm((zbar - zbar2).reshape(samples, -1), axis=1)

    mag_vals = np.zeros(samples)
    mag_bounds = np.full(samples, np.inf)
    lip_vals = np.zeros(samples)
    lip_bounds = np.full(samples, np.inf)

    if not scenario.is_split:
        gen = scenario.generators()[0]
        mag_vals = ev(gen, s, y, ybar, z, zbar)
        mag_bounds = C * (2.0 + ny + nyb + nzb ** (1.0 + scenario.alpha)) + (
            0.5 * scenario.gamma * nz**2
        )
        lip_vals = np.abs(
            ev(gen, s, y, ybar, z, zbar) - ev(gen, s, y2, ybar2, z2, zbar2)
        )
        lip_bounds = C * (
            dy
            + dyb
            + (1.0 + nzb**scenario.alpha + nzb2**scenario.alpha) * dzb
            + (1.0 + nz + nz2) * dz
        )
    else:
        f1, f2 = scenario.generators()
        zeros_z = np.zeros_like(z)
        if FORM_SPLIT_LIPSCHITZ in scenario.forms:
            # boundedness at the origin; f1 Lipschitz in every slot
            origin_y = np.zeros_like(y)
            mag_vals = np.maximum(
                ev(f1, s, origin_y, origin_y, zeros_z, zeros_z),
                ev(f2, s, origin_y, origin_y, zeros_z, zeros_z),
            )
            mag_bounds = np.full(samples, C)
            lip1_bound = C * (dy + dyb + dz + dzb)
        else:
            # quadratic-in-z first part: bounded in (y, ybar, zbar) at z = 0
            mag_vals = np.maximum(
                ev(f1, s, y, ybar, zeros_z, zbar),
                ev(f2, s, np.zeros_like(y), np.zeros_like(y), zeros_z, zeros_z),
            )
            mag_bounds = np.full(samples, C)
            lip1_bound = C * (dy + dyb + dzb + (1.0 + nz + nz2) * dz)
        lip1 = np.abs(ev(f1, s, y, ybar, z, zbar) - ev(f1, s, y2, ybar2, z2, zbar2))
        lip2 = np.abs(ev(f2, s, y, ybar, z, zbar) - ev(f2, s, y2, ybar2, z2, zbar2))
        lip2_bound = C * (dy + dyb + (1.0 + nz + nz2 + nzb + nzb2) * (dz + dzb))
        # report the worse of the two quotients per sample
        q1 = np.where(lip1_bound > 0, lip1 / np.maximum(lip1_bound, 1e-300), 0.0)
        q2 = np.where(lip2_bound > 0, lip2 / np.maximum(lip2_bound, 1e-300), 0.0)
        worse = q1 >= q2
        lip_vals = np.where(worse, lip1, lip2)
        lip_bounds = np.where(worse, lip1_bound, lip2_bound)

    mag_ratio = mag_vals / np.maximum(mag_bounds, 1e-300)
    lip_ratio = lip_vals / np.maximum(lip_bounds, 1e-300)
    tol = 1.0 + 1e-9

    w = rng.standard_normal((4096, d)) * math.sqrt(scenario.T)
    xi = scenario.terminal_values(w)
    exceed = float(
        np.mean(np.linalg.norm(xi, axis=1) > scenario.xi_bound * (1.0 + 1e-12))
    )
    return {
        "samples": samples,
        "growth_violations": int(np.sum(mag_ratio > tol)),
        "growth_max_ratio": float(np.max(mag_ratio)),
        "lipschitz_violations": int(np.sum(lip_ratio > tol)),
        "lipschitz_max_ratio": float(np.max(lip_ratio)),
        "terminal_exceed_fraction": exceed,
        "status": "spot-checked",
    }
