"""Problem descriptions: generator(s), terminal condition, structural flags.

A :class:`ScenarioSpec` bundles everything a solver needs to know about one
problem instance: dimensions, horizon, driver expression(s), terminal
condition, declared structure constants, and the structural form flags that
record *user assertions* about which solvability regime the data sits in.
The flags are never derived automatically; certificates and reports mark
them as assertions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import dsl
from .errors import InvalidInput

__all__ = [
    "ScenarioSpec",
    "FORM_QUAD_GROWTH",
    "FORM_GLOBAL_ODE",
    "FORM_SPLIT_QUADRATIC",
    "FORM_SPLIT_LIPSCHITZ",
    "example_21",
    "example_22",
    "example_41",
    "linear_scenario",
]

# structural form flags (user assertions about the driver's shape)
FORM_QUAD_GROWTH = "quad-growth"       # bounded-data quadratic growth regime
FORM_GLOBAL_ODE = "global-ode"         # global regime with the ODE envelope
FORM_SPLIT_QUADRATIC = "split-quad"    # f1 + mean-shift f2, f1 quadratic in z
FORM_SPLIT_LIPSCHITZ = "split-lip"     # f1 + mean-shift f2, f1 Lipschitz in z

_ALL_FORMS = frozenset(
    {FORM_QUAD_GROWTH, FORM_GLOBAL_ODE, FORM_SPLIT_QUADRATIC, FORM_SPLIT_LIPSCHITZ}
)


def _check_alpha(alpha: float) -> None:
    if not (0.0 <= alpha < 1.0):
        raise InvalidInput("mean-integrand exponent alpha must lie in [0, 1)")


@dataclass(frozen=True)
class ScenarioSpec:
    """One solvable problem instance.

    Exactly one of ``f`` (single generator) or the pair ``f1``/``f2``
    (split generator with a mean shift) must be present.  ``xi_bound`` is the
    declared essential bound of the terminal condition; when
    ``terminal_clamp`` is set the terminal values are clipped to that level,
    and the clamp may not exceed the declared bound.
    """

    name: str
    n: int
    d: int
    T: float
    terminal: dsl.GeneratorExpr
    C: float
    gamma: float
    alpha: float
    xi_bound: float
    f: dsl.GeneratorExpr | None = None
    f1: dsl.GeneratorExpr | None = None
    f2: dsl.GeneratorExpr | None = None
    terminal_clamp: float | None = None
    ctilde: float | None = None
    forms: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self):
        for name in ("T", "C", "gamma", "xi_bound", "ctilde", "terminal_clamp"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise InvalidInput(f"{name} must be finite, not {value}")
        if self.n < 1 or self.d < 1:
            raise InvalidInput("dimensions n, d must be >= 1")
        if not (self.T > 0.0):
            raise InvalidInput("horizon T must be positive")
        if self.C < 0.0:
            raise InvalidInput("growth constant C must be >= 0")
        if not (self.gamma > 0.0):
            raise InvalidInput("quadratic coefficient gamma must be positive")
        _check_alpha(self.alpha)
        if self.xi_bound < 0.0:
            raise InvalidInput("xi_bound must be >= 0")
        if self.terminal_clamp is not None:
            if not (self.terminal_clamp > 0.0):
                raise InvalidInput("terminal_clamp must be positive")
            if self.terminal_clamp > self.xi_bound:
                raise InvalidInput(
                    "terminal_clamp exceeds the declared terminal bound"
                )
        if self.ctilde is not None and not (self.ctilde > 0.0):
            raise InvalidInput("ctilde must be positive")
        single = self.f is not None
        split = self.f1 is not None or self.f2 is not None
        if single == split:
            raise InvalidInput("provide either f or the pair (f1, f2)")
        if split and (self.f1 is None or self.f2 is None):
            raise InvalidInput("split generators need both f1 and f2")
        bad = set(self.forms) - _ALL_FORMS
        if bad:
            raise InvalidInput(f"unknown form flags {sorted(bad)}")
        object.__setattr__(self, "forms", frozenset(self.forms))
        self._smoke_check()

    # -- helpers ----------------------------------------------------------

    def _smoke_check(self) -> None:
        """Dimension-check all expressions at a dummy point."""
        y0 = np.zeros(self.n)
        z0 = np.zeros((self.d, self.n))
        for g in self.generators():
            dsl.evaluate(g, 0.0, y0, y0, z0, z0, n=self.n, d=self.d)
        dsl.evaluate_terminal(self.terminal, np.zeros(self.d), n=self.n, d=self.d)

    def generators(self) -> tuple[dsl.GeneratorExpr, ...]:
        if self.f is not None:
            return (self.f,)
        return (self.f1, self.f2)  # type: ignore[return-value]

    @property
    def is_split(self) -> bool:
        return self.f is None

    def ctilde_effective(self) -> float:
        """Envelope constant for the ODE bound: declared value, or the
        default ``max(3C, xi_bound^2)`` when none was declared; a square
        beyond doubles is an invalid input, which declaring ``ctilde``
        avoids."""
        if self.ctilde is not None:
            return self.ctilde
        try:
            return max(3.0 * self.C, self.xi_bound**2)
        except OverflowError:
            raise InvalidInput(
                "the default ctilde max(3C, xi_bound^2) overflows doubles; declare ctilde"
            ) from None

    def terminal_values(self, w_T: np.ndarray) -> np.ndarray:
        """Terminal condition per path, shape (P, n), clamp applied."""
        vals = dsl.evaluate_terminal(self.terminal, w_T, n=self.n, d=self.d)
        if self.terminal_clamp is not None:
            vals = np.clip(vals, -self.terminal_clamp, self.terminal_clamp)
        return vals


# ---------------------------------------------------------------------------
# Canned scenarios
# ---------------------------------------------------------------------------


def example_21(
    alpha: float = 0.5,
    T: float = 0.5,
    terminal: str = "0.5*cos(w)",
    C: float = 0.25,
    gamma: float = 1.0,
    xi_bound: float = 0.5,
) -> ScenarioSpec:
    """Scalar quadratic driver with power-growth mean integrand."""
    _check_alpha(alpha)  # before its exponent is printed into the formula
    return ScenarioSpec(
        name=f"ex2.1(alpha={alpha:g})",
        n=1,
        d=1,
        T=T,
        terminal=dsl.parse(terminal, dsl.TERMINAL_VARS),
        f=dsl.parse("1 + abs(y) + abs(ybar) + 0.5*norm2(z)^2 + "
                    f"norm2(zbar)^{float(1.0 + alpha)!r}"),
        C=C,
        gamma=gamma,
        alpha=alpha,
        xi_bound=xi_bound,
        forms=frozenset({FORM_QUAD_GROWTH}),
    )


def example_22(
    T: float = 1.0,
    terminal: str = "sin(w)",
    C: float = 0.2,
    gamma: float = 0.4,
    xi_bound: float = 1.0,
    ctilde: float | None = 5.0,
) -> ScenarioSpec:
    """Scalar time-dependent quadratic driver with a bounded mean coupling.

    The default ``ctilde`` comes from the direct growth estimate of the
    driver (constant part 2 + T, linear part in the state and its mean),
    which dominates the ``3C`` default for the small declared Lipschitz C.
    """
    return ScenarioSpec(
        name="ex2.2",
        n=1,
        d=1,
        T=T,
        terminal=dsl.parse(terminal, dsl.TERMINAL_VARS),
        f=dsl.parse("1 + s + abs(y) + abs(ybar) + 0.5*norm2(z)^2 + abs(sin(norm2(zbar)))"),
        C=C,
        gamma=gamma,
        alpha=0.0,
        xi_bound=xi_bound,
        ctilde=ctilde,
        forms=frozenset({FORM_QUAD_GROWTH, FORM_GLOBAL_ODE}),
    )


def example_41(
    n: int = 2,
    d: int = 2,
    T: float = 1.0,
    terminal: str = "sin(w1) ; cos(w2)",
    C: float = math.sqrt(2.0),
    gamma: float = 1.0,
    xi_bound: float = math.sqrt(2.0),
) -> ScenarioSpec:
    """Multi-dimensional split generator with a Lipschitz first part.

    The default structure constant and terminal bound are the Euclidean
    sups of the vector generator at the origin and of the default terminal
    vector (each component is bounded by one)."""
    return ScenarioSpec(
        name="ex4.1",
        n=n,
        d=d,
        T=T,
        terminal=dsl.parse(terminal, dsl.TERMINAL_VARS),
        f1=dsl.parse("1 + abs(sin(y)) + abs(sin(ybar)) + norm2(z) + norm2(zbar)"),
        f2=dsl.parse("1 + abs(y) + abs(ybar) + 0.5*(norm2(z) + norm2(zbar))^2"),
        C=C,
        gamma=gamma,
        alpha=0.0,
        xi_bound=xi_bound,
        forms=frozenset({FORM_SPLIT_LIPSCHITZ}),
    )


def linear_scenario(
    a: float = 0.0,
    b: float = 0.0,
    c: float = 0.0,
    dbar: float = 1.0,
    g: float = 0.0,
    terminal: str = "w",
    T: float = 1.0,
    xi_bound: float = 4.0,
    name: str = "linear",
) -> ScenarioSpec:
    """Scalar linear driver ``a*y + b*ybar + c*z + dbar*zbar + g``.

    Useful against the closed-form reference solution.  The declared
    ``xi_bound`` is an assertion (Gaussian terminal data is unbounded; tail
    mass beyond the bound is reported by the certificate spot check).
    """

    def coef(v: float, var: str) -> str:
        return f"{v!r}*{var}"

    text = " + ".join(
        [coef(a, "y"), coef(b, "ybar"), coef(c, "z"), coef(dbar, "zbar"), repr(float(g))]
    )
    return ScenarioSpec(
        name=name,
        n=1,
        d=1,
        T=T,
        terminal=dsl.parse(terminal, dsl.TERMINAL_VARS),
        f=dsl.parse(text),
        C=max(abs(a), abs(b), abs(c), abs(dbar), 1.0),
        gamma=1.0,
        alpha=0.0,
        xi_bound=xi_bound,
        forms=frozenset({FORM_GLOBAL_ODE}),
    )
