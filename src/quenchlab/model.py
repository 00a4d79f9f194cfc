"""Singular nonlinearities, spatial weight profiles, parameters, and initial data.

The reaction nonlinearities live on [0, 1) and blow up at 1.  Three closed-form
families are provided:

    log    f(s) = 1 - ln(1 - s)
    exp    f(s) = exp(1/(1 - s))
    power  f(s) = (1 - s)^(-p),  p > 0

All families are positive, strictly increasing, and strictly convex on [0, 1),
which is exactly what the monotone-iteration and comparison machinery needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import FloatArray, Grid

FAMILIES = ("log", "exp", "power")
PROFILE_FAMILIES = ("constant", "bump", "powerdist")
RECIPES = ("zero", "sine", "scaled_minimal", "convex_combo", "above_second")

# Lattice used by the admissibility checks; 1 - 1e-6 probes the singular end.
_LATTICE = np.array([0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99, 1.0 - 1e-6])


def _check_unit_range(s) -> tuple[FloatArray, bool]:
    arr = np.asarray(s, dtype=float)
    if arr.size and (arr.min() < 0.0 or arr.max() >= 1.0):
        raise ValueError("nonlinearity argument outside [0, 1)")
    return arr, arr.ndim == 0


def _ret(value: FloatArray, scalar: bool):
    return float(value) if scalar else value


@dataclass(frozen=True)
class Nonlinearity:
    """One member of the closed-form singular families on [0, 1)."""

    family: str
    p: float = 2.0  # exponent; only the power family reads it

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown nonlinearity family {self.family!r}")
        if not math.isfinite(self.p):
            raise ValueError(f"exponent p must be finite, got {self.p}")
        if self.family == "power" and not self.p > 0:
            raise ValueError(f"power family needs p > 0, got {self.p}")

    def value(self, s):
        arr, scalar = _check_unit_range(s)
        return _ret(self._value(arr), scalar)

    def _value(self, arr: FloatArray) -> FloatArray:
        # value on an array the caller knows lies in [0, 1), unchecked
        if self.family == "log":
            return 1.0 - np.log1p(-arr)
        if self.family == "exp":
            with np.errstate(over="ignore"):
                return np.exp(1.0 / (1.0 - arr))
        return np.exp(-self.p * np.log1p(-arr))

    def deriv(self, s):
        arr, scalar = _check_unit_range(s)
        return _ret(self._jet(arr)[1], scalar)

    def deriv2(self, s):
        arr, scalar = _check_unit_range(s)
        return _ret(self._jet(arr)[2], scalar)

    def _jet(self, arr: FloatArray) -> tuple[FloatArray, FloatArray, FloatArray]:
        # (value, deriv, deriv2) on an array the caller knows lies in [0, 1),
        # unchecked; the derivatives reuse exp's value and power's log1p
        value, one_minus = self._value(arr), 1.0 - arr
        if self.family == "log":
            return value, 1.0 / one_minus, 1.0 / one_minus**2
        if self.family == "exp":
            with np.errstate(over="ignore"):
                return (value, value / one_minus**2,
                        value * (1.0 / one_minus**4 + 2.0 / one_minus**3))
        p, log_gap = self.p, np.log1p(-arr)
        return (value, p * np.exp(-(p + 1.0) * log_gap),
                p * (p + 1.0) * np.exp(-(p + 2.0) * log_gap))

    def antideriv(self, s):
        """Integral of value from 0 to s, in closed form."""
        arr, scalar = _check_unit_range(s)
        if self.family == "log":
            out = 2.0 * arr + (1.0 - arr) * np.log1p(-arr)
        elif self.family == "exp":
            from scipy.special import expi  # imported here: only this energy needs it
            y = 1.0 / (1.0 - arr)
            with np.errstate(over="ignore"):
                out = (expi(y) - np.exp(y) / y) - (float(expi(1.0)) - np.e)
        elif self.p == 1.0:
            out = -np.log1p(-arr)
        else:
            out = np.expm1((1.0 - self.p) * np.log1p(-arr)) / (self.p - 1.0)
        return _ret(out, scalar)

    @property
    def at_zero(self) -> float:
        return self.value(0.0)

    def singular_threshold(self) -> float:
        """Value that value(1 - 1e-6) must exceed for a genuine blow-up."""
        if self.family == "log":
            return 14.0  # 1 + ln(1e6) ~ 14.8
        if self.family == "exp":
            return 1e5
        # value(1 - 1e-6) is 1e6**p; past p = 50 it nears or passes the
        # float range, so the threshold stops at 0.1 * 1e300.
        return 0.1 * 1e6 ** min(self.p, 50.0)


@dataclass(frozen=True)
class Profile:
    """Nonnegative spatial weight in front of a reaction term.

    constant   c
    bump       c * exp(-width * |x - center|^2)      (center defaults to midpoint)
    powerdist  c * dist(x, boundary)^kappa
    """

    family: str = "constant"
    c: float = 1.0
    width: float = 10.0
    center: tuple[float, ...] | None = None
    kappa: float = 1.0

    def __post_init__(self):
        if self.family not in PROFILE_FAMILIES:
            raise ValueError(f"unknown profile family {self.family!r}")
        for name in ("c", "width", "kappa"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"profile {name} must be finite, got {getattr(self, name)}")
        if self.center is not None and not all(map(math.isfinite, self.center)):
            raise ValueError(f"profile center must be finite, got {self.center}")
        if self.c < 0:
            raise ValueError(f"profile amplitude must be nonnegative, got {self.c}")
        if self.family == "bump" and not self.width > 0:
            raise ValueError(f"bump width must be positive, got {self.width}")
        if self.family == "powerdist" and not self.kappa > 0:
            raise ValueError(f"powerdist exponent must be positive, got {self.kappa}")
        if self.center is not None:  # hashable: a profile keys its samples
            object.__setattr__(self, "center", tuple(self.center))

    def sample(self, grid: Grid) -> FloatArray:
        """The weight at the grid's nodes, evaluated once per (profile, grid)
        and returned read-only."""
        out = grid.sampled.get(self)
        if out is None:
            out = grid.sampled[self] = self._evaluate(grid)
            out.flags.writeable = False
        return out

    def _evaluate(self, grid: Grid) -> FloatArray:
        if self.family == "constant":
            return np.full(grid.n_total, float(self.c))
        if self.family == "bump":
            center = self.center
            if center is None:
                center = tuple((lo + hi) / 2 for lo, hi in grid.extents)
            if len(center) != grid.dimension:
                raise ValueError("bump center dimension does not match the grid")
            coords = grid.coordinates()
            sq = np.zeros(grid.n_total)
            for axis in range(grid.dimension):
                sq += (coords[:, axis] - center[axis]) ** 2
            return self.c * np.exp(-self.width * sq)
        return self.c * grid.boundary_distance() ** self.kappa


@dataclass(frozen=True)
class ParamPoint:
    """The pair of positive forcing amplitudes, one per equation."""

    lam: float
    mu: float

    def __post_init__(self):
        if not (0 < self.lam < math.inf and 0 < self.mu < math.inf):
            raise ValueError("forcing amplitudes must be positive and finite, "
                             f"got ({self.lam}, {self.mu})")


@dataclass(frozen=True)
class Model:
    """Nonlinearity pair and weight pair defining the coupled system."""

    f: Nonlinearity
    g: Nonlinearity
    alpha: Profile
    beta: Profile

    def reaction(self, grid: Grid, params: ParamPoint) -> Callable[[FloatArray], FloatArray]:
        """The reaction as a function of a state block w = (u, v) of shape (2, n):
        w -> (lam alpha f(v), mu beta g(u)).  f and g are evaluated unchecked,
        so the caller keeps w in [0, 1); when f == g, on the block (v, u) in one
        call (elementwise, so bit for bit as row by row)."""
        coeffs = np.array([params.lam * self.alpha.sample(grid),
                           params.mu * self.beta.sample(grid)])
        f, g = self.f._value, self.g._value
        if self.f == self.g:
            return lambda w: coeffs * f(w[::-1])
        return lambda w: np.array([coeffs[0] * f(w[1]), coeffs[1] * g(w[0])])


@dataclass(frozen=True)
class InitialData:
    """Recipe for the initial pair, built on a grid by ``pair``.

    zero            u0 = v0 = 0
    sine            amp * (product over the axes of sin(pi (x - low)/(high - low)))
    scaled_minimal  s * minimal,                          s in [0, 1]
    convex_combo    s * minimal + (1 - s) * second,       s in (0, 1)
    above_second    (1 + eps) * second - eps * minimal,   eps > 0
    """

    kind: str
    s: float = 0.5
    eps: float = 0.05
    amp: tuple[float, float] = (0.9, 0.9)  # (u, v); only sine reads it

    def __post_init__(self):
        if self.kind not in RECIPES:
            raise ValueError(f"unknown initial-data recipe {self.kind!r}")
        if self.kind == "scaled_minimal" and not 0.0 <= self.s <= 1.0:
            raise ValueError(f"scaled_minimal needs s in [0, 1], got {self.s}")
        if self.kind == "convex_combo" and not 0.0 < self.s < 1.0:
            raise ValueError(f"convex_combo needs s in (0, 1), got {self.s}")
        if self.kind == "above_second" and not self.eps > 0:
            raise ValueError(f"above_second needs eps > 0, got {self.eps}")

    def pair(self, grid: Grid, minimal, second) -> tuple[FloatArray, FloatArray]:
        """The admissible initial pair (u0, v0).  ``minimal()`` and ``second()``
        return the (w, z) of those steady states; the recipe calls only the
        ones it is built on, minimal first."""
        if self.kind == "zero":
            return np.zeros(grid.n_total), np.zeros(grid.n_total)
        if self.kind == "sine":
            coords = grid.coordinates()
            shape = np.ones(grid.n_total)
            for axis, (lo, hi) in enumerate(grid.extents):
                shape = shape * np.sin(np.pi * (coords[:, axis] - lo) / (hi - lo))
            pair = self.amp[0] * shape, self.amp[1] * shape
        elif self.kind == "scaled_minimal":
            pair = tuple(self.s * grid.check_field(a) for a in minimal())
        else:
            w, z = (grid.check_field(a) for a in minimal())
            w1, z1 = (grid.check_field(a) for a in second())
            s, e = self.s, self.eps
            if self.kind == "convex_combo":
                pair = s * w + (1 - s) * w1, s * z + (1 - s) * z1
            else:  # above_second stays >= 0: second >= minimal pointwise
                pair = (1 + e) * w1 - e * w, (1 + e) * z1 - e * z
        for name, arr in zip(("u0", "v0"), pair):
            grid.check_field(arr, name)
            if arr.min() < 0.0 or arr.max() >= 1.0:
                raise ValueError(f"{name} leaves the admissible range [0, 1)")
        return pair


@dataclass(frozen=True)
class HypothesisReport:
    """Outcome of the model admissibility checks."""

    ok: bool
    failures: tuple[str, ...]

    @property
    def first_violation(self) -> str | None:
        return self.failures[0] if self.failures else None


def validate_hypotheses(model: Model, grid: Grid) -> HypothesisReport:
    """Check the standing structural assumptions on a lattice of [0, 1 - 1e-6].

    Nonlinearities must be positive, strictly increasing, strictly convex, and
    genuinely singular at 1; weights must be nonnegative and nontrivial.
    Returns all violations, in the order encountered.
    """
    failures: list[str] = []

    for name, nl in (("f", model.f), ("g", model.g)):
        # Steep families overflow near 1; an inf value lies above every
        # finite one, and inf - inf is no evidence against monotonicity.
        with np.errstate(over="ignore", invalid="ignore"):
            vals = nl.value(_LATTICE)
            increasing = (np.diff(vals) > 0) | np.isposinf(vals[1:])
            d1, d2 = nl.deriv(_LATTICE), nl.deriv2(_LATTICE)
        if not np.all(vals > 0):
            failures.append(f"{name}: not strictly positive on the lattice")
        if not np.all(increasing):
            failures.append(f"{name}: not strictly increasing on the lattice")
        if not np.all(d1 > 0):
            failures.append(f"{name}: first derivative not positive on the lattice")
        if not np.all(d2 > 0):
            failures.append(f"{name}: second derivative not positive on the lattice")
        if not vals[-1] > nl.singular_threshold():
            failures.append(f"{name}: no blow-up signature at 1 - 1e-6")

    for name, profile in (("alpha", model.alpha), ("beta", model.beta)):
        sampled = profile.sample(grid)
        if sampled.min() < 0:
            failures.append(f"{name}: negative weight values")
        if not sampled.max() > 0:
            failures.append(f"{name}: trivial (identically zero) weight")

    return HypothesisReport(ok=not failures, failures=tuple(failures))
