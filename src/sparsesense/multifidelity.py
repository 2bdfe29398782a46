"""Two-fidelity measurement model: noise levels, budgets, compositions.

A composition is a (cheap, expensive) count pair. Which plan rows get the
expensive sensors is the experiment's choice (``ExperimentConfig.assignment``),
passed to :func:`assign_fidelities` when sigmas are built.

Noise levels are variance fractions: a sensor at level v adds zero-mean
Gaussian noise with variance v times the reference variance of the data.
Budget arithmetic runs in exact rational arithmetic (floats are dyadic
rationals) so every enumerated composition satisfies the budget constraint
exactly, endpoints included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .placement import SensorPlan, measure

ASSIGNMENTS = ("exp-first", "exp-last")


@dataclass(frozen=True)
class NoiseModel:
    """Cheap/expensive noise levels tied to a reference variance.

    Levels are finite and non-negative, and expensive means less noisy:
    level_exp <= level_cheap. The per-sensor noise standard deviation is
    sqrt(level * reference_variance).
    """

    level_cheap: float
    level_exp: float
    reference_variance: float

    def __post_init__(self):
        if not (0 <= self.level_cheap < math.inf and 0 <= self.level_exp < math.inf):
            raise ValueError("noise levels must be finite and non-negative")
        if self.level_exp > self.level_cheap:
            raise ValueError(
                f"expensive sensors must not be noisier than cheap ones: "
                f"level_exp = {self.level_exp} > level_cheap = {self.level_cheap}"
            )
        if not (math.isfinite(self.reference_variance) and self.reference_variance >= 0):
            raise ValueError("reference_variance must be finite and non-negative")

    @property
    def sigma_cheap(self) -> float:
        return math.sqrt(self.level_cheap * self.reference_variance)

    @property
    def sigma_exp(self) -> float:
        return math.sqrt(self.level_exp * self.reference_variance)


@dataclass(frozen=True)
class BudgetSpec:
    """Unit sensor costs and the total budget."""

    cost_cheap: float
    cost_exp: float
    budget: float

    def __post_init__(self):
        if self.cost_cheap <= 0 or self.cost_exp <= 0 or self.budget <= 0:
            raise ValueError("costs and budget must be positive")

    def is_feasible(self, p_cheap: int, p_exp: int) -> bool:
        """Exact check of cost_cheap * p_cheap + cost_exp * p_exp <= budget."""
        total = Fraction(self.cost_cheap) * p_cheap + Fraction(self.cost_exp) * p_exp
        return total <= Fraction(self.budget)


@dataclass(frozen=True)
class Composition:
    """A (cheap, expensive) sensor-count pair."""

    p_cheap: int
    p_exp: int

    def __post_init__(self):
        if self.p_cheap < 0 or self.p_exp < 0:
            raise ValueError("sensor counts must be non-negative")

    @property
    def p(self) -> int:
        return self.p_cheap + self.p_exp


def budget_from_endpoints(
    p_cheap_max: int, p_exp_max: int, cost_cheap: float
) -> BudgetSpec:
    """Budget and expensive cost that both endpoints exactly exhaust.

    B = cost_cheap * p_cheap_max and cost_exp = B / p_exp_max, nudged by at
    most one ulp so the all-cheap and all-expensive extremes stay feasible
    under exact rational checking.
    """
    if p_cheap_max < 1 or p_exp_max < 1:
        raise ValueError("endpoint sensor counts must be >= 1")
    if cost_cheap <= 0:
        raise ValueError("cost_cheap must be positive")
    budget = cost_cheap * p_cheap_max
    if Fraction(cost_cheap) * p_cheap_max > Fraction(budget):
        budget = math.nextafter(budget, math.inf)
    cost_exp = budget / p_exp_max
    if Fraction(cost_exp) * p_exp_max > Fraction(budget):
        cost_exp = math.nextafter(cost_exp, 0.0)
    return BudgetSpec(cost_cheap, cost_exp, budget)


def enumerate_compositions(budget: BudgetSpec, steps: int) -> list[Composition]:
    """Budget-fraction grid from all-cheap to all-expensive.

    At fraction f of the budget spent on expensive sensors, the composition
    is (floor((1-f) B / c_cheap), floor(f B / c_exp)); duplicates are dropped
    preserving order. Every returned composition is exactly feasible.
    """
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    fb = Fraction(budget.budget)
    fch = Fraction(budget.cost_cheap)
    fex = Fraction(budget.cost_exp)
    out: list[Composition] = []
    seen: set[tuple[int, int]] = set()
    for i in range(steps):
        f = Fraction(i, steps - 1)
        p_exp = math.floor(f * fb / fex)
        p_cheap = math.floor((1 - f) * fb / fch)
        key = (p_cheap, p_exp)
        if key not in seen:
            seen.add(key)
            out.append(Composition(p_cheap, p_exp))
    return out


def assign_fidelities(
    plan: SensorPlan, comp: Composition, noise: NoiseModel, assignment: str
) -> np.ndarray:
    """Per-sensor noise standard deviations in plan order.

    assignment is one of ``ASSIGNMENTS``: exp-first puts the expensive
    sensors on the leading (QR-pivot) locations, exp-last on the trailing
    (oversampled) ones.
    """
    p = plan.p
    if comp.p_cheap + comp.p_exp != p:
        raise ValueError(
            f"composition totals {comp.p_cheap} + {comp.p_exp} sensors "
            f"but the plan has {p}"
        )
    if assignment not in ASSIGNMENTS:
        raise ValueError(f"assignment must be one of {ASSIGNMENTS}")
    sigmas = np.empty(p)
    if assignment == "exp-first":
        sigmas[: comp.p_exp] = noise.sigma_exp
        sigmas[comp.p_exp :] = noise.sigma_cheap
    else:
        sigmas[: comp.p_cheap] = noise.sigma_cheap
        sigmas[comp.p_cheap :] = noise.sigma_exp
    return sigmas


def noisy_measure(X, plan: SensorPlan, sigmas, seed: int) -> np.ndarray:
    """Measurements with per-sensor additive Gaussian noise.

    Row j of the noise has i.i.d. N(0, sigmas[j]^2) entries drawn from the
    seeded stream; sigma = 0 rows are exactly noise-free.
    """
    sigmas = np.asarray(sigmas, dtype=np.float64)
    if sigmas.ndim != 1 or sigmas.size != plan.p:
        raise ValueError(f"need one sigma per sensor ({plan.p}), got {sigmas.shape}")
    if not (0 <= sigmas.min() and sigmas.max() < math.inf):
        raise ValueError("sigmas must be finite and non-negative")
    Y = measure(X, plan)
    E = np.random.default_rng(seed).standard_normal(Y.shape)
    # Scaling and then adding Y into the draw gives the bits of
    # Y + E * sigmas[:, None]: IEEE addition is commutative.
    E *= sigmas[:, None]
    E += Y
    return E
