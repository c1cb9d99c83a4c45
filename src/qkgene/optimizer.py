"""Binary Harris hawks search for gene subset selection.

Hawks move in a continuous box and the moved position is squashed through
a transfer function to (re)draw a 0/1 mask per dimension: the S rule draws
each bit fresh with probability sigmoid(position), the V rule flips the
current bit with probability |tanh(position)|. Escaping energy decides
exploration (|E| >= 1) versus one of four exploitation moves; the two
rapid-dive moves are greedy (kept only on fitness improvement), all other
moves are unconditional. The best mask ever seen (the rabbit) is tracked
separately, so the reported convergence curve is monotone non-increasing.
Every candidate position is binarized against the moving hawk's bits and
scored in one place, the search's evaluate(position) -> Hawk.

Subset quality is the wrapper objective alpha * validation_error +
(1 - alpha) * selected_fraction, with a k-nearest-neighbour classifier on
a seeded stratified validation split. An empty mask scores +inf.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data_io import LabeledDataset, SplitSpec, split_indices
from .errors import ConfigError, DataError, NumericalError, check_integer

TRANSFER_KINDS = ("s", "v")


@dataclass(frozen=True)
class HhoParams:
    n_hawks: int
    max_iters: int
    lower_bound: float = -1.0
    upper_bound: float = 1.0
    seed: int = 0

    def __post_init__(self):
        check_integer("n_hawks", self.n_hawks)
        check_integer("max_iters", self.max_iters)
        if self.n_hawks < 2:
            raise ConfigError("n_hawks must be at least 2")
        if self.max_iters < 1:
            raise ConfigError("max_iters must be at least 1")
        if not self.upper_bound > self.lower_bound:
            raise ConfigError("upper_bound must exceed lower_bound")
        if not math.isfinite(self.upper_bound - self.lower_bound):
            raise ConfigError("upper_bound - lower_bound must be finite")


@dataclass(frozen=True)
class Hawk:
    """A scored position; a move replaces the hawk and never writes into its arrays."""
    position: np.ndarray
    bits: np.ndarray
    fitness: float


@dataclass(frozen=True)
class FeatureMask:
    bits: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "bits", np.asarray(self.bits, dtype=np.int8))
        if self.bits.ndim != 1:
            raise DataError("mask bits must be a vector")
        if not np.all((self.bits == 0) | (self.bits == 1)):
            raise DataError("mask bits must be 0 or 1")

    @property
    def selected_count(self) -> int:
        return int(self.bits.sum())

    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.bits)


@dataclass(frozen=True)
class FitnessConfig:
    alpha: float = 0.99
    knn_k: int = 5
    val_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError("alpha must lie in [0, 1]")
        if self.knn_k < 1:
            raise ConfigError("knn_k must be at least 1")
        if not 0.0 < self.val_fraction < 1.0:
            raise ConfigError("val_fraction must lie strictly between 0 and 1")


def init_population(params: HhoParams, dimension: int,
                    rng: np.random.Generator | None = None) -> np.ndarray:
    if rng is None:
        rng = np.random.default_rng(params.seed)
    return rng.uniform(params.lower_bound, params.upper_bound, (params.n_hawks, dimension))


def mean_position(positions: np.ndarray) -> np.ndarray:
    return np.asarray(positions, dtype=np.float64).mean(axis=0)


def escaping_energy(t: int, max_iters: int, rng: np.random.Generator) -> float:
    """E = 2 E0 (1 - t / T), with E0 drawn uniformly from [-1, 1)."""
    e0 = 2.0 * rng.random() - 1.0
    return 2.0 * e0 * (1.0 - t / max_iters)


LEVY_BETA = 1.5
# Mantegna's scale for u ~ N(0, sigma^2), so that u / |v|^(1/beta) is beta-stable
_LEVY_SIGMA = (
    math.gamma(1.0 + LEVY_BETA) * math.sin(math.pi * LEVY_BETA / 2.0)
    / (math.gamma((1.0 + LEVY_BETA) / 2.0) * LEVY_BETA * 2.0 ** ((LEVY_BETA - 1.0) / 2.0))
) ** (1.0 / LEVY_BETA)


def levy_step(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Mantegna heavy-tailed step with index LEVY_BETA, scaled by 0.01 as in
    reference hawks."""
    u = rng.normal(0.0, _LEVY_SIGMA, dim)
    v = rng.normal(0.0, 1.0, dim)
    return 0.01 * u / np.abs(v) ** (1.0 / LEVY_BETA)


def _clip(position: np.ndarray, params: HhoParams) -> np.ndarray:
    # equal to np.clip for non-NaN input, without its per-call dispatch
    return np.minimum(np.maximum(position, params.lower_bound), params.upper_bound)


def exploration_step(position: np.ndarray, positions: np.ndarray,
                     best_position: np.ndarray, positions_mean: np.ndarray,
                     params: HhoParams, rng: np.random.Generator) -> np.ndarray:
    """Perch on a random peer or relative to positions_mean, chance 50/50."""
    if rng.random() >= 0.5:
        peer = positions[int(rng.integers(len(positions)))]
        r1 = rng.random()
        r2 = rng.random()
        new = peer - r1 * np.abs(peer - 2.0 * r2 * position)
    else:
        r3 = rng.random()
        r4 = rng.random()
        span = params.upper_bound - params.lower_bound
        new = (best_position - positions_mean) - r3 * (params.lower_bound + r4 * span)
    return _clip(new, params)


def exploitation_step(hawk: Hawk, best_position: np.ndarray, positions_mean: np.ndarray,
                      e: float, params: HhoParams, rng: np.random.Generator,
                      evaluate: Callable[[np.ndarray], Hawk]) -> Hawk | None:
    """One of four besiege moves keyed on (|E|, r), as an evaluated hawk.

    The two rapid-dive moves (r < 0.5) are greedy: they return the first of
    the dive and the Levy swoop that scores below the hawk, and None when
    neither does. Every move draws its randoms before it calls `evaluate`.
    """
    position = hawk.position
    r = rng.random()
    if r >= 0.5:
        if abs(e) >= 0.5:  # soft besiege
            jump = 2.0 * (1.0 - rng.random())
            new = (best_position - position) - e * np.abs(jump * best_position - position)
        else:  # hard besiege
            new = best_position - e * np.abs(best_position - position)
        return evaluate(_clip(new, params))

    # progressive rapid dives
    jump = 2.0 * (1.0 - rng.random())
    reference = position if abs(e) >= 0.5 else positions_mean
    dive = evaluate(_clip(best_position - e * np.abs(jump * best_position - reference), params))
    if dive.fitness < hawk.fitness:
        return dive
    dim = len(position)
    swoop = _clip(dive.position + rng.random(dim) * levy_step(dim, rng), params)
    # a swoop onto the dive's exact bytes is the dive: no second mask is drawn
    swooped = dive if swoop.tobytes() == dive.position.tobytes() else evaluate(swoop)
    return swooped if swooped.fitness < hawk.fitness else None


def transfer_probability(delta, kind: str = "s") -> np.ndarray:
    delta = np.asarray(delta, dtype=np.float64)
    if kind == "s":
        # numerically stable logistic, exact at 0.5 for delta = 0: exp never
        # sees a positive argument; a NaN reaches exp unchanged
        pos = delta >= 0
        ez = np.exp(np.where(pos, -delta, delta))
        return np.where(pos, 1.0, ez) / (1.0 + ez)
    if kind == "v":
        return np.abs(np.tanh(delta))
    raise ConfigError(f"transfer kind must be one of {TRANSFER_KINDS}, got {kind!r}")


def binarize(position: np.ndarray, current_bits: np.ndarray, kind: str,
             rng: np.random.Generator) -> np.ndarray:
    """One uniform per dimension against the transfer probability."""
    prob = transfer_probability(position, kind)
    draws = rng.random(len(prob))
    if kind == "s":
        return (draws < prob).astype(np.int8)
    current_bits = np.asarray(current_bits, dtype=np.int8)
    return np.where(draws < prob, 1 - current_bits, current_bits).astype(np.int8)


def make_fitness(train: LabeledDataset, config: FitnessConfig) -> Callable[[np.ndarray], float]:
    """Closure scoring bit masks; the validation split is drawn once."""
    fit_idx, val_idx = split_indices(
        train.labels, SplitSpec(config.val_fraction, config.seed, key="fitness.val_fraction")
    )
    fit_x, fit_y = train.features[fit_idx], train.labels[fit_idx]
    val_x, val_y = train.features[val_idx], train.labels[val_idx]
    # A mask enters as 0/1 weights: sum_g w_g (v_g - f_g)^2 over all genes is
    # the squared distance over the selected ones, with no column gather.
    fit_sq, val_sq = fit_x**2, val_x**2
    fit_xt = np.ascontiguousarray(fit_x.T)
    val_positive = val_y > 0
    k = min(config.knn_k, len(fit_x))
    dim = train.n_genes

    def score(bits: np.ndarray) -> float:
        """alpha * k-NN validation error + (1 - alpha) * selected fraction.

        Neighbours are ordered by a stable argsort of the squared distances,
        so equal distances keep fit-row order; a tied vote predicts +1.
        """
        weights = np.asarray(bits, dtype=np.float64)
        count = int(weights.sum())
        if count == 0:
            return math.inf
        d2 = ((val_sq @ weights)[:, None] + (fit_sq @ weights)[None, :]
              - 2.0 * ((val_x * weights) @ fit_xt))
        votes = fit_y[np.argsort(d2, axis=1, kind="stable")[:, :k]].sum(axis=1)
        error = int(np.count_nonzero((votes >= 0) != val_positive)) / len(val_y)
        return config.alpha * error + (1.0 - config.alpha) * count / dim

    return score


def run_bhho(train: LabeledDataset, params: HhoParams, fitness_config: FitnessConfig,
             transfer: str = "s") -> tuple[FeatureMask, list[tuple[float, int]]]:
    """Search gene masks over train's genes.

    Returns the best mask and the convergence curve: one (best fitness,
    selected count) pair per iteration. A single seeded generator drives the
    whole run, so equal seeds reproduce the trajectory bit for bit.
    """
    if transfer not in TRANSFER_KINDS:
        raise ConfigError(f"transfer kind must be one of {TRANSFER_KINDS}, got {transfer!r}")
    score = make_fitness(train, fitness_config)
    rng = np.random.default_rng(params.seed)
    # the bits the V rule flips: all zero for the first draw, then the moving hawk's
    current_bits = np.zeros(train.n_genes, dtype=np.int8)

    def evaluate(position: np.ndarray) -> Hawk:
        bits = binarize(position, current_bits, transfer, rng)
        return Hawk(position, bits, score(bits))

    hawks = [evaluate(position) for position in init_population(params, train.n_genes, rng)]
    rabbit = hawks[0]
    curve = []
    for t in range(params.max_iters):
        for hawk in hawks:
            if hawk.fitness < rabbit.fitness:
                rabbit = hawk
        curve.append((rabbit.fitness, int(rabbit.bits.sum())))

        positions = np.array([h.position for h in hawks])
        swarm_mean = mean_position(positions)
        for i, hawk in enumerate(hawks):
            current_bits = hawk.bits
            e = escaping_energy(t, params.max_iters, rng)
            if abs(e) >= 1.0:
                moved = evaluate(exploration_step(hawk.position, positions, rabbit.position,
                                                  swarm_mean, params, rng))
            else:
                moved = exploitation_step(hawk, rabbit.position, swarm_mean, e,
                                          params, rng, evaluate)
            if moved is not None:  # None: both dives rejected, the hawk stays put
                hawks[i] = moved

    # no rescan after the final moves: the rabbit only advances via the scan
    # at the top of each iteration, so a 1-iteration run returns the best of
    # the initial population
    if not math.isfinite(rabbit.fitness) or rabbit.bits.sum() == 0:
        raise NumericalError("search never produced a non-empty mask")
    return FeatureMask(rabbit.bits), curve
