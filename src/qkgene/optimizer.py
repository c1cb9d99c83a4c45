"""Binary Harris hawks search for gene subset selection.

Hawks move in a continuous box and the moved position is squashed through
a transfer function to (re)draw a 0/1 mask per dimension: the S rule draws
each bit fresh with probability sigmoid(position), the V rule flips the
current bit with probability |tanh(position)|. Escaping energy decides
exploration (|E| >= 1) versus one of four exploitation moves; the two
rapid-dive moves are greedy (kept only on fitness improvement), all other
moves are unconditional. The best mask ever seen (the rabbit) is tracked
separately, so the reported convergence curve is monotone non-increasing.

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
from .errors import ConfigError, DataError, NumericalError

TRANSFER_KINDS = ("s", "v")


@dataclass(frozen=True)
class HhoParams:
    n_hawks: int
    max_iters: int
    dimension: int
    lower_bound: float = -1.0
    upper_bound: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n_hawks < 2:
            raise ConfigError("n_hawks must be at least 2")
        if self.max_iters < 1:
            raise ConfigError("max_iters must be at least 1")
        if self.dimension < 1:
            raise ConfigError("dimension must be at least 1")
        if not self.upper_bound > self.lower_bound:
            raise ConfigError("upper_bound must exceed lower_bound")


@dataclass
class Hawk:
    position: np.ndarray
    bits: np.ndarray
    fitness: float


@dataclass(frozen=True)
class EnergyState:
    e0: float
    e: float
    iteration: int


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
    evaluator: str = "knn"
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


def init_population(params: HhoParams, rng: np.random.Generator | None = None) -> np.ndarray:
    if rng is None:
        rng = np.random.default_rng(params.seed)
    return rng.uniform(params.lower_bound, params.upper_bound,
                       (params.n_hawks, params.dimension))


def mean_position(positions: np.ndarray) -> np.ndarray:
    return np.asarray(positions, dtype=np.float64).mean(axis=0)


def escaping_energy(t: int, max_iters: int, rng: np.random.Generator) -> EnergyState:
    e0 = 2.0 * rng.random() - 1.0
    return EnergyState(e0=e0, e=2.0 * e0 * (1.0 - t / max_iters), iteration=t)


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
                     best_position: np.ndarray, params: HhoParams,
                     rng: np.random.Generator) -> np.ndarray:
    """Perch on a random peer or relative to swarm mean, chance 50/50."""
    if rng.random() >= 0.5:
        peer = positions[int(rng.integers(len(positions)))]
        r1 = rng.random()
        r2 = rng.random()
        new = peer - r1 * np.abs(peer - 2.0 * r2 * position)
    else:
        r3 = rng.random()
        r4 = rng.random()
        span = params.upper_bound - params.lower_bound
        new = (best_position - mean_position(positions)) - r3 * (
            params.lower_bound + r4 * span
        )
    return _clip(new, params)


def exploitation_step(position: np.ndarray, current_fitness: float,
                      best_position: np.ndarray, positions_mean: np.ndarray,
                      energy: EnergyState, params: HhoParams,
                      rng: np.random.Generator,
                      objective: Callable[[np.ndarray], float]) -> np.ndarray:
    """One of four besiege moves keyed on (|E|, r).

    The two rapid-dive moves (r < 0.5) test candidates through `objective`
    and return the incumbent position object unchanged when neither dive
    improves on current_fitness.
    """
    e = energy.e
    r = rng.random()
    if r >= 0.5:
        if abs(e) >= 0.5:  # soft besiege
            jump = 2.0 * (1.0 - rng.random())
            new = (best_position - position) - e * np.abs(jump * best_position - position)
        else:  # hard besiege
            new = best_position - e * np.abs(best_position - position)
        return _clip(new, params)

    # progressive rapid dives
    jump = 2.0 * (1.0 - rng.random())
    reference = position if abs(e) >= 0.5 else positions_mean
    dive = _clip(best_position - e * np.abs(jump * best_position - reference), params)
    if objective(dive) < current_fitness:
        return dive
    dim = len(position)
    swoop = _clip(dive + rng.random(dim) * levy_step(dim, rng), params)
    if objective(swoop) < current_fitness:
        return swoop
    return position


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
    if config.evaluator != "knn":
        raise ConfigError(f"unknown fitness evaluator {config.evaluator!r}")
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
             transfer: str = "s",
             history: list | None = None) -> tuple[FeatureMask, np.ndarray]:
    """Search gene masks; returns the best mask and the convergence curve.

    history, when given a list, receives one (best_fitness, selected_count)
    tuple per iteration. A single seeded generator drives the whole run, so
    equal seeds reproduce the trajectory bit for bit.
    """
    if transfer not in TRANSFER_KINDS:
        raise ConfigError(f"transfer kind must be one of {TRANSFER_KINDS}, got {transfer!r}")
    if params.dimension != train.n_genes:
        raise ConfigError("params.dimension must equal the gene count")
    score = make_fitness(train, fitness_config)
    rng = np.random.default_rng(params.seed)

    zero = np.zeros(params.dimension, dtype=np.int8)
    hawks = []
    for position in init_population(params, rng):
        bits = binarize(position, zero, transfer, rng)
        hawks.append(Hawk(position=position, bits=bits, fitness=score(bits)))

    # A move hands a hawk new arrays and never writes into its old ones, so
    # the rabbit can share the arrays of the hawk it was taken from.
    rabbit = None
    convergence = np.empty(params.max_iters)
    for t in range(params.max_iters):
        for hawk in hawks:
            if rabbit is None or hawk.fitness < rabbit.fitness:
                rabbit = Hawk(hawk.position, hawk.bits, hawk.fitness)
        convergence[t] = rabbit.fitness
        if history is not None:
            history.append((rabbit.fitness, int(rabbit.bits.sum())))

        current_positions = np.array([h.position for h in hawks])
        swarm_mean = mean_position(current_positions)
        for hawk in hawks:
            energy = escaping_energy(t, params.max_iters, rng)
            if abs(energy.e) >= 1.0:
                new_position = exploration_step(hawk.position, current_positions,
                                                rabbit.position, params, rng)
                new_bits = binarize(new_position, hawk.bits, transfer, rng)
                hawk.position = new_position
                hawk.bits = new_bits
                hawk.fitness = score(new_bits)
            else:
                evaluated: dict[bytes, tuple[np.ndarray, float]] = {}

                def objective(candidate: np.ndarray) -> float:
                    key = candidate.tobytes()
                    if key not in evaluated:
                        bits = binarize(candidate, hawk.bits, transfer, rng)
                        evaluated[key] = (bits, score(bits))
                    return evaluated[key][1]

                new_position = exploitation_step(hawk.position, hawk.fitness,
                                                 rabbit.position, swarm_mean,
                                                 energy, params, rng, objective)
                if new_position is hawk.position:
                    continue  # both dives rejected, hawk stays put
                cached = evaluated.get(new_position.tobytes())
                if cached is None:
                    bits = binarize(new_position, hawk.bits, transfer, rng)
                    cached = (bits, score(bits))
                hawk.position = new_position
                hawk.bits = cached[0]
                hawk.fitness = cached[1]

    # no rescan after the final moves: the rabbit only advances via the scan
    # at the top of each iteration, so a 1-iteration run returns the best of
    # the initial population
    if not math.isfinite(rabbit.fitness) or rabbit.bits.sum() == 0:
        raise NumericalError("search never produced a non-empty mask")
    return FeatureMask(rabbit.bits.copy()), convergence
