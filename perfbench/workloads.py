"""Seeded inputs for the four benchmark workloads.

Each workload is a list of ``Case`` objects. A case carries only what the
solver is given (the moments, and constraints for ``constrained``) plus the
ground truth the oracle scores against; the solver never sees the truth.

- ``corpus``: draws of ``sample_instance``'s recipe, data exactly to degree
  2(tau+1), stratified by (dimension, tau) as the reference seed 2026 draws
  them. At seed 2026 they are ``sample_instance``'s own first draws, so the
  first 200 are the acceptance suite's criterion-1 corpus.
- ``grid``: full product grids with equally spaced nodes on [-1, 1] and
  weights 1 + 0.01 i, from 1-D up to 4-D 3^4, plus two copies that carry
  only the least data detection needs. The ladder, its order included, is the
  same for every seed: its working-range rows compare across runs, and the
  order of big and small solves alone moved the pass time by about 10%.
- ``constrained``: the ``corpus`` stream with two constraints per draw:
  x1 - (first atom's x1), which the atoms left of that cut violate, and
  4 - x1^2, which no atom in [-2, 2] violates.
- ``refusal``: the ``corpus`` stream turned into data that should mostly be
  refused: one atom subtracted instead of added, or relative Gaussian noise
  of 1e-7 or 1e-5 on every moment.
"""

from __future__ import annotations

import hashlib
import itertools
from collections import Counter
from dataclasses import dataclass

import numpy as np

from momentrec import (
    AtomicMeasure,
    MultivariatePoly,
    SampledInstance,
    SemialgebraicSet,
    TruncatedSequence,
    evaluate_moments,
    minimal_tau,
    sample_measure,
)

WORKLOADS = ("corpus", "grid", "constrained", "refusal")
# the stream whose (dimension, tau) make-up every seed's draws copy; its first
# 200 draws are the acceptance suite's criterion-1 corpus
REFERENCE_SEED = 2026
MAX_DRAWS_PER_INPUT = 200
# tau above this counts as this in the strata: the reference stream has one
# 3-D draw with tau 9, and waiting for its like made the generation time swing
# 2x with the seed
TAU_STRATUM_CAP = 8

FULL_DRAWS = 1000
SMALL_DRAWS = 24

GRID_WEIGHT_STEP = 0.01
# the 1-D rungs take milliseconds, and the grid's p50 is one of them: each is
# solved this many times per pass so that one slow solve does not set the p50
GRID_1D_REPEATS = 9
REFUSAL_KINDS = ("signed", "noise_1e-07", "noise_1e-05")
NOISE_LEVELS = {"noise_1e-07": 1e-7, "noise_1e-05": 1e-5}


@dataclass(frozen=True)
class Case:
    """One solve: the solver's input plus the truth it is scored against."""

    label: str
    moments: TruncatedSequence
    truth: AtomicMeasure
    kind: str = "clean"
    constraints: SemialgebraicSet | None = None
    repeats: int = 1  # solves per pass; the input's latency is their median


def grid_ladder(small: bool) -> list[tuple[int, int, int | None]]:
    """(dim, nodes per axis, data degree or None for 2(tau+1)) per rung."""
    if small:
        return [(1, m, None) for m in (4, 10)] + [(2, 4, None), (3, 3, None), (3, 3, 6)]
    rungs = [(1, m, None) for m in range(4, 15)]
    rungs += [(2, 10, None), (3, 5, None), (3, 6, None), (4, 3, None)]
    # least data detection needs: degree max(2m, d(m - 1))
    rungs += [(d, m, max(2 * m, d * (m - 1))) for d, m in ((3, 5), (4, 3))]
    return rungs


def grid_measure(dim: int, nodes: int) -> AtomicMeasure:
    axis = tuple(float(x) for x in np.linspace(-1.0, 1.0, nodes))
    points = tuple(itertools.product(*([axis] * dim)))
    weights = tuple(1.0 + GRID_WEIGHT_STEP * i for i in range(len(points)))
    return AtomicMeasure(dim=dim, points=points, weights=weights)


def _grid_cases(small: bool) -> list[Case]:
    cases = []
    for dim, nodes, degree in grid_ladder(small):
        truth = grid_measure(dim, nodes)
        tau = dim * (nodes - 1)
        full = degree is None
        degree = 2 * (tau + 1) if full else degree
        label = f"{dim}-D {nodes}^{dim}" + ("" if full else f" deg {degree}")
        repeats = GRID_1D_REPEATS if dim == 1 else 1
        cases.append(Case(label, evaluate_moments(truth, degree), truth, repeats=repeats))
    # the 1-D rungs alternate with the others, so their repeated solves (spread
    # evenly between a pass's inputs) meet the host all through the pass
    one_d = [c for c in cases if c.moments.dim == 1]
    rest = [c for c in cases if c.moments.dim > 1]
    return [c for pair in itertools.zip_longest(one_d, rest) for c in pair if c is not None]


def _structure(measure: AtomicMeasure) -> tuple[int, int]:
    return measure.dim, min(minimal_tau(measure), TAU_STRATUM_CAP)


def _draws(seed: int, count: int) -> list[SampledInstance]:
    """``count`` draws of ``sample_instance``'s recipe, stratified by structure.

    Solve time is close to a step function of (dimension, tau), and a p99
    over 1000 draws sits on such a step, so a plain stream would make the
    batch time and the tail percentiles mostly a matter of how many heavy
    draws the seed happens to give. Each (dimension, tau) stratum therefore
    gets the count the reference seed's stream has; a draw whose stratum is
    full is skipped. Coordinates, weights and atoms still come from the
    seed, and at the reference seed nothing is skipped, so its draws are
    exactly ``sample_instance``'s.
    """
    reference = np.random.default_rng(REFERENCE_SEED)
    quota = Counter(_structure(sample_measure(reference)) for _ in range(count))
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(MAX_DRAWS_PER_INPUT * count):
        measure = sample_measure(rng)
        key = _structure(measure)
        if quota[key] > 0:
            quota[key] -= 1
            tau = minimal_tau(measure)
            moments = evaluate_moments(measure, 2 * (tau + 1))
            draws.append(SampledInstance(measure=measure, tau=tau, moments=moments))
            if len(draws) == count:
                return draws
    raise RuntimeError(f"seed {seed}: strata not filled after {MAX_DRAWS_PER_INPUT * count} draws")


def _constraints(truth: AtomicMeasure) -> SemialgebraicSet:
    d = truth.dim
    x1 = MultivariatePoly.variable(d, 0)
    cut = x1 - MultivariatePoly.constant(d, truth.points[0][0])
    box = MultivariatePoly.constant(d, 4.0) - x1 * x1
    return SemialgebraicSet((cut, box))


def _signed(inst: SampledInstance, flip: int) -> TruncatedSequence:
    """The instance's moments with atom ``flip`` subtracted instead of added."""
    truth, seq = inst.measure, inst.moments
    atom = AtomicMeasure(
        dim=truth.dim, points=(truth.points[flip],), weights=(truth.weights[flip],)
    )
    single = evaluate_moments(atom, seq.max_degree).values
    values = {idx: v - 2.0 * single[idx] for idx, v in seq.values.items()}
    return TruncatedSequence(seq.dim, seq.max_degree, values)


def _noisy(seq: TruncatedSequence, rng: np.random.Generator, level: float):
    noise = rng.standard_normal(len(seq.values))
    values = {
        idx: v * (1.0 + level * float(e))
        for (idx, v), e in zip(sorted(seq.values.items()), noise)
    }
    return TruncatedSequence(seq.dim, seq.max_degree, values)


def _refusal_cases(seed: int, count: int) -> list[Case]:
    # a second stream, so the perturbations do not shift the instance draws
    perturb = np.random.default_rng([seed, 1])
    # the kinds cycle within each stratum, so every seed perturbs the same mix
    seen = Counter()
    cases = []
    for n, inst in enumerate(_draws(seed, count)):
        key = _structure(inst.measure)
        kind = REFUSAL_KINDS[seen[key] % len(REFUSAL_KINDS)]
        seen[key] += 1
        if kind == "signed":
            flip = int(perturb.integers(inst.measure.atom_count))
            moments = _signed(inst, flip)
        else:
            moments = _noisy(inst.moments, perturb, NOISE_LEVELS[kind])
        cases.append(Case(f"draw {n}", moments, inst.measure, kind))
    return cases


def make_cases(workload: str, seed: int, small: bool = False) -> list[Case]:
    """The workload's cases, a pure function of (workload, seed, small)."""
    count = SMALL_DRAWS if small else FULL_DRAWS
    if workload == "corpus":
        return [
            Case(f"draw {n}", inst.moments, inst.measure)
            for n, inst in enumerate(_draws(seed, count))
        ]
    if workload == "constrained":
        return [
            Case(f"draw {n}", inst.moments, inst.measure, "constrained",
                 _constraints(inst.measure))
            for n, inst in enumerate(_draws(seed, count))
        ]
    if workload == "refusal":
        return _refusal_cases(seed, count)
    if workload == "grid":
        return _grid_cases(small)
    raise ValueError(f"unknown workload {workload!r}")


def fingerprint(cases: list[Case]) -> str:
    """Digest of every solver input in order, to compare two generations."""
    digest = hashlib.sha256()
    for case in cases:
        seq = case.moments
        digest.update(f"{seq.dim}:{seq.max_degree};".encode())
        for idx in sorted(seq.values):
            digest.update(np.float64(seq.values[idx]).tobytes())
        for q in case.constraints.constraints if case.constraints else ():
            digest.update(repr(sorted(q.terms.items())).encode())
    return digest.hexdigest()
