"""Deterministic benchmark functions rescaled to the unit cube.

Every problem maps [0,1]^P to its standard native box before evaluating, so
optimizers only ever see unit-cube coordinates.  Ackley additionally hides
its optimum at a uniformly drawn location via a modulo-1 (torus) translation
of the unit-cube coordinates; the wrap keeps the function defined on the
whole cube with the optimum interior almost surely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np


@dataclass
class TestProblem:
    __test__ = False  # not a pytest class, despite the name

    name: str
    dim: int
    evaluate: Callable[[np.ndarray], np.ndarray]
    shift: np.ndarray | None


def _ackley(z: np.ndarray) -> np.ndarray:
    a, b, c = 20.0, 0.2, 2.0 * np.pi
    p = z.shape[-1]
    s1 = (z * z).sum(axis=-1) / p
    s2 = np.cos(c * z).sum(axis=-1) / p
    return -a * np.exp(-b * np.sqrt(s1)) - np.exp(s2) + a + np.e


def _levy(z: np.ndarray) -> np.ndarray:
    w = 1.0 + (z - 1.0) / 4.0
    head = np.sin(np.pi * w[..., 0]) ** 2
    mid = ((w[..., :-1] - 1.0) ** 2 * (1.0 + 10.0 * np.sin(np.pi * w[..., :-1] + 1.0) ** 2)).sum(
        axis=-1
    )
    tail = (w[..., -1] - 1.0) ** 2 * (1.0 + np.sin(2.0 * np.pi * w[..., -1]) ** 2)
    return head + mid + tail


def _rosenbrock(z: np.ndarray) -> np.ndarray:
    return (
        100.0 * (z[..., 1:] - z[..., :-1] ** 2) ** 2 + (1.0 - z[..., :-1]) ** 2
    ).sum(axis=-1)


def _sinesum(z: np.ndarray) -> np.ndarray:
    return np.sin(4.0 * np.pi * (z - 0.5) ** 2).sum(axis=-1)


class ProblemSpec(NamedTuple):
    func: Callable[[np.ndarray], np.ndarray]  # on native coordinates
    box: tuple[float, float]  # native (lower, upper), identical in every coordinate
    dim: int | None  # the one dimension the problem is defined at; None takes any P
    shifted: bool  # optimum moved to a uniformly drawn point


#: The one table of built-in problems.
PROBLEMS = {
    "ackley": ProblemSpec(_ackley, (-32.768, 32.768), None, True),
    "levy": ProblemSpec(_levy, (-10.0, 10.0), None, False),
    "rosenbrock": ProblemSpec(_rosenbrock, (-5.0, 10.0), None, False),
    "sinesum2d": ProblemSpec(_sinesum, (0.0, 1.0), 2, False),
}
PROBLEM_NAMES = tuple(PROBLEMS)


def check_problem(name: str, dim: int) -> None:
    """Raise ValueError unless `name` is a built-in problem defined at `dim`."""
    if name not in PROBLEMS:
        raise ValueError(f"unknown problem {name!r}; expected one of {PROBLEM_NAMES}")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if PROBLEMS[name].dim not in (None, dim):
        raise ValueError(f"{name} is a {PROBLEMS[name].dim}-D problem, got dim={dim}")


def make_problem(name: str, dim: int, rng: np.random.Generator) -> TestProblem:
    """Build a problem on [0,1]^dim.

    `rng` is consumed only by a `shifted` problem (its optimum location); the
    others are fully deterministic and leave the generator untouched.  A
    problem with a fixed `dim` takes only that dim.  Evaluate accepts a single
    point or a batch (leading axes broadcast) of unit-cube coordinates.
    """
    check_problem(name, dim)
    func, (lo, hi), _, shifted = PROBLEMS[name]
    shift = rng.random(dim) if shifted else None

    def evaluate(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != dim:
            raise ValueError(f"expected points in {dim} dimensions, got shape {x.shape}")
        u = x
        if shift is not None:
            # torus translation: the native optimum (center of the cube for
            # Ackley) moves to `shift`
            u = np.mod(u - shift + 0.5, 1.0)
        return func(lo + (hi - lo) * u)

    return TestProblem(name=name, dim=dim, evaluate=evaluate, shift=shift)
