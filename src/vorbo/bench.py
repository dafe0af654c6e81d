"""Deterministic benchmark functions rescaled to the unit cube.

Every problem maps [0,1]^P to its standard native box before evaluating, so
optimizers only ever see unit-cube coordinates.  Ackley additionally hides
its optimum at a uniformly drawn location via a modulo-1 (torus) translation
of the unit-cube coordinates; the wrap keeps the function defined on the
whole cube with the optimum interior almost surely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

PROBLEM_NAMES = ("ackley", "levy", "rosenbrock", "sinesum2d")

#: Native evaluation boxes (lower, upper), identical in every coordinate.
NATIVE_DOMAINS = {
    "ackley": (-32.768, 32.768),
    "levy": (-10.0, 10.0),
    "rosenbrock": (-5.0, 10.0),
    "sinesum2d": (0.0, 1.0),
}

#: The dimension of each problem defined at one P only; the others take any P.
FIXED_DIMS = {"sinesum2d": 2}


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


_NATIVE_FUNCS = {
    "ackley": _ackley,
    "levy": _levy,
    "rosenbrock": _rosenbrock,
    "sinesum2d": _sinesum,
}


def check_problem(name: str, dim: int) -> None:
    """Raise ValueError unless `name` is a built-in problem defined at `dim`."""
    if name not in PROBLEM_NAMES:
        raise ValueError(f"unknown problem {name!r}; expected one of {PROBLEM_NAMES}")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if FIXED_DIMS.get(name, dim) != dim:
        raise ValueError(f"{name} is a {FIXED_DIMS[name]}-D problem, got dim={dim}")


def make_problem(name: str, dim: int, rng: np.random.Generator) -> TestProblem:
    """Build a problem on [0,1]^dim.

    `rng` is consumed only by Ackley (its optimum location); the other
    problems are fully deterministic and leave the generator untouched.
    `FIXED_DIMS` problems take only their own dim.  Evaluate accepts a single
    point or a batch (leading axes broadcast) of unit-cube coordinates.
    """
    check_problem(name, dim)
    lo, hi = NATIVE_DOMAINS[name]
    func = _NATIVE_FUNCS[name]
    shift = rng.random(dim) if name == "ackley" else None

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
