"""Seeded random framework generators shared by the property tests."""

import random

from argsolve import Framework, build_framework


def random_framework(rng: random.Random, max_size: int = 10) -> Framework:
    """Size uniform in [0, max_size], edge density uniform in [0, 1].

    Self-loops are allowed; every ordered pair is sampled independently.
    """
    n = rng.randint(0, max_size)
    names = [f"x{i}" for i in range(n)]
    density = rng.random()
    pairs = [
        (src, dst) for src in names for dst in names if rng.random() < density
    ]
    return build_framework(names, pairs)


def random_shuffled_names_framework(rng: random.Random, max_size: int = 12) -> Framework:
    """Like random_framework, but name order differs from declaration order.

    The names ``x, x1, x2, ...`` are declared in shuffled order. ``x`` is a
    prefix of every other name, ``x1`` of ``x10`` and ``x11``, and from 11
    arguments on ``x10`` sorts before ``x2``.
    """
    n = rng.randint(0, max_size)
    names = ["x"] + [f"x{i}" for i in range(1, n)] if n else []
    rng.shuffle(names)
    density = rng.random()
    pairs = [
        (src, dst) for src in names for dst in names if rng.random() < density
    ]
    return build_framework(names, pairs)


def random_symmetric_framework(rng: random.Random, max_size: int = 10) -> Framework:
    """Nonempty symmetric attack relation, no self-loops."""
    n = rng.randint(2, max_size)
    names = [f"x{i}" for i in range(n)]
    density = rng.random()
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                pairs.append((names[i], names[j]))
                pairs.append((names[j], names[i]))
    if not pairs:
        i, j = rng.sample(range(n), 2)
        pairs = [(names[i], names[j]), (names[j], names[i])]
    return build_framework(names, pairs)


def random_acyclic_framework(rng: random.Random, max_size: int = 10) -> Framework:
    """Edges only from higher to lower index, hence no directed cycle."""
    n = rng.randint(0, max_size)
    names = [f"x{i}" for i in range(n)]
    density = rng.random()
    pairs = [
        (names[j], names[i])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < density
    ]
    return build_framework(names, pairs)


def random_odd_cycle_free_framework(rng: random.Random, max_size: int = 10) -> Framework:
    """Edges cross a two-sided split only, so every cycle is even."""
    n = rng.randint(0, max_size)
    names = [f"x{i}" for i in range(n)]
    side = [rng.randint(0, 1) for _ in range(n)]
    density = rng.random()
    pairs = [
        (names[i], names[j])
        for i in range(n)
        for j in range(n)
        if side[i] != side[j] and rng.random() < density
    ]
    return build_framework(names, pairs)
