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


def random_scc_chain_framework(
    rng: random.Random, max_size: int = 16, min_size: int = 0
) -> Framework:
    """Blocks of 1-4 arguments in a row, every attack between blocks forward.

    A block is a cycle through its arguments plus random attacks inside it,
    self-attacks among them, so each block of two or more is one SCC. Each
    block after the first is attacked from the block before it and at
    random from any earlier block. Names are declared in shuffled order.
    """
    target = rng.randint(min_size, max_size)
    names: list[str] = []
    pairs: list[tuple[str, str]] = []
    previous: list[str] = []
    inner, forward = rng.random() * 0.5, rng.random() * 0.3
    while len(names) < target:
        block = [f"x{len(names) + i}" for i in range(min(rng.randint(1, 4), target - len(names)))]
        if len(block) > 1:
            pairs += [(block[i - 1], block[i]) for i in range(len(block))]
        pairs += [(s, d) for s in block for d in block if rng.random() < inner / (2 if s == d else 1)]
        if previous:
            pairs.append((rng.choice(previous), rng.choice(block)))
        pairs += [(s, d) for s in names for d in block if rng.random() < forward]
        names += block
        previous = block
    rng.shuffle(names)
    return build_framework(names, pairs)
