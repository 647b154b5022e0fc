"""Shared generators for randomized suites.

Sampling is always driven by an explicit random.Random so every test run
is reproducible; no test touches the global RNG.
"""

from __future__ import annotations

import random

import pytest

from tracecodes import Code, SetFamily, core


def random_code(rng: random.Random, N: int, q: int, n: int) -> Code:
    """A uniform random code: n distinct words of length N over {0..q-1}."""
    if n > q**N:
        raise ValueError(f"cannot draw {n} distinct words from a space of {q**N}")
    words: set[tuple[int, ...]] = set()
    while len(words) < n:
        words.add(tuple(rng.randrange(q) for _ in range(N)))
    return Code(tuple(sorted(words)), q)


def random_code_stream(seed: int, count: int, max_N=5, max_q=3, max_n=6):
    """``count`` random codes with sizes drawn uniformly from the given caps."""
    rng = random.Random(seed)
    for _ in range(count):
        N = rng.randint(1, max_N)
        q = rng.randint(2, max_q)
        n = rng.randint(1, min(max_n, q**N))
        yield random_code(rng, N, q, n)


def random_family(rng: random.Random, ground: int, n: int) -> SetFamily:
    """n distinct non-empty random subsets of a ground set."""
    if n > (1 << ground) - 1:
        raise ValueError(f"cannot draw {n} distinct non-empty subsets of {ground} points")
    members: set[int] = set()
    while len(members) < n:
        members.add(rng.randrange(1, 1 << ground))
    return SetFamily(ground, tuple(sorted(members)))


def sample_verified(rng: random.Random, count: int, make, check):
    """Rejection-sample ``count`` instances that ``check`` accepts."""
    out = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 400 * count:
            raise RuntimeError("rejection sampling is not converging; loosen the generator")
        candidate = make(rng)
        if check(candidate):
            out.append(candidate)
    return out


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xA5A5)


@pytest.fixture
def no_walk(monkeypatch):
    """Make ``core.failing_family`` raise: a 2-IPP check must walk no family."""

    def walk(*args):
        raise AssertionError("a family walk at t=2")

    monkeypatch.setattr(core, "failing_family", walk)
