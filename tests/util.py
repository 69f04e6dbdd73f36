"""Shared test helpers."""

import os
from pathlib import Path

import psl2ham


def random_words(group, rng, count, length=8):
    """Sample group elements as random words in the three generators."""
    gens = group.generators()
    out = []
    for _ in range(count):
        g = group.identity
        for _ in range(length):
            g = group.mul(g, rng.choice(gens))
        out.append(g)
    return out


def vertex_index(action):
    """Point -> its position in the vertex order of `action.points`."""
    return {p: n for n, p in enumerate(action.points)}


def fresh_process_env():
    """Environment for a child `python -m psl2ham` that imports the same
    package as this process, not whatever else is on its path."""
    src = str(Path(psl2ham.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=src)
