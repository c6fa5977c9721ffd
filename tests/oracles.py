"""Reference enumerations and computations shared by the tests."""

import numpy as np


def partitions(n: int):
    """Yield every partition of n agents as a tuple of coalition masks.

    Agents are placed one at a time into an existing block or a fresh
    one, so blocks appear in order of their lowest member and the whole
    sequence is deterministic.  This is the order in which solve_enum
    builds its partitions.
    """

    def place(agent: int, blocks: list[int]):
        if agent == n:
            yield tuple(blocks)
            return
        bit = 1 << agent
        for k in range(len(blocks)):
            blocks[k] |= bit
            yield from place(agent + 1, blocks)
            blocks[k] ^= bit
        blocks.append(bit)
        yield from place(agent + 1, blocks)
        blocks.pop()

    yield from place(0, [])


def closed_form_xyz(closed, gammas):
    """X, Y and Z of a qaoa._ClosedForm at a 1-D array of gammas, computed as it
    once did: the cosine of every entry of closed.coef, then np.split of the
    products.  The reference its one cosine per distinct argument is held to."""
    m, pairs = len(closed.h), len(closed.j)
    prods = np.cos(gammas[:, None, None] * closed.coef).prod(-1)
    single, one, other, minus, plus = np.split(prods, [m, m + pairs, m + 2 * pairs, m + 3 * pairs], -1)
    x = (single * np.sin(gammas[:, None] * (2.0 * closed.h)) * closed.h).sum(-1)
    y = ((one + other) * np.sin(gammas[:, None] * (2.0 * closed.j)) * closed.j).sum(-1)
    z = ((minus - plus) * (0.5 * closed.j)).sum(-1)
    return x, y, z
