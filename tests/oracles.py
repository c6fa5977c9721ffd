"""Reference enumerations shared by the tests."""


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
