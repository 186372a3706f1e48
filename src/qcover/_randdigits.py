"""The values of ``random.Random.randrange(q)``, drawn in bulk.

This is the sampling side of :func:`qcover.codes.verify_covering_sampled`,
whose seeded samples are digits from one ``randrange(q)`` stream.
:func:`randrange_digits` returns the same values, bit for bit, many at a
time. CPython's ``randrange(q)`` redraws ``getrandbits(k)``, k =
q.bit_length(), until it is below q. For k <= 32 that is one 32-bit
Mersenne Twister output shifted right by 32 - k; past 32 it is ceil(k/32)
outputs, low word first, the top one shifted by 32*ceil(k/32) - k. And
``getrandbits(32*N)`` returns N outputs, low word first. The tests compare
the stream with ``randrange`` itself, so a Python release that changes how
``randrange`` consumes the generator fails them.
"""

from __future__ import annotations

import random
from typing import Callable

import numpy as np

#: The most 32-bit generator outputs one bulk draw takes.
DRAW_WORDS = 1 << 14


def randrange_digits(rng: random.Random, q: int) -> Callable[[int], np.ndarray]:
    """``take(count)``: the next ``count`` values of ``rng.randrange(q)``.

    Values are uint32, or uint64 once q >= 2^32. ``take`` draws up to
    :data:`DRAW_WORDS` outputs at a time, keeps the draws below q, and
    carries the ones it does not return into its next call, so the values
    do not depend on how the counts are split. Drawing needs q <= 2^64; an
    indexable space with n >= 1 has q < 2^63.
    """
    k = q.bit_length()
    width = -(-k // 32)  # outputs per draw
    shift = 32 * width - k
    spare = np.empty(0, np.uint32 if width == 1 else np.uint64)

    def take(count: int) -> np.ndarray:
        nonlocal spare
        parts, have = [spare], spare.size
        while have < count:
            # about as many draws as leave count values below q
            draws = min(((count - have) << k) // q + 1, DRAW_WORDS // width)
            raw = rng.getrandbits(32 * width * draws).to_bytes(4 * width * draws, "little")
            words = np.frombuffer(raw, "<u4").reshape(draws, width)
            values = words[:, -1] >> shift
            for j in range(width - 2, -1, -1):
                values = values.astype(np.uint64) << 32 | words[:, j]
            parts.append(values[values < q])
            have += parts[-1].size
        stream = np.concatenate(parts)
        spare = stream[count:].copy()
        return stream[:count]

    return take
