"""Machine-speed calibration for the end-to-end timings.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to ~35 % over seconds to minutes: a fixed loop of Python and numpy work takes
2.3 ms in one stretch and 3.9 ms in the next, in CPU time as in wall time.
Runs minutes apart then differ more than any bound worth keeping, though the
program has not changed.

So every end-to-end timing is measured together with ``loop_s``, a fixed
loop of interpreted Python and numpy work (the two kinds of work qroulette
does) that runs between the timed operations, never at the same time as
them.  A timing is divided by the loop time measured around it
(``bracket_scales``; for set-up, the median of the passes just before the
set-ups) and multiplied by REFERENCE_S, the loop's usual time on the machine
the bounds were set on (2-core x86-64, Python 3.11.7, numpy 2.4.6).  The
result reads as seconds at that machine's usual speed: a program twice as
fast reads half, whatever the host was doing at the time.  The wall times
are printed beside them as ``figure`` lines.

This module depends on numpy alone, never on qroulette, so a change to the
program cannot change the yardstick.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

# the loop's usual median in a run on the reference machine (6.9-7.3 ms)
REFERENCE_S = 0.0070

_DATA = np.random.default_rng(20260).random(1 << 17)
_BIG = np.random.default_rng(20261).random(1 << 20)
_ROWS = [((i * 7919) % 613, str(i)) for i in range(2400)]
# preallocated, so that a pass allocates no large block and its time does not
# depend on the state the program left the allocator in
_SORTED = np.empty_like(_DATA)
_EXP = np.empty_like(_DATA)
_SMALL = np.zeros(64)


def loop_s() -> float:
    """Seconds one pass of the fixed calibration loop takes now.

    Five kinds of work of about 1 ms each on the reference machine, because
    the host's slowdowns hit them unequally: interpreted float arithmetic;
    sorting and dict updates on Python objects; many numpy calls on arrays of
    at most 64 elements (dispatch-bound, like quadrature callbacks); sorting
    and ``exp`` over a 1 MB buffer; and sums over an 8 MB array (memory
    traffic, like the sampler's chunks).
    """
    from time import perf_counter

    # bring the buffers back into cache, untimed, whatever ran before
    np.copyto(_EXP, _SORTED)
    np.copyto(_SORTED, _DATA)
    start = perf_counter()
    total = 0.0
    for i in range(1, 8000):
        total += math.sqrt(i) / i
    counts: dict[str, int] = {}
    for key, name in sorted(_ROWS):
        counts[name[-2:]] = counts.get(name[-2:], 0) + key
    total += sum(counts.values())
    _SMALL.fill(0.0)
    for n in range(180):
        k = np.arange(n % 64 + 1)
        _SMALL[: k.size] += 0.5 * np.exp(-0.1 * k)
    total += float(_SMALL.sum())
    _SORTED.sort()
    np.negative(_SORTED, out=_EXP)
    np.exp(_EXP, out=_EXP)
    total += float(_EXP.sum())
    total += float(_BIG.sum()) + float(_BIG[::8].sum())
    if not math.isfinite(total):
        raise RuntimeError("calibration loop produced a non-finite value")
    return perf_counter() - start


def scale(samples) -> float:
    """Factor that turns seconds measured alongside ``samples`` into seconds at
    the reference speed."""
    return REFERENCE_S / statistics.median(samples)


def bracket_scales(passes) -> list[float]:
    """Factors for n timings of one round from the n + 1 loop times around
    them: ``passes[i]`` just before timing i, ``passes[i + 1]`` just after.

    A timing's loop time is the geometric mean of the two passes around it
    (their mean) and of the round's median pass: the bracket follows the host
    through a long operation, and the round's median keeps one stray pass from
    swinging the factor of a short one.
    """
    typical = statistics.median(passes)
    return [
        REFERENCE_S / math.sqrt(0.5 * (before + after) * typical)
        for before, after in zip(passes, passes[1:])
    ]
