"""State counts and the checks on them, free of numpy: the CLI refuses a
request with these before it imports any solver, and `arena` re-exports
them."""

from __future__ import annotations

import numbers

from .errors import StateCountExceededError, ValidationError

DEFAULT_MAX_STATES = 10**7

# no state count reaches this, so that an int64 indexes every state
INDEX_LIMIT = 2**63


def count_of(n, least: int, need: str) -> int:
    """n as an int, refused with "need <need>" unless it is an integer of
    at least `least`. Any integer type counts, numpy's included, but bool."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise ValidationError(f"need {need}, got {type(n).__name__} {n!r}")
    if n < least:
        raise ValidationError(f"need {need}, got {n}")
    return int(n)


def arena_size(v: int, n: int) -> str:
    """V and N, and V^N * N while it is small."""
    small = n * v.bit_length() <= 64
    return f"{v} vertices with N={n}" + (f" ({v**n * n} states)" if small else "")


def capped_count(per_tuple: int, v: int, tokens: int, max_states: int, named: str) -> int:
    """per_tuple * V^tokens states, refused as "<named> exceeds the cap"
    above max_states, or above INDEX_LIMIT - 1 whatever max_states says,
    after at most 64 products, never a power."""
    cap = min(max_states, INDEX_LIMIT - 1)
    count = per_tuple if v else 0
    for _ in range(tokens if v > 1 else 0):
        if (count := count * v) > cap:
            break
    if count > cap:
        raise StateCountExceededError(f"{named} exceeds the cap of {cap} states")
    return count
