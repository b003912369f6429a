"""Derived data kept on its owner, in a ``_cache`` dict that takes no part
in the owner's equality, hashing or ``repr``."""

import functools


def cached(compute):
    """Keep ``compute(owner)`` in ``owner._cache``, keyed by the function's
    name, after its first success.  A call that raises keeps nothing, so it
    raises again next time."""
    key = compute.__name__

    @functools.wraps(compute)
    def get(owner):
        cache = owner._cache
        if key not in cache:
            cache[key] = compute(owner)
        return cache[key]

    return get
