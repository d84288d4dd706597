"""Exception types shared across the package.

Two categories, matching the CLI exit codes: bad user input (exit 1) and
violated internal contracts / failed verification (exit 2).
"""

import json


# Windows and positions are int64 in numpy; larger values cannot be compared.
INT64_MAX = 2**63 - 1


class InputError(ValueError):
    """Caller-supplied data is unusable (bad token ids, empty corpus, ...)."""


class ContractViolation(RuntimeError):
    """An API precondition or internal invariant was broken."""


def check_seed(seed):
    """Return ``seed`` for ``numpy.random.default_rng``, refusing negatives."""
    if seed is not None and seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    return seed


def parse_json(data: bytes, source: str):
    """Decode one JSON document from UTF-8 bytes read from ``source``.

    Every way the input can be unreadable (bad UTF-8, bad syntax, an integer
    past Python's digit limit, nesting past the recursion limit) is one
    ``InputError`` naming ``source``.
    """
    try:
        return json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise InputError(f"{source}: not valid JSON: {exc}") from exc
