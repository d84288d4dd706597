"""Exception types shared across the package.

Two categories, matching the CLI exit codes: bad user input (exit 1) and
violated internal contracts / failed verification (exit 2).
"""


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
