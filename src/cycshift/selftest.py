"""Built-in consistency suites, runnable in the field via the CLI.

Each group is one row of :data:`cycshift.oracle.PAIRS`: a fast path
checked against its brute-force reference at small sizes (n <= 16).
The test suite runs the same rows at larger sizes.
"""

from .oracle import PAIRS

__all__ = ["run_selftest"]


def run_selftest() -> list[tuple[str, bool, str]]:
    """Run every group; returns (name, passed, detail) triples."""
    return [(pair.name, *pair.check()) for pair in PAIRS]
