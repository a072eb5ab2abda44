"""Lookup of published extremal code lengths.

These are literature values shipped for cross-checking search output,
not computed results.  Each row below is one published statement: the
preconditions of the family it covers, the length as a formula in k
(and l), and whether the code is unique up to isomorphism.  A row
applies only when every precondition holds, so the CLI never claims
agreement outside a formula's stated range.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import CodeParams


@dataclass(frozen=True)
class KnownValue:
    expected_length: int
    unique: bool
    label: str


def lookup(params: CodeParams, mode: str, l: int | None = None) -> KnownValue | None:
    """Published maximum length for (d, k) under the given search mode.

    ``mode`` is one of ``general``, ``symmetric``, ``family`` (the latter
    requires ``l``).  None when no row's preconditions are met.
    """
    d, k = params.d, params.k
    odd = k % 2 == 1  # k >= 1 (CodeParams), so an even k is >= 2
    if mode == "general":
        if odd and 2 * d == 3 * k + 3:
            return KnownValue(
                4 * k + 4,
                True,
                "K(d,k) = 4k+4 for k odd with 2d = 3k+3; unique code up to isomorphism",
            )
        if not odd and 2 * d == 3 * k + 4:
            return KnownValue(4 * k + 6, False, "K(d,k) = 4k+6 for k even with 2d = 3k+4")
        if odd and k >= 9 and 2 * d == 3 * k + 5:
            return KnownValue(4 * k + 8, False, "K(d,k) = 4k+8 for k odd >= 9 with 2d = 3k+5")
    elif mode == "symmetric":
        if not odd and k >= 4 and 2 * d == 3 * k + 4:
            return KnownValue(
                4 * k + 6,
                True,
                "maximum symmetric length 4k+6 for k even >= 4 with 2d = 3k+4; "
                "unique code up to isomorphism",
            )
    elif mode == "family" and l is not None:
        if (
            l >= 2
            and (k - l) % 2 == 1
            and k >= (2 * l + 1 if odd else 2 * l - 2)
            and 2 * d == 3 * k + l + 1
        ):
            return KnownValue(
                4 * k + 2 * l,
                l in (2, 3),
                "S(d,k,k+l) = 4k+2l for opposite parities, k >= 2l+1 (k odd) or "
                "k >= 2l-2 (k even), with 2d = 3k+l+1; unique code for l in {2,3}",
            )
    return None
