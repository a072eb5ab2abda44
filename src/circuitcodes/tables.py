"""Lookup of published extremal code lengths.

The values live in ``data/known_values.json`` and are literature data,
not computed results.  Each rule carries the preconditions of the family
it covers; ``lookup`` returns a value only when every precondition holds,
so the CLI never claims agreement outside a formula's stated range.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from importlib import resources

from .core import CodeParams


@dataclass(frozen=True)
class KnownValue:
    mode: str
    expected_length: int
    unique: bool
    label: str


@functools.cache
def _load_rules() -> list[dict]:
    text = (
        resources.files("circuitcodes").joinpath("data/known_values.json").read_text()
    )
    return json.loads(text)["rules"]


def _length_of(rule: dict, k: int, l: int) -> int:
    coefs = rule["length"]
    return coefs["k_coef"] * k + coefs["l_coef"] * l + coefs["const"]


def lookup(params: CodeParams, mode: str, l: int | None = None) -> KnownValue | None:
    """Published maximum length for (d, k) under the given search mode.

    ``mode`` is one of ``general``, ``symmetric``, ``family`` (the latter
    requires ``l``).  None when no rule's preconditions are met.
    """
    d, k = params.d, params.k
    for rule in _load_rules():
        if rule["mode"] != mode:
            continue
        if mode == "family":
            if l is None:
                continue
            if k < rule["k_min"] or l < rule["l_min"]:
                continue
            if rule.get("parity") == "opposite" and (k - l) % 2 == 0:
                continue
            bound = rule["k_min_if_odd"] if k % 2 else rule["k_min_if_even"]
            if k < bound["l_coef"] * l + bound["const"]:
                continue
            if 2 * d - 3 * k - l != rule["two_d_minus_three_k_minus_l"]:
                continue
            return KnownValue(
                mode=mode,
                expected_length=_length_of(rule, k, l),
                unique=l in rule.get("unique_for_l", []),
                label=rule["label"],
            )
        parity = rule.get("k_parity")
        if parity == "odd" and k % 2 == 0:
            continue
        if parity == "even" and k % 2 == 1:
            continue
        if k < rule["k_min"]:
            continue
        if 2 * d - 3 * k != rule["two_d_minus_three_k"]:
            continue
        return KnownValue(
            mode=mode,
            expected_length=_length_of(rule, k, 0),
            unique=bool(rule.get("unique", False)),
            label=rule["label"],
        )
    return None
