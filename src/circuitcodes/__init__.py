"""Hypercube circuit codes: verification, canonical forms, exhaustive search.

A (d,k) circuit code is a cycle in the d-dimensional hypercube whose
vertices keep cube distance at least min(cycle distance, k).  This
package represents codes by their transition sequences (which coordinate
flips at each step), decides validity, reduces codes to canonical form
under rotation and relabeling, exhaustively searches for maximum-length
codes (general, symmetric, and run-constrained families), and audits the
structural properties that every valid code must satisfy.
"""

from .canon import CanonicalForm, IsomorphismClass, are_isomorphic, canonical_form, classify
from .core import (
    MAX_DIMENSION,
    CodeParams,
    MalformedSequenceError,
    Segment,
    Word,
    as_word,
    cyclic_code_distance,
    delta,
    expand_vertices,
    format_sequence,
    hamming_distance,
    is_closed,
    parity_set,
    parse_sequence,
    rotate,
    segment_labels,
)
from .search import (
    IncompleteEnumerationError,
    SearchOptions,
    SearchRecord,
    enumerate_max,
    family_symmetric_max,
    max_length,
    symmetric_max,
)
from .tables import KnownValue, lookup
from .verify import (
    BitRunReport,
    InapplicableError,
    InternalConsistencyError,
    NormalizedForm,
    NotACircuitCodeError,
    StructuralError,
    ViolationReport,
    audit_delta_inequalities,
    bit_runs,
    brute_force_check,
    check_spread,
    check_window_bitrun_property,
    in_family,
    is_symmetric,
    is_valid_code,
    normalize_to_bitrun_form,
)

__version__ = "1.0.0"

__all__ = [
    "MAX_DIMENSION",
    "CodeParams",
    "Segment",
    "Word",
    "MalformedSequenceError",
    "StructuralError",
    "InapplicableError",
    "InternalConsistencyError",
    "NotACircuitCodeError",
    "IncompleteEnumerationError",
    "as_word",
    "parse_sequence",
    "format_sequence",
    "rotate",
    "segment_labels",
    "is_closed",
    "parity_set",
    "expand_vertices",
    "delta",
    "cyclic_code_distance",
    "hamming_distance",
    "ViolationReport",
    "check_spread",
    "brute_force_check",
    "is_valid_code",
    "is_symmetric",
    "BitRunReport",
    "bit_runs",
    "in_family",
    "check_window_bitrun_property",
    "audit_delta_inequalities",
    "NormalizedForm",
    "normalize_to_bitrun_form",
    "CanonicalForm",
    "IsomorphismClass",
    "canonical_form",
    "are_isomorphic",
    "classify",
    "SearchOptions",
    "SearchRecord",
    "max_length",
    "symmetric_max",
    "family_symmetric_max",
    "enumerate_max",
    "KnownValue",
    "lookup",
]
