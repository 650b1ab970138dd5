"""Witness search, certificates, and canonical colouring machinery for
typed interval colourings built from integral polynomial families."""

from .coloring import (
    CanonicalForm,
    ColouringFormatError,
    EquivalenceFingerprint,
    TypedColouring,
    bell_number,
    block_coloring,
    block_fingerprint,
    canonicalize,
    colouring_digest,
    enumerate_colourings,
    extend,
    fingerprint_count_bound,
    interval_equivalent,
    load_colouring,
    parse_colouring,
    restricted_growth,
    serialize,
)
from .polynomial import (
    FamilyFormatError,
    IntegralPolynomial,
    PolynomialFamily,
    WeightVector,
    bstar_family,
    d_max,
    dump_family,
    h_value,
    load_family,
    parse_family,
    scale_family,
    shift_difference,
    weight_less,
    weight_vector,
)
from .search import (
    EnumerationCapExceeded,
    SearchConfig,
    SearchResult,
    canonical_number,
    extremal_colourings,
    naive_canonical_number,
    run_report,
)
from .witness import (
    Certificate,
    D_POLICIES,
    FocusedCollection,
    NormInfo,
    VerifyResult,
    WitnessSet,
    collection_norm,
    find_focused_collection,
    find_witness,
    is_focused,
    is_fully_rainbow,
    is_monochromatic,
    is_rainbow,
    validate_collection,
    verify_certificate,
)

__version__ = "0.1.0"
