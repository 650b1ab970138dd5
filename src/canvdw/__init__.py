"""Witness search, certificates, and canonical colouring machinery for
typed interval colourings built from integral polynomial families."""

from .coloring import (
    CanonicalForm,
    TypedColouring,
    block_coloring,
    canonicalize,
    colouring_digest,
    enumerate_colourings,
    load_colouring,
    parse_colouring,
    restricted_growth,
    restricted_growth_strings,
    serialize,
)
from .polynomial import (
    FormatError,
    IntegralPolynomial,
    PolynomialFamily,
    bstar_family,
    dump_family,
    h_value,
    load_family,
    parse_family,
    parse_json,
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
    admitted_steps,
    collection_norm,
    find_focused_collection,
    find_witness,
    first_witness,
    is_focused,
    is_fully_rainbow,
    is_monochromatic,
    is_rainbow,
    load_certificate,
    step_admitted,
    validate_collection,
    verify_certificate,
    witness_scanner,
)

__version__ = "0.1.0"
