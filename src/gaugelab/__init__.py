"""Exact-arithmetic laboratory for gauge integrals of vector-valued
functions on the unit interval.

The package is organised bottom-up: `exact` holds dyadic numbers, intervals
and regions; `gauges` builds gauges and tagged partitions over them; `spaces`
supplies the sequence and step-function value spaces; `integrands` and
`gallery` construct the functions under study; `integrate` and `stability`
run the checks; `cli` wires everything into the `gaugelab` command.
"""

from .errors import (
    GaugeLabError,
    MalformedInterval,
    ResolutionExceeded,
    SearchExhausted,
)
from .exact import (
    Dyadic,
    Interval,
    Region,
    UNIT,
    UNIT_REGION,
    format_region,
    parse_fraction,
    parse_region,
    region_intersect,
    region_subtract,
    region_union,
)
from .gauges import (
    Gauge,
    TaggedPartition,
    cousin_partition,
    extend_to_partition,
    is_partition,
    is_subordinate,
    partition_from_json,
    partition_to_json,
)
from .spaces import DualFunctional, Enclosure, ValueSpace, VectorValue, sqrt_enclosure
from .integrands import (
    IntegrandFn,
    adapted_gauge,
    exact_vector_integral,
    identity_integrand,
    poly_integrand,
    restrict_integrand,
    scalar_integral,
)
from .integrate import (
    NotApproximable,
    absolute_continuity,
    bochner_integrate,
    default_functionals,
    interval_series_check,
    lower_norm_integral,
    mcshane_integrate,
    pettis_check,
    sample_regions,
    talagrand_integrate,
    vitali_limit,
)
from .stability import FunctionFamily, Member, pairsum_z_bound, stability_scan, z_measure_mc
from .gallery import (
    FatSet,
    build_A_family,
    build_fat_set,
    example_3e,
    example_3f,
    example_3g,
    harmonic_half,
    inductive_tag_sequences,
    oscillation_witness_3e,
    truncation_cover,
    truncation_sequence,
)

__version__ = "0.1.0"

__all__ = [
    "Dyadic", "Interval", "Region", "UNIT", "UNIT_REGION",
    "parse_fraction", "parse_region", "format_region",
    "region_union", "region_intersect", "region_subtract",
    "Gauge", "TaggedPartition",
    "cousin_partition", "extend_to_partition",
    "is_partition", "is_subordinate",
    "partition_to_json", "partition_from_json",
    "ValueSpace", "VectorValue", "DualFunctional", "Enclosure", "sqrt_enclosure",
    "IntegrandFn", "poly_integrand", "identity_integrand", "restrict_integrand",
    "scalar_integral", "exact_vector_integral", "adapted_gauge",
    "mcshane_integrate", "pettis_check", "interval_series_check",
    "absolute_continuity", "lower_norm_integral", "talagrand_integrate",
    "bochner_integrate", "NotApproximable", "vitali_limit",
    "default_functionals", "sample_regions",
    "FunctionFamily", "Member", "z_measure_mc", "pairsum_z_bound", "stability_scan",
    "FatSet", "build_fat_set", "build_A_family",
    "inductive_tag_sequences", "oscillation_witness_3e",
    "example_3e", "example_3f", "example_3g",
    "harmonic_half", "truncation_cover", "truncation_sequence",
    "GaugeLabError", "MalformedInterval", "ResolutionExceeded", "SearchExhausted",
]
