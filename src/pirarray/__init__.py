"""Workbench for PIR array codes over GF(2).

Builds the classic families of k-PIR array codes, verifies the k-PIR
property exactly, evaluates the rate and bound formulas with exact rational
arithmetic, and replays deterministic multi-server recovery sessions.
"""

from .bounds import (
    corollary_bound,
    fvy_rate,
    general_s_rate,
    integer_s_rate,
    reference_rates,
    render_decimal,
    s3_rate,
    s4_rate,
    t1_rate,
    table1,
    table1_csv,
    table1_text,
    upper_g_s,
    upper_g_st,
)
from .constructions import (
    ConstructionParams,
    build_c1,
    build_c2,
    build_c3,
    build_general_s,
    build_integer_s,
    solve_xi,
)
from .errors import CapExceeded, FormatError, ParameterError
from .matching import max_general_matching
from .model import (
    ArrayCode,
    RecoveryPlan,
    parse_code,
    parse_plan,
    serialize_code,
    serialize_plan,
    singleton_census,
)
from .simulate import Fleet, SessionTranscript, SweepSummary, availability_sweep, retrieve
from .verify import (
    VerifyReport,
    k_pir_exhaustive,
    k_pir_pairs,
    singleton_upper_bound,
    verify_plan,
)

__version__ = "0.1.0"

__all__ = [
    "ArrayCode",
    "CapExceeded",
    "ConstructionParams",
    "Fleet",
    "FormatError",
    "ParameterError",
    "RecoveryPlan",
    "SessionTranscript",
    "SweepSummary",
    "VerifyReport",
    "availability_sweep",
    "build_c1",
    "build_c2",
    "build_c3",
    "build_general_s",
    "build_integer_s",
    "corollary_bound",
    "fvy_rate",
    "general_s_rate",
    "integer_s_rate",
    "k_pir_exhaustive",
    "k_pir_pairs",
    "max_general_matching",
    "parse_code",
    "parse_plan",
    "reference_rates",
    "render_decimal",
    "retrieve",
    "s3_rate",
    "s4_rate",
    "serialize_code",
    "serialize_plan",
    "singleton_census",
    "singleton_upper_bound",
    "solve_xi",
    "t1_rate",
    "table1",
    "table1_csv",
    "table1_text",
    "upper_g_s",
    "upper_g_st",
    "verify_plan",
]
