"""Exact symmetric group character bounds via excited diagrams.

Partitions, hook lengths, skew dimensions along three independent
routes, excited diagram enumeration, thick-hook and stairs
decompositions, Murnaghan-Nakayama characters, and exhaustive sweeps
of the character and dimension bounds, all in exact arithmetic.
"""

from .characters import (
    CharacterValue,
    Ribbon,
    RibbonTableau,
    character_branching,
    character_mn,
    character_table,
    count_ribbon_tableaux,
    diag_cycle_bound,
    removable_ribbons,
    ribbon_tableaux,
    sigma_star,
)
from .config import Config, load_config
from .decompositions import (
    CHAIN_CONSTANT_UPPER,
    E_SQ_UPPER,
    E_UPPER,
    FOUR_E_SQ_UPPER,
    TWO_E_UPPER,
    StairsDecomposition,
    StairsLine,
    ThickHook,
    ThickHookDecomposition,
    ValidationResult,
    bound_S_general,
    bound_S_row,
    bound_skew_general,
    build_thick_hook_decomposition,
    count_feasible_sequences,
    decomposition_from_cuts,
    minimally_excited_row,
    stairs_decomposition,
    thick_hook,
    validate_decomposition,
)
from .dimensions import (
    DEFAULT_ORACLE_CAP,
    SkewShape,
    dim_hlf,
    skew_dim_det,
    skew_dim_oracle,
    skew_dims,
)
from .excited import (
    ExcitedDiagram,
    enumerate_excited,
    excitable_boxes,
    excitation_closure,
    excited_count,
    excited_sum,
    hook_product,
    naruse_ratio,
    skew_dim_naruse,
)
from .harness import (
    BoundRecord,
    CompressionRecord,
    Rational,
    SharpnessRecord,
    SweepResult,
    SweepStream,
    compression_stats,
    sharpness_rectangles,
    sweep_compression,
    sweep_excited_bounds,
    sweep_sharpness,
    sweep_skew_bound,
    sweep_thm_diag,
    sweep_thm_main,
    verify_orthogonality,
)
from .partitions import (
    Box,
    CycleType,
    Partition,
    enumerate_partitions,
    enumerate_subdiagrams,
    falling_factorial,
    format_cycle_type,
    format_partition,
    parse_cycle_type,
    parse_partition,
)

__version__ = "0.1.0"
