"""Pattern avoidance in rooted labeled forests.

A forest on [n] avoids a permutation pattern when no root-to-vertex label
path contains it (as a subsequence for classical patterns, contiguously
for consecutive ones).  This package provides the forest model for the
unordered, unordered-binary, and ordered families, exhaustive generators,
the constructive bijections onto partition-like objects, exact counting
formulas, and a counting engine that checks them all against each other.
"""
from .bijections import (
    NotInClass,
    NotIncreasing,
    NotUnimodal,
    TauVariant,
    TwoAfterOne,
    avoid312_to_avoid321,
    avoid321_to_avoid312,
    cycles_to_unimodal_forest,
    decreasing_forest_to_perm,
    forest_to_list_partition,
    forest_to_ordered_lists,
    forest_to_ordered_partition,
    forest_to_partitioned_cycles,
    increasing_forest_to_perm,
    list_partition_to_forest,
    ordered_lists_to_forest,
    ordered_partition_to_forest,
    partitioned_cycles_to_forest,
    perm_to_decreasing_forest,
    perm_to_increasing_forest,
    perm_to_proper_descent_tree,
    proper_descent_tree_to_perm,
    set_partition_to_shallow_forest,
    shallow_forest_to_set_partition,
    unimodal_forest_to_cycles,
)
from .counting import (
    BudgetExceeded,
    InternalNonInteger,
    REFERENCE_TABLES,
    bell,
    binom,
    catalan,
    count_sweep,
    formula,
    stirling1,
    stirling2,
    table_rows,
)
from .forests import (
    CycleDetected,
    DescentKind,
    FamilyTag,
    Forest,
    NotAncestorClosed,
    ParentOutOfRange,
    avoids,
    avoids_per_vertex,
    complement_forest,
    descent_kind,
    from_parents,
    height,
    largest_increasing_subforest,
    root_leaf_paths,
    shape_signature,
    top_down_maxima,
)
from .generate import (
    Composition,
    ListPartition,
    OrderedSetPartition,
    SetPartition,
    count_forests,
    gen_avoiders,
    gen_compositions,
    gen_forests,
    gen_list_partitions,
    gen_ordered_cycle_decomps,
    gen_ordered_set_partitions,
    gen_partitioned_cycle_decomps,
    gen_set_partitions,
    iter_parent_vectors,
)
from .perms import (
    CycleDecomposition,
    InvalidDecomposition,
    InvalidSequence,
    Pattern,
    PatternMode,
    Permutation,
    complement,
    contains,
    from_cycles,
    inverse,
    pattern,
    reverse,
    standardize,
    stats,
    to_cycles,
)

__all__ = [name for name in dir() if not name.startswith("_")]
