// Per-instance analysis over event columns (DESIGN.md §11).
//
// The columnar twin of the AoS pipeline profile -> patterns -> stats: the
// same aggregates, patterns, and InstanceStats the event-struct path
// produces, computed from raw ColumnStore ranges with the vectorized
// kernels in detector_kernels.hpp.  Everything downstream (UseCaseEngine,
// reports) consumes the shared InstanceStats/RuntimeProfile types, so
// verdicts are bit-identical by construction; the differential suite in
// tests/test_column_analysis.cpp enforces it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/detector_config.hpp"
#include "core/instance_stats.hpp"
#include "core/patterns.hpp"
#include "core/profile.hpp"
#include "runtime/column_store.hpp"
#include "runtime/instance_registry.hpp"

namespace dsspy::core {

/// One instance's event rows as raw column pointers.  `types` is the
/// derived access-type column (kernels::derive_types over the op column),
/// indexed like the others; all pointers cover exactly `n` rows.
struct ColumnSlice {
    const std::uint64_t* time_ns = nullptr;
    const std::int64_t* positions = nullptr;
    const std::uint32_t* sizes = nullptr;
    const std::uint8_t* ops = nullptr;
    const std::uint8_t* types = nullptr;
    const std::uint16_t* threads = nullptr;
    std::size_t n = 0;
};

/// The derived access-type column of a whole store (kernels::derive_types
/// over its op column), indexed like the other columns: the `types_base`
/// make_slice takes.
[[nodiscard]] std::vector<std::uint8_t> access_types(
    const runtime::ColumnStore& store);

/// Slice one instance's range out of the store.  `types_base` indexes the
/// whole store like the other columns (row 0 = store row 0).
[[nodiscard]] ColumnSlice make_slice(const runtime::ColumnStore& store,
                                     runtime::ColumnRange range,
                                     const std::uint8_t* types_base);

/// Profile aggregates (counts, phases, max size, duration, thread count) —
/// the numbers the RuntimeProfile AoS constructor derives per event.
[[nodiscard]] ProfileAggregates aggregates_from_columns(const ColumnSlice& s);

/// The eight-pattern detector over columns.  Emits exactly the patterns
/// PatternDetector::detect finds on the equivalent event span, in the same
/// order: the per-thread PatternMachine still arbitrates run state, but
/// rows that provably extend the current run are consumed in bulk by the
/// vectorized streak scans instead of one step() call each.
[[nodiscard]] std::vector<Pattern> detect_patterns_columns(
    const ColumnSlice& s, const DetectorConfig& config);

/// InstanceStats from columns + detected patterns, field-for-field equal
/// to compute_instance_stats on the equivalent profile.  `agg` must come
/// from aggregates_from_columns over the same slice.
[[nodiscard]] InstanceStats instance_stats_from_columns(
    const runtime::InstanceInfo& info, const ColumnSlice& s,
    const ProfileAggregates& agg, const std::vector<Pattern>& patterns,
    const DetectorConfig& config);

}  // namespace dsspy::core
