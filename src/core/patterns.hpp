// The eight access-pattern types and their detector (Section III-A).
//
//   Read-Forward / Write-Forward   : adjacent reads/writes, ascending.
//   Read-Backward / Write-Backward : adjacent reads/writes, descending.
//   Insert-Front / Insert-Back     : adjacent inserts at the front / end.
//   Delete-Front / Delete-Back     : adjacent deletes at the front / end.
//
// Patterns are detected per thread ("In order to detect successive access
// events we also capture the thread id and bind it to each access event").
// A ForAll event (whole-container traversal through the interface) is
// materialized as a synthetic full-coverage Read-Forward pattern, since the
// traversal reads every element in order.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "core/detector_config.hpp"
#include "core/profile.hpp"

namespace dsspy::core {

/// The eight access-pattern types of the paper.
enum class PatternKind : std::uint8_t {
    ReadForward,
    WriteForward,
    ReadBackward,
    WriteBackward,
    InsertFront,
    InsertBack,
    DeleteFront,
    DeleteBack,
    Count,
};

inline constexpr std::size_t kPatternKindCount =
    static_cast<std::size_t>(PatternKind::Count);

[[nodiscard]] constexpr std::string_view pattern_name(
    PatternKind kind) noexcept {
    switch (kind) {
        case PatternKind::ReadForward: return "Read-Forward";
        case PatternKind::WriteForward: return "Write-Forward";
        case PatternKind::ReadBackward: return "Read-Backward";
        case PatternKind::WriteBackward: return "Write-Backward";
        case PatternKind::InsertFront: return "Insert-Front";
        case PatternKind::InsertBack: return "Insert-Back";
        case PatternKind::DeleteFront: return "Delete-Front";
        case PatternKind::DeleteBack: return "Delete-Back";
        case PatternKind::Count: break;
    }
    return "?";
}

/// True for Read-Forward / Read-Backward.
[[nodiscard]] constexpr bool is_read_pattern(PatternKind kind) noexcept {
    return kind == PatternKind::ReadForward ||
           kind == PatternKind::ReadBackward;
}

/// True for Insert-Front / Insert-Back.
[[nodiscard]] constexpr bool is_insert_pattern(PatternKind kind) noexcept {
    return kind == PatternKind::InsertFront ||
           kind == PatternKind::InsertBack;
}

/// True for Delete-Front / Delete-Back.
[[nodiscard]] constexpr bool is_delete_pattern(PatternKind kind) noexcept {
    return kind == PatternKind::DeleteFront ||
           kind == PatternKind::DeleteBack;
}

/// One located pattern instance inside a runtime profile.
struct Pattern {
    PatternKind kind = PatternKind::ReadForward;
    std::uint32_t first = 0;    ///< Index of the first event in the profile.
    std::uint32_t last = 0;     ///< Index of the last event (inclusive).
    std::uint32_t length = 0;   ///< Number of events in the run.
    std::int64_t start_pos = 0; ///< Position of the first access.
    std::int64_t end_pos = 0;   ///< Position of the last access.
    double coverage = 0.0;      ///< Touched share of the container (0..1].
    runtime::ThreadId thread = 0;
    bool synthetic = false;     ///< Materialized from a ForAll event.

    friend bool operator==(const Pattern&, const Pattern&) = default;
};

/// Locates the eight patterns in an instance's event sequence (the
/// per-event reference detector; the analysis runs the columnar twin,
/// detect_patterns_columns).
class PatternDetector {
public:
    explicit PatternDetector(DetectorConfig config = {})
        : config_(config) {}

    /// All patterns of the sequence (in `seq` order), ordered by first
    /// event index.
    [[nodiscard]] std::vector<Pattern> detect(
        std::span<const runtime::AccessEvent> events) const;

    [[nodiscard]] const DetectorConfig& config() const noexcept {
        return config_;
    }

private:
    DetectorConfig config_;
};

/// Per-kind pattern counts (e.g. for Table II / Table III style summaries).
[[nodiscard]] std::vector<std::size_t> count_by_kind(
    const std::vector<Pattern>& patterns);

}  // namespace dsspy::core
