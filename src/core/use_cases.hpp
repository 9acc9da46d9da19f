// The eight use cases and the classification engine (Section III-B).
//
// Five use cases carry parallel potential:
//   Long-Insert (LI), Implement-Queue (IQ), Sort-After-Insert (SAI),
//   Frequent-Search (FS), Frequent-Long-Read (FLR).
// Three are sequential optimizations:
//   Insert/Delete-Front (IDF), Stack-Implementation (SI),
//   Write-Without-Read (WWR).
//
// Each use case combines access patterns with threshold values
// (DetectorConfig) and carries a recommended action for the engineer.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/advice.hpp"
#include "core/detector_config.hpp"
#include "core/instance_stats.hpp"
#include "core/patterns.hpp"
#include "core/profile.hpp"

namespace dsspy::core {

/// Use-case categories.
enum class UseCaseKind : std::uint8_t {
    LongInsert,
    ImplementQueue,
    SortAfterInsert,
    FrequentSearch,
    FrequentLongRead,
    InsertDeleteFront,
    StackImplementation,
    WriteWithoutRead,
    Count,
};

inline constexpr std::size_t kUseCaseKindCount =
    static_cast<std::size_t>(UseCaseKind::Count);

/// Full name as used in the paper.
[[nodiscard]] constexpr std::string_view use_case_name(
    UseCaseKind kind) noexcept {
    switch (kind) {
        case UseCaseKind::LongInsert: return "Long-Insert";
        case UseCaseKind::ImplementQueue: return "Implement-Queue";
        case UseCaseKind::SortAfterInsert: return "Sort-After-Insert";
        case UseCaseKind::FrequentSearch: return "Frequent-Search";
        case UseCaseKind::FrequentLongRead: return "Frequent-Long-Read";
        case UseCaseKind::InsertDeleteFront: return "Insert/Delete-Front";
        case UseCaseKind::StackImplementation: return "Stack-Implementation";
        case UseCaseKind::WriteWithoutRead: return "Write-Without-Read";
        case UseCaseKind::Count: break;
    }
    return "?";
}

/// Short code (column headers of Table III).
[[nodiscard]] constexpr std::string_view use_case_code(
    UseCaseKind kind) noexcept {
    switch (kind) {
        case UseCaseKind::LongInsert: return "LI";
        case UseCaseKind::ImplementQueue: return "IQ";
        case UseCaseKind::SortAfterInsert: return "SAI";
        case UseCaseKind::FrequentSearch: return "FS";
        case UseCaseKind::FrequentLongRead: return "FLR";
        case UseCaseKind::InsertDeleteFront: return "IDF";
        case UseCaseKind::StackImplementation: return "SI";
        case UseCaseKind::WriteWithoutRead: return "WWR";
        case UseCaseKind::Count: break;
    }
    return "?";
}

/// True for the five use cases that address parallelization.
[[nodiscard]] constexpr bool has_parallel_potential(
    UseCaseKind kind) noexcept {
    switch (kind) {
        case UseCaseKind::LongInsert:
        case UseCaseKind::ImplementQueue:
        case UseCaseKind::SortAfterInsert:
        case UseCaseKind::FrequentSearch:
        case UseCaseKind::FrequentLongRead:
            return true;
        default:
            return false;
    }
}

/// The structured action each use case maps to (a bijection; the action
/// is the machine-readable verdict code).
[[nodiscard]] constexpr AdviceAction advice_action_for(
    UseCaseKind kind) noexcept {
    switch (kind) {
        case UseCaseKind::LongInsert: return AdviceAction::ParallelInsert;
        case UseCaseKind::ImplementQueue:
            return AdviceAction::ParallelContainer;
        case UseCaseKind::SortAfterInsert:
            return AdviceAction::ParallelPhases;
        case UseCaseKind::FrequentSearch: return AdviceAction::BuildIndex;
        case UseCaseKind::FrequentLongRead:
            return AdviceAction::ParallelForAll;
        case UseCaseKind::InsertDeleteFront: return AdviceAction::UseDeque;
        case UseCaseKind::StackImplementation: return AdviceAction::UseStack;
        case UseCaseKind::WriteWithoutRead: return AdviceAction::DropWrites;
        case UseCaseKind::Count: break;
    }
    return AdviceAction::Count;
}

/// The recommended action the paper attaches to each use case.
[[nodiscard]] std::string_view recommended_action(UseCaseKind kind) noexcept;

/// One detected use case on one instance.  The verdict is stored as a
/// structured Advice (action + evidence + confidence); the report text is
/// rendered from the structure on demand, so a million flagged instances
/// no longer each hold a copy of the static recommendation string.
struct UseCase {
    UseCaseKind kind = UseCaseKind::LongInsert;
    runtime::InstanceInfo instance;  ///< Where it was found.
    Advice advice;                   ///< Structured verdict.

    /// Measured evidence (numbers), rendered from the structure.
    [[nodiscard]] std::string reason() const {
        return render_advice_reason(advice, instance.kind);
    }
    /// Recommended action text (plus the multithread note when the
    /// instance was already accessed concurrently).
    [[nodiscard]] std::string recommendation() const {
        return render_advice_recommendation(advice);
    }
    [[nodiscard]] bool parallel_potential() const noexcept {
        return has_parallel_potential(kind);
    }
    /// How far the evidence clears the rule's thresholds, in (0, 1]:
    /// ~0.5 at the threshold, 1.0 at twice the threshold or beyond.
    /// Used to rank recommendations (most clear-cut first).
    [[nodiscard]] double confidence() const noexcept {
        return advice.confidence;
    }

    friend bool operator==(const UseCase&, const UseCase&) = default;
};

/// Applies the use-case rules to a profile and its detected patterns.
class UseCaseEngine {
public:
    explicit UseCaseEngine(DetectorConfig config = {}) : config_(config) {}

    /// Classify a profile built from `events`.  `patterns` must come from
    /// a PatternDetector with the same configuration, run over `events`.
    /// Equivalent to
    /// `classify(compute_instance_stats(profile, events, patterns, config()))`.
    [[nodiscard]] std::vector<UseCase> classify(
        const RuntimeProfile& profile,
        std::span<const runtime::AccessEvent> events,
        const std::vector<Pattern>& patterns) const;

    /// Classify from pre-folded aggregates.  This is the single emission
    /// path both the post-mortem and the incremental pipeline go through;
    /// the stats must have been folded with the same configuration.
    [[nodiscard]] std::vector<UseCase> classify(
        const InstanceStats& stats) const;

    [[nodiscard]] const DetectorConfig& config() const noexcept {
        return config_;
    }

private:
    DetectorConfig config_;
};

}  // namespace dsspy::core
