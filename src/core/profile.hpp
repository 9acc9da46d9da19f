// Runtime profile of one data-structure instance.
//
// "We use runtime profiles that contain all access events to a data
// structure instance from initialization to deallocation in chronological
// order" (Section II-B).  RuntimeProfile holds the aggregates of one
// instance's event sequence that the use-case rules need: per-access-type
// counts, event shares, phases, duration, maximum observed size.  The
// events themselves stay in the store's columns; code that walks them
// (the reference detectors, the charts) takes them as an argument.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "core/access_type.hpp"
#include "runtime/access_event.hpp"
#include "runtime/instance_registry.hpp"

namespace dsspy::core {

/// A maximal run of events with the same derived access type.
/// ("DSspy executes the phase detection on the access profiles".)
struct Phase {
    AccessType type = AccessType::Read;
    std::uint32_t first = 0;   ///< Index of the first event.
    std::uint32_t last = 0;    ///< Index of the last event (inclusive).
    [[nodiscard]] std::size_t length() const noexcept {
        return static_cast<std::size_t>(last) - first + 1;
    }
};

/// Aggregates precomputed by the columnar analysis path.  The kernel
/// scans over raw columns (DESIGN.md §11) produce exactly the numbers the
/// event-sequence constructor below derives, so profiles built either way
/// are indistinguishable to the use-case rules.
struct ProfileAggregates {
    std::size_t total_events = 0;
    std::array<std::size_t, kAccessTypeCount> counts{};
    std::vector<Phase> phases;
    std::size_t max_size = 0;
    std::uint64_t duration_ns = 0;
    std::size_t thread_count = 0;
};

/// Read-only aggregate view of one instance's event sequence.
class RuntimeProfile {
public:
    RuntimeProfile() = default;

    /// Build from the instance metadata and its event sequence in `seq`
    /// order (the span is only read during construction).
    RuntimeProfile(runtime::InstanceInfo info,
                   std::span<const runtime::AccessEvent> events);

    /// Build from kernel-computed aggregates (the columnar analysis).
    RuntimeProfile(runtime::InstanceInfo info, ProfileAggregates aggregates);

    [[nodiscard]] const runtime::InstanceInfo& info() const noexcept {
        return info_;
    }

    [[nodiscard]] std::size_t total_events() const noexcept {
        return total_;
    }

    /// Number of events of the given derived access type.
    [[nodiscard]] std::size_t count(AccessType type) const noexcept {
        return counts_[static_cast<std::size_t>(type)];
    }

    /// Share of events of the given type; 0 when the profile is empty.
    [[nodiscard]] double share(AccessType type) const noexcept;

    /// Share of read-like events (Read + Search + Copy + ForAll).
    [[nodiscard]] double read_like_share() const noexcept;

    /// Maximum container size observed across all events.
    [[nodiscard]] std::size_t max_size() const noexcept { return max_size_; }

    /// Wall-clock span from first to last event, in nanoseconds.
    [[nodiscard]] std::uint64_t duration_ns() const noexcept {
        return duration_ns_;
    }

    /// Number of distinct threads that accessed the instance.
    [[nodiscard]] std::size_t thread_count() const noexcept {
        return thread_count_;
    }

    /// Maximal same-access-type phases, in chronological order.
    [[nodiscard]] const std::vector<Phase>& phases() const noexcept {
        return phases_;
    }

    /// Share of events that belong to phases of `type` with at least
    /// `min_phase_events` events.  This is the "insertion phases >30% of
    /// runtime" measure of the Long-Insert rule.
    [[nodiscard]] double phase_share(AccessType type,
                                     std::size_t min_phase_events = 0)
        const noexcept;

    /// True if any phase of `type` has at least `min_events` events.
    [[nodiscard]] bool has_long_phase(AccessType type,
                                      std::size_t min_events) const noexcept;

private:
    runtime::InstanceInfo info_;
    std::size_t total_ = 0;
    std::array<std::size_t, kAccessTypeCount> counts_{};
    std::vector<Phase> phases_;
    std::size_t max_size_ = 0;
    std::uint64_t duration_ns_ = 0;
    std::size_t thread_count_ = 0;
};

}  // namespace dsspy::core
