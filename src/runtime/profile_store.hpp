// Post-mortem store of access events, grouped by instance.
//
// The dynamic-analysis module keeps the execution slowdown low "by only
// recording the access events at runtime and analyzing them post-mortem"
// (Section IV).  The ProfileStore is where recorded events land: a
// thread-safe builder around the ColumnStore, which is the only stored
// form of the events.  Capture stop() groups the sealed per-thread chunks
// into columns in one pass and adopts the result; other producers stage
// batches with append() and the store groups them on first read.
#pragma once

#include <cstddef>
#include <mutex>
#include <span>
#include <vector>

#include "runtime/access_event.hpp"
#include "runtime/column_store.hpp"

namespace dsspy::runtime {

/// Holds every event once, as columns grouped by instance
/// (ColumnStore::group); thread-safe for concurrent appends.
class ProfileStore {
public:
    ProfileStore() = default;

    /// Adopt an already grouped column store (the DST1 column decoder's
    /// output).
    explicit ProfileStore(ColumnStore columns) noexcept
        : columns_(std::move(columns)) {}

    /// Movable (single-threaded contexts only — the source must not be
    /// receiving concurrent appends).
    ProfileStore(ProfileStore&& other) noexcept;
    ProfileStore& operator=(ProfileStore&& other) noexcept;
    ProfileStore(const ProfileStore&) = delete;
    ProfileStore& operator=(const ProfileStore&) = delete;

    /// Stage a batch of events (collector thread, trace readers, tests).
    /// Staged events join the columns on the next read or finalize();
    /// appending to a store that was already read regroups its earlier
    /// rows too, ahead of the new ones.
    void append(std::span<const AccessEvent> events);

    /// Group the staged events now (reads do it on demand).
    void finalize();

    /// The columns: one contiguous row range per instance, rows in
    /// per-instance `seq` order (DESIGN.md §11).  The returned reference
    /// is invalidated by further appends.
    [[nodiscard]] const ColumnStore& columns() const;

    /// Event sequence of one instance (empty if none were recorded),
    /// rebuilt from its column rows.  For tests, benches and examples; the
    /// analysis reads columns().
    [[nodiscard]] std::vector<AccessEvent> events(InstanceId id) const;

    /// Total number of stored events.
    [[nodiscard]] std::size_t total_events() const;

    /// Number of instances that have at least one event.
    [[nodiscard]] std::size_t populated_instances() const;

    /// Highest instance id seen plus one (ids are dense).
    [[nodiscard]] std::size_t instance_slots() const;

    /// Events recorded against instance ids >= `registered_instances` —
    /// "orphan" (store-only) events with no registry entry behind them.
    /// Registry ids are dense, so everything at or past the registered
    /// count was appended with a fabricated id (external tools, corrupted
    /// producers).  Trace writers already persist these (see
    /// trace_io.hpp); this surfaces the same count in session summaries
    /// and the self-telemetry registry instead of only on disk.
    [[nodiscard]] std::size_t orphan_events(
        std::size_t registered_instances) const;

private:
    void group_locked() const;
    [[nodiscard]] std::vector<AccessEvent> events_locked(InstanceId id) const;

    mutable std::mutex mutex_;
    mutable std::vector<AccessEvent> staged_;  ///< Appended, not grouped.
    mutable ColumnStore columns_;
};

}  // namespace dsspy::runtime
