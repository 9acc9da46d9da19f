// The stored form of recorded events (DESIGN.md §11).
//
// The post-mortem detectors are per-field scans: access-type histograms,
// position-regularity streaks, end-traffic window counts.  The ColumnStore
// keeps each event field in its own contiguous array — seqs, timestamps,
// positions, sizes, op kinds, thread ids — with events grouped into one
// half-open row range per instance, ascending `seq` within each range.
// Detector kernels (core/detector_kernels.hpp) then stream exactly the
// bytes they need, and the SIMD paths get unit-stride loads for free.
//
// It is the only stored form of events: capture sessions, traces and the
// analysis hold it directly.  Every producer builds it through one
// grouping routine, ColumnStore::group:
//   * capture stop() — straight out of the sealed per-thread chunks in
//     their compact form (CaptureBlock), in both capture modes;
//   * the CSV trace reader — from its parsed rows, in one call;
//   * the DST1 column decoder (trace_mmap.hpp) — from decoded rows.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "runtime/access_event.hpp"

namespace dsspy::runtime {

/// Buffered capture numbers each thread's events in blocks of this many
/// consecutive sequence numbers drawn from one global allocator.
inline constexpr std::uint64_t kSeqBlockSize = 1024;

/// Buffered capture reads the monotonic clock once per this many events
/// per thread; the events in between share the reading.
inline constexpr std::uint32_t kTimestampStride = 64;

static_assert(kSeqBlockSize % kTimestampStride == 0,
              "a seq block must hold whole timestamp groups");

/// One sealed Buffered-capture chunk in its compact form (session.hpp).
/// Rows store only position, instance, size and op; the rest is derived
/// from the chunk: row i's seq is `seq_base[i / kSeqBlockSize] +
/// i % kSeqBlockSize`, its timestamp `time_ns[i / kTimestampStride]` and
/// its thread `thread`.
struct CaptureBlock {
    const std::int64_t* position = nullptr;
    const InstanceId* instance = nullptr;
    const std::uint32_t* size = nullptr;
    const OpKind* op = nullptr;
    const std::uint64_t* seq_base = nullptr;
    const std::uint64_t* time_ns = nullptr;
    std::size_t rows = 0;
    ThreadId thread = 0;

    [[nodiscard]] std::uint64_t seq(std::size_t i) const noexcept {
        return seq_base[i / kSeqBlockSize] + i % kSeqBlockSize;
    }

    /// Rebuild row i as an AccessEvent.
    [[nodiscard]] AccessEvent row(std::size_t i) const noexcept {
        AccessEvent ev;
        ev.seq = seq(i);
        ev.time_ns = time_ns[i / kTimestampStride];
        ev.position = position[i];
        ev.instance = instance[i];
        ev.size = size[i];
        ev.op = op[i];
        ev.thread = thread;
        return ev;
    }
};

/// Half-open range of column rows belonging to one instance.
struct ColumnRange {
    std::size_t begin = 0;
    std::size_t end = 0;

    [[nodiscard]] std::size_t size() const noexcept { return end - begin; }
    [[nodiscard]] bool empty() const noexcept { return begin == end; }
};

/// Six per-field event columns plus the per-instance row ranges.
///
/// Instances occupy consecutive ranges in id order.  Rows within one range
/// are in ascending `seq` order (the chronological order RuntimeProfile
/// expects); rows with equal `seq` keep their input order.
class ColumnStore {
public:
    /// The grouping routine.  Takes the rows of `blocks`, in order, as one
    /// row sequence; places them by instance with a stable counting
    /// scatter, then sorts by `seq` only the instance ranges whose `seq`
    /// is not already ascending.  Rows targeting kInvalidInstance are
    /// dropped.
    [[nodiscard]] static ColumnStore group(
        std::span<const std::span<const AccessEvent>> blocks);

    /// The same routine over sealed capture chunks, read row by row in
    /// block order (capture stop()).
    [[nodiscard]] static ColumnStore group(
        std::span<const CaptureBlock> blocks);

    /// The same routine over decoded rows: `rows` holds every field column
    /// (its ranges are ignored) and `instances[i]` is row i's instance.
    /// Rows already grouped in id order with ascending `seq` stay where
    /// they are; only the ranges are computed.
    [[nodiscard]] static ColumnStore group(
        ColumnStore rows, std::span<const InstanceId> instances);

    /// Size all columns for `rows` ungrouped rows (decoder step: fill them
    /// through the mutable column pointers, then group()).
    void resize(std::size_t rows);

    [[nodiscard]] std::size_t total_events() const noexcept {
        return seq_.size();
    }
    [[nodiscard]] std::size_t instance_slots() const noexcept {
        return ranges_.size();
    }

    /// Row range of one instance; empty when the id is unknown or silent.
    [[nodiscard]] ColumnRange range(InstanceId id) const noexcept {
        if (id >= ranges_.size()) return {};
        return ranges_[id];
    }

    // Read-only columns; all have total_events() entries.
    [[nodiscard]] const std::uint64_t* seq() const noexcept {
        return seq_.data();
    }
    [[nodiscard]] const std::uint64_t* time_ns() const noexcept {
        return time_ns_.data();
    }
    [[nodiscard]] const std::int64_t* position() const noexcept {
        return position_.data();
    }
    [[nodiscard]] const std::uint32_t* sizes() const noexcept {
        return size_.data();
    }
    [[nodiscard]] const std::uint8_t* op() const noexcept {
        return op_.data();
    }
    [[nodiscard]] const std::uint16_t* thread() const noexcept {
        return thread_.data();
    }

    // Mutable column pointers for decoders.  Only valid after resize().
    [[nodiscard]] std::uint64_t* mutable_seq() noexcept { return seq_.data(); }
    [[nodiscard]] std::uint64_t* mutable_time_ns() noexcept {
        return time_ns_.data();
    }
    [[nodiscard]] std::int64_t* mutable_position() noexcept {
        return position_.data();
    }
    [[nodiscard]] std::uint32_t* mutable_sizes() noexcept {
        return size_.data();
    }
    [[nodiscard]] std::uint8_t* mutable_op() noexcept { return op_.data(); }
    [[nodiscard]] std::uint16_t* mutable_thread() noexcept {
        return thread_.data();
    }

    /// Reconstruct one row as an AccessEvent.  The instance is not stored
    /// per row, so it is left at kInvalidInstance.
    [[nodiscard]] AccessEvent row(std::size_t i) const noexcept {
        AccessEvent ev;
        ev.seq = seq_[i];
        ev.time_ns = time_ns_[i];
        ev.position = position_[i];
        ev.size = size_[i];
        ev.op = static_cast<OpKind>(op_[i]);
        ev.thread = thread_[i];
        return ev;
    }

private:
    template <typename ForEachRow>
    friend ColumnStore group_rows(ForEachRow&& for_each_row);

    std::vector<std::uint64_t> seq_;
    std::vector<std::uint64_t> time_ns_;
    std::vector<std::int64_t> position_;
    std::vector<std::uint32_t> size_;
    std::vector<std::uint8_t> op_;
    std::vector<std::uint16_t> thread_;
    std::vector<ColumnRange> ranges_;
};

}  // namespace dsspy::runtime
