// Profiling session: owns the instance registry, the per-thread event
// channels, the asynchronous collector, and the post-mortem profile store.
//
// This is the C++ equivalent of DSspy's dynamic-analysis module.  The paper
// runs analysis "in a separate process which receives the runtime
// information via asynchronous intra-process communication"; here each
// recording thread owns a lock-free SPSC ring drained by a dedicated
// collector thread (`CaptureMode::Streaming`), or an unsynchronized
// per-thread buffer merged at `stop()` (`CaptureMode::Buffered`).  Both
// modes produce an identical ProfileStore; the micro benches compare their
// overhead.
//
// Hot-path design (the paper reports an average 47x capture slowdown; this
// implementation targets low single-digit overhead):
//   * Sequencing: instead of a globally-contended fetch-add per event, each
//     thread draws blocks of `kSeqBlockSize` sequence numbers from a global
//     allocator and numbers its events from the block.  Sequence numbers
//     stay globally unique and strictly increasing per thread, so ordering
//     each instance's rows by `seq` at stop() (ColumnStore::group)
//     reconciles them into a deterministic total order that preserves
//     every thread's program order.
//   * Timestamps: the clock is read once per `kTimestampStride` events per
//     thread; events in between reuse the reading.  Timestamps stay
//     monotonic per thread at stride granularity — sufficient for the
//     duration-based use-case rules, 64x fewer clock reads.
//   * Compact chunks (Buffered mode): a row stores only what the caller
//     passed — position (8 B), instance (4 B), size (4 B), op (1 B) — in
//     per-chunk columns.  The chunk adds one seq base per `kSeqBlockSize`
//     rows and one clock reading per `kTimestampStride` rows: 17.13 B per
//     event instead of a 32-byte AccessEvent, and each chunk byte costs a
//     first-touch page fault.  The rest is derived, exactly: chunk
//     capacities are multiples of kSeqBlockSize, so a seq block and a
//     timestamp group always start at a row index that is a multiple of
//     their size; row i's seq is `seq_base[i / kSeqBlockSize] +
//     i % kSeqBlockSize`, its timestamp `time_ns[i / kTimestampStride]`
//     and its thread the channel's (CaptureBlock).  The row index alone
//     decides when record() draws a block or reads the clock.
//     Streaming mode moves whole AccessEvents through its rings.
//   * Registration: channels live on a lock-free intrusive list, so thread
//     registration never stalls the collector and the collector never
//     blocks producers (the old design drained rings while holding a
//     mutex that registration also needed).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "obs/trace.hpp"
#include "runtime/access_event.hpp"
#include "runtime/column_store.hpp"
#include "runtime/instance_registry.hpp"
#include "runtime/profile_store.hpp"
#include "runtime/spsc_ring.hpp"

namespace dsspy::runtime {

/// How events travel from the mutator threads to the ProfileStore.
enum class CaptureMode {
    Buffered,   ///< Per-thread append-only buffers, merged at stop().
    Streaming,  ///< Per-thread SPSC rings drained live by a collector thread.
};

/// What happens to events once captured (DESIGN.md §8).
enum class AnalysisMode {
    /// Retain every event in the ProfileStore for post-mortem analysis.
    Postmortem,
    /// Events are handed to the event sink as they drain and are NOT
    /// retained: the store stays empty and memory is bounded by the
    /// live-instance state of the attached incremental analyzer.
    Incremental,
};

/// One recording session: create, run the instrumented workload, stop(),
/// then hand the session to `core::Dsspy` for analysis.
///
/// Threading contract: `record()` may be called from any number of threads
/// concurrently.  `stop()` must be called after all recording threads have
/// quiesced (joined); it drains/merges outstanding events and finalizes the
/// store.  After `stop()` the session is read-only.  The contract is
/// enforced by an acquire/release handshake: every completed `record()`
/// release-publishes its channel's event count, `stop()` acquire-reads it
/// and seals the channel; late records are dropped (and assert in debug
/// builds).
class ProfilingSession {
public:
    /// Sequence numbers are handed to threads in blocks of this size; the
    /// global allocator is touched once per block instead of once per event.
    static constexpr std::uint64_t kSeqBlockSize = runtime::kSeqBlockSize;

    /// The monotonic clock is read once per this many events per thread.
    static constexpr std::uint32_t kTimestampStride =
        runtime::kTimestampStride;

    /// Buffered-mode chunk sizing: 4K rows first, doubling to a 64K-row
    /// steady state.
    static constexpr std::size_t kFirstChunkEvents = 4096;
    static constexpr std::size_t kMaxChunkEvents = std::size_t{1} << 16;
    static_assert(kFirstChunkEvents % kSeqBlockSize == 0 &&
                      kMaxChunkEvents % kSeqBlockSize == 0,
                  "a chunk must hold whole seq blocks");

    /// Bytes a Buffered-mode chunk of `rows` rows allocates: 17 per row,
    /// plus one seq base per seq block and one clock reading per
    /// timestamp group.
    [[nodiscard]] static constexpr std::size_t chunk_bytes(
        std::size_t rows) noexcept {
        return rows * (sizeof(std::int64_t) + sizeof(InstanceId) +
                       sizeof(std::uint32_t) + sizeof(OpKind)) +
               rows / kSeqBlockSize * sizeof(std::uint64_t) +
               rows / kTimestampStride * sizeof(std::uint64_t);
    }

    /// Batch consumer for captured events; see set_event_sink().
    using EventSink = std::function<void(std::span<const AccessEvent>)>;
    /// Consumer for instance registrations; see set_instance_sink().
    using InstanceSink = std::function<void(const InstanceInfo&)>;

    explicit ProfilingSession(CaptureMode mode = CaptureMode::Buffered,
                              std::size_t ring_capacity = 64 * 1024,
                              AnalysisMode analysis = AnalysisMode::Postmortem);
    ~ProfilingSession();

    ProfilingSession(const ProfilingSession&) = delete;
    ProfilingSession& operator=(const ProfilingSession&) = delete;

    /// Register a new data-structure instance (called by the proxies).
    InstanceId register_instance(DsKind kind, std::string type_name,
                                 support::SourceLoc location);

    /// Mark the end of an instance's life cycle.
    void mark_deallocated(InstanceId id);

    /// Record one access event.  Hot path; safe from any thread.
    void record(InstanceId instance, OpKind op, std::int64_t position,
                std::uint32_t size) noexcept;

    /// Stop capture: drain rings / seal buffers and group every event into
    /// the store's columns, then release the chunks.  Idempotent.
    void stop();

    /// True until `stop()` has been called.
    [[nodiscard]] bool capturing() const noexcept {
        return capturing_.load(std::memory_order_acquire);
    }

    [[nodiscard]] CaptureMode mode() const noexcept { return mode_; }

    [[nodiscard]] AnalysisMode analysis_mode() const noexcept {
        return analysis_;
    }

    /// Install a consumer for captured events.  Must be installed before
    /// the first record().  Delivery is in ascending global `seq` order —
    /// which implies each instance's (and each thread's) events arrive in
    /// their program order, the order the finalized store would present:
    /// in Streaming mode the collector merges the per-thread rings behind
    /// a watermark (every channel's published sequence bound) and delivers
    /// as the watermark advances; in Buffered mode the per-thread chains
    /// are merge-delivered at stop().  The sink runs on the collector
    /// thread (Streaming) or the stop() caller (Buffered) and must not
    /// call back into this session except for registry()/snapshot reads.
    void set_event_sink(EventSink sink);

    /// Install a consumer notified of every instance registration (after
    /// it lands in the registry).  Must be installed before profiling
    /// starts; runs on the registering thread.
    void set_instance_sink(InstanceSink sink);

    /// The recorded profiles.  Call after `stop()`.
    [[nodiscard]] const ProfileStore& store() const noexcept { return store_; }

    [[nodiscard]] const InstanceRegistry& registry() const noexcept {
        return registry_;
    }

    /// Number of distinct threads that recorded events.
    [[nodiscard]] std::size_t thread_count() const noexcept;

    /// Total events recorded so far (exact after stop()).
    [[nodiscard]] std::uint64_t events_recorded() const noexcept;

    /// Wall-clock duration of the capture window in nanoseconds
    /// (start of session to stop()).
    [[nodiscard]] std::uint64_t capture_duration_ns() const noexcept;

    /// Wall-clock duration of stop() itself in nanoseconds (drain, merge
    /// and grouping into columns); 0 before stop().
    [[nodiscard]] std::uint64_t stop_duration_ns() const noexcept {
        return stop_end_ns_ - stop_ns_;
    }

    /// Events stored against instance ids the registry never issued
    /// (store-only "orphans"; see ProfileStore::orphan_events).  Exact
    /// after stop().
    [[nodiscard]] std::size_t orphan_events() const;

private:
    struct Channel {
        explicit Channel(ThreadId id, CaptureMode mode,
                         std::size_t ring_capacity);
        ThreadId tid;

        /// Buffered mode: events land in a chain of fixed chunks (cap
        /// doubling up to kMaxChunkEvents) in the compact form described
        /// in the file comment.  Unlike a growable vector this never
        /// copies on growth, and chunks are allocated uninitialized so
        /// each page is touched exactly once.
        struct Chunk {
            explicit Chunk(std::size_t rows);
            std::unique_ptr<std::int64_t[]> position;
            std::unique_ptr<InstanceId[]> instance;
            std::unique_ptr<std::uint32_t[]> size;
            std::unique_ptr<OpKind[]> op;
            std::unique_ptr<std::uint64_t[]> seq_base;  ///< Per seq block.
            std::unique_ptr<std::uint64_t[]> time_ns;   ///< Per ts group.
            std::size_t capacity = 0;
        };
        std::vector<Chunk> chunks;  // Buffered mode
        std::size_t fill = 0;       ///< Rows written to chunks.back().
        void grow_chunk();
        /// The sealed chain's first `events` rows, chunk by chunk.
        void append_blocks(std::uint64_t events,
                           std::vector<CaptureBlock>& out) const;

        std::unique_ptr<SpscRing<AccessEvent>> ring;  // Streaming mode

        // Streaming hot-path state, touched only by the owning thread.
        std::uint64_t next_seq = 0;       ///< Next seq in the current block.
        std::uint64_t seq_block_end = 0;  ///< Exclusive end of the block.
        std::uint64_t last_ts_ns = 0;     ///< Most recent clock reading.
        std::uint32_t ts_countdown = 0;   ///< Events until the next reading.

        // Published state (read by stop()/collector).
        std::atomic<std::uint64_t> events{0};  ///< Completed records.
        std::atomic<bool> sealed{false};       ///< Set by stop().
        /// Lower bound on the seq of any future event from this channel
        /// (stored after each record when an event sink is attached);
        /// the collector's ordered-delivery watermark is the minimum of
        /// these bounds across channels.
        std::atomic<std::uint64_t> published{0};

        // Ordered-delivery state, touched only by the collector.
        std::vector<AccessEvent> pending;  ///< Drained, not yet delivered.
        std::size_t pending_head = 0;
        std::uint64_t bound = 0;           ///< published, read pre-drain.

        Channel* next = nullptr;  ///< Lock-free registration list link.
    };

    Channel& channel_for_current_thread();
    void collector_loop(const std::stop_token& st);
    void drain_all_rings();
    bool collect_ordered_round();
    void deliver_ordered(bool final_flush);
    void buffered_merge_to_sink();
    void record_streaming(Channel& chan, InstanceId instance, OpKind op,
                          std::int64_t position, std::uint32_t size) noexcept;
    [[nodiscard]] std::uint64_t claim_seq_block();

    const CaptureMode mode_;
    const std::size_t ring_capacity_;
    const AnalysisMode analysis_;
    const std::uint64_t token_;  ///< Unique id for thread-local caching.
    /// Trace context of the thread that constructed the session: collector
    /// and stop()-time spans parent here so capture work nests under the
    /// pipeline's root span even though it runs on other threads.
    const obs::TraceContext trace_ctx_;

    InstanceRegistry registry_;
    ProfileStore store_;

    std::atomic<std::uint64_t> seq_alloc_{0};  ///< Next unissued seq block.
    std::atomic<std::uint32_t> next_tid_{0};
    std::atomic<bool> capturing_{true};
    std::uint64_t start_ns_ = 0;
    std::uint64_t stop_ns_ = 0;      ///< When stop() began.
    std::uint64_t stop_end_ns_ = 0;  ///< When stop() returned.

    /// Head of the intrusive channel list (push-front on registration;
    /// traversal needs no lock).  Channels are owned by the list and freed
    /// in the destructor.
    std::atomic<Channel*> channels_head_{nullptr};

    EventSink sink_;            ///< Ordered-delivery consumer (may be empty).
    InstanceSink instance_sink_;
    /// Fast flags mirroring sink_ presence: checked on the hot path
    /// (record) and every collector round without touching std::function.
    std::atomic<bool> has_sink_{false};

    std::jthread collector_;  // Streaming mode only.
};

}  // namespace dsspy::runtime
