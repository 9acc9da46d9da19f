// Profiling session: owns the instance registry, the per-thread event
// channels, the asynchronous collector, and the post-mortem event store
// (a ColumnStore, grouped at stop()).
//
// This is the C++ equivalent of DSspy's dynamic-analysis module.  The paper
// runs analysis "in a separate process which receives the runtime
// information via asynchronous intra-process communication".  Every
// recording thread appends to its own chain of compact chunks; the two
// capture modes differ only in when the chunks are delivered to an event
// sink: a dedicated collector thread delivers them live while producers
// append (`CaptureMode::Streaming`), or stop() delivers them all at once
// (`CaptureMode::Buffered`).  Both modes record through the same record()
// and produce an identical ColumnStore; the micro benches compare their
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
//   * Compact chunks: a row stores only what the caller passed — position
//     (8 B), instance (4 B), size (4 B), op (1 B) — in per-chunk columns.
//     The chunk adds one seq base per `kSeqBlockSize` rows and one clock
//     reading per `kTimestampStride` rows: 17.13 B per event instead of a
//     32-byte AccessEvent, and each chunk byte costs a first-touch page
//     fault.  The rest is derived, exactly: chunk capacities are multiples
//     of kSeqBlockSize, so a seq block and a timestamp group always start
//     at a row index that is a multiple of their size; row i's seq is
//     `seq_base[i / kSeqBlockSize] + i % kSeqBlockSize`, its timestamp
//     `time_ns[i / kTimestampStride]` and its thread the channel's
//     (CaptureBlock).  The row index alone decides when record() draws a
//     block or reads the clock.
//   * Live delivery (Streaming mode with a sink): the producer links a new
//     chunk into its chain before writing any row into it and
//     release-publishes its row count after each row, so every row below
//     the count is stable and the collector reads it in place.  The
//     collector merges the channels block-wise by seq below a watermark
//     (no channel can still record a seq under it) and, in
//     AnalysisMode::Incremental, frees each chunk it has delivered in full.
//     Producers wait once per seq block while their undelivered rows reach
//     the session's bound.
//   * Registration: channels live on a lock-free intrusive list, so thread
//     registration never stalls the collector and the collector never
//     blocks producers.
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

namespace dsspy::runtime {

/// How events travel from the mutator threads to the event store.
enum class CaptureMode {
    Buffered,   ///< Per-thread chunk chains, merged at stop().
    Streaming,  ///< The same chains, delivered live by a collector thread.
};

/// What happens to events once captured (DESIGN.md §8).
enum class AnalysisMode {
    /// Retain every event in the store for post-mortem analysis.
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
/// quiesced (joined); it delivers outstanding events and finalizes the
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

    /// Chunk sizing: 4K rows first, doubling to a 64K-row steady state.
    static constexpr std::size_t kFirstChunkEvents = 4096;
    static constexpr std::size_t kMaxChunkEvents = std::size_t{1} << 16;
    static_assert(kFirstChunkEvents % kSeqBlockSize == 0 &&
                      kMaxChunkEvents % kSeqBlockSize == 0,
                  "a chunk must hold whole seq blocks");

    /// Bytes a chunk of `rows` rows allocates: 17 per row,
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

    /// `max_undelivered` bounds, per recording thread, the rows a
    /// Streaming session with an event sink holds undelivered (rounded up
    /// to whole seq blocks): a producer that reaches it waits for the
    /// collector before it starts its next seq block.
    explicit ProfilingSession(CaptureMode mode = CaptureMode::Buffered,
                              std::size_t max_undelivered = 64 * 1024,
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

    /// Stop capture: join the collector, seal the chunk chains, deliver
    /// what the sink has not seen and group every event into the store's
    /// columns, then release the chunks.  Idempotent.
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
    /// the first record(); in Streaming mode it starts the collector.  Delivery is in ascending global `seq` order —
    /// which implies each instance's (and each thread's) events arrive in
    /// their program order, the order the finalized store would present.
    /// One merge serves both modes: in Streaming mode the collector runs
    /// it live, below a watermark no channel can still record under, and
    /// stop() delivers the rest; in Buffered mode stop() delivers
    /// everything.  The sink runs on the collector thread (Streaming) or
    /// the stop() caller and must not call back into this session except
    /// for registry()/snapshot reads.
    void set_event_sink(EventSink sink);

    /// Install a consumer notified of every instance registration (after
    /// it lands in the registry).  Must be installed before profiling
    /// starts; runs on the registering thread.
    void set_instance_sink(InstanceSink sink);

    /// The recorded events, grouped by instance.  Empty until `stop()`,
    /// and always empty in AnalysisMode::Incremental.
    [[nodiscard]] const ColumnStore& store() const noexcept { return store_; }

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

    /// Wall-clock duration of stop() itself in nanoseconds (collector
    /// join, merge and grouping into columns); 0 before stop().
    [[nodiscard]] std::uint64_t stop_duration_ns() const noexcept {
        return stop_end_ns_ - stop_ns_;
    }

    /// Events stored against instance ids the registry never issued
    /// (store-only "orphans": registry ids are dense, so these are the
    /// rows at or past the registered count; trace writers persist them
    /// too, see trace_io.hpp).  Exact after stop().
    [[nodiscard]] std::size_t orphan_events() const;

private:
    struct Channel {
        explicit Channel(ThreadId id) : tid(id) {}
        ~Channel() { release_chunks(); }
        ThreadId tid;

        /// Events land in a linked chain of fixed chunks (cap doubling up
        /// to kMaxChunkEvents) in the compact form described in the file
        /// comment.  Unlike a growable vector this never copies on growth,
        /// and chunks are allocated uninitialized so each page is touched
        /// exactly once.
        struct Chunk {
            explicit Chunk(std::size_t rows);
            std::unique_ptr<std::int64_t[]> position;
            std::unique_ptr<InstanceId[]> instance;
            std::unique_ptr<std::uint32_t[]> size;
            std::unique_ptr<OpKind[]> op;
            std::unique_ptr<std::uint64_t[]> seq_base;  ///< Per seq block.
            std::unique_ptr<std::uint64_t[]> time_ns;   ///< Per ts group.
            std::size_t capacity = 0;
            /// Linked by the producer before it writes any row here, so a
            /// reader that saw a row past this chunk's end sees the link.
            Chunk* next = nullptr;

            /// The first `rows` rows, as recorded by thread `tid`.
            [[nodiscard]] CaptureBlock view(std::size_t rows,
                                            ThreadId tid) const noexcept {
                return CaptureBlock{position.get(), instance.get(),
                                    size.get(),     op.get(),
                                    seq_base.get(), time_ns.get(),
                                    rows,           tid};
            }
        };
        Chunk* first = nullptr;  ///< Oldest chunk still held.
        Chunk* last = nullptr;   ///< The producer's current chunk.
        std::size_t fill = 0;    ///< Rows written to `last`.
        void grow_chunk();
        void release_chunks() noexcept;
        /// Move the delivery cursor to the next chunk (the caller saw a
        /// published row beyond this one, so the link is visible),
        /// freeing the exhausted chunk when `release` is set.
        void next_read_chunk(bool release) noexcept;
        /// The sealed chain's first `events` rows, chunk by chunk.
        void append_blocks(std::uint64_t events,
                           std::vector<CaptureBlock>& out) const;

        // Published state.
        std::atomic<std::uint64_t> events{0};     ///< Completed records.
        std::atomic<std::uint64_t> delivered{0};  ///< Rows handed to sink.
        std::atomic<bool> sealed{false};          ///< Set by stop().

        // Delivery cursor, touched only by the deliverer (the collector,
        // then stop()): the chunk and row of the next undelivered row, and
        // the seq just past the last delivered one.
        Chunk* read = nullptr;
        std::size_t read_row = 0;
        std::uint64_t delivered_end = 0;

        Channel* next = nullptr;  ///< Lock-free registration list link.
    };

    Channel& channel_for_current_thread();
    void collector_loop(const std::stop_token& st);
    std::uint64_t deliver(bool live);
    void await_collector(const Channel& chan) const noexcept;
    [[nodiscard]] std::uint64_t claim_seq_block(const Channel& chan);

    const CaptureMode mode_;
    /// Undelivered rows per channel at which a Streaming producer waits.
    const std::size_t max_undelivered_;
    const AnalysisMode analysis_;
    const std::uint64_t token_;  ///< Unique id for thread-local caching.
    /// Trace context of the thread that constructed the session: collector
    /// and stop()-time spans parent here so capture work nests under the
    /// pipeline's root span even though it runs on other threads.
    const obs::TraceContext trace_ctx_;

    InstanceRegistry registry_;
    ColumnStore store_;

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
    /// Mirrors sink_ presence for the producers' backpressure check.
    std::atomic<bool> has_sink_{false};
    /// Set by the collector while the watermark is held by a channel whose
    /// rows are all delivered (its thread may never record again), so
    /// waiting producers stop waiting instead of deadlocking on it.
    std::atomic<bool> stalled_{false};

    std::jthread collector_;  // Streaming mode with a sink only.
};

}  // namespace dsspy::runtime
