#include "runtime/session.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <chrono>
#include <cstddef>
#include <limits>
#include <span>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/stopwatch.hpp"

namespace dsspy::runtime {

namespace {

/// Self-telemetry ids for the capture pipeline, registered once on first
/// enabled use (every call site guards on obs::enabled() first, so a
/// disabled process never touches the registry).
struct CaptureMetricIds {
    obs::MetricId seq_block_refills;   ///< Per-thread seq blocks drawn.
    obs::MetricId channels;            ///< Recording threads registered.
    obs::MetricId dropped_after_stop;  ///< Quiesce-contract violations.
    obs::MetricId backpressure_waits;  ///< Ring-full wait episodes.
    obs::MetricId events_recorded;     ///< Total events captured.
    obs::MetricId events_per_sec;      ///< Capture-window throughput.
    obs::MetricId capture_wall_ns;     ///< Capture-window duration.
    obs::MetricId orphan_events;       ///< Store-only instance events.
    obs::MetricId collector_yields;    ///< Idle-backoff yield rounds.
    obs::MetricId collector_sleeps;    ///< Idle-backoff timed sleeps.
    obs::MetricId drain_batch;         ///< Histogram of drain batch sizes.
    obs::MetricId pending_hwm;         ///< Ordered-delivery buffer peak.
    obs::MetricId chunk_bytes;         ///< Buffered-mode chunk memory.
};

const CaptureMetricIds& capture_metrics() {
    static const CaptureMetricIds ids = [] {
        auto& reg = obs::MetricsRegistry::global();
        return CaptureMetricIds{
            reg.counter("capture.seq_block_refills"),
            reg.counter("capture.channels_registered"),
            reg.counter("capture.dropped_after_stop"),
            reg.counter("capture.backpressure_waits"),
            reg.counter("capture.events_recorded"),
            reg.gauge("capture.events_per_sec"),
            reg.gauge("capture.wall_ns"),
            reg.counter("store.orphan_events"),
            reg.counter("collector.backoff_yields"),
            reg.counter("collector.backoff_sleeps"),
            reg.histogram("collector.drain_batch_events"),
            reg.gauge("collector.pending_depth_hwm"),
            reg.counter("capture.chunk_bytes"),
        };
    }();
    return ids;
}

/// Collector backoff: yield this many empty rounds before sleeping.
constexpr unsigned kCollectorYieldRounds = 32;

/// Collector backoff: cap the timed sleep (microseconds, power of two).
constexpr unsigned kCollectorMaxSleepLog2 = 8;  // 256 us

std::uint64_t next_session_token() noexcept {
    static std::atomic<std::uint64_t> counter{1};
    return counter.fetch_add(1, std::memory_order_relaxed);
}

/// Thread-local cache: resolves (session token) -> channel without locking
/// on the hot path.  A thread that records into several live sessions keeps
/// one slot per session.
struct ThreadSlot {
    std::uint64_t token = 0;
    void* channel = nullptr;
};

thread_local std::array<ThreadSlot, 4> t_slots{};

}  // namespace

ProfilingSession::Channel::Channel(ThreadId id, CaptureMode mode,
                                   std::size_t ring_capacity)
    : tid(id) {
    if (mode == CaptureMode::Streaming)
        ring = std::make_unique<SpscRing<AccessEvent>>(ring_capacity);
    // Buffered mode allocates its first chunk lazily on the first record.
}

ProfilingSession::Channel::Chunk::Chunk(std::size_t rows)
    : position(std::make_unique_for_overwrite<std::int64_t[]>(rows)),
      instance(std::make_unique_for_overwrite<InstanceId[]>(rows)),
      size(std::make_unique_for_overwrite<std::uint32_t[]>(rows)),
      op(std::make_unique_for_overwrite<OpKind[]>(rows)),
      seq_base(std::make_unique_for_overwrite<std::uint64_t[]>(
          rows / kSeqBlockSize)),
      time_ns(std::make_unique_for_overwrite<std::uint64_t[]>(
          rows / kTimestampStride)),
      capacity(rows) {}

void ProfilingSession::Channel::grow_chunk() {
    const std::size_t cap =
        chunks.empty()
            ? kFirstChunkEvents
            : std::min(chunks.back().capacity * 2, kMaxChunkEvents);
    chunks.emplace_back(cap);
    fill = 0;
    if (obs::enabled())
        obs::MetricsRegistry::global().add(capture_metrics().chunk_bytes,
                                           chunk_bytes(cap));
}

void ProfilingSession::Channel::append_blocks(
    std::uint64_t events, std::vector<CaptureBlock>& out) const {
    for (const Chunk& chunk : chunks) {
        if (events == 0) break;
        const std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(events, chunk.capacity));
        out.push_back(CaptureBlock{chunk.position.get(),
                                   chunk.instance.get(), chunk.size.get(),
                                   chunk.op.get(), chunk.seq_base.get(),
                                   chunk.time_ns.get(), n, tid});
        events -= n;
    }
}

ProfilingSession::ProfilingSession(CaptureMode mode, std::size_t ring_capacity,
                                   AnalysisMode analysis)
    : mode_(mode),
      ring_capacity_(ring_capacity),
      analysis_(analysis),
      token_(next_session_token()),
      trace_ctx_(obs::current_trace_context()),
      start_ns_(support::now_ns()) {
    if (mode_ == CaptureMode::Streaming) {
        collector_ = std::jthread(
            [this](const std::stop_token& st) { collector_loop(st); });
    }
}

ProfilingSession::~ProfilingSession() {
    stop();
    Channel* chan = channels_head_.load(std::memory_order_acquire);
    while (chan != nullptr) {
        Channel* next = chan->next;
        delete chan;
        chan = next;
    }
}

InstanceId ProfilingSession::register_instance(DsKind kind,
                                               std::string type_name,
                                               support::SourceLoc location) {
    const InstanceId id = registry_.register_instance(
        kind, std::move(type_name), std::move(location));
    if (instance_sink_) instance_sink_(registry_.info(id));
    return id;
}

void ProfilingSession::set_event_sink(EventSink sink) {
    sink_ = std::move(sink);
    has_sink_.store(static_cast<bool>(sink_), std::memory_order_release);
}

void ProfilingSession::set_instance_sink(InstanceSink sink) {
    instance_sink_ = std::move(sink);
}

void ProfilingSession::mark_deallocated(InstanceId id) {
    registry_.mark_deallocated(id);
}

ProfilingSession::Channel& ProfilingSession::channel_for_current_thread() {
    for (ThreadSlot& slot : t_slots) {
        if (slot.token == token_)
            return *static_cast<Channel*>(slot.channel);
    }
    // Slow path: register this thread with the session.  Push-front onto
    // the lock-free list — neither the collector nor other producers are
    // ever stalled by a registration.
    const auto tid = static_cast<ThreadId>(
        next_tid_.fetch_add(1, std::memory_order_relaxed));
    auto* chan = new Channel(tid, mode_, ring_capacity_);
    Channel* head = channels_head_.load(std::memory_order_relaxed);
    do {
        chan->next = head;
    } while (!channels_head_.compare_exchange_weak(
        head, chan, std::memory_order_release, std::memory_order_relaxed));
    // Install into the least-recently-used slot (slot 0 shifts down).
    for (std::size_t i = t_slots.size() - 1; i > 0; --i)
        t_slots[i] = t_slots[i - 1];
    t_slots[0] = ThreadSlot{token_, chan};
    if (obs::enabled())
        obs::MetricsRegistry::global().add(capture_metrics().channels);
    return *chan;
}

void ProfilingSession::record(InstanceId instance, OpKind op,
                              std::int64_t position,
                              std::uint32_t size) noexcept {
    if (!capturing_.load(std::memory_order_acquire)) return;
    Channel& chan = channel_for_current_thread();
    if (chan.sealed.load(std::memory_order_relaxed)) {
        // Quiesce-contract violation: a record raced stop().  Loud in debug
        // builds, dropped (but counted) in release builds.
        if (obs::enabled())
            obs::MetricsRegistry::global().add(
                capture_metrics().dropped_after_stop);
        assert(false && "record() after stop(): recording threads must be "
                        "quiesced before stopping the session");
        return;
    }

    if (mode_ == CaptureMode::Buffered) {
        if (chan.chunks.empty() || chan.fill == chan.chunks.back().capacity)
            chan.grow_chunk();
        // Chunk capacities are whole seq blocks, so the row index alone
        // says when this thread starts a seq block or a timestamp group.
        Channel::Chunk& chunk = chan.chunks.back();
        const std::size_t i = chan.fill;
        if (i % kSeqBlockSize == 0)
            chunk.seq_base[i / kSeqBlockSize] = claim_seq_block();
        if (i % kTimestampStride == 0)
            chunk.time_ns[i / kTimestampStride] = support::now_ns();
        chunk.position[i] = position;
        chunk.instance[i] = instance;
        chunk.size[i] = size;
        chunk.op[i] = op;
        chan.fill = i + 1;
    } else {
        record_streaming(chan, instance, op, position, size);
    }
    // Release-publish the completed record; stop() acquire-reads this count
    // so every merged event is fully visible (single writer: plain add).
    chan.events.store(chan.events.load(std::memory_order_relaxed) + 1,
                      std::memory_order_release);
    // Ordered delivery: next_seq lower-bounds every future seq from this
    // channel (fresh blocks come from a monotonic allocator).  The release
    // pairs with the collector's acquire, so once it reads this bound,
    // every event below it is already in the ring.
    if (mode_ == CaptureMode::Streaming &&
        has_sink_.load(std::memory_order_relaxed))
        chan.published.store(chan.next_seq, std::memory_order_release);
}

std::uint64_t ProfilingSession::claim_seq_block() {
    // Telemetry rides this cold branch (once per kSeqBlockSize events); the
    // per-event path stays untouched.  The span parents under the session
    // creator's context so refills show up inside the run's tree rather
    // than as orphan roots.
    DSSPY_TRACE_SPAN_UNDER("capture.seq_refill", trace_ctx_);
    const std::uint64_t base =
        seq_alloc_.fetch_add(kSeqBlockSize, std::memory_order_relaxed);
    if (obs::enabled())
        obs::MetricsRegistry::global().add(
            capture_metrics().seq_block_refills);
    return base;
}

void ProfilingSession::record_streaming(Channel& chan, InstanceId instance,
                                        OpKind op, std::int64_t position,
                                        std::uint32_t size) noexcept {
    if (chan.next_seq == chan.seq_block_end) {
        chan.next_seq = claim_seq_block();
        chan.seq_block_end = chan.next_seq + kSeqBlockSize;
        // A fresh block also starts a timestamp group.
        chan.ts_countdown = 0;
    }
    if (chan.ts_countdown == 0) {
        chan.last_ts_ns = support::now_ns();
        chan.ts_countdown = kTimestampStride;
    }
    --chan.ts_countdown;
    AccessEvent ev;
    ev.seq = chan.next_seq++;
    ev.time_ns = chan.last_ts_ns;
    ev.position = position;
    ev.instance = instance;
    ev.size = size;
    ev.op = op;
    ev.thread = chan.tid;
    // Blocking backpressure: the mutator waits for the collector rather
    // than dropping events — profiles must be complete for the pattern
    // analysis to be meaningful.  Escalate from yield to a short sleep in
    // case the collector is in its idle backoff.
    unsigned spins = 0;
    while (!chan.ring->try_push(ev)) {
        if (spins == 0 && obs::enabled())
            obs::MetricsRegistry::global().add(
                capture_metrics().backpressure_waits);
        if (++spins < 64) {
            std::this_thread::yield();
        } else {
            std::this_thread::sleep_for(std::chrono::microseconds(10));
        }
    }
}

void ProfilingSession::collector_loop(const std::stop_token& st) {
    std::array<AccessEvent, 1024> batch;
    unsigned idle_rounds = 0;
    while (!st.stop_requested()) {
        bool any = false;
        // Re-read each round: the collector starts in the constructor,
        // before any set_event_sink() call can have happened.
        if (has_sink_.load(std::memory_order_acquire)) {
            any = collect_ordered_round();
        } else {
            for (Channel* chan =
                     channels_head_.load(std::memory_order_acquire);
                 chan != nullptr; chan = chan->next) {
                const std::size_t n = chan->ring->pop_into(batch);
                if (n > 0) {
                    if (analysis_ == AnalysisMode::Postmortem)
                        store_.append(std::span(batch.data(), n));
                    if (obs::enabled())
                        obs::MetricsRegistry::global().observe(
                            capture_metrics().drain_batch, n);
                    any = true;
                }
            }
        }
        if (any) {
            idle_rounds = 0;
            continue;
        }
        // Idle: back off exponentially instead of burning a core.  Start
        // with yields (cheap wakeup while producers are merely between
        // events), end in a bounded timed sleep.
        ++idle_rounds;
        if (obs::enabled())
            obs::MetricsRegistry::global().add(
                idle_rounds <= kCollectorYieldRounds
                    ? capture_metrics().collector_yields
                    : capture_metrics().collector_sleeps);
        if (idle_rounds <= kCollectorYieldRounds) {
            std::this_thread::yield();
        } else {
            const unsigned exp = idle_rounds - kCollectorYieldRounds;
            const unsigned log2 =
                exp < kCollectorMaxSleepLog2 ? exp : kCollectorMaxSleepLog2;
            std::this_thread::sleep_for(std::chrono::microseconds(1u << log2));
        }
    }
    // Final drain only: spanning every collector round would flood the
    // trace with millions of idle-loop spans; the steady-state drains are
    // already covered by the drain_batch histogram.
    DSSPY_TRACE_SPAN_UNDER("capture.drain", trace_ctx_);
    drain_all_rings();
    if (has_sink_.load(std::memory_order_acquire)) {
        // All producers have quiesced: no bound can rise any more, so
        // everything still pending is deliverable.
        deliver_ordered(/*final_flush=*/true);
    }
}

/// One ordered-collection round: per channel, read its published sequence
/// bound and THEN drain the ring into the channel's pending buffer — that
/// order guarantees that every event below the bound is in the buffer (the
/// bound is release-stored after the push it covers).  Then deliver every
/// pending event below the cross-channel watermark.
bool ProfilingSession::collect_ordered_round() {
    std::array<AccessEvent, 1024> batch;
    bool any = false;
    for (Channel* chan = channels_head_.load(std::memory_order_acquire);
         chan != nullptr; chan = chan->next) {
        chan->bound = chan->published.load(std::memory_order_acquire);
        std::size_t n;
        unsigned rounds = 0;
        while ((n = chan->ring->pop_into(batch)) > 0) {
            if (analysis_ == AnalysisMode::Postmortem)
                store_.append(std::span(batch.data(), n));
            chan->pending.insert(chan->pending.end(), batch.data(),
                                 batch.data() + n);
            any = true;
            if (obs::enabled())
                obs::MetricsRegistry::global().observe(
                    capture_metrics().drain_batch, n);
            // A fast producer could refill indefinitely; cap the drain and
            // revisit next round.  Stopping early is safe: with events left
            // in the ring, the channel's pending front (older than anything
            // in the ring) bounds the watermark instead of `bound`.
            if (++rounds == 16) break;
        }
        if (obs::enabled() && chan->pending.size() > chan->pending_head)
            obs::MetricsRegistry::global().gauge_max(
                capture_metrics().pending_hwm,
                chan->pending.size() - chan->pending_head);
    }
    deliver_ordered(/*final_flush=*/false);
    return any;
}

/// Deliver pending events to the sink in ascending global seq order, up to
/// the watermark (the minimum over every channel's next undelivered seq or,
/// for fully-drained channels, its published bound).  With `final_flush`
/// the bounds are ignored: no further events can appear.
void ProfilingSession::deliver_ordered(bool final_flush) {
    for (;;) {
        Channel* best = nullptr;
        std::uint64_t best_seq = 0;
        // Smallest cursor among the *other* channels = how far `best` may
        // be delivered without risking a seq inversion.
        std::uint64_t limit = std::numeric_limits<std::uint64_t>::max();
        for (Channel* chan = channels_head_.load(std::memory_order_acquire);
             chan != nullptr; chan = chan->next) {
            const bool has_pending = chan->pending_head < chan->pending.size();
            if (!has_pending && final_flush) continue;
            const std::uint64_t cursor =
                has_pending ? chan->pending[chan->pending_head].seq
                            : chan->bound;
            if (has_pending && (best == nullptr || cursor < best_seq)) {
                if (best != nullptr) limit = std::min(limit, best_seq);
                best = chan;
                best_seq = cursor;
            } else {
                limit = std::min(limit, cursor);
            }
        }
        if (best == nullptr) return;
        const std::vector<AccessEvent>& pend = best->pending;
        std::size_t end = best->pending_head;
        while (end < pend.size() && pend[end].seq < limit) ++end;
        if (end == best->pending_head) return;  // watermark blocks progress
        sink_(std::span(pend.data() + best->pending_head,
                        end - best->pending_head));
        best->pending_head = end;
        if (best->pending_head == best->pending.size()) {
            best->pending.clear();
            best->pending_head = 0;
        } else if (best->pending_head >= 4096 &&
                   best->pending_head * 2 >= best->pending.size()) {
            best->pending.erase(best->pending.begin(),
                                best->pending.begin() +
                                    static_cast<std::ptrdiff_t>(
                                        best->pending_head));
            best->pending_head = 0;
        }
    }
}

void ProfilingSession::drain_all_rings() {
    std::array<AccessEvent, 1024> batch;
    const bool ordered = has_sink_.load(std::memory_order_acquire);
    for (Channel* chan = channels_head_.load(std::memory_order_acquire);
         chan != nullptr; chan = chan->next) {
        if (!chan->ring) continue;
        std::size_t n;
        while ((n = chan->ring->pop_into(batch)) > 0) {
            if (analysis_ == AnalysisMode::Postmortem)
                store_.append(std::span(batch.data(), n));
            if (ordered)
                chan->pending.insert(chan->pending.end(), batch.data(),
                                     batch.data() + n);
        }
    }
}

/// Buffered-mode ordered delivery: k-way merge of the sealed per-thread
/// chunk chains by seq, batched to the sink.  Runs on the stop() caller.
/// Seqs are consecutive within a seq block and chunks hold whole blocks,
/// so the merge moves a block at a time, never comparing per row.
void ProfilingSession::buffered_merge_to_sink() {
    // Every channel's chunk chain, one after another; a cursor walks its
    // channel's blocks [block, end).
    std::vector<CaptureBlock> blocks;
    struct Cursor {
        std::size_t block;
        std::size_t end;
        std::size_t row;
    };
    std::vector<Cursor> cursors;
    for (Channel* chan = channels_head_.load(std::memory_order_acquire);
         chan != nullptr; chan = chan->next) {
        const std::size_t first = blocks.size();
        chan->append_blocks(chan->events.load(std::memory_order_acquire),
                            blocks);
        if (blocks.size() > first)
            cursors.push_back(Cursor{first, blocks.size(), 0});
    }
    const auto seq = [&blocks](const Cursor& c) {
        return blocks[c.block].seq(c.row);
    };
    std::array<AccessEvent, kSeqBlockSize> batch;
    std::size_t filled = 0;
    while (!cursors.empty()) {
        // Pick the channel holding the globally smallest seq and stream it
        // until the runner-up channel's seq takes over.
        std::size_t bi = 0;
        std::uint64_t second = std::numeric_limits<std::uint64_t>::max();
        for (std::size_t i = 1; i < cursors.size(); ++i) {
            const std::uint64_t s = seq(cursors[i]);
            if (s < seq(cursors[bi])) {
                second = std::min(second, seq(cursors[bi]));
                bi = i;
            } else {
                second = std::min(second, s);
            }
        }
        Cursor& c = cursors[bi];
        bool live = true;
        // Seq blocks are disjoint, so the channel holding the smallest seq
        // holds its whole current block below every other channel's seq.
        // It hands over block by block, each block's rows copied in one
        // loop, until the runner-up's seq is the smaller one.
        while (live && seq(c) < second) {
            const CaptureBlock& b = blocks[c.block];
            const std::size_t rows =
                std::min<std::size_t>(kSeqBlockSize, b.rows - c.row);
            for (std::size_t k = 0; k < rows;) {
                const std::size_t n =
                    std::min(rows - k, batch.size() - filled);
                for (std::size_t r = c.row + k, e = r + n; r < e; ++r)
                    batch[filled++] = b.row(r);
                k += n;
                if (filled == batch.size()) {
                    sink_(std::span<const AccessEvent>(batch));
                    filled = 0;
                }
            }
            c.row += rows;
            if (c.row == b.rows) {
                c.row = 0;
                live = ++c.block < c.end;
            }
        }
        if (!live) {
            cursors[bi] = cursors.back();
            cursors.pop_back();
        }
    }
    if (filled > 0) sink_(std::span<const AccessEvent>(batch.data(), filled));
}

void ProfilingSession::stop() {
    bool expected = true;
    if (!capturing_.compare_exchange_strong(expected, false,
                                            std::memory_order_acq_rel))
        return;  // already stopped
    stop_ns_ = support::now_ns();
    DSSPY_TRACE_SPAN("capture.stop");

    if (mode_ == CaptureMode::Streaming) {
        if (collector_.joinable()) {
            collector_.request_stop();
            collector_.join();  // collector drains remaining events on exit
        }
        for (Channel* chan = channels_head_.load(std::memory_order_acquire);
             chan != nullptr; chan = chan->next)
            chan->sealed.store(true, std::memory_order_release);
    } else {
        for (Channel* chan = channels_head_.load(std::memory_order_acquire);
             chan != nullptr; chan = chan->next)
            chan->sealed.store(true, std::memory_order_release);
        if (has_sink_.load(std::memory_order_acquire)) {
            DSSPY_TRACE_SPAN("capture.merge");
            buffered_merge_to_sink();
        }
    }
    {
        DSSPY_TRACE_SPAN("capture.finalize");
        if (mode_ == CaptureMode::Streaming) {
            store_.finalize();  // groups the batches the collector staged
        } else if (analysis_ == AnalysisMode::Postmortem) {
            // Group straight out of the sealed chunks.  The acquire pairs
            // with the release in record(): exactly the events whose
            // writes are fully published are taken.
            std::vector<CaptureBlock> blocks;
            for (Channel* chan =
                     channels_head_.load(std::memory_order_acquire);
                 chan != nullptr; chan = chan->next)
                chan->append_blocks(
                    chan->events.load(std::memory_order_acquire), blocks);
            store_ = ProfileStore(ColumnStore::group(blocks));
        }
        // The store now holds every event; the chunks go.
        for (Channel* chan = channels_head_.load(std::memory_order_acquire);
             chan != nullptr; chan = chan->next) {
            chan->chunks.clear();
            chan->chunks.shrink_to_fit();
        }
    }
    stop_end_ns_ = support::now_ns();

    if (obs::enabled()) {
        auto& reg = obs::MetricsRegistry::global();
        const CaptureMetricIds& m = capture_metrics();
        const std::uint64_t events = events_recorded();
        reg.add(m.events_recorded, events);
        const std::uint64_t wall = stop_ns_ - start_ns_;
        reg.gauge_max(m.capture_wall_ns, wall);
        if (wall > 0) {
            // events/sec = events / (wall / 1e9), computed in integer space.
            const std::uint64_t rate =
                static_cast<std::uint64_t>(static_cast<double>(events) *
                                           1e9 / static_cast<double>(wall));
            reg.gauge_max(m.events_per_sec, rate);
        }
        const std::size_t orphans = store_.orphan_events(registry_.size());
        if (orphans > 0) reg.add(m.orphan_events, orphans);
    }
}

std::size_t ProfilingSession::orphan_events() const {
    return store_.orphan_events(registry_.size());
}

std::size_t ProfilingSession::thread_count() const noexcept {
    return next_tid_.load(std::memory_order_acquire);
}

std::uint64_t ProfilingSession::events_recorded() const noexcept {
    std::uint64_t total = 0;
    for (const Channel* chan =
             channels_head_.load(std::memory_order_acquire);
         chan != nullptr; chan = chan->next)
        total += chan->events.load(std::memory_order_acquire);
    return total;
}

std::uint64_t ProfilingSession::capture_duration_ns() const noexcept {
    const std::uint64_t end =
        capturing_.load(std::memory_order_acquire) ? support::now_ns() : stop_ns_;
    return end - start_ns_;
}

}  // namespace dsspy::runtime
