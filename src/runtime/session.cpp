#include "runtime/session.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <chrono>
#include <cstddef>
#include <limits>
#include <span>
#include <utility>

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
    obs::MetricId backpressure_waits;  ///< Undelivered-bound waits.
    obs::MetricId events_recorded;     ///< Total events captured.
    obs::MetricId events_per_sec;      ///< Capture-window throughput.
    obs::MetricId capture_wall_ns;     ///< Capture-window duration.
    obs::MetricId orphan_events;       ///< Store-only instance events.
    obs::MetricId collector_yields;    ///< Idle-backoff yield rounds.
    obs::MetricId collector_sleeps;    ///< Idle-backoff timed sleeps.
    obs::MetricId drain_batch;         ///< Rows per live delivery round.
    obs::MetricId pending_hwm;         ///< Undelivered rows, channel peak.
    obs::MetricId chunk_bytes;         ///< Chunk memory allocated.
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
        last == nullptr ? kFirstChunkEvents
                        : std::min(last->capacity * 2, kMaxChunkEvents);
    auto* chunk = new Chunk(cap);
    (last == nullptr ? first : last->next) = chunk;
    last = chunk;
    fill = 0;
    if (obs::enabled())
        obs::MetricsRegistry::global().add(capture_metrics().chunk_bytes,
                                           chunk_bytes(cap));
}

void ProfilingSession::Channel::release_chunks() noexcept {
    while (first != nullptr) delete std::exchange(first, first->next);
    last = read = nullptr;
}

void ProfilingSession::Channel::next_read_chunk(bool release) noexcept {
    Chunk* done = std::exchange(read, read->next);
    read_row = 0;
    if (release) {
        first = read;
        delete done;
    }
}

void ProfilingSession::Channel::append_blocks(
    std::uint64_t events, std::vector<CaptureBlock>& out) const {
    for (const Chunk* chunk = first; chunk != nullptr && events > 0;
         chunk = chunk->next) {
        const std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(events, chunk->capacity));
        out.push_back(chunk->view(n, tid));
        events -= n;
    }
}

ProfilingSession::ProfilingSession(CaptureMode mode,
                                   std::size_t max_undelivered,
                                   AnalysisMode analysis)
    : mode_(mode),
      // Producers check the bound once per seq block: whole blocks only.
      max_undelivered_(std::max<std::size_t>(
          (max_undelivered + kSeqBlockSize - 1) / kSeqBlockSize *
              kSeqBlockSize,
          kSeqBlockSize)),
      analysis_(analysis),
      token_(next_session_token()),
      trace_ctx_(obs::current_trace_context()),
      start_ns_(support::now_ns()) {}

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
    if (mode_ == CaptureMode::Streaming && sink_ && capturing() &&
        !collector_.joinable())
        collector_ = std::jthread(
            [this](const std::stop_token& st) { collector_loop(st); });
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
    auto* chan = new Channel(tid);
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

    if (chan.last == nullptr || chan.fill == chan.last->capacity)
        chan.grow_chunk();
    // Chunk capacities are whole seq blocks, so the row index alone says
    // when this thread starts a seq block or a timestamp group.
    Channel::Chunk& chunk = *chan.last;
    const std::size_t i = chan.fill;
    if (i % kSeqBlockSize == 0)
        chunk.seq_base[i / kSeqBlockSize] = claim_seq_block(chan);
    if (i % kTimestampStride == 0)
        chunk.time_ns[i / kTimestampStride] = support::now_ns();
    chunk.position[i] = position;
    chunk.instance[i] = instance;
    chunk.size[i] = size;
    chunk.op[i] = op;
    chan.fill = i + 1;
    // Release-publish the completed record: the collector and stop()
    // acquire-read this count, so every row below it is fully visible
    // (single writer: plain add).
    chan.events.store(chan.events.load(std::memory_order_relaxed) + 1,
                      std::memory_order_release);
}

std::uint64_t ProfilingSession::claim_seq_block(const Channel& chan) {
    if (mode_ == CaptureMode::Streaming &&
        has_sink_.load(std::memory_order_relaxed))
        await_collector(chan);
    // Telemetry rides this cold branch (once per kSeqBlockSize events); the
    // per-event path stays untouched.  The span parents under the session
    // creator's context so refills show up inside the run's tree rather
    // than as orphan roots.
    DSSPY_TRACE_SPAN_UNDER("capture.seq_refill", trace_ctx_);
    // Release: a collector whose acquire load of the allocator sees this
    // block also sees the channel registered before it (deliver()).
    const std::uint64_t base =
        seq_alloc_.fetch_add(kSeqBlockSize, std::memory_order_release);
    if (obs::enabled())
        obs::MetricsRegistry::global().add(
            capture_metrics().seq_block_refills);
    return base;
}

/// Streaming backpressure: the mutator waits for the collector rather than
/// dropping events — profiles must be complete for the pattern analysis to
/// be meaningful.  Escalate from yield to a short sleep in case the
/// collector is in its idle backoff.  A watermark held by a fully
/// delivered channel cannot move until that channel records again, so
/// while the collector reports that, the producer goes on.
void ProfilingSession::await_collector(const Channel& chan) const noexcept {
    const std::uint64_t events = chan.events.load(std::memory_order_relaxed);
    unsigned spins = 0;
    while (events - chan.delivered.load(std::memory_order_acquire) >=
               max_undelivered_ &&
           !stalled_.load(std::memory_order_acquire)) {
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
    unsigned idle_rounds = 0;
    while (!st.stop_requested()) {
        const std::uint64_t n = deliver(/*live=*/true);
        if (n > 0) {
            if (obs::enabled())
                obs::MetricsRegistry::global().observe(
                    capture_metrics().drain_batch, n);
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
}

/// The ordered merge: hands every published, undelivered row of every
/// channel to the sink in ascending global seq order and returns how many
/// it delivered.  Seqs are consecutive within a seq block and chunks hold
/// whole blocks, so the merge moves a block at a time, never comparing per
/// row.  Live (the collector), it stops at the watermark: rows at or above
/// it may still be preceded by a row some channel has yet to record.
/// Otherwise (stop(), every producer quiesced) it delivers everything.
std::uint64_t ProfilingSession::deliver(bool live) {
    // Threads not on the list yet will draw blocks at or above the
    // allocator's current value.  The acquire pairs with claim_seq_block's
    // release: a block drawn before this load belongs to a listed channel.
    std::uint64_t limit = live ? seq_alloc_.load(std::memory_order_acquire)
                               : std::numeric_limits<std::uint64_t>::max();
    bool held_by_drained = false;
    // An Incremental session keeps no events: what the sink saw goes.
    const bool free_delivered = analysis_ == AnalysisMode::Incremental;
    struct Cursor {
        Channel* chan;
        std::uint64_t left;  ///< Published rows not yet delivered.
    };
    std::vector<Cursor> cursors;
    std::uint64_t most_left = 0;
    for (Channel* chan = channels_head_.load(std::memory_order_acquire);
         chan != nullptr; chan = chan->next) {
        // The acquire pairs with record()'s release: rows below `events`
        // and the chunk links they need are visible.
        const std::uint64_t events =
            chan->events.load(std::memory_order_acquire);
        const std::uint64_t left =
            events - chan->delivered.load(std::memory_order_relaxed);
        if (left > 0) {
            if (chan->read == nullptr) chan->read = chan->first;
            if (chan->read_row == chan->read->capacity)
                chan->next_read_chunk(free_delivered);
            cursors.push_back(Cursor{chan, left});
            most_left = std::max(most_left, left);
        }
        if (!live) continue;
        // Every later row of this channel lies above its last row's seq:
        // it continues that row's block or draws a later one.  A channel
        // without rows may have drawn any block; it holds everything.
        std::uint64_t bound = 0;
        if (left > 0) {
            const Channel::Chunk* chunk = chan->read;
            std::uint64_t row = chan->read_row + left - 1;
            for (; row >= chunk->capacity; chunk = chunk->next)
                row -= chunk->capacity;
            bound = chunk->view(chunk->capacity, chan->tid)
                        .seq(static_cast<std::size_t>(row)) +
                    1;
        } else if (events > 0) {
            bound = chan->delivered_end;
        }
        if (bound < limit) {
            limit = bound;
            held_by_drained = left == 0 && events > 0;
        }
    }
    if (live && obs::enabled() && most_left > 0)
        obs::MetricsRegistry::global().gauge_max(
            capture_metrics().pending_hwm, most_left);

    const auto seq = [](const Cursor& c) {
        const Channel& chan = *c.chan;
        return chan.read->view(chan.read->capacity, chan.tid)
            .seq(chan.read_row);
    };
    std::array<AccessEvent, kSeqBlockSize> batch;
    std::size_t filled = 0;
    std::uint64_t total = 0;
    while (!cursors.empty()) {
        // Pick the channel holding the globally smallest seq and stream it
        // until the runner-up channel's seq or the watermark takes over.
        std::size_t bi = 0;
        std::uint64_t second = limit;
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
        if (seq(c) >= limit) break;
        if (total == 0 && live) stalled_.store(false, std::memory_order_release);
        Channel& chan = *c.chan;
        const std::uint64_t left_before = c.left;
        // Seq blocks are disjoint, so the channel holding the smallest seq
        // holds the rest of its current block below every other channel's
        // seq and below the watermark.  It hands over block by block, each
        // block's rows copied in one loop, until the runner-up's seq or
        // the watermark is the smaller one.
        while (c.left > 0 && seq(c) < second) {
            const CaptureBlock b =
                chan.read->view(chan.read->capacity, chan.tid);
            const std::size_t rows = static_cast<std::size_t>(
                std::min<std::uint64_t>(
                    kSeqBlockSize - chan.read_row % kSeqBlockSize, c.left));
            for (std::size_t k = 0; k < rows;) {
                const std::size_t n =
                    std::min(rows - k, batch.size() - filled);
                for (std::size_t r = chan.read_row + k, e = r + n; r < e;
                     ++r)
                    batch[filled++] = b.row(r);
                k += n;
                if (filled == batch.size()) {
                    sink_(std::span<const AccessEvent>(batch));
                    filled = 0;
                }
            }
            chan.read_row += rows;
            chan.delivered_end = b.seq(chan.read_row - 1) + 1;
            c.left -= rows;
            if (c.left > 0 && chan.read_row == b.rows)
                chan.next_read_chunk(free_delivered);
        }
        total += left_before - c.left;
        // Release: a waiting producer reads this count (await_collector).
        chan.delivered.store(chan.delivered.load(std::memory_order_relaxed) +
                                 left_before - c.left,
                             std::memory_order_release);
        if (c.left == 0) {
            cursors[bi] = cursors.back();
            cursors.pop_back();
        }
    }
    if (filled > 0) sink_(std::span<const AccessEvent>(batch.data(), filled));
    if (live && total == 0)
        stalled_.store(held_by_drained && !cursors.empty(),
                       std::memory_order_release);
    return total;
}

void ProfilingSession::stop() {
    bool expected = true;
    if (!capturing_.compare_exchange_strong(expected, false,
                                            std::memory_order_acq_rel))
        return;  // already stopped
    stop_ns_ = support::now_ns();
    DSSPY_TRACE_SPAN("capture.stop");

    if (collector_.joinable()) {
        collector_.request_stop();
        collector_.join();
    }
    for (Channel* chan = channels_head_.load(std::memory_order_acquire);
         chan != nullptr; chan = chan->next)
        chan->sealed.store(true, std::memory_order_release);
    if (has_sink_.load(std::memory_order_acquire)) {
        DSSPY_TRACE_SPAN("capture.merge");
        deliver(/*live=*/false);
    }
    {
        DSSPY_TRACE_SPAN("capture.finalize");
        if (analysis_ == AnalysisMode::Postmortem) {
            // Group straight out of the sealed chunks.  The acquire pairs
            // with the release in record(): exactly the events whose
            // writes are fully published are taken.
            std::vector<CaptureBlock> blocks;
            for (Channel* chan =
                     channels_head_.load(std::memory_order_acquire);
                 chan != nullptr; chan = chan->next)
                chan->append_blocks(
                    chan->events.load(std::memory_order_acquire), blocks);
            store_ = ColumnStore::group(blocks);
        }
        // The store now holds every event; the chunks go.
        for (Channel* chan = channels_head_.load(std::memory_order_acquire);
             chan != nullptr; chan = chan->next)
            chan->release_chunks();
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
        const std::size_t orphans = orphan_events();
        if (orphans > 0) reg.add(m.orphan_events, orphans);
    }
}

std::size_t ProfilingSession::orphan_events() const {
    std::size_t orphans = 0;
    for (std::size_t id = registry_.size(); id < store_.instance_slots(); ++id)
        orphans += store_.range(static_cast<InstanceId>(id)).size();
    return orphans;
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
