// Hierarchical span tracing (DESIGN.md §13).
//
// Where the metrics registry (metrics.hpp) answers "how much time does
// stage X cost in aggregate", this recorder answers "where did THIS run
// spend it": every instrumented scope records one SpanRecord with an id,
// a parent link, a root id, the recording thread, and optional key=value
// annotations — a forest of span trees, one root per pipeline run (or
// per serve-daemon tenant).  trace_export.hpp renders a snapshot as
// Chrome trace-event / Perfetto JSON or a compact text summary.
//
// Design constraints, in the same priority order as the registry:
//   * Zero-cost when disabled: every site guards on `trace_enabled()`
//     (one relaxed atomic bool load); nothing else runs.  The recorder is
//     enabled independently of the metrics registry (`--trace-spans-out`
//     vs `--metrics-out`), and nothing rides the per-event record() hot
//     path — spans instrument the cold branches around it (seq refill,
//     collector drain, stage boundaries).
//   * No contention when enabled: spans land in per-thread buffers.
//     Each recording thread owns a chunked append-only list registered on
//     a lock-free CAS list (the same TLS-shard discipline as
//     MetricsRegistry); the owner publishes each record with one release
//     store, so snapshot() can read a live timeline without stopping
//     writers (the serve daemon's /tenants/<id>/trace endpoint does).
//   * Bounded memory: a process-wide span cap; past it new spans are
//     counted as dropped, never buffered.
//
// Parent links come from a per-thread context stack maintained by the
// RAII ScopedSpan, so nesting works without any plumbing:
//
//     void PipelineRunner::run(...) {
//         DSSPY_TRACE_SPAN("run");           // becomes a root span
//         ...
//         analyze(...);                      // spans inside nest under it
//     }
//
// Work that fans out to other threads (pool shards, daemon connection
// threads) propagates the tree explicitly: capture current_trace_context()
// before the fan-out and open children with DSSPY_TRACE_SPAN_UNDER (or
// the manual begin_span/end_span pair for spans whose begin and end
// happen on different threads, like a tenant's whole session).
//
// `name` must be a string literal (or otherwise immortal string): records
// and the cross-thread open-span table store the pointer, not a copy.
// Dynamic detail goes in annotations.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "support/stopwatch.hpp"

namespace dsspy::obs {

using SpanId = std::uint64_t;

/// A node's position in the span forest: its own id and the id of the
/// tree's root.  span_id 0 means "no span" (tracing disabled or span
/// budget exhausted); such a context parents children as new roots.
struct TraceContext {
    SpanId span_id = 0;
    SpanId root_id = 0;

    [[nodiscard]] bool valid() const noexcept { return span_id != 0; }
};

/// One completed span.  start/end use support::now_ns() — the same
/// monotonic source as capture timestamps and the span histograms, so
/// all three compare directly.
struct SpanRecord {
    SpanId id = 0;
    SpanId parent = 0;  ///< 0 for roots.
    SpanId root = 0;    ///< Root of this span's tree (== id for roots).
    std::uint32_t thread = 0;  ///< Small per-process thread index.
    const char* name = "";     ///< Immortal string, see the file comment.
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::string annotations;  ///< "key=value key2=value2", often empty.
};

/// Live view for the watch ticker: the deepest open-span nesting across
/// all threads and the longest-open span (earliest start that has not
/// ended).  `name` is null when nothing is open.
struct OpenSpanInfo {
    const char* name = nullptr;
    std::uint64_t start_ns = 0;
    std::uint32_t depth = 0;
};

namespace detail {
/// Process-wide enable flag for the global recorder; read trace_enabled().
extern std::atomic<bool> g_trace_enabled;
}  // namespace detail

/// True when span tracing is on (one relaxed load; the whole tracing
/// layer costs one predictable branch per site when off).
[[nodiscard]] inline bool trace_enabled() noexcept {
    return detail::g_trace_enabled.load(std::memory_order_relaxed);
}

/// A manually-managed span: begin and end may happen on different
/// threads (the serve daemon opens one per tenant on the connection
/// thread and may finalize it from the shutdown path).
struct ManualSpan {
    TraceContext ctx;
    SpanId parent = 0;
    std::uint64_t start_ns = 0;
    const char* name = "";
};

/// Process-wide span recorder; see the file comment for the design.
///
/// Threading contract: begin/end/record and snapshot() are safe from any
/// thread; snapshot() while writers run yields every span published
/// before the call.  reset() requires quiesced writers (tests, bench
/// rounds), like MetricsRegistry::reset().  Only tests construct
/// recorders; production code uses the immortal global().
class TraceRecorder {
public:
    TraceRecorder();
    ~TraceRecorder();

    TraceRecorder(const TraceRecorder&) = delete;
    TraceRecorder& operator=(const TraceRecorder&) = delete;

    /// The process-wide recorder every DSSPY_TRACE_SPAN reports into.
    static TraceRecorder& global();

    /// Toggle tracing.  On the global recorder this also flips the flag
    /// behind trace_enabled().
    void set_enabled(bool on) noexcept;
    [[nodiscard]] bool is_enabled() const noexcept {
        return enabled_.load(std::memory_order_relaxed);
    }

    /// Spans at least this long log one `[slow-op]` line to stderr when
    /// they end (0 disables; `--slow-op-ms=N` sets it).
    void set_slow_op_threshold_ns(std::uint64_t ns) noexcept {
        slow_op_threshold_ns_.store(ns, std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t slow_op_threshold_ns() const noexcept {
        return slow_op_threshold_ns_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t slow_ops() const noexcept {
        return slow_ops_.load(std::memory_order_relaxed);
    }

    /// Open a span whose end may come from another thread.  A zero
    /// `parent` starts a new tree.  Returns an inert span (ctx invalid)
    /// when tracing is off.
    [[nodiscard]] ManualSpan begin_span(const char* name,
                                        TraceContext parent = {}) noexcept;

    /// Complete a begin_span() span; no-op for inert spans.  Safe from
    /// any thread (the record lands in the calling thread's buffer).
    void end_span(const ManualSpan& span, std::string annotations = {});

    /// Every span published so far, sorted by start time.  Safe while
    /// writers are running (live daemon timelines read this).
    [[nodiscard]] std::vector<SpanRecord> snapshot() const;

    /// Drop every recorded span; ids keep increasing.  Callers must
    /// quiesce writers first (tests, bench rounds between measurements).
    void reset() noexcept;

    [[nodiscard]] std::uint64_t spans_recorded() const noexcept {
        return total_spans_.load(std::memory_order_relaxed);
    }

    /// Spans refused because the process-wide buffer cap was reached.
    [[nodiscard]] std::uint64_t spans_dropped() const noexcept {
        return dropped_spans_.load(std::memory_order_relaxed);
    }

    /// Live open-span view for the watch ticker; see OpenSpanInfo.
    [[nodiscard]] OpenSpanInfo slowest_open_span() const noexcept;

    /// Process-wide cap on buffered spans (default kDefaultSpanCap);
    /// tests shrink it to exercise the drop path.
    void set_span_cap(std::uint64_t cap) noexcept {
        span_cap_.store(cap, std::memory_order_relaxed);
    }

    /// 256 Ki buffered spans ≈ 24 MiB worst case — hours of pipeline
    /// spans; a long-lived daemon that exhausts it keeps serving with
    /// spans_dropped() accounting for the loss.
    static constexpr std::uint64_t kDefaultSpanCap = 1u << 18;

private:
    friend class ScopedSpan;

    /// Spans per buffer chunk; chunks are allocated on the owning thread
    /// and linked with release stores (readers acquire).
    static constexpr std::size_t kChunkSpans = 256;

    /// Cross-thread-visible open-span stack depth per thread; deeper
    /// nesting still records, it just leaves the live view.
    static constexpr std::size_t kOpenDepth = 16;

    struct Chunk {
        std::array<SpanRecord, kChunkSpans> spans{};
        std::atomic<std::uint32_t> used{0};
        std::atomic<Chunk*> next{nullptr};
    };

    struct OpenSlot {
        std::atomic<const char*> name{nullptr};
        std::atomic<std::uint64_t> start_ns{0};
    };

    struct ThreadBuffer {
        explicit ThreadBuffer(std::uint32_t index) : thread_index(index) {}
        const std::uint32_t thread_index;
        Chunk head;             ///< First chunk, inline.
        Chunk* tail = &head;    ///< Owner-only append cursor.
        std::array<OpenSlot, kOpenDepth> open{};
        std::atomic<std::uint32_t> depth{0};
        ThreadBuffer* next = nullptr;  ///< Lock-free registration link.
    };

    ThreadBuffer& buffer_for_current_thread() noexcept;

    /// Append one completed record to this thread's buffer (or count it
    /// as dropped past the cap), then run the slow-op check.
    void publish(SpanRecord&& rec) noexcept;

    [[nodiscard]] SpanId next_span_id() noexcept {
        return next_id_.fetch_add(1, std::memory_order_relaxed);
    }

    /// Cross-thread open-span table maintenance (ScopedSpan push/pop).
    void open_push(ThreadBuffer& buf, const char* name,
                   std::uint64_t start_ns) noexcept;
    void open_pop(ThreadBuffer& buf) noexcept;

    const std::uint64_t token_;  ///< Unique id for thread-local caching.
    std::atomic<bool> enabled_{false};
    std::atomic<ThreadBuffer*> buffers_head_{nullptr};
    std::atomic<SpanId> next_id_{1};
    std::atomic<std::uint64_t> total_spans_{0};
    std::atomic<std::uint64_t> dropped_spans_{0};
    std::atomic<std::uint64_t> span_cap_{kDefaultSpanCap};
    std::atomic<std::uint64_t> slow_op_threshold_ns_{0};
    std::atomic<std::uint64_t> slow_ops_{0};
};

/// The calling thread's innermost open ScopedSpan context on the global
/// recorder ({} outside any span).  Capture this before fanning work out
/// to a pool and pass it to DSSPY_TRACE_SPAN_UNDER in the workers.
[[nodiscard]] TraceContext current_trace_context() noexcept;

/// RAII span: one trace record on the global recorder (when tracing is
/// on) plus, optionally, an observation into a "span.<name>" histogram
/// (when metrics are on).  Costs two relaxed loads when both layers are
/// off.
class ScopedSpan {
public:
    /// Parent = the thread's current context (normal nesting).
    explicit ScopedSpan(const char* name,
                        MetricId metric = kInvalidMetric) noexcept
        : ScopedSpan(name, nullptr, metric) {}

    /// Parent = `parent` (cross-thread fan-out); a zero parent roots a
    /// new tree.
    ScopedSpan(const char* name, TraceContext parent,
               MetricId metric = kInvalidMetric) noexcept
        : ScopedSpan(name, &parent, metric) {}

    ~ScopedSpan();

    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    /// Append "key=value" to the record's annotations.  Only worth
    /// calling under an `if (trace_enabled())` guard for non-trivial
    /// values; a no-op when this span is inert.
    void annotate(std::string_view key, std::string_view value);

    /// This span's context, for parenting cross-thread children.
    [[nodiscard]] TraceContext context() const noexcept { return ctx_; }

private:
    /// Shared implementation: `parent` null means "nest under the TLS
    /// context"; non-null pins the parent (zero ctx = new root).
    ScopedSpan(const char* name, const TraceContext* parent,
               MetricId metric) noexcept;

    const char* name_;
    MetricId metric_;
    std::uint64_t metric_start_ns_ = 0;  ///< 0 = metrics were off.
    std::uint64_t start_ns_ = 0;
    TraceContext ctx_{};    ///< span_id 0 = tracing was off.
    SpanId parent_ = 0;
    TraceContext saved_{};  ///< TLS context to restore.
    bool restore_ = false;  ///< Whether this span owns the TLS slot.
    void* buffer_ = nullptr;  ///< Owning ThreadBuffer (open-table pop).
    std::string annotations_;
};

/// Register (once) the span histogram for `name` under "span.<name>".
inline MetricId span_metric(std::string_view name) {
    return MetricsRegistry::global().histogram(std::string("span.") +
                                               std::string(name));
}

}  // namespace dsspy::obs

#define DSSPY_OBS_CAT2(a, b) a##b
#define DSSPY_OBS_CAT(a, b) DSSPY_OBS_CAT2(a, b)

/// Time the enclosing scope into histogram "span.<name>" AND record it as
/// a span in the trace tree (each layer subject to its own enable flag).
/// `name` must be a string literal.
#define DSSPY_TRACE_SPAN(name)                                             \
    static const ::dsspy::obs::MetricId DSSPY_OBS_CAT(dsspy_tspan_id_,     \
                                                      __LINE__) =          \
        ::dsspy::obs::span_metric(name);                                   \
    const ::dsspy::obs::ScopedSpan DSSPY_OBS_CAT(dsspy_tspan_, __LINE__) { \
        name, DSSPY_OBS_CAT(dsspy_tspan_id_, __LINE__)                     \
    }

/// DSSPY_TRACE_SPAN with an explicit parent context — for work running on
/// a different thread than the span that spawned it (pool shards, daemon
/// connection threads).
#define DSSPY_TRACE_SPAN_UNDER(name, parent)                               \
    static const ::dsspy::obs::MetricId DSSPY_OBS_CAT(dsspy_tspan_id_,     \
                                                      __LINE__) =          \
        ::dsspy::obs::span_metric(name);                                   \
    const ::dsspy::obs::ScopedSpan DSSPY_OBS_CAT(dsspy_tspan_, __LINE__) { \
        name, (parent), DSSPY_OBS_CAT(dsspy_tspan_id_, __LINE__)           \
    }
