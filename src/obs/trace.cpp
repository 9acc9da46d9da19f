#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>

namespace dsspy::obs {

namespace detail {
std::atomic<bool> g_trace_enabled{false};
}  // namespace detail

namespace {

std::uint64_t next_recorder_token() noexcept {
    static std::atomic<std::uint64_t> counter{1};
    return counter.fetch_add(1, std::memory_order_relaxed);
}

/// Small stable per-thread index for SpanRecord::thread (and the
/// exporter's tid tracks); issued once per thread, process-wide.
std::uint32_t current_thread_index() noexcept {
    static std::atomic<std::uint32_t> counter{1};
    thread_local const std::uint32_t index =
        counter.fetch_add(1, std::memory_order_relaxed);
    return index;
}

/// Thread-local cache resolving (recorder token) -> buffer without
/// locking; same LRU-shift scheme as the metrics registry's shard cache.
/// Tokens are never reused, so entries for destroyed recorders can only
/// go stale, never alias a live one.
struct BufferSlot {
    std::uint64_t token = 0;
    void* buffer = nullptr;
};

thread_local std::array<BufferSlot, 4> t_buffer_slots{};

/// The innermost open ScopedSpan on this thread (global recorder only).
thread_local TraceContext t_current_context{};

}  // namespace

TraceContext current_trace_context() noexcept { return t_current_context; }

TraceRecorder::TraceRecorder() : token_(next_recorder_token()) {}

TraceRecorder::~TraceRecorder() {
    ThreadBuffer* buf = buffers_head_.load(std::memory_order_acquire);
    while (buf != nullptr) {
        ThreadBuffer* next = buf->next;
        Chunk* chunk = buf->head.next.load(std::memory_order_acquire);
        while (chunk != nullptr) {
            Chunk* chunk_next = chunk->next.load(std::memory_order_acquire);
            delete chunk;
            chunk = chunk_next;
        }
        delete buf;
        buf = next;
    }
}

TraceRecorder& TraceRecorder::global() {
    static TraceRecorder recorder;
    return recorder;
}

void TraceRecorder::set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
    if (this == &global())
        detail::g_trace_enabled.store(on, std::memory_order_relaxed);
}

TraceRecorder::ThreadBuffer&
TraceRecorder::buffer_for_current_thread() noexcept {
    for (BufferSlot& slot : t_buffer_slots) {
        if (slot.token == token_)
            return *static_cast<ThreadBuffer*>(slot.buffer);
    }
    auto* buf = new ThreadBuffer(current_thread_index());
    ThreadBuffer* head = buffers_head_.load(std::memory_order_relaxed);
    do {
        buf->next = head;
    } while (!buffers_head_.compare_exchange_weak(
        head, buf, std::memory_order_release, std::memory_order_relaxed));
    for (std::size_t i = t_buffer_slots.size() - 1; i > 0; --i)
        t_buffer_slots[i] = t_buffer_slots[i - 1];
    t_buffer_slots[0] = BufferSlot{token_, buf};
    return *buf;
}

void TraceRecorder::publish(SpanRecord&& rec) noexcept {
    const std::uint64_t duration =
        rec.end_ns > rec.start_ns ? rec.end_ns - rec.start_ns : 0;
    const std::uint64_t slow_ns =
        slow_op_threshold_ns_.load(std::memory_order_relaxed);
    if (slow_ns != 0 && duration >= slow_ns) {
        slow_ops_.fetch_add(1, std::memory_order_relaxed);
        std::fprintf(stderr, "[slow-op] %s %.2f ms (span %llu, thread %u)\n",
                     rec.name, static_cast<double>(duration) / 1e6,
                     static_cast<unsigned long long>(rec.id), rec.thread);
    }
    if (total_spans_.fetch_add(1, std::memory_order_relaxed) >=
        span_cap_.load(std::memory_order_relaxed)) {
        total_spans_.fetch_sub(1, std::memory_order_relaxed);
        dropped_spans_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    ThreadBuffer& buf = buffer_for_current_thread();
    Chunk* tail = buf.tail;
    std::uint32_t used = tail->used.load(std::memory_order_relaxed);
    if (used == kChunkSpans) {
        auto* next = new Chunk();
        tail->next.store(next, std::memory_order_release);
        buf.tail = next;
        tail = next;
        used = 0;
    }
    tail->spans[used] = std::move(rec);
    // Release-publish: a snapshot() that sees this count sees the record.
    tail->used.store(used + 1, std::memory_order_release);
}

ManualSpan TraceRecorder::begin_span(const char* name,
                                     TraceContext parent) noexcept {
    ManualSpan span;
    span.name = name;
    if (!is_enabled()) return span;
    const SpanId id = next_span_id();
    span.ctx.span_id = id;
    span.ctx.root_id = parent.valid() ? parent.root_id : id;
    span.start_ns = support::now_ns();
    span.parent = parent.span_id;
    return span;
}

void TraceRecorder::end_span(const ManualSpan& span,
                             std::string annotations) {
    if (!span.ctx.valid()) return;
    SpanRecord rec;
    rec.id = span.ctx.span_id;
    rec.parent = span.parent;
    rec.root = span.ctx.root_id;
    rec.thread = current_thread_index();
    rec.name = span.name;
    rec.start_ns = span.start_ns;
    rec.end_ns = support::now_ns();
    rec.annotations = std::move(annotations);
    publish(std::move(rec));
}

std::vector<SpanRecord> TraceRecorder::snapshot() const {
    std::vector<SpanRecord> out;
    for (const ThreadBuffer* buf =
             buffers_head_.load(std::memory_order_acquire);
         buf != nullptr; buf = buf->next) {
        for (const Chunk* chunk = &buf->head; chunk != nullptr;
             chunk = chunk->next.load(std::memory_order_acquire)) {
            const std::uint32_t used =
                chunk->used.load(std::memory_order_acquire);
            for (std::uint32_t i = 0; i < used; ++i)
                out.push_back(chunk->spans[i]);
        }
    }
    std::sort(out.begin(), out.end(),
              [](const SpanRecord& a, const SpanRecord& b) {
                  return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                                  : a.id < b.id;
              });
    return out;
}

void TraceRecorder::reset() noexcept {
    for (ThreadBuffer* buf = buffers_head_.load(std::memory_order_acquire);
         buf != nullptr; buf = buf->next) {
        // Contract: writers are quiesced, so touching the owner-side
        // cursor and freeing overflow chunks is safe here.
        Chunk* chunk = buf->head.next.load(std::memory_order_acquire);
        while (chunk != nullptr) {
            Chunk* next = chunk->next.load(std::memory_order_acquire);
            delete chunk;
            chunk = next;
        }
        buf->head.next.store(nullptr, std::memory_order_release);
        buf->head.used.store(0, std::memory_order_release);
        buf->tail = &buf->head;
        buf->depth.store(0, std::memory_order_release);
    }
    total_spans_.store(0, std::memory_order_relaxed);
    dropped_spans_.store(0, std::memory_order_relaxed);
    slow_ops_.store(0, std::memory_order_relaxed);
}

OpenSpanInfo TraceRecorder::slowest_open_span() const noexcept {
    OpenSpanInfo info;
    info.start_ns = ~std::uint64_t{0};
    for (const ThreadBuffer* buf =
             buffers_head_.load(std::memory_order_acquire);
         buf != nullptr; buf = buf->next) {
        const std::uint32_t depth =
            std::min<std::uint32_t>(
                buf->depth.load(std::memory_order_acquire),
                static_cast<std::uint32_t>(kOpenDepth));
        info.depth = std::max(info.depth, depth);
        for (std::uint32_t i = 0; i < depth; ++i) {
            const char* name =
                buf->open[i].name.load(std::memory_order_acquire);
            const std::uint64_t start =
                buf->open[i].start_ns.load(std::memory_order_acquire);
            if (name != nullptr && start != 0 && start < info.start_ns) {
                info.name = name;
                info.start_ns = start;
            }
        }
    }
    if (info.name == nullptr) info.start_ns = 0;
    return info;
}

void TraceRecorder::open_push(ThreadBuffer& buf, const char* name,
                              std::uint64_t start_ns) noexcept {
    const std::uint32_t depth = buf.depth.load(std::memory_order_relaxed);
    if (depth < kOpenDepth) {
        buf.open[depth].name.store(name, std::memory_order_relaxed);
        buf.open[depth].start_ns.store(start_ns, std::memory_order_relaxed);
    }
    buf.depth.store(depth + 1, std::memory_order_release);
}

void TraceRecorder::open_pop(ThreadBuffer& buf) noexcept {
    const std::uint32_t depth = buf.depth.load(std::memory_order_relaxed);
    if (depth == 0) return;
    if (depth <= kOpenDepth) {
        buf.open[depth - 1].name.store(nullptr, std::memory_order_relaxed);
        buf.open[depth - 1].start_ns.store(0, std::memory_order_relaxed);
    }
    buf.depth.store(depth - 1, std::memory_order_release);
}

ScopedSpan::ScopedSpan(const char* name, const TraceContext* parent,
                       MetricId metric) noexcept
    : name_(name), metric_(metric) {
    // Metric leg: the "span.<name>" histogram, timed on support::now_ns().
    if (metric_ != kInvalidMetric && enabled())
        metric_start_ns_ = support::now_ns();
    if (!trace_enabled()) return;
    TraceRecorder& recorder = TraceRecorder::global();
    const TraceContext effective_parent =
        parent != nullptr ? *parent : t_current_context;
    const SpanId id = recorder.next_span_id();
    ctx_.span_id = id;
    ctx_.root_id = effective_parent.valid() ? effective_parent.root_id : id;
    parent_ = effective_parent.span_id;
    start_ns_ = metric_start_ns_ != 0 ? metric_start_ns_ : support::now_ns();
    saved_ = t_current_context;
    t_current_context = ctx_;
    restore_ = true;
    TraceRecorder::ThreadBuffer& buf =
        recorder.buffer_for_current_thread();
    buffer_ = &buf;
    recorder.open_push(buf, name_, start_ns_);
}

ScopedSpan::~ScopedSpan() {
    const std::uint64_t end_ns =
        (ctx_.valid() || metric_start_ns_ != 0) ? support::now_ns() : 0;
    if (ctx_.valid()) {
        if (restore_) t_current_context = saved_;
        TraceRecorder& recorder = TraceRecorder::global();
        recorder.open_pop(
            *static_cast<TraceRecorder::ThreadBuffer*>(buffer_));
        SpanRecord rec;
        rec.id = ctx_.span_id;
        rec.parent = parent_;
        rec.root = ctx_.root_id;
        rec.thread = current_thread_index();
        rec.name = name_;
        rec.start_ns = start_ns_;
        rec.end_ns = end_ns;
        rec.annotations = std::move(annotations_);
        recorder.publish(std::move(rec));
    }
    if (metric_start_ns_ != 0)
        MetricsRegistry::global().observe(metric_,
                                          end_ns - metric_start_ns_);
}

void ScopedSpan::annotate(std::string_view key, std::string_view value) {
    if (!ctx_.valid()) return;
    if (!annotations_.empty()) annotations_ += ' ';
    annotations_ += key;
    annotations_ += '=';
    annotations_ += value;
}

}  // namespace dsspy::obs
