// Capture-path overhead benchmark.
//
// Times the record() hot path in both capture modes, single- and
// multi-threaded, against the uninstrumented baseline, and writes the
// results as machine-readable JSON (default: BENCH_capture.json) so the
// perf trajectory of the capture path is tracked across PRs.  The paper
// reports an average 47x capture slowdown (Table IV); this file is the
// regression guard for our low-overhead reimplementation.
//
// It also measures the self-telemetry layer's own cost: the same record()
// loop with the metrics registry disabled vs enabled, written as
// BENCH_obs.json — the acceptance bound is that enabling telemetry stays
// within single-digit percent of the uninstrumented capture path.
//
// A third pass measures the span-tracing recorder the same way: record()
// with TraceRecorder off vs on, written as BENCH_trace_obs.json — the
// acceptance bound is <=2% on the hot path (spans only ride cold
// branches, so the delta should be indistinguishable from noise).
//
// Usage: capture_overhead [output.json] [rounds] [obs_output.json]
//                         [trace_output.json]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "ds/profiled_list.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "provenance.hpp"
#include "runtime/session.hpp"

namespace {

using namespace dsspy;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kOpsPerRound = 1u << 16;

double ns_per_op(Clock::time_point t0, Clock::time_point t1,
                 std::size_t ops) {
    return static_cast<double>(
               std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                   .count()) /
           static_cast<double>(ops);
}

/// Run `body(ops)` `rounds` times; return the fastest ns/op observed (the
/// minimum is the most noise-robust statistic on a shared machine).
template <typename Body>
double best_ns_per_op(int rounds, Body body) {
    double best = 1e100;
    for (int r = 0; r < rounds; ++r) {
        const auto t0 = Clock::now();
        body(kOpsPerRound);
        const auto t1 = Clock::now();
        best = std::min(best, ns_per_op(t0, t1, kOpsPerRound));
    }
    return best;
}

double bench_plain_list(int rounds) {
    return best_ns_per_op(rounds, [](std::size_t ops) {
        ds::List<std::int64_t> list;
        for (std::size_t i = 0; i < ops; ++i)
            list.add(static_cast<std::int64_t>(i));
    });
}

double bench_null_session(int rounds) {
    return best_ns_per_op(rounds, [](std::size_t ops) {
        ds::ProfiledList<std::int64_t> list(nullptr, {"Bench", "Null", 1});
        for (std::size_t i = 0; i < ops; ++i)
            list.add(static_cast<std::int64_t>(i));
    });
}

/// Streaming capture delivers live only to an event sink; without one it
/// is the Buffered path.  Streaming rows therefore get a counting sink, so
/// they time recording while the collector delivers.
void attach_counting_sink(runtime::ProfilingSession& session,
                          std::uint64_t& delivered) {
    if (session.mode() == runtime::CaptureMode::Streaming)
        session.set_event_sink(
            [&delivered](std::span<const runtime::AccessEvent> events) {
                delivered += events.size();
            });
}

/// Times only the record() loop; session setup and stop()/finalize stay
/// outside the timed window (they are not the per-event hot path).
double bench_record(runtime::CaptureMode mode, int rounds) {
    double best = 1e100;
    for (int r = 0; r < rounds; ++r) {
        std::uint64_t delivered = 0;
        runtime::ProfilingSession session(mode);
        attach_counting_sink(session, delivered);
        const runtime::InstanceId id = session.register_instance(
            runtime::DsKind::List, "List<Int64>", {"Bench", "Record", 1});
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < kOpsPerRound; ++i)
            session.record(id, runtime::OpKind::Add,
                           static_cast<std::int64_t>(i),
                           static_cast<std::uint32_t>(i + 1));
        const auto t1 = Clock::now();
        session.stop();
        best = std::min(best, ns_per_op(t0, t1, kOpsPerRound));
    }
    return best;
}

double bench_profiled_list(runtime::CaptureMode mode, int rounds) {
    double best = 1e100;
    for (int r = 0; r < rounds; ++r) {
        std::uint64_t delivered = 0;
        runtime::ProfilingSession session(mode);
        attach_counting_sink(session, delivered);
        ds::ProfiledList<std::int64_t> list(&session, {"Bench", "List", 1});
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < kOpsPerRound; ++i)
            list.add(static_cast<std::int64_t>(i));
        const auto t1 = Clock::now();
        session.stop();
        best = std::min(best, ns_per_op(t0, t1, kOpsPerRound));
    }
    return best;
}

/// Multi-producer record(): `threads` producers hammer one session; the
/// reported figure is wall-time per event across all producers.
double bench_record_mt(runtime::CaptureMode mode, unsigned threads,
                       int rounds) {
    double best = 1e100;
    for (int r = 0; r < rounds; ++r) {
        std::uint64_t delivered = 0;
        runtime::ProfilingSession session(mode);
        attach_counting_sink(session, delivered);
        std::vector<runtime::InstanceId> ids;
        for (unsigned t = 0; t < threads; ++t)
            ids.push_back(session.register_instance(
                runtime::DsKind::List, "List<Int64>", {"Bench", "MT", t}));
        const auto t0 = Clock::now();
        {
            std::vector<std::thread> workers;
            for (unsigned t = 0; t < threads; ++t) {
                workers.emplace_back([&session, &ids, t] {
                    const runtime::InstanceId id = ids[t];
                    for (std::size_t i = 0; i < kOpsPerRound; ++i)
                        session.record(id, runtime::OpKind::Add,
                                       static_cast<std::int64_t>(i),
                                       static_cast<std::uint32_t>(i + 1));
                });
            }
            for (auto& w : workers) w.join();
        }
        const auto t1 = Clock::now();
        session.stop();
        best = std::min(best, ns_per_op(t0, t1, kOpsPerRound * threads));
    }
    return best;
}

struct Result {
    std::string name;
    double ns;
};

/// Telemetry on/off delta for one capture mode, measured back-to-back so
/// ambient drift hits both sides equally.
struct ObsDelta {
    std::string name;
    double off_ns = 0;
    double on_ns = 0;

    [[nodiscard]] double overhead_pct() const {
        return off_ns > 0 ? (on_ns - off_ns) / off_ns * 100.0 : 0.0;
    }
};

ObsDelta bench_obs_delta(runtime::CaptureMode mode, const char* name,
                         int rounds) {
    auto& reg = obs::MetricsRegistry::global();
    ObsDelta delta;
    delta.name = name;
    delta.off_ns = 1e100;
    delta.on_ns = 1e100;
    // Interleave off/on rounds, alternating which side goes first, so
    // ambient drift (frequency, page cache, allocator state) and short
    // quiet windows on a shared machine hit both sides equally instead of
    // masquerading as telemetry cost.
    for (int r = 0; r < rounds; ++r) {
        const bool on_first = (r & 1) != 0;
        reg.set_enabled(on_first);
        const double first = bench_record(mode, 1);
        reg.set_enabled(!on_first);
        const double second = bench_record(mode, 1);
        delta.off_ns = std::min(delta.off_ns, on_first ? second : first);
        delta.on_ns = std::min(delta.on_ns, on_first ? first : second);
    }
    reg.set_enabled(false);
    reg.reset();
    return delta;
}

/// Span-recorder on/off delta for one capture mode.  The metrics registry
/// stays enabled on both sides so the measured difference is the trace
/// recorder alone, on top of a realistically instrumented capture path.
ObsDelta bench_trace_delta(runtime::CaptureMode mode, const char* name,
                           int rounds) {
    auto& reg = obs::MetricsRegistry::global();
    auto& tracer = obs::TraceRecorder::global();
    reg.set_enabled(true);
    ObsDelta delta;
    delta.name = name;
    delta.off_ns = 1e100;
    delta.on_ns = 1e100;
    for (int r = 0; r < rounds; ++r) {
        const bool on_first = (r & 1) != 0;
        tracer.set_enabled(on_first);
        const double first = bench_record(mode, 1);
        tracer.set_enabled(!on_first);
        const double second = bench_record(mode, 1);
        delta.off_ns = std::min(delta.off_ns, on_first ? second : first);
        delta.on_ns = std::min(delta.on_ns, on_first ? first : second);
        // Drop the spans the on-side buffered so every round starts from
        // the same recorder and allocator state; without this, chunk
        // allocations accumulate across rounds and read as phantom
        // capture-path overhead on the off side too.
        tracer.set_enabled(false);
        tracer.reset();
    }
    tracer.set_enabled(false);
    reg.set_enabled(false);
    reg.reset();
    return delta;
}

}  // namespace

int main(int argc, char** argv) {
    const std::string out_path = argc > 1 ? argv[1] : "BENCH_capture.json";
    const int rounds = argc > 2 ? std::atoi(argv[2]) : 9;

    // Measure the trace-recorder delta FIRST, in a pristine process: the
    // other sections churn gigabytes through the allocator, and on small
    // machines the resulting heap/page layout biases the buffered-mode
    // loop by several percent — dwarfing the sub-1% effect under
    // measurement.  (The delta loop itself still interleaves off/on
    // rounds, so ambient drift cancels.)  Output files keep their order.
    std::vector<ObsDelta> trace_deltas;
    trace_deltas.push_back(bench_trace_delta(runtime::CaptureMode::Buffered,
                                             "record_buffered", rounds));
    trace_deltas.push_back(bench_trace_delta(runtime::CaptureMode::Streaming,
                                             "record_streaming", rounds));
    obs::TraceRecorder::global().reset();

    std::vector<Result> results;
    const double plain = bench_plain_list(rounds);
    results.push_back({"plain_list_add", plain});
    results.push_back({"null_session_list_add", bench_null_session(rounds)});
    results.push_back(
        {"record_buffered", bench_record(runtime::CaptureMode::Buffered,
                                         rounds)});
    results.push_back(
        {"record_streaming", bench_record(runtime::CaptureMode::Streaming,
                                          rounds)});
    results.push_back(
        {"list_add_buffered",
         bench_profiled_list(runtime::CaptureMode::Buffered, rounds)});
    results.push_back(
        {"list_add_streaming",
         bench_profiled_list(runtime::CaptureMode::Streaming, rounds)});
    results.push_back(
        {"record_buffered_mt4",
         bench_record_mt(runtime::CaptureMode::Buffered, 4, rounds)});
    results.push_back(
        {"record_streaming_mt4",
         bench_record_mt(runtime::CaptureMode::Streaming, 4, rounds)});

    // Measured after the timed sections so its spinning threads cannot
    // disturb them.
    const std::string provenance = dsspy::bench::provenance_json();

    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
        std::perror("capture_overhead: fopen");
        return 1;
    }
    std::fprintf(f, "{\n  \"benchmark\": \"capture_overhead\",\n");
    std::fputs(provenance.c_str(), f);
    std::fprintf(f, "  \"ops_per_round\": %zu,\n", kOpsPerRound);
    std::fprintf(f, "  \"rounds\": %d,\n", rounds);
    std::fprintf(f, "  \"seq_block_size\": %llu,\n",
                 static_cast<unsigned long long>(
                     runtime::ProfilingSession::kSeqBlockSize));
    std::fprintf(f, "  \"timestamp_stride\": %u,\n",
                 runtime::ProfilingSession::kTimestampStride);
    std::fprintf(f, "  \"buffered_bytes_per_event\": %.4f,\n",
                 static_cast<double>(runtime::ProfilingSession::chunk_bytes(
                     runtime::ProfilingSession::kMaxChunkEvents)) /
                     runtime::ProfilingSession::kMaxChunkEvents);
    std::fprintf(f, "  \"results\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
        const Result& res = results[i];
        std::fprintf(f,
                     "    {\"name\": \"%s\", \"ns_per_op\": %.2f, "
                     "\"slowdown_vs_plain\": %.2f}%s\n",
                     res.name.c_str(), res.ns,
                     plain > 0 ? res.ns / plain : 0.0,
                     i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);

    for (const Result& res : results)
        std::printf("%-24s %10.2f ns/op  (%5.1fx plain)\n", res.name.c_str(),
                    res.ns, plain > 0 ? res.ns / plain : 0.0);
    std::printf("wrote %s\n", out_path.c_str());

    // Self-telemetry cost: the identical record() loop with the metrics
    // registry off vs on (instrumentation rides the cold branches, so the
    // delta should stay in the noise).
    const std::string obs_path = argc > 3 ? argv[3] : "BENCH_obs.json";
    std::vector<ObsDelta> deltas;
    deltas.push_back(bench_obs_delta(runtime::CaptureMode::Buffered,
                                     "record_buffered", rounds));
    deltas.push_back(bench_obs_delta(runtime::CaptureMode::Streaming,
                                     "record_streaming", rounds));

    std::FILE* fo = std::fopen(obs_path.c_str(), "w");
    if (fo == nullptr) {
        std::perror("capture_overhead: fopen");
        return 1;
    }
    std::fprintf(fo, "{\n  \"benchmark\": \"obs_overhead\",\n");
    std::fputs(provenance.c_str(), fo);
    std::fprintf(fo, "  \"ops_per_round\": %zu,\n", kOpsPerRound);
    std::fprintf(fo, "  \"rounds\": %d,\n", rounds);
    std::fprintf(fo, "  \"results\": [\n");
    for (std::size_t i = 0; i < deltas.size(); ++i) {
        const ObsDelta& d = deltas[i];
        std::fprintf(fo,
                     "    {\"name\": \"%s\", \"ns_per_op_off\": %.2f, "
                     "\"ns_per_op_on\": %.2f, \"overhead_pct\": %.2f}%s\n",
                     d.name.c_str(), d.off_ns, d.on_ns, d.overhead_pct(),
                     i + 1 < deltas.size() ? "," : "");
    }
    std::fprintf(fo, "  ]\n}\n");
    std::fclose(fo);

    for (const ObsDelta& d : deltas)
        std::printf("%-24s off %8.2f  on %8.2f ns/op  (%+.2f%%)\n",
                    d.name.c_str(), d.off_ns, d.on_ns, d.overhead_pct());
    std::printf("wrote %s\n", obs_path.c_str());

    // Span-tracing cost: record() with the trace recorder off vs on
    // (measured at the top of main, see the comment there).  The hot
    // path gains no tracing code at all (spans ride the cold seq-refill
    // and drain branches only), so the acceptance bound is <=2%.
    const std::string trace_path = argc > 4 ? argv[4] : "BENCH_trace_obs.json";
    std::FILE* ft = std::fopen(trace_path.c_str(), "w");
    if (ft == nullptr) {
        std::perror("capture_overhead: fopen");
        return 1;
    }
    std::fprintf(ft, "{\n  \"benchmark\": \"trace_obs_overhead\",\n");
    std::fputs(provenance.c_str(), ft);
    std::fprintf(ft, "  \"ops_per_round\": %zu,\n", kOpsPerRound);
    std::fprintf(ft, "  \"rounds\": %d,\n", rounds);
    std::fprintf(ft, "  \"acceptance_bound_pct\": 2.0,\n");
    std::fprintf(ft, "  \"results\": [\n");
    for (std::size_t i = 0; i < trace_deltas.size(); ++i) {
        const ObsDelta& d = trace_deltas[i];
        std::fprintf(ft,
                     "    {\"name\": \"%s\", \"ns_per_op_off\": %.2f, "
                     "\"ns_per_op_on\": %.2f, \"overhead_pct\": %.2f}%s\n",
                     d.name.c_str(), d.off_ns, d.on_ns, d.overhead_pct(),
                     i + 1 < trace_deltas.size() ? "," : "");
    }
    std::fprintf(ft, "  ]\n}\n");
    std::fclose(ft);

    for (const ObsDelta& d : trace_deltas)
        std::printf("%-24s off %8.2f  on %8.2f ns/op  (%+.2f%%)\n",
                    d.name.c_str(), d.off_ns, d.on_ns, d.overhead_pct());
    std::printf("wrote %s\n", trace_path.c_str());
    return 0;
}
