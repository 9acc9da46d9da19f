// Trace persistence benchmark: CSV vs DST1 binary on a 1M-event trace.
//
// Builds a synthetic but realistically shaped trace (64 instances worked
// in phases: append bursts, read sweeps, occasional clears, a few
// threads, amortized-timestamp plateaus — the patterns the capture path
// actually produces), then measures serialized size and write/read
// throughput for both formats plus the parallel binary decode.  Results
// land as machine-readable JSON (default: BENCH_trace.json) so the
// storage-format trajectory is tracked across PRs; DESIGN.md §7 quotes
// these numbers.
//
// Usage: trace_io_bench [output.json] [rounds] [events]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "runtime/trace_io.hpp"

namespace {

using namespace dsspy;
using runtime::AccessEvent;
using runtime::InstanceId;
using runtime::InstanceInfo;
using runtime::OpKind;
using runtime::Trace;
using runtime::TraceFormat;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kInstances = 64;
constexpr unsigned kThreads = 4;
constexpr std::uint64_t kTimestampStride = 64;  // capture-path plateau

/// Synthesize `target_events` events shaped like a real capture: each
/// instance is filled in append bursts, swept by reads, occasionally
/// cleared; seq is globally contiguous, timestamps plateau and advance
/// ~25ns per event, threads switch per phase.
Trace build_trace(std::size_t target_events) {
    Trace trace;
    for (InstanceId id = 0; id < kInstances; ++id) {
        InstanceInfo info;
        info.id = id;
        info.kind = id % 3 == 0 ? runtime::DsKind::Array
                                : runtime::DsKind::List;
        info.type_name = id % 2 == 0 ? "List<Int64>" : "List<Customer>";
        info.location = {"Bench.TraceIo", "phase" + std::to_string(id % 7),
                         id};
        trace.instances.push_back(std::move(info));
    }

    std::vector<AccessEvent> events;
    events.reserve(target_events);
    std::uint64_t seq = 0;
    std::uint64_t time_ns = 1'000'000'000;
    const auto emit = [&](InstanceId inst, OpKind op, std::int64_t pos,
                          std::uint32_t size, std::uint16_t thread) {
        AccessEvent ev;
        ev.seq = seq++;
        if (seq % kTimestampStride == 0) time_ns += 25 * kTimestampStride;
        ev.time_ns = time_ns;
        ev.instance = inst;
        ev.op = op;
        ev.position = pos;
        ev.size = size;
        ev.thread = thread;
        events.push_back(ev);
    };

    std::size_t round = 0;
    while (seq < target_events) {
        const auto inst = static_cast<InstanceId>(round % kInstances);
        const auto thread = static_cast<std::uint16_t>(round % kThreads);
        const std::uint32_t burst = 512 + 64 * (round % 5);
        // Append burst.
        for (std::uint32_t i = 0; i < burst; ++i)
            emit(inst, OpKind::Add, i, i + 1, thread);
        // Two read sweeps (one forward, one with a search sprinkled in).
        for (std::uint32_t i = 0; i < burst; ++i)
            emit(inst, OpKind::Get, i, burst, thread);
        for (std::uint32_t i = 0; i < burst; ++i)
            emit(inst, i % 97 == 0 ? OpKind::IndexOf : OpKind::Get, i, burst,
                 thread);
        // Every few rounds the instance is cleared for the next phase.
        if (round % 3 == 2) emit(inst, OpKind::Clear, -1, 0, thread);
        ++round;
    }
    const std::span<const AccessEvent> rows(events);
    trace.store = runtime::ColumnStore::group({&rows, 1});
    return trace;
}

/// True when two stores hold the same ranges and column bytes.
bool same_columns(const runtime::ColumnStore& a,
                  const runtime::ColumnStore& b) {
    const std::size_t n = a.total_events();
    if (n != b.total_events() || a.instance_slots() != b.instance_slots())
        return false;
    for (InstanceId id = 0; id < a.instance_slots(); ++id)
        if (a.range(id).begin != b.range(id).begin ||
            a.range(id).end != b.range(id).end)
            return false;
    const auto same = [n](const auto* x, const auto* y) {
        return std::equal(x, x + n, y);
    };
    return same(a.seq(), b.seq()) && same(a.time_ns(), b.time_ns()) &&
           same(a.position(), b.position()) && same(a.sizes(), b.sizes()) &&
           same(a.op(), b.op()) && same(a.thread(), b.thread());
}

double ms_since(Clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/// Best-of-`rounds` milliseconds for `body()` (min is the most
/// noise-robust statistic on a shared machine).
template <typename Body>
double best_ms(int rounds, Body body) {
    double best = 1e100;
    for (int r = 0; r < rounds; ++r) {
        const auto t0 = Clock::now();
        body();
        best = std::min(best, ms_since(t0));
    }
    return best;
}

double mb_per_s(std::size_t bytes, double ms) {
    return ms > 0 ? static_cast<double>(bytes) / 1e6 / (ms / 1e3) : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
    const std::string out_path = argc > 1 ? argv[1] : "BENCH_trace.json";
    const int rounds = argc > 2 ? std::atoi(argv[2]) : 5;
    const std::size_t events =
        argc > 3 ? static_cast<std::size_t>(std::atoll(argv[3])) : 1'000'000;

    std::printf("building %zu-event synthetic trace...\n", events);
    const Trace trace = build_trace(events);
    const std::size_t total = trace.store.total_events();

    // Serialize once for sizes and as read input.
    std::string csv_bytes, bin_bytes;
    {
        std::ostringstream csv;
        write_trace(csv, trace.instances, trace.store, TraceFormat::Csv);
        csv_bytes = std::move(csv).str();
        std::ostringstream bin;
        write_trace(bin, trace.instances, trace.store, TraceFormat::Binary);
        bin_bytes = std::move(bin).str();
    }

    const double csv_write_ms = best_ms(rounds, [&] {
        std::ostringstream os;
        write_trace(os, trace.instances, trace.store, TraceFormat::Csv);
    });
    const double bin_write_ms = best_ms(rounds, [&] {
        std::ostringstream os;
        write_trace(os, trace.instances, trace.store, TraceFormat::Binary);
    });
    const double csv_read_ms = best_ms(rounds, [&] {
        std::istringstream is(csv_bytes);
        (void)runtime::read_trace(is);
    });
    const double bin_read_ms = best_ms(rounds, [&] {
        std::istringstream is(bin_bytes);
        (void)runtime::read_trace(is);
    });
    par::ThreadPool pool;
    const double bin_read_par_ms = best_ms(rounds, [&] {
        std::istringstream is(bin_bytes);
        (void)runtime::read_trace(is, &pool);
    });

    // Bit-identical discipline: the parallel decode must reproduce the
    // sequential decode exactly.
    bool par_identical = true;
    {
        std::istringstream seq_in(bin_bytes);
        std::istringstream par_in(bin_bytes);
        const Trace seq_trace = runtime::read_trace(seq_in);
        const Trace par_trace = runtime::read_trace(par_in, &pool);
        par_identical = seq_trace.instances == par_trace.instances &&
                        same_columns(seq_trace.store, par_trace.store);
    }

    const double ev = static_cast<double>(total);
    const double size_ratio =
        static_cast<double>(csv_bytes.size()) /
        static_cast<double>(bin_bytes.size());
    const double read_speedup = csv_read_ms / bin_read_ms;

    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
        std::perror("trace_io_bench: fopen");
        return 1;
    }
    std::fprintf(f, "{\n  \"benchmark\": \"trace_io\",\n");
    std::fprintf(f, "  \"events\": %zu,\n", total);
    std::fprintf(f, "  \"instances\": %zu,\n", trace.instances.size());
    std::fprintf(f, "  \"rounds\": %d,\n", rounds);
    std::fprintf(f, "  \"pool_threads\": %u,\n", pool.thread_count());
    std::fprintf(f, "  \"parallel_decode_bit_identical\": %s,\n",
                 par_identical ? "true" : "false");
    std::fprintf(f, "  \"csv_over_binary_size\": %.2f,\n", size_ratio);
    std::fprintf(f, "  \"csv_over_binary_read_time\": %.2f,\n", read_speedup);
    std::fprintf(f, "  \"results\": [\n");
    const auto row = [&](const char* name, std::size_t bytes, double write_ms,
                         double read_ms, bool last) {
        std::fprintf(f,
                     "    {\"format\": \"%s\", \"bytes\": %zu, "
                     "\"bytes_per_event\": %.2f, \"write_ms\": %.1f, "
                     "\"write_mb_s\": %.1f, \"read_ms\": %.1f, "
                     "\"read_mb_s\": %.1f}%s\n",
                     name, bytes, static_cast<double>(bytes) / ev, write_ms,
                     mb_per_s(bytes, write_ms), read_ms,
                     mb_per_s(bytes, read_ms), last ? "" : ",");
    };
    row("csv", csv_bytes.size(), csv_write_ms, csv_read_ms, false);
    row("binary", bin_bytes.size(), bin_write_ms, bin_read_ms, false);
    row("binary_parallel", bin_bytes.size(), bin_write_ms, bin_read_par_ms,
        true);
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);

    std::printf("events            %zu\n", total);
    std::printf("csv               %9zu bytes  (%.2f B/event)\n",
                csv_bytes.size(), static_cast<double>(csv_bytes.size()) / ev);
    std::printf("binary            %9zu bytes  (%.2f B/event, %.1fx smaller)\n",
                bin_bytes.size(), static_cast<double>(bin_bytes.size()) / ev,
                size_ratio);
    std::printf("csv write         %8.1f ms   read %8.1f ms\n", csv_write_ms,
                csv_read_ms);
    std::printf("binary write      %8.1f ms   read %8.1f ms (%.1fx faster)\n",
                bin_write_ms, bin_read_ms, read_speedup);
    std::printf("binary read (par) %8.1f ms\n", bin_read_par_ms);
    std::printf("parallel decode bit-identical: %s\n",
                par_identical ? "yes" : "NO");
    std::printf("wrote %s\n", out_path.c_str());
    return (par_identical && size_ratio >= 5.0 && read_speedup >= 3.0) ? 0 : 1;
}
