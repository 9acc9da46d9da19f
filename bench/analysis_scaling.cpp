// Post-mortem analysis throughput benchmark.
//
// Builds a synthetic workload (256 instances, ~10.5M access events with
// mixed access patterns), then measures the columnar analysis core
// (DESIGN.md §11) against the pre-columnar AoS reference path:
//
//   * aos_sequential     — Dsspy::analyze_reference, no pool (the seed
//                          implementation; the acceptance baseline)
//   * scalar_sequential  — columnar analyze with SIMD dispatch forced to
//                          the scalar fallback
//   * analyze_sequential — columnar analyze at the detected SIMD level
//   * analyze_pool N     — columnar analyze over event-balanced shards on
//                          an N-thread pool
//
// Every variant's verdicts are digest-checked against the AoS reference;
// the emitted JSON carries the identity flags next to the timings, plus
// hardware/provenance fields (hardware_concurrency, the --threads setting,
// the active SIMD level).  The same harness also times the one grouping
// pass (ColumnStore::group) that builds the columns from the synthesized
// events.
//
// Usage: analysis_scaling [output.json] [rounds]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/detector_kernels.hpp"
#include "core/dsspy.hpp"
#include "parallel/thread_pool.hpp"
#include "runtime/column_store.hpp"

namespace {

using namespace dsspy;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kInstances = 256;
constexpr std::size_t kEventsPerInstance = 40960;  // total 10,485,760

/// Synthesizes one instance's event sequence.  The op mix cycles through
/// four archetypes so the classifier has real work to do: long inserts,
/// insert-then-scan, frequent search, and queue-style FIFO churn.
/// Events mirror the capture layer's recording convention
/// (ds/profiled_containers.hpp): position is the op's landing index and
/// size is the container size AFTER the op — back inserts land at
/// size-1, front removals record the shrunk size.
void synthesize_instance(std::size_t inst, std::uint64_t& seq,
                         std::vector<runtime::AccessEvent>& out) {
    const auto id = static_cast<runtime::InstanceId>(inst);
    std::uint32_t size = 0;
    std::uint64_t time_ns = seq * 50;
    auto emit = [&](runtime::OpKind op, std::int64_t pos) {
        runtime::AccessEvent ev;
        ev.seq = seq++;
        ev.time_ns = time_ns += 50;
        ev.position = pos;
        ev.instance = id;
        ev.size = size;
        ev.op = op;
        ev.thread = static_cast<runtime::ThreadId>(inst % 8);
        out.push_back(ev);
    };
    auto push_back_op = [&] {
        ++size;
        emit(runtime::OpKind::Add, static_cast<std::int64_t>(size) - 1);
    };
    auto pop_front_op = [&] {
        --size;
        emit(runtime::OpKind::RemoveAt, 0);
    };
    switch (inst % 4) {
        case 0:  // long insert run
            for (std::size_t i = 0; i < kEventsPerInstance; ++i)
                push_back_op();
            break;
        case 1:  // insert a block, then forward read sweeps
            for (std::size_t i = 0; i < kEventsPerInstance / 4; ++i)
                push_back_op();
            for (std::size_t sweep = 0; sweep < 3; ++sweep)
                for (std::size_t i = 0; i < kEventsPerInstance / 4; ++i)
                    emit(runtime::OpKind::Get, static_cast<std::int64_t>(i));
            break;
        case 2:  // frequent search over a small container
            for (std::size_t i = 0; i < 64; ++i) push_back_op();
            for (std::size_t i = 64; i < kEventsPerInstance; ++i)
                emit(runtime::OpKind::IndexOf,
                     static_cast<std::int64_t>(i * 7 % 64));
            break;
        default:  // queue churn: bursts of 64 enqueues, then 64 dequeues
            for (std::size_t i = 0; i < kEventsPerInstance / 128; ++i) {
                for (int b = 0; b < 64; ++b) push_back_op();
                for (int b = 0; b < 64; ++b) pop_front_op();
            }
            break;
    }
}

double ms_between(Clock::time_point t0, Clock::time_point t1) {
    return static_cast<double>(
               std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0)
                   .count()) /
           1000.0;
}

bool identical(const core::AnalysisResult& a, const core::AnalysisResult& b) {
    if (a.instances().size() != b.instances().size()) return false;
    for (std::size_t i = 0; i < a.instances().size(); ++i) {
        const core::InstanceAnalysis& x = a.instances()[i];
        const core::InstanceAnalysis& y = b.instances()[i];
        if (x.patterns != y.patterns) return false;
        if (x.use_cases != y.use_cases) return false;
        if (x.profile.info() != y.profile.info()) return false;
        if (x.profile.total_events() != y.profile.total_events()) return false;
    }
    return a.total_events() == b.total_events() &&
           a.flagged_instances() == b.flagged_instances();
}

}  // namespace

int main(int argc, char** argv) {
    const std::string out_path = argc > 1 ? argv[1] : "BENCH_analysis.json";
    const int rounds = argc > 2 ? std::atoi(argv[2]) : 5;

    // --- build the synthetic corpus ----------------------------------------
    std::vector<runtime::InstanceInfo> instances;
    std::uint64_t seq = 0;
    std::vector<runtime::AccessEvent> events;
    for (std::size_t inst = 0; inst < kInstances; ++inst) {
        runtime::InstanceInfo info;
        info.id = static_cast<runtime::InstanceId>(inst);
        info.kind = inst % 2 == 0 ? runtime::DsKind::List
                                  : runtime::DsKind::Array;
        info.type_name = "List<Int64>";
        info.location = {"Synthetic", "Workload",
                         static_cast<std::uint32_t>(inst)};
        instances.push_back(std::move(info));
        synthesize_instance(inst, seq, events);
    }

    // --- grouping: synthesized events -> columns (runs once) ----------------
    const auto group_t0 = Clock::now();
    const std::span<const runtime::AccessEvent> rows(events);
    const runtime::ColumnStore store = runtime::ColumnStore::group({&rows, 1});
    const double group_ms = ms_between(group_t0, Clock::now());
    events = {};  // the columns hold every event now

    // --- AoS reference baseline (the seed implementation) ------------------
    const core::Dsspy analyzer;
    const core::AnalysisResult reference =
        analyzer.analyze_reference(instances, store);
    double aos_ms = 1e100;
    for (int r = 0; r < rounds; ++r) {
        const auto t0 = Clock::now();
        const core::AnalysisResult res =
            analyzer.analyze_reference(instances, store);
        const auto t1 = Clock::now();
        aos_ms = std::min(aos_ms, ms_between(t0, t1));
        if (!identical(reference, res)) {
            std::fprintf(stderr, "FATAL: AoS reference analyze not stable\n");
            return 1;
        }
    }

    // --- columnar, SIMD forced off (mandatory scalar fallback) -------------
    core::kernels::force_simd_level(core::kernels::SimdLevel::Scalar);
    double scalar_ms = 1e100;
    bool scalar_identical = true;
    for (int r = 0; r < rounds; ++r) {
        const auto t0 = Clock::now();
        const core::AnalysisResult res = analyzer.analyze(instances, store);
        const auto t1 = Clock::now();
        scalar_ms = std::min(scalar_ms, ms_between(t0, t1));
        scalar_identical = scalar_identical && identical(reference, res);
    }
    core::kernels::reset_forced_simd_level();

    // --- columnar sequential at the detected SIMD level --------------------
    double seq_ms = 1e100;
    bool soa_identical = true;
    for (int r = 0; r < rounds; ++r) {
        const auto t0 = Clock::now();
        const core::AnalysisResult res = analyzer.analyze(instances, store);
        const auto t1 = Clock::now();
        seq_ms = std::min(seq_ms, ms_between(t0, t1));
        soa_identical = soa_identical && identical(reference, res);
    }

    // --- columnar over event-balanced shards -------------------------------
    struct PoolResult {
        unsigned threads;
        double ms;
    };
    std::vector<PoolResult> pool_results;
    bool all_identical = true;
    for (const unsigned threads : {1u, 2u, 4u}) {
        par::ThreadPool pool(threads);
        double best = 1e100;
        for (int r = 0; r < rounds; ++r) {
            const auto t0 = Clock::now();
            const core::AnalysisResult res =
                analyzer.analyze(instances, store, &pool);
            const auto t1 = Clock::now();
            best = std::min(best, ms_between(t0, t1));
            if (!identical(reference, res)) {
                all_identical = false;
                std::fprintf(stderr,
                             "FATAL: parallel analyze (%u threads) deviates "
                             "from the AoS reference result\n",
                             threads);
            }
        }
        pool_results.push_back({threads, best});
    }

    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
        std::perror("analysis_scaling: fopen");
        return 1;
    }
    const std::string_view simd_name = core::kernels::simd_level_name(
        core::kernels::active_simd_level());
    std::fprintf(f, "{\n  \"benchmark\": \"analysis_scaling\",\n");
    std::fprintf(f, "  \"hardware_threads\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(f, "  \"threads_setting\": %u,\n",
                 par::ThreadPool::effective_default_threads());
    std::fprintf(f, "  \"simd_level\": \"%.*s\",\n",
                 static_cast<int>(simd_name.size()), simd_name.data());
    std::fprintf(f, "  \"instances\": %zu,\n", kInstances);
    std::fprintf(f, "  \"events\": %llu,\n",
                 static_cast<unsigned long long>(store.total_events()));
    std::fprintf(f, "  \"rounds\": %d,\n", rounds);
    std::fprintf(f, "  \"group_ms\": %.3f,\n", group_ms);
    std::fprintf(f, "  \"aos_sequential_ms\": %.3f,\n", aos_ms);
    std::fprintf(f, "  \"scalar_sequential_ms\": %.3f,\n", scalar_ms);
    std::fprintf(f, "  \"analyze_sequential_ms\": %.3f,\n", seq_ms);
    std::fprintf(f, "  \"soa_speedup_vs_aos\": %.2f,\n",
                 seq_ms > 0 ? aos_ms / seq_ms : 0.0);
    std::fprintf(f, "  \"analyze_pool\": [\n");
    for (std::size_t i = 0; i < pool_results.size(); ++i) {
        const PoolResult& pr = pool_results[i];
        std::fprintf(f,
                     "    {\"threads\": %u, \"ms\": %.3f, "
                     "\"speedup_vs_sequential\": %.2f, "
                     "\"speedup_vs_aos_sequential\": %.2f}%s\n",
                     pr.threads, pr.ms, pr.ms > 0 ? seq_ms / pr.ms : 0.0,
                     pr.ms > 0 ? aos_ms / pr.ms : 0.0,
                     i + 1 < pool_results.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"soa_identical_to_aos\": %s,\n",
                 soa_identical ? "true" : "false");
    std::fprintf(f, "  \"scalar_identical_to_simd\": %s,\n",
                 scalar_identical ? "true" : "false");
    std::fprintf(f, "  \"parallel_identical_to_sequential\": %s\n",
                 all_identical ? "true" : "false");
    std::fprintf(f, "}\n");
    std::fclose(f);

    std::printf("events=%llu  aos %.3f ms  scalar %.3f ms  simd(%.*s) %.3f ms",
                static_cast<unsigned long long>(store.total_events()), aos_ms,
                scalar_ms, static_cast<int>(simd_name.size()),
                simd_name.data(), seq_ms);
    for (const PoolResult& pr : pool_results)
        std::printf("  pool%u %.3f ms (%.2fx vs aos)", pr.threads, pr.ms,
                    aos_ms / pr.ms);
    const bool ok = soa_identical && scalar_identical && all_identical;
    std::printf("  identical=%s\n", ok ? "yes" : "NO");
    std::printf("wrote %s\n", out_path.c_str());
    return ok ? 0 : 1;
}
