// End-to-end benchmark: set up one workload several times, run its
// iterations for a fixed time, check every output, and print the result.
//
//   e2ebench --workload NAME --seed N --seconds S --trace 0|1
//            [--smoke] [--golden FILE] [--work-dir DIR]
//
// Between iterations the host sentinel runs (host_sentinel_ms); cost_x
// is each iteration's wall time in units of it.
// --trace 0 times untraced iterations and prints the end-to-end metrics.
// --trace 1 alternates untraced and traced iterations: the traced ones
// record spans (the benchmark's Layers plus the program's own spans),
// which give the per-layer split; the untraced ones give the workload's
// named figures and the tracing overhead.  The last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "apps/app_registry.hpp"
#include "core/detector_kernels.hpp"
#include "e2e.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"
#include "parallel/thread_pool.hpp"
#include "support/stopwatch.hpp"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace {

using namespace e2e;
using dsspy::obs::SpanId;
using dsspy::obs::SpanRecord;

/// Width of the analysis/parallel pool (`dsspy --threads`).  Two, not the
/// CLI's hardware-concurrency default: shared hosts give a fraction of
/// their threads (the spin test in the provenance line measures how
/// much), and pooled phases at full width time the neighbours instead of
/// DSspy.  Two threads still exercise every parallel path.
constexpr unsigned kPoolThreads = 2;

/// Traced iterations must attribute all but this share of their wall time
/// to layers; the rest is the benchmark's own glue.
constexpr double kUnattributedBoundPct = 5.0;

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool smoke = false;
    std::string golden = "e2ebench/golden.txt";
    std::string work_dir = ".bench_work";
};

enum class Source {
    Untraced,  ///< Median over the run's untraced iterations.
    Traced,    ///< Median over the traced iterations (span self times).
    Run,       ///< One value for the whole run.
};

struct MetricSpec {
    const char* name;
    const char* unit;
    Source source;
};

/// The end-to-end metrics (--trace 0); BENCHMARK.json lists the same.
const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s", Source::Run},
    {"cost_x", "x", Source::Untraced},
    {"peak_rss_mb", "MB", Source::Run},
};

/// The per-layer metrics (--trace 1); BENCHMARK.json lists the same.
/// Every workload prints all of them; a layer a workload bypasses reads 0.
const std::vector<MetricSpec> kPerLayer = {
    // Raw wall time, throughput and the sentinel behind cost_x.
    {"wall_ms", "ms", Source::Untraced},
    {"events_per_s", "1/s", Source::Untraced},
    {"sentinel_ms", "ms", Source::Untraced},
    // The workloads' named figures, from the untraced iterations.
    {"run_ms", "ms", Source::Untraced},
    {"run_incremental_ms", "ms", Source::Untraced},
    {"slowdown_x", "x", Source::Untraced},
    {"apply_speedup_x", "x", Source::Untraced},
    {"analyze_ms", "ms", Source::Untraced},
    {"analyze_stream_ms", "ms", Source::Untraced},
    {"convert_ms", "ms", Source::Untraced},
    {"tenant_ms_p50", "ms", Source::Untraced},
    {"tenant_ms_p90", "ms", Source::Untraced},
    {"serve_events_per_s", "1/s", Source::Untraced},
    {"adapt_ms", "ms", Source::Untraced},
    {"adapt_worst_x", "x", Source::Untraced},
    // apps_run layers.
    {"apps.plain_ms", "ms", Source::Traced},
    {"runtime.open_ms", "ms", Source::Traced},
    {"ds.record_ms", "ms", Source::Traced},
    {"runtime.record_ns_per_event", "ns", Source::Traced},
    {"runtime.stop_ms", "ms", Source::Traced},
    {"runtime.stop_ns_per_event", "ns", Source::Traced},
    {"runtime.stop_share_pct", "%", Source::Traced},
    {"span.capture.stop_ms", "ms", Source::Traced},
    {"span.capture.finalize_ms", "ms", Source::Traced},
    {"core.analyze_ms", "ms", Source::Traced},
    {"core.report_ms", "ms", Source::Traced},
    {"runtime.close_ms", "ms", Source::Traced},
    {"runtime.open_incremental_ms", "ms", Source::Traced},
    {"ds.record_incremental_ms", "ms", Source::Traced},
    {"runtime.stop_incremental_ms", "ms", Source::Traced},
    {"core.finish_ms", "ms", Source::Traced},
    {"core.report_incremental_ms", "ms", Source::Traced},
    {"runtime.close_incremental_ms", "ms", Source::Traced},
    {"parallel.run_parallel_ms", "ms", Source::Traced},
    {"runtime.events", "count", Source::Traced},
    // trace_analyze layers.
    {"runtime.mmap_decode_ms", "ms", Source::Traced},
    {"core.analyze_columns_ms", "ms", Source::Traced},
    {"core.analyze_shard_max_ms", "ms", Source::Traced},
    {"runtime.stream_decode_ms", "ms", Source::Traced},
    {"core.declare_ms", "ms", Source::Traced},
    {"core.fold_ms", "ms", Source::Traced},
    {"runtime.read_aos_ms", "ms", Source::Traced},
    {"runtime.write_dst1_ms", "ms", Source::Traced},
    {"runtime.trace_bytes", "count", Source::Traced},
    {"runtime.trace_events", "count", Source::Traced},
    // serve_push layers.
    {"serve.handshake_ms", "ms", Source::Traced},
    {"serve.send_ms", "ms", Source::Traced},
    {"serve.result_ms", "ms", Source::Traced},
    {"serve.tenants", "count", Source::Traced},
    {"serve.events", "count", Source::Traced},
    {"serve.rejected", "count", Source::Run},
    {"serve.malformed", "count", Source::Run},
    // adapt_loop layers.
    {"adapt.file_search_ms", "ms", Source::Traced},
    {"adapt.message_queue_ms", "ms", Source::Traced},
    {"adapt.word_index_ms", "ms", Source::Traced},
    {"adapt.phase_change_ms", "ms", Source::Traced},
    {"adapt.fixed_ms", "ms", Source::Traced},
    {"adapt.switches", "count", Source::Traced},
    {"adapt.suppressed_switches", "count", Source::Traced},
    // Every workload.
    {"wall_traced_ms", "ms", Source::Traced},
    {"unattributed_ms", "ms", Source::Traced},
    {"unattributed_pct", "%", Source::Traced},
    {"obs.spans", "count", Source::Traced},
    {"obs.trace_overhead_pct", "%", Source::Run},
    {"failed_frac", "ratio", Source::Run},
};

[[noreturn]] void usage(const std::string& problem) {
    std::cerr << "e2ebench: " << problem
              << "\nusage: e2ebench --workload apps_run|trace_analyze|"
                 "serve_push|adapt_loop --seed N --seconds S --trace 0|1 "
                 "[--smoke] [--golden FILE] [--work-dir DIR]\n";
    std::exit(2);
}

Options parse(int argc, char** argv) {
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) usage("missing value for " + arg);
            return argv[++i];
        };
        if (arg == "--workload") {
            o.workload = value();
        } else if (arg == "--seed") {
            const std::string v = value();
            const auto [p, ec] =
                std::from_chars(v.data(), v.data() + v.size(), o.seed);
            if (ec != std::errc{} || p != v.data() + v.size())
                usage("bad --seed " + v);
        } else if (arg == "--seconds") {
            o.seconds = std::atof(value().c_str());
            if (!(o.seconds > 0)) usage("bad --seconds");
        } else if (arg == "--trace") {
            const std::string v = value();
            if (v != "0" && v != "1") usage("--trace takes 0 or 1");
            o.trace = v == "1";
        } else if (arg == "--smoke") {
            o.smoke = true;
        } else if (arg == "--golden") {
            o.golden = value();
        } else if (arg == "--work-dir") {
            o.work_dir = value();
        } else {
            usage("unknown argument " + arg);
        }
    }
    if (o.workload.empty()) usage("missing --workload");
    return o;
}

/// The host sentinel: the seven apps run plain (no profiling session),
/// code no DSspy change touches, on `threads` threads at once (the
/// workload's own concurrency).  The shared host's speed and the cores
/// it grants drift from minute to minute; timed between iterations, the
/// sentinel tracks both, and cost_x divides each iteration's wall time by
/// the mean of the sentinels just before and just after it.
double host_sentinel_ms(unsigned threads) {
    const auto run_apps = [] {
        for (const dsspy::apps::AppInfo& app :
             dsspy::apps::evaluation_apps())
            (void)app.run_sequential(nullptr);
    };
    const std::uint64_t t0 = dsspy::support::now_ns();
    std::vector<std::thread> others;
    for (unsigned t = 1; t < threads; ++t) others.emplace_back(run_apps);
    run_apps();
    for (std::thread& t : others) t.join();
    return ms_between(t0, dsspy::support::now_ns());
}

/// VmHWM of this process in MB.
double peak_rss_mb() {
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::atof(line.c_str() + 6) / 1024.0;
    return 0.0;
}

/// Effective parallelism at `threads` threads: how many single-thread
/// spin loops' worth of work finish in the time one takes when all run
/// at once.  Below `threads` when the host is shared or oversubscribed.
double effective_parallelism(unsigned threads) {
    const auto spin = [] {
        std::uint64_t x = 0x9E3779B97F4A7C15ULL;
        for (int i = 0; i < 40'000'000; ++i) x = x * 6364136223846793005ULL + 1;
        return x;
    };
    std::atomic<std::uint64_t> sink{0};
    std::vector<double> ratios;
    for (int round = 0; round < 3; ++round) {
        std::uint64_t t0 = dsspy::support::now_ns();
        sink += spin();
        const double one = static_cast<double>(dsspy::support::now_ns() - t0);
        t0 = dsspy::support::now_ns();
        std::vector<std::thread> workers;
        for (unsigned t = 0; t < threads; ++t)
            workers.emplace_back([&] { sink += spin(); });
        for (std::thread& w : workers) w.join();
        const double all = static_cast<double>(dsspy::support::now_ns() - t0);
        ratios.push_back(static_cast<double>(threads) * one / all);
    }
    return median(ratios);
}

/// Shortest text that reads back as exactly `v`: every digit measured.
std::string json_number(double v) {
    char buf[64];
    const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
    return ec == std::errc{} ? std::string(buf, end) : "0";
}

/// Per-iteration bookkeeping.
struct Iteration {
    Sample sample;
    SpanId root = 0;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
};

/// Length of the union of [start, end) intervals.
std::uint64_t union_ns(std::vector<std::pair<std::uint64_t, std::uint64_t>> v) {
    std::sort(v.begin(), v.end());
    std::uint64_t total = 0;
    std::uint64_t cur_start = 0;
    std::uint64_t cur_end = 0;
    bool open = false;
    for (const auto& [s, e] : v) {
        if (!open || s > cur_end) {
            if (open) total += cur_end - cur_start;
            cur_start = s;
            cur_end = e;
            open = true;
        } else {
            cur_end = std::max(cur_end, e);
        }
    }
    if (open) total += cur_end - cur_start;
    return total;
}

/// Replace a traced iteration's steady-clock layer times by span self
/// times and add the program-span aggregates.
void apply_spans(Iteration& it, const std::vector<SpanRecord>& spans) {
    std::unordered_map<SpanId, const SpanRecord*> by_id;
    for (const SpanRecord& r : spans)
        if (r.root == it.root) by_id.emplace(r.id, &r);

    // Nearest benchmark ancestor of each benchmark span: program spans in
    // between belong to the enclosing Layer's self time.
    std::unordered_map<SpanId,
                       std::vector<std::pair<std::uint64_t, std::uint64_t>>>
        children;
    std::vector<const SpanRecord*> bench;
    for (const auto& [id, r] : by_id) {
        if (!Layer::is_layer_span(r->name)) continue;
        bench.push_back(r);
        SpanId up = r->parent;
        while (up != 0) {
            const auto p = by_id.find(up);
            if (p == by_id.end()) break;
            if (Layer::is_layer_span(p->second->name)) {
                children[up].emplace_back(r->start_ns, r->end_ns);
                break;
            }
            up = p->second->parent;
        }
    }

    Sample& s = it.sample;
    for (auto& [key, value] : s)  // Layer times come from the spans alone.
        if (key.ends_with("_ms") &&
            Layer::is_layer_span(key.substr(0, key.size() - 3)))
            value = 0.0;
    double unattributed = 0.0;
    for (const SpanRecord* r : bench) {
        const std::uint64_t dur = r->end_ns - r->start_ns;
        const auto c = children.find(r->id);
        const std::uint64_t covered =
            c == children.end() ? 0 : union_ns(c->second);
        const double self =
            static_cast<double>(dur - std::min(dur, covered)) / 1e6;
        const std::string name(r->name);
        if (name == "bench.iteration" || name == "bench.client")
            unattributed += self;
        else
            s[name + "_ms"] += self;
    }
    s["unattributed_ms"] = unattributed;

    double stop = 0.0;
    double finalize = 0.0;
    double shard_max = 0.0;
    double daemon_fold = 0.0;
    double count = 0.0;
    for (const SpanRecord& r : spans) {
        const double dur = static_cast<double>(r.end_ns - r.start_ns) / 1e6;
        const std::string_view name(r.name);
        if (r.root == it.root) {
            ++count;
            if (name == "capture.stop") stop += dur;
            if (name == "capture.finalize") finalize += dur;
            if (name == "analyze.shard") shard_max = std::max(shard_max, dur);
        } else if (r.start_ns >= it.start_ns && r.end_ns <= it.end_ns) {
            // Daemon threads root their own trees (one per tenant).
            ++count;
            if (name == "serve.fold") daemon_fold += dur;
        }
    }
    s["span.capture.stop_ms"] = stop;
    s["span.capture.finalize_ms"] = finalize;
    s["core.analyze_shard_max_ms"] = shard_max;
    if (s["core.fold_ms"] == 0.0) s["core.fold_ms"] = daemon_fold;
    s["obs.spans"] = count;
    s["wall_traced_ms"] = ms_between(it.start_ns, it.end_ns);
    s["unattributed_pct"] =
        100.0 * unattributed / std::max(1e-9, s["wall_traced_ms"]);
}

double median_of(const std::vector<Iteration>& its, const std::string& key) {
    std::vector<double> v;
    for (const Iteration& it : its) {
        const auto f = it.sample.find(key);
        v.push_back(f == it.sample.end() ? 0.0 : f->second);
    }
    return median(v);
}

}  // namespace

int main(int argc, char** argv) {
    const Options opt = parse(argc, argv);
    std::filesystem::create_directories(opt.work_dir);

    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    dsspy::par::ThreadPool pool(std::min(nproc, kPoolThreads));
    const Golden golden = Golden::load(opt.golden);

    Config config;
    config.seed = opt.seed;
    config.smoke = opt.smoke;
    config.work_dir = opt.work_dir;
    config.golden = &golden;
    config.pool = &pool;

    std::unique_ptr<Workload> workload;
    if (opt.workload == "apps_run") workload = make_apps_run(config);
    else if (opt.workload == "trace_analyze")
        workload = make_trace_analyze(config);
    else if (opt.workload == "serve_push") workload = make_serve_push(config);
    else if (opt.workload == "adapt_loop") workload = make_adapt_loop(config);
    else usage("unknown workload " + opt.workload);

    // Provenance, printed before anything is timed.
    std::ostringstream prov;
    prov << "{\"workload\": \"" << opt.workload << "\", \"seed\": "
         << opt.seed << ", \"nproc\": " << nproc
         << ", \"effective_parallelism\": "
         << json_number(effective_parallelism(nproc))
         << ", \"simd\": \""
         << dsspy::core::kernels::simd_level_name(
                dsspy::core::kernels::active_simd_level())
         << "\", \"build_type\": \"" << E2E_BUILD_TYPE
         << "\", \"analysis_pool_threads\": " << pool.thread_count()
         << ", \"smoke\": " << (opt.smoke ? "true" : "false")
         << ", \"trace\": " << (opt.trace ? 1 : 0) << "}";
    std::cout << "provenance " << prov.str() << std::endl;

    auto& recorder = dsspy::obs::TraceRecorder::global();
    Checks checks;

    // Set-up, several times; the median is setup_s.
    std::vector<double> setups;
    const int setup_rounds = opt.smoke ? 1 : 3;
    for (int i = 0; i < setup_rounds; ++i) {
        const std::uint64_t t0 = dsspy::support::now_ns();
        workload->setup();
        setups.push_back(ms_between(t0, dsspy::support::now_ns()) / 1000.0);
    }
    // The serve daemon keeps the recorder on whatever the benchmark does.
    const bool recorder_forced_on = recorder.is_enabled();

    std::vector<Iteration> untraced;
    std::vector<Iteration> traced;
    const unsigned sentinel_threads = workload->concurrency();
    double sentinel_before = host_sentinel_ms(sentinel_threads);
    const std::uint64_t deadline =
        dsspy::support::now_ns() +
        static_cast<std::uint64_t>(opt.seconds * 1e9);
    for (std::size_t n = 0;; ++n) {
        const bool want_more =
            dsspy::support::now_ns() < deadline && !opt.smoke;
        const bool need_untraced = untraced.empty();
        const bool need_traced = opt.trace && traced.empty();
        if (!want_more && !need_untraced && !need_traced) break;
        const bool trace_this =
            opt.trace && (need_untraced ? false
                          : need_traced ? true
                                        : n % 2 == 1);
        recorder.set_enabled(trace_this || recorder_forced_on);
        Layer::set_tracing(trace_this);

        Iteration it;
        it.start_ns = dsspy::support::now_ns();
        {
            const Layer root("bench.iteration", it.sample);
            it.root = root.context().root_id;
            workload->iterate(it.sample, checks);
        }
        it.end_ns = dsspy::support::now_ns();
        workload->verify(checks);
        it.sample.erase("bench.iteration_ms");
        it.sample.erase("bench.client_ms");
        it.sample["wall_ms"] = ms_between(it.start_ns, it.end_ns);
        const double sentinel_after = host_sentinel_ms(sentinel_threads);
        const double sentinel = (sentinel_before + sentinel_after) / 2.0;
        sentinel_before = sentinel_after;
        it.sample["sentinel_ms"] = sentinel;
        it.sample["cost_x"] = it.sample["wall_ms"] / sentinel;
        (trace_this ? traced : untraced).push_back(std::move(it));
    }
    Layer::set_tracing(false);
    recorder.set_enabled(recorder_forced_on);
    workload->final_checks(checks);

    for (Iteration& it : untraced) {
        it.sample["events_per_s"] =
            it.sample["events"] / (it.sample["wall_ms"] / 1000.0);
        workload->derive(it.sample);
    }
    if (opt.trace) {
        const std::vector<SpanRecord> spans = recorder.snapshot();
        checks.expect(recorder.spans_dropped() == 0,
                      "span buffer overflowed (" +
                          std::to_string(recorder.spans_dropped()) +
                          " spans dropped)");
        const std::string path =
            opt.work_dir + "/spans-" + opt.workload + ".json";
        if (!dsspy::obs::write_trace_json_file(path, spans))
            std::cerr << "warning: cannot write " << path << '\n';
        for (Iteration& it : traced) {
            apply_spans(it, spans);
            workload->derive(it.sample);
            checks.expect(it.sample["unattributed_pct"] <=
                              kUnattributedBoundPct,
                          "unattributed time " +
                              json_number(it.sample["unattributed_pct"]) +
                              "% exceeds the " +
                              json_number(kUnattributedBoundPct) + "% bound");
        }
    }

    Sample pooled;
    workload->pooled(pooled);
    const double peak = peak_rss_mb();
    const double overhead =
        opt.trace ? 100.0 * (median_of(traced, "wall_ms") /
                                 median_of(untraced, "wall_ms") -
                             1.0)
                  : 0.0;
    const auto value_of = [&](const MetricSpec& m) -> double {
        const std::string name = m.name;
        if (name == "setup_s") return median(setups);
        if (name == "peak_rss_mb") return peak;
        if (name == "obs.trace_overhead_pct") return overhead;
        if (name == "failed_frac")
            return checks.attempted() == 0
                       ? 1.0
                       : static_cast<double>(checks.failed()) /
                             static_cast<double>(checks.attempted());
        if (const auto p = pooled.find(name); p != pooled.end())
            return p->second;
        return median_of(m.source == Source::Traced ? traced : untraced, name);
    };

    // Human-readable table, then the machine-readable last line.
    const std::vector<MetricSpec>& printed = opt.trace ? kPerLayer : kEndToEnd;
    std::cout << opt.workload << ": " << untraced.size() << " untraced, "
              << traced.size() << " traced iterations; setup x"
              << setups.size() << '\n';
    std::cout << "end-to-end:\n";
    for (const MetricSpec& m : kEndToEnd)
        std::printf("  %-30s %16.4f %s\n", m.name, value_of(m), m.unit);
    // Every figure the untraced iterations measured (steady-clock layer
    // self times included), so a --trace 0 run shows the split too.
    std::set<std::string> keys;
    for (const Iteration& it : untraced)
        for (const auto& [key, value] : it.sample) keys.insert(key);
    std::cout << "untraced iteration medians:\n";
    for (const std::string& key : keys)
        std::printf("  %-30s %16.4f\n", key.c_str(),
                    median_of(untraced, key));
    for (const auto& [key, value] : pooled)
        std::printf("  %-30s %16.4f\n", key.c_str(), value);
    if (opt.trace) {
        std::cout << "per-layer:\n";
        for (const MetricSpec& m : kPerLayer)
            std::printf("  %-30s %16.4f %s\n", m.name, value_of(m), m.unit);
    }

    std::ostringstream result;
    result << "{\"correct\": " << (checks.failed() == 0 ? "true" : "false")
           << ", \"attempted\": " << checks.attempted()
           << ", \"failed\": " << checks.failed() << ", \"metrics\": {";
    for (std::size_t i = 0; i < printed.size(); ++i) {
        result << (i == 0 ? "" : ", ") << '"' << printed[i].name
               << "\": {\"value\": " << json_number(value_of(printed[i]))
               << ", \"unit\": \"" << printed[i].unit << "\"}";
    }
    result << "}}";

    const std::string record_path = opt.work_dir + "/result-" +
                                    opt.workload + "-seed" +
                                    std::to_string(opt.seed) + "-trace" +
                                    (opt.trace ? "1" : "0") + ".json";
    std::ofstream record(record_path);
    record << "{\"provenance\": " << prov.str() << ",\n \"setup_s\": [";
    for (std::size_t i = 0; i < setups.size(); ++i)
        record << (i == 0 ? "" : ", ") << json_number(setups[i]);
    record << "],\n \"iteration_wall_ms\": [";
    for (std::size_t i = 0; i < untraced.size(); ++i)
        record << (i == 0 ? "" : ", ")
               << json_number(untraced[i].sample["wall_ms"]);
    record << "],\n \"result\": " << result.str() << "}\n";

    std::cout << result.str() << std::endl;
    return checks.failed() == 0 ? 0 : 1;
}
