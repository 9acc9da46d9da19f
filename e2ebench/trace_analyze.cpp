// trace_analyze: one seeded DST1 trace, recorded during set-up, read back
// three ways per iteration:
//
//   postmortem  read_trace_columns_file + Dsspy::analyze(columns) + report
//               (`dsspy analyze --postmortem`)
//   streaming   read_trace_stream_file folding into IncrementalAnalyzer +
//               finish + report (`dsspy analyze`, the default)
//   convert     read_trace_file + write_trace_file(Binary)
//               (`dsspy convert`)
//
// The trace holds the seven apps (a few multi-million-event instances,
// Algorithmia's the largest) and many seeded corpus replays (thousands of
// small instances), so per-instance sharding meets a straggler.  Capture
// is bypassed entirely: decode and the two analysis engines do the work.
#include <malloc.h>

#include <filesystem>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "apps/app_registry.hpp"
#include "core/dsspy.hpp"
#include "e2e.hpp"
#include "runtime/trace_io.hpp"
#include "runtime/trace_mmap.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"

namespace e2e {

namespace {

using namespace dsspy;

/// Full-size trace: the seven apps plus a second Algorithmia run (~10.4M
/// events, two 3.7M-event instances) and this many corpus passes (~2K
/// small instances and ~0.1M events each): >= 10M events for every seed.
constexpr int kCorpusPasses = 2;
/// Smoke trace: the two smallest apps and one corpus pass.
constexpr int kSmokeCorpusPasses = 1;

/// Folds a streamed trace into the incremental analyzer, timing each
/// declaration and fold as the core layer (the rest of the read is trace
/// decode).
class FoldSink final : public runtime::TraceSink {
public:
    FoldSink(core::IncrementalAnalyzer& analyzer, Sample& sample)
        : analyzer_(analyzer), sample_(sample) {}

    void on_instance(const runtime::InstanceInfo& info) override {
        instances.push_back(info);
        const Layer layer("core.declare", sample_);
        analyzer_.declare_instance(info);
    }

    void on_events(std::span<const runtime::AccessEvent> events) override {
        const Layer layer("core.fold", sample_);
        analyzer_.fold(events);
    }

    std::vector<runtime::InstanceInfo> instances;

private:
    core::IncrementalAnalyzer& analyzer_;
    Sample& sample_;
};

/// Hash of the decoded columns and instance ranges.
std::string column_digest(const runtime::ColumnTrace& trace) {
    const runtime::ColumnStore& c = trace.columns;
    std::uint64_t h = 0;
    const auto mix = [&h](const void* data, std::size_t bytes) {
        const auto* p = static_cast<const unsigned char*>(data);
        for (std::size_t i = 0; i < bytes; ++i)
            h = (h ^ p[i]) * 0x100000001b3ULL + (h >> 29);
    };
    const std::size_t n = c.total_events();
    mix(c.time_ns(), n * sizeof(std::uint64_t));
    mix(c.position(), n * sizeof(std::int64_t));
    mix(c.sizes(), n * sizeof(std::uint32_t));
    mix(c.op(), n * sizeof(std::uint8_t));
    mix(c.thread(), n * sizeof(std::uint16_t));
    for (const runtime::InstanceInfo& info : trace.instances) {
        const runtime::ColumnRange r = c.range(info.id);
        mix(&r, sizeof r);
        mix(info.type_name.data(), info.type_name.size());
    }
    return digest(std::to_string(h) + ":" + std::to_string(n));
}

/// Keep freed memory in this process: one malloc arena, no mmap'd
/// blocks, no trimming.  Every iteration then reuses pages set-up
/// already faulted in.  On a shared VM, first-touch faults on the
/// hundreds of MB each path allocates cost two to three times more in
/// some minutes than in others and swamped the run-to-run spread; with a
/// warm heap the paths are timed as a long-lived process (serve, batch)
/// runs them.  Must run before any pool thread first allocates.
void keep_heap_warm() {
    ::mallopt(M_ARENA_MAX, 1);
    ::mallopt(M_MMAP_MAX, 0);
    ::mallopt(M_TRIM_THRESHOLD, -1);
}

class TraceAnalyze final : public Workload {
public:
    explicit TraceAnalyze(const Config& config)
        : config_(config),
          path_(config.work_dir + "/trace_analyze.dst1"),
          convert_path_(config.work_dir + "/trace_analyze.convert.dst1"),
          want_verdicts_(config.golden->get(
              config.smoke ? "trace.verdicts.smoke" : "trace.verdicts")) {
        keep_heap_warm();
    }

    void setup() override {
        support::Rng rng(config_.seed);
        std::vector<const apps::AppInfo*> apps;
        for (const apps::AppInfo& app : apps::evaluation_apps())
            if (!config_.smoke || app.name == "Contentfinder" ||
                app.name == "WordWheelSolver")
                apps.push_back(&app);
        if (!config_.smoke) apps.push_back(apps::find_app("Algorithmia"));
        std::shuffle(apps.begin(), apps.end(), rng);

        runtime::ProfilingSession session;
        for (const apps::AppInfo* app : apps)
            (void)app->run_sequential(&session);
        replay_corpus(session, rng,
                      config_.smoke ? kSmokeCorpusPasses : kCorpusPasses);
        session.stop();
        trace_events_ = session.store().total_events();
        if (!runtime::write_trace_file(path_, session,
                                       runtime::TraceFormat::Binary))
            throw std::runtime_error("cannot write " + path_);
        trace_bytes_ = std::filesystem::file_size(path_);
    }

    void iterate(Sample& s, Checks& checks) override {
        // dsspy analyze --postmortem
        std::uint64_t start = support::now_ns();
        auto columns = std::make_unique<runtime::ColumnTrace>();
        {
            const Layer layer("runtime.mmap_decode", s);
            *columns = runtime::read_trace_columns_file(path_, config_.pool);
        }
        std::optional<core::AnalysisResult> analysis;
        {
            const Layer layer("core.analyze_columns", s);
            analysis.emplace(core::Dsspy{}.analyze(
                columns->instances, columns->columns, config_.pool));
        }
        std::string postmortem;
        {
            const Layer layer("core.report", s);
            postmortem = render_report(*analysis);
        }
        const std::string postmortem_verdicts =
            verdict_digest(analysis->all_use_cases());
        const std::size_t decoded = columns->columns.total_events();
        {
            const Layer layer("runtime.close", s);
            analysis.reset();
            columns.reset();
        }
        s["analyze_ms"] = ms_between(start, support::now_ns());
        checks.expect(decoded == trace_events_,
                      "postmortem decoded " + std::to_string(decoded) +
                          " of " + std::to_string(trace_events_) + " events");

        // dsspy analyze (streaming)
        start = support::now_ns();
        std::string streamed;
        std::string stream_verdicts;
        std::size_t folded = 0;
        {
            core::IncrementalAnalyzer analyzer;
            FoldSink sink(analyzer, s);
            {
                const Layer layer("runtime.stream_decode", s);
                folded = runtime::read_trace_stream_file(path_, sink);
            }
            std::optional<core::StreamReport> report;
            {
                const Layer layer("core.finish", s);
                report.emplace(analyzer.finish(sink.instances));
            }
            {
                const Layer layer("core.report_incremental", s);
                streamed = render_report(*report);
            }
            stream_verdicts = verdict_digest(report->all_use_cases());
        }
        s["analyze_stream_ms"] = ms_between(start, support::now_ns());
        checks.expect(folded == trace_events_,
                      "streaming folded " + std::to_string(folded) + " of " +
                          std::to_string(trace_events_) + " events");
        checks.expect(postmortem == streamed,
                      "postmortem and streaming reports differ");
        checks.expect(postmortem_verdicts == want_verdicts_,
                      "postmortem verdict digest " + postmortem_verdicts +
                          " != golden " + want_verdicts_);
        checks.expect(stream_verdicts == want_verdicts_,
                      "streaming verdict digest " + stream_verdicts +
                          " != golden " + want_verdicts_);

        // dsspy convert
        start = support::now_ns();
        auto trace = std::make_unique<runtime::Trace>();
        {
            const Layer layer("runtime.read_aos", s);
            *trace = runtime::read_trace_file(path_, config_.pool);
        }
        bool wrote = false;
        {
            const Layer layer("runtime.write_dst1", s);
            wrote = runtime::write_trace_file(convert_path_, trace->instances,
                                              trace->store,
                                              runtime::TraceFormat::Binary);
        }
        const std::size_t read = trace->store.total_events();
        {
            const Layer layer("runtime.close", s);
            trace.reset();
        }
        s["convert_ms"] = ms_between(start, support::now_ns());
        checks.expect(wrote, "convert could not write " + convert_path_);
        checks.expect(read == trace_events_,
                      "convert read " + std::to_string(read) + " of " +
                          std::to_string(trace_events_) + " events");

        s["runtime.trace_events"] = static_cast<double>(trace_events_);
        s["runtime.trace_bytes"] = static_cast<double>(trace_bytes_);
        s["events"] = 3.0 * static_cast<double>(trace_events_);
    }

    void final_checks(Checks& checks) override {
        // The convert round trip decodes to the very same columns.
        const runtime::ColumnTrace original =
            runtime::read_trace_columns_file(path_, config_.pool);
        const runtime::ColumnTrace converted =
            runtime::read_trace_columns_file(convert_path_, config_.pool);
        checks.expect(original.instances == converted.instances,
                      "convert round trip changed the instance table");
        checks.expect(column_digest(original) == column_digest(converted),
                      "convert round trip changed the event columns");
    }

private:
    Config config_;
    std::string path_;
    std::string convert_path_;
    std::string want_verdicts_;
    std::size_t trace_events_ = 0;
    std::uintmax_t trace_bytes_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_trace_analyze(const Config& config) {
    return std::make_unique<TraceAnalyze>(config);
}

}  // namespace e2e
