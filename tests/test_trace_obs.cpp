// Tests for the span-tracing layer (src/obs/trace*, DESIGN.md §13):
// parent/root linkage of nested and cross-thread spans, the manual
// begin/end path, the span cap and slow-op accounting, the live
// open-span view, concurrent writers racing live snapshot() readers
// (the `trace_obs_tsan` ctest entry re-runs that suite under
// ThreadSanitizer), the Chrome trace-event exporter (validated with a
// real JSON parser, not substring luck), the critical-path estimate,
// and the pipeline wiring: an analyze run writes a loadable span file
// and — the differential guarantee — produces byte-identical reports
// with tracing on and off.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "apps/app_registry.hpp"
#include "json_check.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"
#include "pipeline/run_plan.hpp"
#include "pipeline/runner.hpp"
#include "runtime/session.hpp"
#include "runtime/trace_io.hpp"

namespace {

using namespace dsspy;
using dsspy_test::json_valid;

/// Enables the global trace recorder for one test and restores the
/// disabled default (empty buffers, default cap, no slow-op threshold)
/// on exit, keeping tests order-independent.
class GlobalTraceGuard {
public:
    GlobalTraceGuard() {
        obs::TraceRecorder::global().reset();
        obs::TraceRecorder::global().set_enabled(true);
    }
    ~GlobalTraceGuard() {
        obs::TraceRecorder& rec = obs::TraceRecorder::global();
        rec.set_enabled(false);
        rec.set_slow_op_threshold_ns(0);
        rec.set_span_cap(obs::TraceRecorder::kDefaultSpanCap);
        rec.reset();
    }
};

const obs::SpanRecord* find_span(const std::vector<obs::SpanRecord>& spans,
                                 std::string_view name) {
    for (const obs::SpanRecord& rec : spans)
        if (rec.name == name) return &rec;
    return nullptr;
}

std::size_t count_substr(const std::string& text, const std::string& what) {
    std::size_t count = 0;
    for (std::size_t pos = text.find(what); pos != std::string::npos;
         pos = text.find(what, pos + what.size()))
        ++count;
    return count;
}

// --- recorder semantics -------------------------------------------------

TEST(TraceSpans, DisabledRecorderRecordsNothing) {
    obs::TraceRecorder& rec = obs::TraceRecorder::global();
    rec.set_enabled(false);
    rec.reset();
    ASSERT_FALSE(obs::trace_enabled());
    {
        DSSPY_TRACE_SPAN("test.disabled");
        EXPECT_FALSE(obs::current_trace_context().valid());
    }
    const obs::ManualSpan manual = rec.begin_span("test.disabled_manual");
    EXPECT_FALSE(manual.ctx.valid());
    rec.end_span(manual);  // must be a no-op, not a crash
    EXPECT_TRUE(rec.snapshot().empty());
    EXPECT_EQ(rec.spans_recorded(), 0u);
    EXPECT_EQ(rec.slowest_open_span().name, nullptr);
}

TEST(TraceSpans, NestedScopedSpansLinkParentAndRoot) {
    GlobalTraceGuard guard;
    {
        obs::ScopedSpan outer("test.outer");
        outer.annotate("key", "value");
        outer.annotate("k2", "v2");
        EXPECT_EQ(obs::current_trace_context().span_id,
                  outer.context().span_id);
        {
            DSSPY_TRACE_SPAN("test.inner");
        }
    }
    EXPECT_FALSE(obs::current_trace_context().valid());

    const std::vector<obs::SpanRecord> spans =
        obs::TraceRecorder::global().snapshot();
    ASSERT_EQ(spans.size(), 2u);
    const obs::SpanRecord* outer = find_span(spans, "test.outer");
    const obs::SpanRecord* inner = find_span(spans, "test.inner");
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    EXPECT_NE(outer->id, 0u);
    EXPECT_EQ(outer->parent, 0u);
    EXPECT_EQ(outer->root, outer->id);
    EXPECT_EQ(outer->annotations, "key=value k2=v2");
    EXPECT_EQ(inner->parent, outer->id);
    EXPECT_EQ(inner->root, outer->id);
    EXPECT_EQ(inner->thread, outer->thread);
    EXPECT_GE(inner->start_ns, outer->start_ns);
    EXPECT_LE(inner->end_ns, outer->end_ns);
    EXPECT_EQ(obs::TraceRecorder::global().spans_recorded(), 2u);
}

// A Buffered stop() with an event sink splits into the ordered merge
// (which runs the sink) and the chunk release, both inside capture.stop.
TEST(TraceSpans, BufferedStopSpansMergeAndFinalizeInsideStop) {
    GlobalTraceGuard guard;
    std::size_t delivered = 0;
    {
        runtime::ProfilingSession session(runtime::CaptureMode::Buffered,
                                          1024,
                                          runtime::AnalysisMode::Incremental);
        session.set_event_sink(
            [&delivered](std::span<const runtime::AccessEvent> events) {
                delivered += events.size();
            });
        const runtime::InstanceId id = session.register_instance(
            runtime::DsKind::List, "List<int>", {"Spans", "Merge", 1});
        for (std::uint32_t i = 0; i < 3000; ++i)
            session.record(id, runtime::OpKind::Add, i, i + 1);
        session.stop();
    }
    EXPECT_EQ(delivered, 3000u);

    const std::vector<obs::SpanRecord> spans =
        obs::TraceRecorder::global().snapshot();
    const obs::SpanRecord* stop = find_span(spans, "capture.stop");
    const obs::SpanRecord* merge = find_span(spans, "capture.merge");
    const obs::SpanRecord* finalize = find_span(spans, "capture.finalize");
    ASSERT_NE(stop, nullptr);
    ASSERT_NE(merge, nullptr);
    ASSERT_NE(finalize, nullptr);
    EXPECT_EQ(merge->parent, stop->id);
    EXPECT_EQ(finalize->parent, stop->id);
    EXPECT_LE(merge->end_ns, finalize->start_ns);
}

TEST(TraceSpans, CrossThreadFanOutParentsUnderCapturedContext) {
    GlobalTraceGuard guard;
    constexpr unsigned kWorkers = 4;
    obs::TraceContext root_ctx;
    {
        obs::ScopedSpan root("test.fanout");
        root_ctx = root.context();
        std::vector<std::thread> workers;
        workers.reserve(kWorkers);
        for (unsigned t = 0; t < kWorkers; ++t)
            workers.emplace_back([root_ctx] {
                // Pool/worker threads start with no inherited context;
                // the tree arrives only through the explicit parent.
                EXPECT_FALSE(obs::current_trace_context().valid());
                DSSPY_TRACE_SPAN_UNDER("test.shard", root_ctx);
            });
        for (std::thread& w : workers) w.join();
    }

    const std::vector<obs::SpanRecord> spans =
        obs::TraceRecorder::global().snapshot();
    ASSERT_EQ(spans.size(), kWorkers + 1);
    const obs::SpanRecord* root = find_span(spans, "test.fanout");
    ASSERT_NE(root, nullptr);
    std::set<std::uint32_t> shard_threads;
    for (const obs::SpanRecord& rec : spans) {
        if (rec.name != std::string_view("test.shard")) continue;
        EXPECT_EQ(rec.parent, root->id);
        EXPECT_EQ(rec.root, root->id);
        EXPECT_NE(rec.thread, root->thread);
        shard_threads.insert(rec.thread);
    }
    EXPECT_EQ(shard_threads.size(), kWorkers);
}

TEST(TraceSpans, ManualSpanBeginsAndEndsOnDifferentThreads) {
    GlobalTraceGuard guard;
    obs::TraceRecorder& rec = obs::TraceRecorder::global();
    const obs::ManualSpan session = rec.begin_span("test.session");
    ASSERT_TRUE(session.ctx.valid());
    EXPECT_EQ(session.ctx.root_id, session.ctx.span_id);
    {
        // A child under the manual span joins its tree.
        DSSPY_TRACE_SPAN_UNDER("test.session_child", session.ctx);
    }
    std::thread finisher(
        [&rec, session] { rec.end_span(session, "state=finished"); });
    finisher.join();

    const std::vector<obs::SpanRecord> spans = rec.snapshot();
    ASSERT_EQ(spans.size(), 2u);
    const obs::SpanRecord* root = find_span(spans, "test.session");
    const obs::SpanRecord* child = find_span(spans, "test.session_child");
    ASSERT_NE(root, nullptr);
    ASSERT_NE(child, nullptr);
    EXPECT_EQ(root->id, session.ctx.span_id);
    EXPECT_EQ(root->parent, 0u);
    EXPECT_EQ(root->annotations, "state=finished");
    EXPECT_GE(root->end_ns, root->start_ns);
    EXPECT_EQ(child->parent, root->id);
    EXPECT_EQ(child->root, root->id);
}

TEST(TraceSpans, SpanCapDropsPastCapAndCounts) {
    GlobalTraceGuard guard;
    obs::TraceRecorder& rec = obs::TraceRecorder::global();
    rec.set_span_cap(4);
    for (int i = 0; i < 10; ++i) {
        obs::ScopedSpan span("test.capped");
    }
    EXPECT_EQ(rec.snapshot().size(), 4u);
    EXPECT_EQ(rec.spans_recorded(), 4u);
    EXPECT_EQ(rec.spans_dropped(), 6u);
}

TEST(TraceSpans, SlowOpThresholdCountsOnlySlowSpans) {
    GlobalTraceGuard guard;
    obs::TraceRecorder& rec = obs::TraceRecorder::global();
    rec.set_slow_op_threshold_ns(1'000'000);  // 1 ms
    {
        obs::ScopedSpan slow("test.slow");
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_EQ(rec.slow_ops(), 1u);
    {
        obs::ScopedSpan fast("test.fast");
    }
    EXPECT_EQ(rec.slow_ops(), 1u) << "a sub-threshold span was logged";
    EXPECT_EQ(rec.snapshot().size(), 2u);
}

TEST(TraceSpans, OpenSpanViewTracksDepthAndEarliestStart) {
    GlobalTraceGuard guard;
    obs::TraceRecorder& rec = obs::TraceRecorder::global();
    {
        obs::ScopedSpan outer("test.open_outer");
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        obs::ScopedSpan inner("test.open_inner");
        const obs::OpenSpanInfo info = rec.slowest_open_span();
        EXPECT_EQ(info.depth, 2u);
        ASSERT_NE(info.name, nullptr);
        EXPECT_STREQ(info.name, "test.open_outer");
        EXPECT_NE(info.start_ns, 0u);
    }
    const obs::OpenSpanInfo after = rec.slowest_open_span();
    EXPECT_EQ(after.depth, 0u);
    EXPECT_EQ(after.name, nullptr);
}

TEST(TraceSpans, ConcurrentWritersWithLiveSnapshotReaders) {
    GlobalTraceGuard guard;
    obs::TraceRecorder& rec = obs::TraceRecorder::global();
    constexpr unsigned kThreads = 8;
    constexpr unsigned kSpansPerThread = 1000;

    // A live reader races the writers the whole time, like the serve
    // daemon's /tenants/<id>/trace endpoint does against stream threads.
    std::atomic<bool> stop{false};
    std::thread reader([&rec, &stop] {
        while (!stop.load(std::memory_order_acquire)) {
            const std::vector<obs::SpanRecord> live = rec.snapshot();
            for (const obs::SpanRecord& span : live)
                ASSERT_NE(span.id, 0u);
            (void)rec.slowest_open_span();
        }
    });
    {
        std::vector<std::thread> writers;
        writers.reserve(kThreads);
        for (unsigned t = 0; t < kThreads; ++t)
            writers.emplace_back([] {
                for (unsigned i = 0; i < kSpansPerThread; ++i) {
                    obs::ScopedSpan outer("test.mt_outer");
                    obs::ScopedSpan inner("test.mt_inner");
                }
            });
        for (std::thread& w : writers) w.join();
    }
    stop.store(true, std::memory_order_release);
    reader.join();

    const std::vector<obs::SpanRecord> spans = rec.snapshot();
    ASSERT_EQ(spans.size(), kThreads * kSpansPerThread * 2);
    std::map<obs::SpanId, const obs::SpanRecord*> by_id;
    for (const obs::SpanRecord& rec_span : spans) {
        EXPECT_TRUE(by_id.emplace(rec_span.id, &rec_span).second)
            << "duplicate span id " << rec_span.id;
    }
    for (const obs::SpanRecord& span : spans) {
        if (span.name == std::string_view("test.mt_outer")) {
            EXPECT_EQ(span.parent, 0u);
            EXPECT_EQ(span.root, span.id);
            continue;
        }
        // Every inner nests under an outer on the same thread.
        const auto parent = by_id.find(span.parent);
        ASSERT_NE(parent, by_id.end());
        EXPECT_EQ(parent->second->name, std::string_view("test.mt_outer"));
        EXPECT_EQ(parent->second->thread, span.thread);
        EXPECT_EQ(span.root, parent->second->id);
    }
}

// --- exporters ----------------------------------------------------------

TEST(TraceExport, ChromeJsonIsStructurallyValidAndDeterministic) {
    GlobalTraceGuard guard;
    {
        obs::ScopedSpan root("test.export_root");
        root.annotate("k", "v\"w\\q");
        const obs::TraceContext ctx = root.context();
        std::thread worker([ctx] {
            DSSPY_TRACE_SPAN_UNDER("test.export_shard", ctx);
        });
        worker.join();
    }

    const std::vector<obs::SpanRecord> spans =
        obs::TraceRecorder::global().snapshot();
    std::ostringstream os;
    obs::write_trace_json(os, spans);
    const std::string doc = os.str();

    EXPECT_TRUE(json_valid(doc)) << doc;
    EXPECT_NE(doc.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
    EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
    // Two spans on two threads: 2 complete events + 2 thread-name
    // metadata events, each thread rendered as its own labeled track.
    EXPECT_EQ(count_substr(doc, "\"ph\": \"X\""), 2u);
    EXPECT_EQ(count_substr(doc, "\"ph\": \"M\""), 2u);
    EXPECT_EQ(count_substr(doc, "\"thread_name\""), 2u);
    // Annotations with quotes and backslashes survive, escaped.
    EXPECT_NE(doc.find("\"annotations\": \"k=v\\\"w\\\\q\""),
              std::string::npos)
        << doc;

    // Equal snapshots export byte-identical documents.
    std::ostringstream again;
    obs::write_trace_json(again, spans);
    EXPECT_EQ(doc, again.str());

    // The file path agrees with the stream path.
    const std::string path = testing::TempDir() + "trace_obs_export.json";
    ASSERT_TRUE(obs::write_trace_json_file(path, spans));
    std::ifstream in(path, std::ios::binary);
    std::ostringstream file_body;
    file_body << in.rdbuf();
    EXPECT_EQ(file_body.str(), doc);
}

TEST(TraceExport, EmptySnapshotStillExportsValidJson) {
    std::ostringstream os;
    obs::write_trace_json(os, {});
    EXPECT_TRUE(json_valid(os.str())) << os.str();
}

/// Hand-built tree exercising the critical-path estimate:
///
///   root   [100, 200]
///     A    [110, 150]   overlaps B -> one parallel group
///       G  [115, 145]
///     B    [120, 155]
///     C    [160, 180]   sequential
///
/// Group {A, B}: union 45 ns, longest member critical path 40 ns (A's
/// time outside G plus G).  C contributes its full 20 ns.  Root outside
/// children: 100 - 45 - 20 = 35.  Critical path = 35 + 40 + 20 = 95.
std::vector<obs::SpanRecord> synthetic_tree() {
    auto span = [](obs::SpanId id, obs::SpanId parent, obs::SpanId root,
                   const char* name, std::uint64_t start,
                   std::uint64_t end) {
        obs::SpanRecord rec;
        rec.id = id;
        rec.parent = parent;
        rec.root = root;
        rec.thread = 1;
        rec.name = name;
        rec.start_ns = start;
        rec.end_ns = end;
        return rec;
    };
    return {
        span(1, 0, 1, "root", 100, 200), span(2, 1, 1, "A", 110, 150),
        span(3, 2, 1, "G", 115, 145),    span(4, 1, 1, "B", 120, 155),
        span(5, 1, 1, "C", 160, 180),    span(10, 0, 10, "other", 0, 50),
    };
}

TEST(TraceExport, CriticalPathCollapsesParallelSiblingGroups) {
    const std::vector<obs::SpanRecord> spans = synthetic_tree();
    EXPECT_EQ(obs::critical_path_ns(spans, 1), 95u);
    EXPECT_EQ(obs::critical_path_ns(spans, 10), 50u);  // leaf root
    EXPECT_EQ(obs::critical_path_ns(spans, 999), 0u);  // absent root
}

TEST(TraceExport, SpansForRootFiltersToOneTree) {
    const std::vector<obs::SpanRecord> spans = synthetic_tree();
    const std::vector<obs::SpanRecord> tree = obs::spans_for_root(spans, 1);
    ASSERT_EQ(tree.size(), 5u);
    for (const obs::SpanRecord& rec : tree) EXPECT_EQ(rec.root, 1u);
    EXPECT_EQ(obs::spans_for_root(spans, 10).size(), 1u);
    EXPECT_TRUE(obs::spans_for_root(spans, 999).empty());
}

TEST(TraceExport, SummaryReportsRootsAndAggregates) {
    std::ostringstream os;
    obs::write_trace_summary(os, synthetic_tree());
    const std::string text = os.str();
    EXPECT_NE(text.find("6 spans across 1 threads"), std::string::npos)
        << text;
    EXPECT_NE(text.find("top spans by duration:"), std::string::npos);
    EXPECT_NE(text.find("per-name aggregates"), std::string::npos);
    // Both roots appear with wall and critical-path figures (ns -> ms).
    EXPECT_NE(text.find("root (span 1): 0.000 ms wall, 0.000 ms critical"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("other (span 10)"), std::string::npos);
}

// --- pipeline wiring ----------------------------------------------------

std::string record_app_trace() {
    const apps::AppInfo* app = apps::find_app("WordWheelSolver");
    EXPECT_NE(app, nullptr);
    runtime::ProfilingSession session;
    app->run_sequential(&session);
    session.stop();
    const std::string path = testing::TempDir() + "trace_obs_run.csv";
    EXPECT_TRUE(runtime::write_trace_file(path, session,
                                          runtime::TraceFormat::Csv));
    return path;
}

pipeline::RunPlan analyze_plan(const std::string& trace_path) {
    pipeline::RunPlan plan;
    plan.input = pipeline::InputKind::TraceFile;
    plan.target = trace_path;
    plan.outputs.report = true;
    return plan;
}

TEST(TracePipeline, AnalyzeRunWritesLoadableSpanTree) {
    const std::string trace_path = record_app_trace();
    GlobalTraceGuard guard;

    pipeline::RunPlan plan = analyze_plan(trace_path);
    plan.outputs.trace_spans_out =
        testing::TempDir() + "trace_obs_spans.json";
    std::ostringstream out;
    std::ostringstream err;
    const pipeline::PipelineRunner runner;
    const pipeline::RunOutcome outcome = runner.run(plan, out, err);
    ASSERT_EQ(outcome.exit_code, pipeline::kExitOk) << err.str();
    EXPECT_NE(err.str().find("Wrote trace spans to"), std::string::npos)
        << err.str();

    std::ifstream in(plan.outputs.trace_spans_out, std::ios::binary);
    ASSERT_TRUE(in.good());
    std::ostringstream body;
    body << in.rdbuf();
    const std::string doc = body.str();
    EXPECT_TRUE(json_valid(doc)) << doc;
    // The run's root span is present, annotated with the target, and
    // every event is a complete or metadata event.
    EXPECT_NE(doc.find("\"name\": \"run\""), std::string::npos) << doc;
    EXPECT_NE(doc.find("target=" + trace_path), std::string::npos);
    EXPECT_GE(count_substr(doc, "\"ph\": \"X\""), 1u);
    EXPECT_GE(count_substr(doc, "\"ph\": \"M\""), 1u);
    EXPECT_EQ(count_substr(doc, "\"ph\": "),
              count_substr(doc, "\"ph\": \"X\"") +
                  count_substr(doc, "\"ph\": \"M\""));

    // The root "run" span parents the whole tree: exactly one root.
    const std::vector<obs::SpanRecord> spans =
        obs::TraceRecorder::global().snapshot();
    std::size_t roots = 0;
    for (const obs::SpanRecord& rec : spans)
        if (rec.parent == 0) ++roots;
    EXPECT_EQ(roots, 1u);
}

TEST(TracePipeline, ReportsAreByteIdenticalWithTracingOnAndOff) {
    const std::string trace_path = record_app_trace();
    const pipeline::RunPlan plan = analyze_plan(trace_path);
    const pipeline::PipelineRunner runner;

    obs::TraceRecorder::global().set_enabled(false);
    obs::TraceRecorder::global().reset();
    std::ostringstream off_out;
    std::ostringstream off_err;
    ASSERT_EQ(runner.run(plan, off_out, off_err).exit_code,
              pipeline::kExitOk);

    std::string on_text;
    {
        GlobalTraceGuard guard;
        std::ostringstream on_out;
        std::ostringstream on_err;
        ASSERT_EQ(runner.run(plan, on_out, on_err).exit_code,
                  pipeline::kExitOk);
        EXPECT_GT(obs::TraceRecorder::global().spans_recorded(), 0u);
        on_text = on_out.str();
    }
    EXPECT_EQ(off_out.str(), on_text)
        << "enabling span tracing changed an analysis report";
}

}  // namespace
