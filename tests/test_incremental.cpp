// Differential tests: incremental streaming analyzer vs post-mortem DSspy.
//
// DESIGN.md §8 claims the two pipelines are equivalent — same patterns,
// same use-case verdicts, same recommendation text — because both reduce
// to the same InstanceStats and classify through the same engine.  This
// suite holds them to that, bit for bit, over every evaluation app, every
// corpus workload, live streaming/buffered sessions, adversarial synthetic
// workloads, and non-default configurations.  It also regression-tests the
// streaming trace readers (quote state across buffer refills, DST1 prefix
// carry, malformed-input parity with the slurping reader).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <mutex>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/app_registry.hpp"
#include "core/dsspy.hpp"
#include "core/export.hpp"
#include "core/incremental.hpp"
#include "core/report.hpp"
#include "corpus/program_model.hpp"
#include "corpus/workload.hpp"
#include "ds/ds.hpp"
#include "runtime/session.hpp"
#include "runtime/trace_io.hpp"

namespace dsspy {
namespace {

using core::AnalysisResult;
using core::DetectorConfig;
using core::Dsspy;
using core::IncrementalAnalyzer;
using core::StreamReport;
using core::UseCaseKind;
using runtime::AccessEvent;
using runtime::AnalysisMode;
using runtime::CaptureMode;
using runtime::DsKind;
using runtime::InstanceId;
using runtime::InstanceInfo;
using runtime::kWholeContainer;
using runtime::OpKind;
using runtime::ProfilingSession;

// --- equivalence helpers ----------------------------------------------------

template <typename Report>
std::string report_text(const Report& report) {
    std::ostringstream os;
    core::print_use_case_report(os, report);
    os << "---\n";
    core::print_use_case_report(os, report, /*parallel_only=*/true);
    os << "---\n";
    core::print_instance_summary(os, report);
    os << "---\n";
    core::write_use_cases_csv(os, report);
    os << "---\n";
    core::write_instances_csv(os, report);
    return os.str();
}

/// Assert the post-mortem result and the stream report agree on every
/// observable: aggregates, per-instance verdicts, and all rendered text.
void expect_reports_equal(const AnalysisResult& pm, const StreamReport& sr) {
    ASSERT_EQ(pm.instances().size(), sr.instances().size());
    EXPECT_EQ(pm.total_instances(), sr.total_instances());
    EXPECT_EQ(pm.list_array_instances(), sr.list_array_instances());
    EXPECT_EQ(pm.flagged_instances(), sr.flagged_instances());
    EXPECT_EQ(pm.total_events(), sr.total_events());
    EXPECT_DOUBLE_EQ(pm.search_space_reduction(), sr.search_space_reduction());
    EXPECT_EQ(pm.use_case_counts(), sr.use_case_counts());
    for (std::size_t i = 0; i < pm.instances().size(); ++i) {
        SCOPED_TRACE("instance index " + std::to_string(i));
        const core::InstanceAnalysis& ia = pm.instances()[i];
        const core::StreamInstance& si = sr.instances()[i];
        EXPECT_EQ(ia.patterns.size(), si.total_patterns());
        ASSERT_EQ(ia.use_cases.size(), si.use_cases.size());
        for (std::size_t u = 0; u < ia.use_cases.size(); ++u) {
            SCOPED_TRACE("use case " + std::to_string(u));
            EXPECT_EQ(ia.use_cases[u].kind, si.use_cases[u].kind);
            EXPECT_EQ(ia.use_cases[u].reason(), si.use_cases[u].reason());
            EXPECT_EQ(ia.use_cases[u].recommendation(),
                      si.use_cases[u].recommendation());
            EXPECT_EQ(ia.use_cases[u].parallel_potential(),
                      si.use_cases[u].parallel_potential());
            EXPECT_DOUBLE_EQ(ia.use_cases[u].confidence(),
                             si.use_cases[u].confidence());
            EXPECT_TRUE(ia.use_cases[u] == si.use_cases[u]);
        }
    }
    EXPECT_EQ(report_text(pm), report_text(sr));
}

/// Replay a stopped session's store through an IncrementalAnalyzer and
/// diff the result against the post-mortem analysis: once one instance
/// per batch, then as the whole session in global seq order (the order a
/// live session delivers) cut into batches of 1, 7 and 1000 events, so
/// instances interleave within a batch and their runs split at batch
/// edges and across threads.
void expect_equivalent(const ProfilingSession& session,
                       const DetectorConfig& config = {}) {
    const AnalysisResult pm = Dsspy{config}.analyze(session);
    const std::vector<InstanceInfo> instances = session.registry().snapshot();
    {
        IncrementalAnalyzer inc(config);
        for (const InstanceInfo& info : instances) inc.declare_instance(info);
        for (const InstanceInfo& info : instances)
            inc.fold(core::instance_events(session.store(), info.id));
        const StreamReport sr = inc.finish(instances);
        expect_reports_equal(pm, sr);
    }

    std::vector<AccessEvent> global;
    for (const InstanceInfo& info : instances) {
        const std::vector<AccessEvent> events =
            core::instance_events(session.store(), info.id);
        global.insert(global.end(), events.begin(), events.end());
    }
    // Stable: equal seqs keep each instance's own order.
    std::stable_sort(global.begin(), global.end(),
                     [](const AccessEvent& a, const AccessEvent& b) {
                         return a.seq < b.seq;
                     });
    for (const std::size_t batch : {std::size_t{1}, std::size_t{7},
                                    std::size_t{1000}}) {
        SCOPED_TRACE("global seq order, batches of " + std::to_string(batch));
        IncrementalAnalyzer inc(config);
        for (const InstanceInfo& info : instances) inc.declare_instance(info);
        for (std::size_t i = 0; i < global.size(); i += batch)
            inc.fold(std::span(global).subspan(
                i, std::min(batch, global.size() - i)));
        EXPECT_EQ(inc.events_folded(), global.size());
        const StreamReport sr = inc.finish(instances);
        expect_reports_equal(pm, sr);
    }
}

bool has_kind(const AnalysisResult& result, UseCaseKind kind) {
    for (const core::InstanceAnalysis& ia : result.instances())
        for (const core::UseCase& uc : ia.use_cases)
            if (uc.kind == kind) return true;
    return false;
}

InstanceId reg(ProfilingSession& s, DsKind kind, const char* method,
               std::uint32_t position = 1) {
    return s.register_instance(kind, "List<int>",
                               {"Differential.Test", method, position});
}

// --- every evaluation app ---------------------------------------------------

class AppDifferentialTest : public ::testing::TestWithParam<std::string> {};

TEST_P(AppDifferentialTest, IncrementalMatchesPostmortem) {
    const apps::AppInfo* app = apps::find_app(GetParam());
    ASSERT_NE(app, nullptr);
    ProfilingSession session;
    (void)app->run_sequential(&session);
    session.stop();
    ASSERT_GT(session.events_recorded(), 0u);
    expect_equivalent(session);
}

std::vector<std::string> app_names() {
    std::vector<std::string> names;
    for (const apps::AppInfo& app : apps::evaluation_apps())
        names.push_back(app.name);
    return names;
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, AppDifferentialTest, ::testing::ValuesIn(app_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
        std::string id;
        for (char ch : info.param)
            if (std::isalnum(static_cast<unsigned char>(ch))) id += ch;
        return id;
    });

// --- every corpus workload --------------------------------------------------

TEST(CorpusDifferential, EvalWorkloadsMatch) {
    for (const corpus::ProgramModel& program : corpus::all_programs()) {
        if (!program.in_eval23) continue;
        SCOPED_TRACE(program.name);
        ProfilingSession session;
        corpus::run_eval_workload(program, &session);
        session.stop();
        expect_equivalent(session);
    }
}

TEST(CorpusDifferential, Study15WorkloadsMatch) {
    for (const corpus::ProgramModel& program : corpus::all_programs()) {
        if (!program.in_study15) continue;
        SCOPED_TRACE(program.name);
        ProfilingSession session;
        corpus::run_study15_workload(program, &session);
        session.stop();
        expect_equivalent(session);
    }
}

// --- quickstart / examples-style workloads ----------------------------------

/// The quickstart example's workload (fill, scan twice, clear, repeat).
void drive_quickstart(ProfilingSession& session) {
    ds::ProfiledList<int> tasks(&session,
                                {"Quickstart.Worker", "ProcessBatch", 7});
    for (int round = 0; round < 15; ++round) {
        for (int i = 0; i < 200; ++i) tasks.add(round * 1000 + i);
        long best = 0;
        for (std::size_t i = 0; i < tasks.count(); ++i)
            best = std::max<long>(best, tasks.get(i));
        for (std::size_t i = 0; i < tasks.count(); ++i) (void)tasks.get(i);
        tasks.clear();
        (void)best;
    }
}

TEST(ExampleDifferential, QuickstartWorkloadMatches) {
    ProfilingSession session;
    drive_quickstart(session);
    session.stop();
    expect_equivalent(session);
}

TEST(ExampleDifferential, EventByEventFoldMatchesBatchFold) {
    ProfilingSession session;
    drive_quickstart(session);
    session.stop();

    const std::vector<InstanceInfo> instances = session.registry().snapshot();
    IncrementalAnalyzer batched, single;
    for (const InstanceInfo& info : instances) {
        batched.declare_instance(info);
        single.declare_instance(info);
    }
    for (const InstanceInfo& info : instances) {
        const std::vector<AccessEvent> events =
            core::instance_events(session.store(), info.id);
        batched.fold(events);
        for (const AccessEvent& ev : events) single.fold(ev);
    }
    EXPECT_EQ(batched.events_folded(), single.events_folded());
    EXPECT_EQ(report_text(batched.finish(instances)),
              report_text(single.finish(instances)));
}

// --- live sessions: ordered sink delivery -----------------------------------

/// Multithreaded workload in the style of examples/multithreaded_profiling:
/// a producer fills a shared list while two consumers scan it, plus one
/// private list per consumer.
void drive_multithreaded(ProfilingSession& session) {
    ds::ProfiledList<std::int64_t> work(&session,
                                        {"Shared.Pipeline", "Run", 11});
    std::mutex work_mutex;
    std::jthread producer([&] {
        for (std::int64_t i = 0; i < 2000; ++i) {
            const std::scoped_lock lock(work_mutex);
            work.add(i);
        }
    });
    auto consumer = [&](int which) {
        ds::ProfiledList<std::int64_t> local(
            &session,
            {"Shared.Pipeline", "Consume", 20u + static_cast<unsigned>(which)});
        for (int round = 0; round < 50; ++round) {
            {
                const std::scoped_lock lock(work_mutex);
                for (std::size_t i = 0; i < work.count(); ++i)
                    (void)work.get(i);
            }
            for (int i = 0; i < 40; ++i) local.add(i);
            local.clear();
        }
    };
    std::jthread consumer1(consumer, 1);
    std::jthread consumer2(consumer, 2);
}

TEST(LiveSessionDifferential, StreamingSinkMatchesPostmortem) {
    ProfilingSession session(CaptureMode::Streaming);
    IncrementalAnalyzer inc;
    core::attach_incremental(session, inc);
    drive_multithreaded(session);
    session.stop();

    ASSERT_GT(session.events_recorded(), 0u);
    EXPECT_EQ(inc.events_folded(), session.events_recorded());
    const AnalysisResult pm = Dsspy{}.analyze(session);
    expect_reports_equal(pm, Dsspy::finish(inc, session));
}

TEST(LiveSessionDifferential, BufferedSinkMatchesPostmortem) {
    ProfilingSession session(CaptureMode::Buffered);
    IncrementalAnalyzer inc;
    core::attach_incremental(session, inc);
    drive_multithreaded(session);
    session.stop();

    EXPECT_EQ(inc.events_folded(), session.events_recorded());
    const AnalysisResult pm = Dsspy{}.analyze(session);
    expect_reports_equal(pm, Dsspy::finish(inc, session));
}

TEST(LiveSessionDifferential, IncrementalModeRetainsNoEvents) {
    // Same deterministic single-threaded workload twice: once retained for
    // post-mortem analysis, once in AnalysisMode::Incremental where the
    // store must stay empty and the verdicts must still match.
    ProfilingSession reference;
    drive_quickstart(reference);
    reference.stop();
    const AnalysisResult pm = Dsspy{}.analyze(reference);

    ProfilingSession session(CaptureMode::Streaming, 64 * 1024,
                             AnalysisMode::Incremental);
    IncrementalAnalyzer inc;
    core::attach_incremental(session, inc);
    drive_quickstart(session);
    session.stop();

    EXPECT_EQ(session.store().total_events(), 0u);
    EXPECT_EQ(inc.events_folded(), session.events_recorded());
    EXPECT_EQ(session.events_recorded(), reference.events_recorded());
    expect_reports_equal(pm, Dsspy::finish(inc, session));
}

TEST(LiveSessionDifferential, SnapshotDoesNotPerturbAndMatchesPrefix) {
    ProfilingSession session;
    drive_quickstart(session);
    session.stop();
    const std::vector<InstanceInfo> instances = session.registry().snapshot();
    ASSERT_EQ(instances.size(), 1u);
    const std::vector<AccessEvent> rows =
        core::instance_events(session.store(), instances[0].id);
    const std::span<const AccessEvent> events(rows);
    const std::size_t half = events.size() / 2;

    IncrementalAnalyzer streamed, prefix_only;
    streamed.declare_instance(instances[0]);
    prefix_only.declare_instance(instances[0]);
    streamed.fold(events.subspan(0, half));
    prefix_only.fold(events.subspan(0, half));

    // A mid-stream snapshot equals the terminal report of an analyzer that
    // saw only the prefix ...
    EXPECT_EQ(report_text(streamed.snapshot(instances)),
              report_text(prefix_only.finish(instances)));

    // ... and taking it must not change the final verdicts.
    streamed.fold(events.subspan(half));
    const AnalysisResult pm = Dsspy{}.analyze(session);
    expect_reports_equal(pm, streamed.finish(instances));
}

// --- adversarial synthetic workloads ----------------------------------------

TEST(SyntheticDifferential, SortAfterInsertClosedRun) {
    ProfilingSession session;
    const InstanceId id = reg(session, DsKind::List, "SaiClosed");
    for (int i = 0; i < 150; ++i)
        session.record(id, OpKind::Add, i, static_cast<std::uint32_t>(i + 1));
    session.record(id, OpKind::Sort, kWholeContainer, 150);
    for (int i = 0; i < 20; ++i) session.record(id, OpKind::Get, i, 150);
    session.stop();
    EXPECT_TRUE(has_kind(Dsspy{}.analyze(session),
                         UseCaseKind::SortAfterInsert));
    expect_equivalent(session);
}

TEST(SyntheticDifferential, SortAfterInsertOpenRunAtSort) {
    // The qualifying insertion run is still open when the Sort arrives,
    // and a second insert run is still open at end of stream.
    ProfilingSession session;
    const InstanceId id = reg(session, DsKind::List, "SaiOpen");
    for (int i = 0; i < 140; ++i)
        session.record(id, OpKind::Add, i, static_cast<std::uint32_t>(i + 1));
    session.record(id, OpKind::Sort, kWholeContainer, 140);
    for (int i = 0; i < 120; ++i)
        session.record(id, OpKind::Add, 140 + i,
                       static_cast<std::uint32_t>(141 + i));
    session.record(id, OpKind::Sort, kWholeContainer, 260);
    session.stop();
    EXPECT_TRUE(has_kind(Dsspy{}.analyze(session),
                         UseCaseKind::SortAfterInsert));
    expect_equivalent(session);
}

TEST(SyntheticDifferential, StaleInsertPhaseOutsideSortGap) {
    // The insertion phase ends, then more than sai_max_gap_events reads
    // pass before the Sort: the candidate must have expired in both
    // pipelines.
    ProfilingSession session;
    const InstanceId id = reg(session, DsKind::List, "SaiStale");
    for (int i = 0; i < 150; ++i)
        session.record(id, OpKind::Add, i, static_cast<std::uint32_t>(i + 1));
    for (int i = 0; i < 40; ++i) session.record(id, OpKind::Get, i, 150);
    session.record(id, OpKind::Sort, kWholeContainer, 150);
    session.stop();
    EXPECT_FALSE(has_kind(Dsspy{}.analyze(session),
                          UseCaseKind::SortAfterInsert));
    expect_equivalent(session);
}

TEST(SyntheticDifferential, WriteWithoutReadTail) {
    ProfilingSession session;
    const InstanceId id = reg(session, DsKind::List, "WwrTail");
    for (int i = 0; i < 20; ++i) session.record(id, OpKind::Add, i, i + 1);
    for (int i = 0; i < 40; ++i) session.record(id, OpKind::Get, i % 20, 20);
    for (int i = 0; i < 15; ++i) session.record(id, OpKind::Set, i, 20);
    session.stop();
    EXPECT_TRUE(has_kind(Dsspy{}.analyze(session),
                         UseCaseKind::WriteWithoutRead));
    expect_equivalent(session);
}

TEST(SyntheticDifferential, ImplementQueueTwoEndTraffic) {
    ProfilingSession session;
    const InstanceId id = reg(session, DsKind::List, "Queueish");
    std::uint32_t size = 0;
    for (int i = 0; i < 30; ++i) {
        session.record(id, OpKind::Add, size, size + 1);
        ++size;
    }
    for (int i = 0; i < 45; ++i) {
        session.record(id, OpKind::Add, size, size + 1);
        ++size;
        session.record(id, OpKind::Get, 0, size);
        session.record(id, OpKind::Get, size - 1, size);
        --size;
        session.record(id, OpKind::RemoveAt, 0, size);
    }
    session.stop();
    EXPECT_TRUE(has_kind(Dsspy{}.analyze(session),
                         UseCaseKind::ImplementQueue));
    expect_equivalent(session);
}

TEST(SyntheticDifferential, StackImplementationCommonEnd) {
    ProfilingSession session;
    const InstanceId id = reg(session, DsKind::List, "Stackish");
    std::uint32_t size = 0;
    for (int round = 0; round < 15; ++round) {
        session.record(id, OpKind::Add, size, size + 1);
        ++size;
        session.record(id, OpKind::Add, size, size + 1);
        ++size;
        session.record(id, OpKind::RemoveAt, size - 1, size - 1);
        --size;
        session.record(id, OpKind::RemoveAt, size - 1, size - 1);
        --size;
    }
    session.stop();
    EXPECT_TRUE(has_kind(Dsspy{}.analyze(session),
                         UseCaseKind::StackImplementation));
    expect_equivalent(session);
}

TEST(SyntheticDifferential, InsertDeleteFrontAndArrayResizes) {
    ProfilingSession session;
    const InstanceId front = reg(session, DsKind::List, "FrontChurn");
    std::uint32_t size = 0;
    for (int i = 0; i < 60; ++i) session.record(front, OpKind::InsertAt, 0, ++size);
    for (int i = 0; i < 60; ++i) session.record(front, OpKind::RemoveAt, 0, --size);
    const InstanceId arr = reg(session, DsKind::Array, "GrowingArray", 2);
    std::uint32_t cap = 4;
    for (int i = 0; i < 12; ++i) {
        session.record(arr, OpKind::Resize, kWholeContainer, cap *= 2);
        for (std::uint32_t p = 0; p < 4; ++p)
            session.record(arr, OpKind::Set, p, cap);
    }
    session.stop();
    EXPECT_TRUE(has_kind(Dsspy{}.analyze(session),
                         UseCaseKind::InsertDeleteFront));
    expect_equivalent(session);
}

TEST(SyntheticDifferential, FrequentSearchAndLongRead) {
    ProfilingSession session;
    const InstanceId id = reg(session, DsKind::List, "Searchy");
    for (int i = 0; i < 100; ++i)
        session.record(id, OpKind::Add, i, static_cast<std::uint32_t>(i + 1));
    for (int sweep = 0; sweep < 12; ++sweep)
        for (int i = 0; i < 100; ++i) session.record(id, OpKind::Get, i, 100);
    for (int i = 0; i < 1100; ++i)
        session.record(id, OpKind::IndexOf, i % 100, 100);
    session.stop();
    const AnalysisResult pm = Dsspy{}.analyze(session);
    EXPECT_TRUE(has_kind(pm, UseCaseKind::FrequentSearch));
    EXPECT_TRUE(has_kind(pm, UseCaseKind::FrequentLongRead));
    expect_equivalent(session);
}

TEST(SyntheticDifferential, WholeContainerOpsAndForAll) {
    ProfilingSession session;
    const InstanceId id = reg(session, DsKind::List, "WholeOps");
    for (int i = 0; i < 50; ++i)
        session.record(id, OpKind::Add, i, static_cast<std::uint32_t>(i + 1));
    for (int i = 0; i < 5; ++i)
        session.record(id, OpKind::ForEach, kWholeContainer, 50);
    session.record(id, OpKind::Reverse, kWholeContainer, 50);
    session.record(id, OpKind::CopyTo, kWholeContainer, 50);
    session.record(id, OpKind::Clear, kWholeContainer, 0);
    session.stop();
    expect_equivalent(session);
}

TEST(SyntheticDifferential, InterleavedThreadsOnSharedInstance) {
    ProfilingSession session;
    const InstanceId id = reg(session, DsKind::List, "SharedByThreads");
    for (int i = 0; i < 100; ++i)
        session.record(id, OpKind::Add, i, static_cast<std::uint32_t>(i + 1));
    auto worker = [&session, id](int lane) {
        for (int round = 0; round < 30; ++round)
            for (int i = lane; i < 100; i += 2)
                session.record(id, OpKind::Get, i, 100);
    };
    {
        std::jthread a(worker, 0);
        std::jthread b(worker, 1);
    }
    session.stop();
    EXPECT_GE(session.thread_count(), 2u);
    expect_equivalent(session);
}

TEST(SyntheticDifferential, EmptySessionAndEventFreeInstance) {
    ProfilingSession empty;
    empty.stop();
    expect_equivalent(empty);

    ProfilingSession session;
    (void)reg(session, DsKind::List, "NeverTouched");
    const InstanceId used = reg(session, DsKind::List, "Touched", 3);
    for (int i = 0; i < 10; ++i) session.record(used, OpKind::Add, i, i + 1);
    session.mark_deallocated(used);
    session.stop();
    expect_equivalent(session);
}

TEST(SyntheticDifferential, NonDefaultConfigs) {
    ProfilingSession session;
    const InstanceId id = reg(session, DsKind::List, "Configured");
    for (int i = 0; i < 40; ++i)
        session.record(id, OpKind::Add, i, static_cast<std::uint32_t>(i + 1));
    session.record(id, OpKind::Sort, kWholeContainer, 40);
    for (int i = 0; i < 40; ++i) session.record(id, OpKind::Get, i, 40);
    for (int i = 0; i < 30; ++i) session.record(id, OpKind::IndexOf, i, 40);
    session.stop();

    DetectorConfig sensitive;
    sensitive.min_pattern_events = 1;
    sensitive.li_min_phase_events = 5;
    sensitive.sai_min_phase_events = 5;
    sensitive.fs_min_search_ops = 10;
    sensitive.iq_min_events = 5;
    sensitive.flr_min_read_patterns = 1;
    expect_equivalent(session, sensitive);

    DetectorConfig timed = sensitive;
    timed.share_basis = core::ShareBasis::Time;
    expect_equivalent(session, timed);

    DetectorConfig strict;
    strict.min_pattern_events = 7;
    strict.wwr_min_events = 2;
    expect_equivalent(session, strict);
}

// --- streaming trace readers (satellite regression tests) --------------------

struct RecordingSink final : runtime::TraceSink {
    std::vector<InstanceInfo> instances;
    std::map<InstanceId, std::vector<AccessEvent>> events;
    void on_instance(const InstanceInfo& info) override {
        instances.push_back(info);
    }
    void on_events(std::span<const AccessEvent> batch) override {
        for (const AccessEvent& ev : batch) events[ev.instance].push_back(ev);
    }
};

/// A session whose instance metadata is hostile to CSV: commas, escaped
/// quotes, and embedded newlines, with names long enough that any refill
/// boundary lands inside quoted fields.
void drive_hostile_names(ProfilingSession& session) {
    std::string gnarly = "Ty,pe\"quoted\"\nline2<";
    for (int i = 0; i < 12; ++i) gnarly += "pad,\"x\"\nmore";
    gnarly += ">";
    const InstanceId a = session.register_instance(
        DsKind::List, gnarly, {"Cl,ass\"A\"", "Meth\nod,One", 7});
    const InstanceId b = session.register_instance(
        DsKind::Array, "Plain<int>", {"Plain.Class", "Run", 2});
    for (int i = 0; i < 120; ++i) {
        session.record(a, OpKind::Add, i, static_cast<std::uint32_t>(i + 1));
        session.record(b, OpKind::Set, i % 8, 8);
    }
    for (int i = 0; i < 40; ++i) session.record(a, OpKind::Get, i, 120);
}

void expect_stream_matches_slurp(const std::string& bytes,
                                 std::size_t buffer_bytes) {
    SCOPED_TRACE("buffer_bytes=" + std::to_string(buffer_bytes));
    std::istringstream slurp_in(bytes);
    const runtime::Trace trace = runtime::read_trace(slurp_in);

    RecordingSink sink;
    std::istringstream stream_in(bytes);
    const std::size_t delivered =
        runtime::read_trace_stream(stream_in, sink, buffer_bytes);

    EXPECT_EQ(delivered, trace.store.total_events());
    ASSERT_EQ(sink.instances.size(), trace.instances.size());
    for (std::size_t i = 0; i < sink.instances.size(); ++i)
        EXPECT_TRUE(sink.instances[i] == trace.instances[i]);
    for (const InstanceInfo& info : trace.instances) {
        const std::vector<AccessEvent> expected =
            core::instance_events(trace.store, info.id);
        const std::vector<AccessEvent>& got = sink.events[info.id];
        ASSERT_EQ(got.size(), expected.size());
        for (std::size_t i = 0; i < got.size(); ++i)
            EXPECT_TRUE(got[i] == expected[i]);
    }
}

// --- scale -------------------------------------------------------------------

// Declaring n instances must stay linear: a trace of ~100K small instances
// streams in well under a second.  tests/CMakeLists.txt also runs this
// case under a 30 s timeout, so a quadratic declare fails loudly.
TEST(IncrementalScale, DeclaresAndFoldsHundredThousandInstances) {
    constexpr InstanceId kInstances = 100'000;
    IncrementalAnalyzer analyzer;
    std::vector<InstanceInfo> instances(kInstances);
    std::uint64_t seq = 0;
    for (InstanceId id = 0; id < kInstances; ++id) {
        InstanceInfo& info = instances[id];
        info.id = id;
        info.kind = DsKind::List;
        info.type_name = "List<Int32>";
        info.location = {"Scale.Cls", "M", id};
        analyzer.declare_instance(info);
        std::array<AccessEvent, 3> events{};
        for (std::uint32_t i = 0; i < events.size(); ++i) {
            events[i].seq = seq++;
            events[i].time_ns = seq;
            events[i].instance = id;
            events[i].op = OpKind::Add;
            events[i].position = i;
            events[i].size = i + 1;
        }
        analyzer.fold(events);
    }
    EXPECT_EQ(analyzer.events_folded(), 3u * kInstances);
    const StreamReport report = analyzer.finish(instances);
    EXPECT_EQ(report.total_instances(), kInstances);
    EXPECT_EQ(report.list_array_instances(), kInstances);
    EXPECT_EQ(report.total_events(), 3u * kInstances);
}

TEST(StreamingTraceReader, CsvQuoteStateSurvivesEveryBufferBoundary) {
    ProfilingSession session;
    drive_hostile_names(session);
    session.stop();
    std::ostringstream os;
    (void)runtime::write_trace(os, session, runtime::TraceFormat::Csv);
    const std::string bytes = os.str();
    // 64 is the reader's floor; odd sizes walk refill boundaries through
    // quoted fields, escaped quotes, and embedded newlines.
    for (std::size_t buffer : {std::size_t{1}, std::size_t{64},
                               std::size_t{65}, std::size_t{97},
                               std::size_t{1} << 20})
        expect_stream_matches_slurp(bytes, buffer);
}

TEST(StreamingTraceReader, Dst1PrefixCarryMatchesSlurp) {
    ProfilingSession session;
    drive_hostile_names(session);
    session.stop();
    std::ostringstream os;
    (void)runtime::write_trace(os, session, runtime::TraceFormat::Binary);
    const std::string bytes = os.str();
    for (std::size_t buffer : {std::size_t{64}, std::size_t{1} << 20})
        expect_stream_matches_slurp(bytes, buffer);
}

TEST(StreamingTraceReader, StreamedAnalyzeMatchesPostmortemBothFormats) {
    // The `dsspy analyze` default path: stream the trace into an
    // IncrementalAnalyzer and compare with slurp + post-mortem analysis.
    ProfilingSession session;
    drive_quickstart(session);
    session.stop();
    for (const runtime::TraceFormat format :
         {runtime::TraceFormat::Csv, runtime::TraceFormat::Binary}) {
        SCOPED_TRACE(format == runtime::TraceFormat::Csv ? "csv" : "binary");
        std::ostringstream os;
        (void)runtime::write_trace(os, session, format);
        const std::string bytes = os.str();

        std::istringstream slurp_in(bytes);
        const runtime::Trace trace = runtime::read_trace(slurp_in);
        const AnalysisResult pm =
            Dsspy{}.analyze(trace.instances, trace.store);

        IncrementalAnalyzer inc;
        struct AnalyzerSink final : runtime::TraceSink {
            IncrementalAnalyzer& inc;
            std::vector<InstanceInfo> instances;
            explicit AnalyzerSink(IncrementalAnalyzer& a) : inc(a) {}
            void on_instance(const InstanceInfo& info) override {
                instances.push_back(info);
                inc.declare_instance(info);
            }
            void on_events(std::span<const AccessEvent> batch) override {
                inc.fold(batch);
            }
        } sink{inc};
        std::istringstream stream_in(bytes);
        (void)runtime::read_trace_stream(stream_in, sink, 128);
        expect_reports_equal(pm, inc.finish(sink.instances));
    }
}

void expect_both_readers_throw_same(const std::string& bytes) {
    std::string slurp_error;
    try {
        std::istringstream in(bytes);
        (void)runtime::read_trace(in);
        FAIL() << "read_trace accepted malformed input";
    } catch (const std::runtime_error& err) {
        slurp_error = err.what();
    }
    try {
        RecordingSink sink;
        std::istringstream in(bytes);
        (void)runtime::read_trace_stream(in, sink, 64);
        FAIL() << "read_trace_stream accepted malformed input";
    } catch (const std::runtime_error& err) {
        EXPECT_EQ(slurp_error, err.what());
    }
}

TEST(StreamingTraceReader, MalformedInputParityWithSlurpReader) {
    // Unterminated quote.
    expect_both_readers_throw_same("I,0,List,\"unterminated,oops\n");
    // Unknown record tag.
    expect_both_readers_throw_same("X,1,2,3\n");
    // Wrong field count on an event record.
    expect_both_readers_throw_same("E,1,2\n");
    // Non-numeric field.
    expect_both_readers_throw_same(
        "I,0,List,T,C,M,1,0\nE,abc,0,0,Get,0,1,0\n");

    // Truncated DST1 payload.
    ProfilingSession session;
    const InstanceId id = reg(session, DsKind::List, "Truncated");
    for (int i = 0; i < 500; ++i)
        session.record(id, OpKind::Add, i, static_cast<std::uint32_t>(i + 1));
    session.stop();
    std::ostringstream os;
    (void)runtime::write_trace(os, session, runtime::TraceFormat::Binary);
    const std::string bytes = os.str();
    expect_both_readers_throw_same(bytes.substr(0, bytes.size() - 7));
}

}  // namespace
}  // namespace dsspy
