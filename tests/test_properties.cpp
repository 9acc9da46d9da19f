// Property-based tests: invariants of the full pipeline over randomized
// workloads (parameterized seeds).
#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "core/dsspy.hpp"
#include "ds/ds.hpp"
#include "runtime/trace_io.hpp"
#include "support/rng.hpp"
#include "streaming_sink.hpp"

namespace dsspy {
namespace {

using core::AnalysisResult;
using core::Dsspy;
using core::InstanceAnalysis;
using core::Pattern;
using runtime::CaptureMode;
using runtime::ProfilingSession;

/// Random mixed workload over several instances; returns the session.
void random_workload(ProfilingSession& session, std::uint64_t seed) {
    support::Rng rng(seed);
    const std::size_t lists = 2 + rng.next_below(4);
    std::vector<ds::ProfiledList<std::int64_t>> instances;
    instances.reserve(lists);
    for (std::size_t n = 0; n < lists; ++n)
        instances.emplace_back(&session,
                               support::SourceLoc{
                                   "Prop", "L",
                                   static_cast<std::uint32_t>(n)});

    for (int step = 0; step < 4000; ++step) {
        auto& list = instances[rng.next_below(instances.size())];
        switch (rng.next_below(8)) {
            case 0:
            case 1:
            case 2:
                list.add(static_cast<std::int64_t>(rng.next_below(100)));
                break;
            case 3:
                if (!list.empty())
                    (void)list.get(rng.next_below(list.count()));
                break;
            case 4:
                if (!list.empty())
                    list.set(rng.next_below(list.count()),
                             static_cast<std::int64_t>(rng.next_below(100)));
                break;
            case 5:
                if (!list.empty()) list.remove_at(rng.next_below(list.count()));
                break;
            case 6:
                (void)list.index_of(
                    static_cast<std::int64_t>(rng.next_below(100)));
                break;
            default:
                // Occasional sweep to create patterns.
                for (std::size_t i = 0; i < list.count(); ++i)
                    (void)list.get(i);
                break;
        }
    }
}

class PipelinePropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(PipelinePropertyTest, PatternInvariants) {
    ProfilingSession session;
    random_workload(session, GetParam());
    session.stop();
    const AnalysisResult analysis = Dsspy{}.analyze(session);

    for (const InstanceAnalysis& ia : analysis.instances()) {
        const std::size_t events = ia.profile.total_events();
        // Per-thread patterns must not overlap and must lie inside the
        // profile.  (Synthetic ForAll patterns occupy a single event.)
        std::map<runtime::ThreadId, std::uint32_t> last_end;
        for (const Pattern& p : ia.patterns) {
            EXPECT_LE(p.first, p.last);
            EXPECT_LT(p.last, events);
            EXPECT_GT(p.length, 0u);
            EXPECT_GE(p.coverage, 0.0);
            EXPECT_LE(p.coverage, 1.0);
            if (!p.synthetic) {
                EXPECT_EQ(p.length,
                          static_cast<std::uint32_t>(p.last - p.first + 1));
            }
            auto [it, inserted] = last_end.try_emplace(p.thread, p.last);
            if (!inserted) {
                EXPECT_GT(p.first, it->second)
                    << "patterns overlap on thread " << p.thread;
                it->second = p.last;
            }
            // Direction consistency: forward patterns end at or after
            // their start, backward before.
            using core::PatternKind;
            if (p.kind == PatternKind::ReadForward ||
                p.kind == PatternKind::WriteForward) {
                EXPECT_LE(p.start_pos, p.end_pos);
            }
            if (p.kind == PatternKind::ReadBackward ||
                p.kind == PatternKind::WriteBackward) {
                EXPECT_GE(p.start_pos, p.end_pos);
            }
        }
    }
}

TEST_P(PipelinePropertyTest, PhasesPartitionTheProfile) {
    ProfilingSession session;
    random_workload(session, GetParam());
    session.stop();
    const AnalysisResult analysis = Dsspy{}.analyze(session);

    for (const InstanceAnalysis& ia : analysis.instances()) {
        const auto& phases = ia.profile.phases();
        if (ia.profile.total_events() == 0) {
            EXPECT_TRUE(phases.empty());
            continue;
        }
        ASSERT_FALSE(phases.empty());
        EXPECT_EQ(phases.front().first, 0u);
        EXPECT_EQ(phases.back().last, ia.profile.total_events() - 1);
        for (std::size_t i = 1; i < phases.size(); ++i) {
            EXPECT_EQ(phases[i].first, phases[i - 1].last + 1);
            // Adjacent phases have different access types (maximality).
            EXPECT_NE(phases[i].type, phases[i - 1].type);
        }
        // Type counts from phases match direct counts.
        std::array<std::size_t, core::kAccessTypeCount> from_phases{};
        for (const auto& phase : phases)
            from_phases[static_cast<std::size_t>(phase.type)] +=
                phase.length();
        for (std::size_t t = 0; t < core::kAccessTypeCount; ++t)
            EXPECT_EQ(from_phases[t],
                      ia.profile.count(static_cast<core::AccessType>(t)));
    }
}

TEST_P(PipelinePropertyTest, UseCasesAreConsistentlyLabeled) {
    ProfilingSession session;
    random_workload(session, GetParam());
    session.stop();
    const AnalysisResult analysis = Dsspy{}.analyze(session);

    std::size_t parallel_flagged = 0;
    for (const InstanceAnalysis& ia : analysis.instances()) {
        for (const core::UseCase& uc : ia.use_cases) {
            EXPECT_EQ(uc.parallel_potential(),
                      core::has_parallel_potential(uc.kind));
            EXPECT_FALSE(uc.reason().empty());
            EXPECT_FALSE(uc.recommendation().empty());
            EXPECT_EQ(uc.instance.id, ia.profile.info().id);
        }
        if (ia.flagged_parallel()) ++parallel_flagged;
    }
    EXPECT_EQ(parallel_flagged, analysis.flagged_instances());
    EXPECT_LE(analysis.flagged_instances(),
              analysis.list_array_instances());
    EXPECT_GE(analysis.search_space_reduction(), 0.0);
    EXPECT_LE(analysis.search_space_reduction(), 1.0);
}

TEST_P(PipelinePropertyTest, CaptureModesAgree) {
    auto counts = [this](CaptureMode mode) {
        ProfilingSession session(mode);
        const dsspy_test::StreamingSink sink(session);
        random_workload(session, GetParam());
        session.stop();
        sink.expect_matches_store(session);
        const AnalysisResult analysis = Dsspy{}.analyze(session);
        std::ostringstream fingerprint;
        for (const InstanceAnalysis& ia : analysis.instances()) {
            fingerprint << ia.profile.total_events() << ':'
                        << ia.patterns.size() << ':' << ia.use_cases.size()
                        << ';';
        }
        return fingerprint.str();
    };
    EXPECT_EQ(counts(CaptureMode::Buffered), counts(CaptureMode::Streaming));
}

TEST_P(PipelinePropertyTest, TraceRoundTripIsLossless) {
    ProfilingSession session;
    random_workload(session, GetParam());
    session.stop();

    std::stringstream buffer;
    runtime::write_trace(buffer, session);
    const runtime::Trace trace = runtime::read_trace(buffer);

    const Dsspy analyzer;
    const AnalysisResult live = analyzer.analyze(session);
    const AnalysisResult offline =
        analyzer.analyze(trace.instances, trace.store);
    EXPECT_EQ(live.use_case_counts(), offline.use_case_counts());
    EXPECT_EQ(live.total_events(), offline.total_events());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelinePropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34),
                         [](const auto& info) {
                             return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace dsspy
