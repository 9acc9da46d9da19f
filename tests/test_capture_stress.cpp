// Stress tests for the rewritten capture path: per-thread sequence blocks,
// amortized timestamps, lock-free channel registration, the grouping of
// captured events into columns at stop(), and the parallel post-mortem
// analysis.  These are the tests the DSSPY_SANITIZE=thread
// build runs under TSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <span>
#include <thread>
#include <vector>

#include "core/dsspy.hpp"
#include "corpus/program_model.hpp"
#include "corpus/workload.hpp"
#include "parallel/thread_pool.hpp"
#include "runtime/column_store.hpp"
#include "runtime/session.hpp"

namespace dsspy::runtime {
namespace {

// 8+ producers against deliberately tiny rings: the collector must apply
// backpressure (capacity 256 << events) yet lose nothing, and the
// reconciled order must stay deterministic.
TEST(CaptureStress, StreamingEightProducersTinyRingsLoseNothing) {
    constexpr int kThreads = 8;
    constexpr int kPerThread = 50'000;
    ProfilingSession session(CaptureMode::Streaming, /*ring_capacity=*/256);
    std::vector<InstanceId> ids;
    ids.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
        ids.push_back(session.register_instance(
            DsKind::List, "List<Int64>",
            {"Stress", "M", static_cast<std::uint32_t>(t)}));

    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&session, &ids, t] {
            for (int i = 0; i < kPerThread; ++i)
                session.record(ids[static_cast<std::size_t>(t)], OpKind::Add,
                               i, static_cast<std::uint32_t>(i + 1));
        });
    }
    for (auto& th : threads) th.join();
    session.stop();

    // Zero loss, per-thread program order, and globally unique sequence
    // numbers (the reconciled total order is a valid interleaving).
    std::set<std::uint64_t> all_seqs;
    for (const InstanceId id : ids) {
        const auto events = session.store().events(id);
        ASSERT_EQ(events.size(), static_cast<std::size_t>(kPerThread));
        for (std::size_t i = 0; i < events.size(); ++i) {
            EXPECT_EQ(events[i].position, static_cast<std::int64_t>(i));
            if (i > 0) {
                EXPECT_LT(events[i - 1].seq, events[i].seq);
                EXPECT_LE(events[i - 1].time_ns, events[i].time_ns);
            }
            all_seqs.insert(events[i].seq);
        }
    }
    EXPECT_EQ(all_seqs.size(),
              static_cast<std::size_t>(kThreads) * kPerThread);
    EXPECT_EQ(session.events_recorded(),
              static_cast<std::uint64_t>(kThreads) * kPerThread);
    EXPECT_EQ(session.thread_count(), static_cast<std::size_t>(kThreads));
}

class ReconciliationTest : public ::testing::TestWithParam<CaptureMode> {};

// Several threads interleave on ONE shared instance.  After stop() the
// instance's merged sequence must contain every thread's events as a
// subsequence in program order — the per-thread sequence blocks must never
// reorder a thread against itself.
TEST_P(ReconciliationTest, SharedInstancePreservesPerThreadProgramOrder) {
    constexpr int kThreads = 6;
    // > kSeqBlockSize events per thread so every thread crosses several
    // block boundaries.
    constexpr int kPerThread = 3 * 1024 + 257;
    ProfilingSession session(GetParam(), /*ring_capacity=*/512);
    const InstanceId shared = session.register_instance(
        DsKind::List, "List<Int64>", {"Recon", "M", 1});

    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&session, shared, t] {
            for (int i = 0; i < kPerThread; ++i) {
                // Encode (thread, op index) in the position so the merged
                // stream can be audited per thread.
                const std::int64_t pos = t * 1'000'000LL + i;
                session.record(shared, OpKind::Add, pos, 1);
            }
        });
    }
    for (auto& th : threads) th.join();
    session.stop();

    const auto events = session.store().events(shared);
    ASSERT_EQ(events.size(),
              static_cast<std::size_t>(kThreads) * kPerThread);
    std::vector<std::int64_t> next_index(kThreads, 0);
    std::uint64_t prev_seq = 0;
    bool first = true;
    for (const AccessEvent& ev : events) {
        if (!first) EXPECT_LT(prev_seq, ev.seq);  // strict total order
        prev_seq = ev.seq;
        first = false;
        const auto t = static_cast<std::size_t>(ev.position / 1'000'000LL);
        const std::int64_t i = ev.position % 1'000'000LL;
        ASSERT_LT(t, static_cast<std::size_t>(kThreads));
        EXPECT_EQ(i, next_index[t]) << "thread " << t
                                    << " reordered against itself";
        ++next_index[t];
    }
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(next_index[static_cast<std::size_t>(t)], kPerThread);
}

INSTANTIATE_TEST_SUITE_P(BothModes, ReconciliationTest,
                         ::testing::Values(CaptureMode::Buffered,
                                           CaptureMode::Streaming),
                         [](const auto& info) {
                             return info.param == CaptureMode::Buffered
                                        ? "Buffered"
                                        : "Streaming";
                         });

// Amortized timestamps must stay monotonic per thread and move forward
// across stride boundaries.
TEST(CaptureStress, AmortizedTimestampsAreMonotonicAndAdvance) {
    ProfilingSession session(CaptureMode::Buffered);
    const InstanceId id = session.register_instance(
        DsKind::List, "List<Int64>", {"Ts", "M", 1});
    constexpr int kEvents = 64 * 1024;
    for (int i = 0; i < kEvents; ++i)
        session.record(id, OpKind::Add, i, 1);
    session.stop();

    const auto events = session.store().events(id);
    ASSERT_EQ(events.size(), static_cast<std::size_t>(kEvents));
    std::set<std::uint64_t> distinct;
    for (std::size_t i = 0; i < events.size(); ++i) {
        if (i > 0) EXPECT_LE(events[i - 1].time_ns, events[i].time_ns);
        distinct.insert(events[i].time_ns);
    }
    // The clock is read once per kTimestampStride events plus once per
    // sequence-block boundary, so there must be multiple distinct readings
    // over 64K events — but far fewer than one per event.
    EXPECT_GT(distinct.size(), 1u);
    EXPECT_LE(distinct.size(),
              events.size() / ProfilingSession::kTimestampStride +
                  events.size() / ProfilingSession::kSeqBlockSize + 2);
}

// stop() groups the captured events straight into columns.  Several
// threads share one instance (and each also owns one), so the shared
// range interleaves every thread's chunks and must come out as a stable
// sort by seq — with the true seq column.  The ordered event sink sees
// the same events through an independent path (per-thread merge by seq)
// and is the oracle.
TEST(CaptureStress, StopGroupsColumnsInSeqOrderInBothModes) {
    constexpr int kThreads = 4;
    constexpr int kPerThread = 2 * 1024 + 77;
    for (const CaptureMode mode :
         {CaptureMode::Buffered, CaptureMode::Streaming}) {
        ProfilingSession session(mode, /*ring_capacity=*/512);
        std::vector<AccessEvent> delivered;
        session.set_event_sink([&delivered](std::span<const AccessEvent> ev) {
            delivered.insert(delivered.end(), ev.begin(), ev.end());
        });
        const InstanceId shared = session.register_instance(
            DsKind::List, "List<Int64>", {"Group", "Shared", 1});
        std::vector<InstanceId> own;
        for (int t = 0; t < kThreads; ++t)
            own.push_back(session.register_instance(
                DsKind::List, "List<Int64>",
                {"Group", "Own", static_cast<std::uint32_t>(t)}));
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([&session, shared, &own, t] {
                for (int i = 0; i < kPerThread; ++i) {
                    session.record(shared, OpKind::Add, t * 100'000LL + i, 1);
                    if (i % 3 == 0)
                        session.record(own[static_cast<std::size_t>(t)],
                                       OpKind::Get, i, 2);
                }
            });
        }
        for (auto& th : threads) th.join();
        session.stop();

        std::stable_sort(delivered.begin(), delivered.end(),
                         [](const AccessEvent& a, const AccessEvent& b) {
                             if (a.instance != b.instance)
                                 return a.instance < b.instance;
                             return a.seq < b.seq;
                         });
        const ColumnStore& columns = session.store().columns();
        ASSERT_EQ(columns.total_events(), delivered.size());
        std::size_t row = 0;
        for (InstanceId id = 0; id < columns.instance_slots(); ++id) {
            const ColumnRange range = columns.range(id);
            ASSERT_EQ(range.begin, row);
            for (std::size_t r = range.begin; r < range.end; ++r, ++row) {
                AccessEvent got = columns.row(r);
                got.instance = id;
                ASSERT_EQ(got, delivered[r])
                    << (mode == CaptureMode::Buffered ? "buffered"
                                                      : "streaming")
                    << " row " << r;
            }
        }
        EXPECT_EQ(columns.range(shared).size(),
                  static_cast<std::size_t>(kThreads) * kPerThread);
    }
}

// Parallel analyze must be bit-identical to sequential analyze over the
// full study corpus (every program model's workload).
TEST(CaptureStress, ParallelAnalyzeMatchesSequentialOnCorpus) {
    par::ThreadPool pool(4);
    const core::Dsspy analyzer;
    for (const corpus::ProgramModel* program : corpus::study15_programs()) {
        ProfilingSession session;
        corpus::run_study15_workload(*program, &session, 7);
        session.stop();

        const core::AnalysisResult seq = analyzer.analyze(session);
        const core::AnalysisResult par_res = analyzer.analyze(session, &pool);

        ASSERT_EQ(seq.instances().size(), par_res.instances().size())
            << program->name;
        for (std::size_t i = 0; i < seq.instances().size(); ++i) {
            const core::InstanceAnalysis& a = seq.instances()[i];
            const core::InstanceAnalysis& b = par_res.instances()[i];
            EXPECT_EQ(a.patterns, b.patterns) << program->name;
            EXPECT_EQ(a.use_cases, b.use_cases) << program->name;
            EXPECT_EQ(a.profile.info(), b.profile.info()) << program->name;
        }
        EXPECT_EQ(seq.flagged_instances(), par_res.flagged_instances());
        EXPECT_EQ(seq.total_events(), par_res.total_events());
        EXPECT_EQ(seq.search_space_reduction(),
                  par_res.search_space_reduction());
    }
}

// Buffered stop() handshake: all events recorded by quiesced threads are
// merged, and counts agree across the acquire/release boundary.
TEST(CaptureStress, BufferedQuiesceHandshakeMergesEverything) {
    constexpr int kThreads = 8;
    constexpr int kPerThread = 30'000;  // crosses several chunk boundaries
    ProfilingSession session(CaptureMode::Buffered);
    const InstanceId id = session.register_instance(
        DsKind::List, "List<Int64>", {"Quiesce", "M", 1});
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&session, id] {
            for (int i = 0; i < kPerThread; ++i)
                session.record(id, OpKind::Get, i, 100);
        });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(session.events_recorded(),
              static_cast<std::uint64_t>(kThreads) * kPerThread);
    session.stop();
    EXPECT_EQ(session.store().events(id).size(),
              static_cast<std::size_t>(kThreads) * kPerThread);
    // Late records are dropped (and would assert in debug builds if a
    // recording thread were still live — here the thread-local channel is
    // sealed, so the record is silently ignored).
    EXPECT_EQ(session.events_recorded(),
              static_cast<std::uint64_t>(kThreads) * kPerThread);
}

}  // namespace
}  // namespace dsspy::runtime
