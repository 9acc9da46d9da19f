// Stress tests for the rewritten capture path: per-thread sequence blocks,
// amortized timestamps, lock-free channel registration, the grouping of
// captured events into columns at stop(), and the parallel post-mortem
// analysis.  These are the tests the DSSPY_SANITIZE=thread
// build runs under TSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
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
#include "streaming_sink.hpp"

namespace dsspy::runtime {
namespace {

// 8+ producers against a deliberately tiny bound on undelivered rows: the
// collector must apply backpressure (one seq block << events) yet lose
// nothing, deliver in ascending seq order, and the reconciled order must
// stay deterministic.  Producers that finish early leave the watermark at
// their last row, so the others must also get past that without waiting.
TEST(CaptureStress, StreamingEightProducersTinyRingsLoseNothing) {
    constexpr int kThreads = 8;
    constexpr int kPerThread = 50'000;
    ProfilingSession session(CaptureMode::Streaming, /*max_undelivered=*/256);
    std::size_t delivered = 0;
    std::uint64_t last_seq = 0;
    bool ascending = true;
    session.set_event_sink([&](std::span<const AccessEvent> ev) {
        for (const AccessEvent& e : ev) {
            ascending = ascending && (delivered == 0 || last_seq < e.seq);
            last_seq = e.seq;
            ++delivered;
        }
    });
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
        const auto events = core::instance_events(session.store(), id);
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
    EXPECT_EQ(delivered, static_cast<std::size_t>(kThreads) * kPerThread);
    EXPECT_TRUE(ascending);
}

// A thread that records a few events and then stops recording holds the
// watermark in its open seq block, so nothing recorded after it can be
// delivered before stop().  A producer past the undelivered bound must go
// on rather than wait for that thread forever; stop() then delivers
// everything in order.
TEST(CaptureStress, StreamingIdleThreadDoesNotStallProducers) {
    ProfilingSession session(CaptureMode::Streaming, /*max_undelivered=*/1,
                             AnalysisMode::Incremental);
    std::vector<AccessEvent> delivered;
    session.set_event_sink([&delivered](std::span<const AccessEvent> ev) {
        delivered.insert(delivered.end(), ev.begin(), ev.end());
    });
    const InstanceId idle = session.register_instance(
        DsKind::List, "List<Int64>", {"Idle", "Main", 1});
    const InstanceId busy = session.register_instance(
        DsKind::List, "List<Int64>", {"Idle", "Worker", 2});
    for (int i = 0; i < 10; ++i) session.record(idle, OpKind::Add, i, 1);
    constexpr int kWorker = 100'000;
    std::thread worker([&session, busy] {
        for (int i = 0; i < kWorker; ++i)
            session.record(busy, OpKind::Add, i, 1);
    });
    worker.join();
    session.stop();

    ASSERT_EQ(delivered.size(), std::size_t{10} + kWorker);
    for (std::size_t i = 1; i < delivered.size(); ++i)
        ASSERT_LT(delivered[i - 1].seq, delivered[i].seq) << i;
}

// A sink that holds on to its first batch stalls the collector.  While it
// does, the producers must stop at the bound on undelivered rows (rounded
// up to whole seq blocks, plus the one block a delivery may count before
// the sink sees it) instead of running ahead; once it lets go, nothing is
// lost and delivery is strictly ascending in seq.
TEST(CaptureStress, StreamingSinkBoundsUndeliveredRows) {
    constexpr int kThreads = 4;
    constexpr int kPerThread = 40'000;
    constexpr std::uint64_t kBlock = ProfilingSession::kSeqBlockSize;
    // 3000 rounds up to three seq blocks.
    ProfilingSession session(CaptureMode::Streaming, /*max_undelivered=*/3000);
    std::atomic<bool> held{false};
    std::atomic<bool> release{false};
    std::vector<AccessEvent> delivered;
    session.set_event_sink([&](std::span<const AccessEvent> ev) {
        if (!held.exchange(true, std::memory_order_acq_rel))
            while (!release.load(std::memory_order_acquire))
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
        delivered.insert(delivered.end(), ev.begin(), ev.end());
    });
    std::vector<InstanceId> ids;
    for (int t = 0; t < kThreads; ++t)
        ids.push_back(session.register_instance(
            DsKind::List, "List<Int64>",
            {"Bound", "M", static_cast<std::uint32_t>(t)}));
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&session, &ids, t] {
            for (int i = 0; i < kPerThread; ++i)
                session.record(ids[static_cast<std::size_t>(t)], OpKind::Add,
                               i, 1);
        });
    }
    while (!held.load(std::memory_order_acquire))
        std::this_thread::yield();
    const std::uint64_t cap = kThreads * (3 * kBlock + kBlock);
    std::uint64_t peak = 0;
    for (int sample = 0; sample < 100; ++sample) {
        peak = std::max(peak, session.events_recorded());
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    EXPECT_LE(peak, cap);
    release.store(true, std::memory_order_release);
    for (auto& th : threads) th.join();
    session.stop();

    ASSERT_EQ(delivered.size(), static_cast<std::size_t>(kThreads) * kPerThread);
    std::vector<std::int64_t> next(kThreads, 0);
    for (std::size_t i = 0; i < delivered.size(); ++i) {
        if (i > 0) {
            ASSERT_LT(delivered[i - 1].seq, delivered[i].seq) << i;
        }
        const AccessEvent& ev = delivered[i];
        ASSERT_LT(ev.instance, static_cast<InstanceId>(kThreads));
        EXPECT_EQ(ev.position, next[ev.instance]++);
    }
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
    // Threads take turns in stretches that do not align with seq blocks, so
    // the interleaving does not depend on the host running them in
    // parallel: each thread leaves a block half-filled while the others
    // record above it.
    constexpr int kTurn = 700;
    ProfilingSession session(GetParam(), /*max_undelivered=*/512);
    const dsspy_test::StreamingSink sink(session);
    const InstanceId shared = session.register_instance(
        DsKind::List, "List<Int64>", {"Recon", "M", 1});

    std::atomic<int> turn{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&session, shared, &turn, t] {
            for (int begin = 0; begin < kPerThread; begin += kTurn) {
                while (turn.load(std::memory_order_acquire) !=
                       begin / kTurn * kThreads + t)
                    std::this_thread::yield();
                const int end = std::min(begin + kTurn, int{kPerThread});
                // Encode (thread, op index) in the position so the merged
                // stream can be audited per thread.
                for (int i = begin; i < end; ++i)
                    session.record(shared, OpKind::Add,
                                   t * 1'000'000LL + i, 1);
                turn.fetch_add(1, std::memory_order_release);
            }
        });
    }
    for (auto& th : threads) th.join();
    session.stop();
    sink.expect_matches_store(session);

    const auto events = core::instance_events(session.store(), shared);
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

    const auto events = core::instance_events(session.store(), id);
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
    constexpr int kPerThread = 5 * 1024 + 77;
    // Threads take turns in stretches that do not align with seq blocks,
    // so each thread's blocks interleave with the others' in seq space and
    // an ordered merge must switch channels inside every chunk chain.
    constexpr int kTurn = 700;
    for (const CaptureMode mode :
         {CaptureMode::Buffered, CaptureMode::Streaming}) {
        ProfilingSession session(mode, /*max_undelivered=*/512);
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
        std::atomic<int> turn{0};
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([&session, shared, &own, &turn, t] {
                for (int begin = 0; begin < kPerThread; begin += kTurn) {
                    while (turn.load(std::memory_order_acquire) !=
                           begin / kTurn * kThreads + t)
                        std::this_thread::yield();
                    const int end = std::min(begin + kTurn, int{kPerThread});
                    for (int i = begin; i < end; ++i) {
                        session.record(shared, OpKind::Add,
                                       t * 100'000LL + i, 1);
                        if (i % 3 == 0)
                            session.record(own[static_cast<std::size_t>(t)],
                                           OpKind::Get, i, 2);
                    }
                    turn.fetch_add(1, std::memory_order_release);
                }
            });
        }
        for (auto& th : threads) th.join();
        session.stop();

        // The sink contract: ascending global seq order, across chunk
        // ends, seq blocks and the partly filled final blocks.
        for (std::size_t i = 1; i < delivered.size(); ++i)
            ASSERT_LT(delivered[i - 1].seq, delivered[i].seq)
                << (mode == CaptureMode::Buffered ? "buffered" : "streaming")
                << " delivery " << i;

        std::stable_sort(delivered.begin(), delivered.end(),
                         [](const AccessEvent& a, const AccessEvent& b) {
                             if (a.instance != b.instance)
                                 return a.instance < b.instance;
                             return a.seq < b.seq;
                         });
        const ColumnStore& columns = session.store();
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
    EXPECT_EQ(core::instance_events(session.store(), id).size(),
              static_cast<std::size_t>(kThreads) * kPerThread);
    // Late records are dropped (and would assert in debug builds if a
    // recording thread were still live — here the thread-local channel is
    // sealed, so the record is silently ignored).
    EXPECT_EQ(session.events_recorded(),
              static_cast<std::uint64_t>(kThreads) * kPerThread);
}

// The compact chunk stream of the round-trip tests: 4096 + 8192 + 1500
// events fill the first two chunks exactly and end inside the third, in a
// partial seq block (1500 = 1024 + 476) and a partial timestamp group
// (1500 = 23 * 64 + 28).  Event k of a thread goes to instance k % 3 with
// an op, position and size that k determines.
constexpr std::size_t kCompactEvents = 4096 + 8192 + 1500;
constexpr std::array<OpKind, 5> kCompactOps = {
    OpKind::Add, OpKind::Get, OpKind::Set, OpKind::InsertAt,
    OpKind::RemoveAt};

struct CompactRow {
    OpKind op;
    std::int64_t position;
    std::uint32_t size;
};

CompactRow compact_row(std::size_t thread, std::size_t k) {
    return CompactRow{kCompactOps[k % kCompactOps.size()],
                      static_cast<std::int64_t>(thread * 1'000'000 + k),
                      static_cast<std::uint32_t>(k * 7 % 1000 + 1)};
}

std::array<InstanceId, 3> register_compact_instances(
    ProfilingSession& session) {
    std::array<InstanceId, 3> ids{};
    for (std::uint32_t i = 0; i < ids.size(); ++i)
        ids[i] = session.register_instance(DsKind::List, "List<Int64>",
                                           {"Compact", "M", i});
    return ids;
}

void record_compact_stream(ProfilingSession& session,
                           const std::array<InstanceId, 3>& ids,
                           std::size_t thread) {
    for (std::size_t k = 0; k < kCompactEvents; ++k) {
        const CompactRow row = compact_row(thread, k);
        session.record(ids[k % ids.size()], row.op, row.position, row.size);
    }
}

/// Every delivered event grouped by instance, seq order within each.
std::vector<std::vector<AccessEvent>> group_delivered(
    const std::vector<AccessEvent>& delivered, std::size_t instances) {
    std::vector<std::vector<AccessEvent>> out(instances);
    for (const AccessEvent& ev : delivered) out.at(ev.instance).push_back(ev);
    return out;
}

// Buffered chunks store only position, instance, size and op per row; seq,
// timestamp and thread are rebuilt from the chunk at stop().  One thread's
// stream crosses two chunk boundaries and ends in a partial seq block and
// a partial timestamp group; every field must come back, with the seq and
// timestamp structure the capture path promises, and the event sink (a
// separate read of the same chunks) must deliver exactly the store's rows.
TEST(CaptureStress, CompactChunksRoundTripAcrossBoundaries) {
    // Past the first two chunks (4K rows, then 8K rows).
    static_assert(kCompactEvents > ProfilingSession::kFirstChunkEvents * 3);
    static_assert(kCompactEvents % ProfilingSession::kSeqBlockSize != 0);
    static_assert(kCompactEvents % ProfilingSession::kTimestampStride != 0);

    ProfilingSession session(CaptureMode::Buffered);
    std::vector<AccessEvent> delivered;
    session.set_event_sink([&delivered](std::span<const AccessEvent> ev) {
        delivered.insert(delivered.end(), ev.begin(), ev.end());
    });
    const std::array<InstanceId, 3> ids = register_compact_instances(session);
    record_compact_stream(session, ids, 0);
    session.stop();
    ASSERT_EQ(session.events_recorded(), kCompactEvents);

    // Columns round-trip every field; rebuild the stream in record order
    // (the position carries k) to audit the derived seqs and timestamps.
    std::vector<AccessEvent> stream(kCompactEvents);
    const ColumnStore& columns = session.store();
    ASSERT_EQ(columns.total_events(), kCompactEvents);
    for (std::size_t i = 0; i < ids.size(); ++i) {
        const ColumnRange range = columns.range(ids[i]);
        std::size_t k = i;
        ASSERT_EQ(range.size(), (kCompactEvents - i + 2) / 3);
        for (std::size_t r = range.begin; r < range.end; ++r, k += 3) {
            const CompactRow want = compact_row(0, k);
            AccessEvent got = columns.row(r);
            ASSERT_EQ(got.op, want.op) << "row " << r;
            ASSERT_EQ(got.position, want.position) << "row " << r;
            ASSERT_EQ(got.size, want.size) << "row " << r;
            ASSERT_EQ(got.thread, 0u) << "row " << r;
            got.instance = ids[i];
            stream[k] = got;
        }
    }
    std::set<std::uint64_t> readings;
    for (const AccessEvent& ev : stream) readings.insert(ev.time_ns);
    // One clock reading per 64-row group, not per seq block: the readings
    // (about 1 us apart) far outnumber the 14 seq blocks.
    EXPECT_GT(readings.size(), 2 * (kCompactEvents / 1024 + 1));
    for (std::size_t k = 1; k < kCompactEvents; ++k) {
        const std::uint64_t block = ProfilingSession::kSeqBlockSize;
        if (k % block != 0) {
            ASSERT_EQ(stream[k].seq, stream[k - 1].seq + 1) << "event " << k;
        } else {
            ASSERT_GT(stream[k].seq, stream[k - 1].seq) << "event " << k;
        }
        if (k % ProfilingSession::kTimestampStride != 0) {
            ASSERT_EQ(stream[k].time_ns, stream[k - 1].time_ns)
                << "event " << k;
        } else {
            ASSERT_GE(stream[k].time_ns, stream[k - 1].time_ns)
                << "event " << k;
        }
    }

    // The sink's merge reads the same chunks row by row: per instance it
    // delivers exactly the store's rows.
    ASSERT_EQ(delivered.size(), kCompactEvents);
    const auto by_instance = group_delivered(delivered, ids.size());
    for (std::size_t i = 0; i < ids.size(); ++i) {
        const ColumnRange range = columns.range(ids[i]);
        ASSERT_EQ(by_instance[i].size(), range.size());
        for (std::size_t j = 0; j < range.size(); ++j) {
            AccessEvent want = columns.row(range.begin + j);
            want.instance = ids[i];
            ASSERT_EQ(by_instance[i][j], want) << "instance " << i;
        }
    }

    // The incremental path (a sink, no store) delivers the same rows; only
    // the clock readings differ between the two sessions.
    ProfilingSession incremental(CaptureMode::Buffered, 64 * 1024,
                                 AnalysisMode::Incremental);
    std::vector<AccessEvent> streamed;
    incremental.set_event_sink([&streamed](std::span<const AccessEvent> ev) {
        streamed.insert(streamed.end(), ev.begin(), ev.end());
    });
    record_compact_stream(incremental, register_compact_instances(incremental),
                          0);
    incremental.stop();
    EXPECT_EQ(incremental.store().total_events(), 0u);
    ASSERT_EQ(streamed.size(), kCompactEvents);
    const auto streamed_by_instance = group_delivered(streamed, ids.size());
    for (std::size_t i = 0; i < ids.size(); ++i) {
        ASSERT_EQ(streamed_by_instance[i].size(), by_instance[i].size());
        for (std::size_t j = 0; j < by_instance[i].size(); ++j) {
            AccessEvent got = streamed_by_instance[i][j];
            got.time_ns = by_instance[i][j].time_ns;
            ASSERT_EQ(got, by_instance[i][j]) << "instance " << i;
        }
    }
}

// Four threads each record the compact stream into the same three
// instances: every event arrives, and each thread's events keep their
// program order within every instance and carry one thread id.
TEST(CaptureStress, CompactChunksFourThreadsKeepProgramOrder) {
    constexpr std::size_t kThreads = 4;
    ProfilingSession session(CaptureMode::Buffered);
    const std::array<InstanceId, 3> ids = register_compact_instances(session);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t)
        threads.emplace_back(
            [&session, &ids, t] { record_compact_stream(session, ids, t); });
    for (auto& th : threads) th.join();
    session.stop();
    ASSERT_EQ(session.events_recorded(), kThreads * kCompactEvents);
    ASSERT_EQ(session.thread_count(), kThreads);

    const ColumnStore& columns = session.store();
    ASSERT_EQ(columns.total_events(), kThreads * kCompactEvents);
    std::set<std::uint16_t> thread_ids;
    for (std::size_t i = 0; i < ids.size(); ++i) {
        const ColumnRange range = columns.range(ids[i]);
        ASSERT_EQ(range.size(), kThreads * ((kCompactEvents - i + 2) / 3));
        std::array<std::size_t, kThreads> next_k;
        next_k.fill(i);
        std::array<int, kThreads> tid;
        tid.fill(-1);
        for (std::size_t r = range.begin; r < range.end; ++r) {
            const AccessEvent ev = columns.row(r);
            if (r > range.begin) {
                ASSERT_LT(columns.row(r - 1).seq, ev.seq) << "row " << r;
            }
            const auto t = static_cast<std::size_t>(ev.position / 1'000'000);
            ASSERT_LT(t, kThreads);
            const CompactRow want = compact_row(t, next_k[t]);
            ASSERT_EQ(ev.position, want.position)
                << "thread " << t << " reordered against itself";
            ASSERT_EQ(ev.op, want.op);
            ASSERT_EQ(ev.size, want.size);
            if (tid[t] < 0) tid[t] = ev.thread;
            ASSERT_EQ(ev.thread, tid[t]);
            next_k[t] += 3;
        }
        for (std::size_t t = 0; t < kThreads; ++t) {
            EXPECT_GE(next_k[t], kCompactEvents);
            thread_ids.insert(static_cast<std::uint16_t>(tid[t]));
        }
    }
    EXPECT_EQ(thread_ids.size(), kThreads);
}

}  // namespace
}  // namespace dsspy::runtime
