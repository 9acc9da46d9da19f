// Unit tests for dsspy::runtime: registry, store, session.
#include <gtest/gtest.h>

#include <span>
#include <thread>
#include <vector>

#include "core/dsspy.hpp"
#include "runtime/instance_registry.hpp"
#include "runtime/session.hpp"
#include "streaming_sink.hpp"

namespace dsspy::runtime {
namespace {

TEST(InstanceRegistry, RegisterAndLookup) {
    InstanceRegistry registry;
    const InstanceId a = registry.register_instance(
        DsKind::List, "List<Int32>", {"Cls", "M", 1});
    const InstanceId b = registry.register_instance(
        DsKind::Array, "Array<Double>", {"Cls", "N", 2});
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b, 1u);
    EXPECT_EQ(registry.size(), 2u);
    EXPECT_EQ(registry.info(a).type_name, "List<Int32>");
    EXPECT_EQ(registry.info(b).kind, DsKind::Array);
    EXPECT_FALSE(registry.info(a).deallocated);
    registry.mark_deallocated(a);
    EXPECT_TRUE(registry.info(a).deallocated);
}

class SessionModeTest : public ::testing::TestWithParam<CaptureMode> {};

TEST_P(SessionModeTest, RecordsEventsWithMetadata) {
    ProfilingSession session(GetParam());
    const dsspy_test::StreamingSink sink(session);
    const InstanceId id = session.register_instance(
        DsKind::List, "List<Int32>", {"Cls", "M", 1});
    for (int i = 0; i < 100; ++i)
        session.record(id, OpKind::Add, i, static_cast<std::uint32_t>(i + 1));
    session.stop();
    sink.expect_matches_store(session);

    const auto events = core::instance_events(session.store(), id);
    ASSERT_EQ(events.size(), 100u);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(events[static_cast<size_t>(i)].position, i);
        EXPECT_EQ(events[static_cast<size_t>(i)].op, OpKind::Add);
        EXPECT_EQ(events[static_cast<size_t>(i)].size,
                  static_cast<std::uint32_t>(i + 1));
    }
    // Sequence numbers are strictly increasing.
    for (size_t i = 1; i < events.size(); ++i)
        EXPECT_LT(events[i - 1].seq, events[i].seq);
    EXPECT_EQ(session.thread_count(), 1u);
    EXPECT_EQ(session.events_recorded(), 100u);
}

TEST_P(SessionModeTest, MultiThreadedRecordingLosesNothing) {
    ProfilingSession session(GetParam());
    const dsspy_test::StreamingSink sink(session);
    constexpr int kThreads = 4;
    constexpr int kPerThread = 25'000;
    std::vector<InstanceId> ids;
    for (int t = 0; t < kThreads; ++t)
        ids.push_back(session.register_instance(
            DsKind::List, "List<Int64>",
            {"Cls", "M", static_cast<std::uint32_t>(t)}));

    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&session, &ids, t] {
            for (int i = 0; i < kPerThread; ++i)
                session.record(ids[static_cast<size_t>(t)], OpKind::Get, i,
                               100);
        });
    }
    for (auto& th : threads) th.join();
    session.stop();
    sink.expect_matches_store(session);

    std::size_t total = 0;
    for (const InstanceId id : ids) {
        const auto events = core::instance_events(session.store(), id);
        EXPECT_EQ(events.size(), static_cast<std::size_t>(kPerThread));
        total += events.size();
        // Per-instance events come from one thread: positions in order.
        for (size_t i = 1; i < events.size(); ++i)
            EXPECT_EQ(events[i].position, events[i - 1].position + 1);
    }
    EXPECT_EQ(total, static_cast<std::size_t>(kThreads * kPerThread));
    EXPECT_EQ(session.thread_count(), static_cast<std::size_t>(kThreads));
}

TEST_P(SessionModeTest, StopIsIdempotentAndStopsCapture) {
    ProfilingSession session(GetParam());
    const dsspy_test::StreamingSink sink(session);
    const InstanceId id = session.register_instance(
        DsKind::List, "List<Int32>", {"Cls", "M", 1});
    session.record(id, OpKind::Add, 0, 1);
    EXPECT_TRUE(session.capturing());
    session.stop();
    EXPECT_FALSE(session.capturing());
    session.record(id, OpKind::Add, 1, 2);  // ignored after stop
    session.stop();                         // idempotent
    sink.expect_matches_store(session);
    EXPECT_EQ(core::instance_events(session.store(), id).size(), 1u);
    EXPECT_GT(session.capture_duration_ns(), 0u);
}

INSTANTIATE_TEST_SUITE_P(BothModes, SessionModeTest,
                         ::testing::Values(CaptureMode::Buffered,
                                           CaptureMode::Streaming),
                         [](const auto& info) {
                             return info.param == CaptureMode::Buffered
                                        ? "Buffered"
                                        : "Streaming";
                         });

TEST(Session, StreamingBackpressureLosesNothingWithTinyRings) {
    // A deliberately small bound on undelivered rows (one seq block) makes
    // the producers wait on the collector; every event must still arrive
    // exactly once, at the sink and in the store.
    ProfilingSession session(CaptureMode::Streaming, /*max_undelivered=*/4);
    std::size_t delivered = 0;
    session.set_event_sink([&delivered](std::span<const AccessEvent> ev) {
        delivered += ev.size();
    });
    constexpr int kThreads = 3;
    constexpr int kPerThread = 20'000;
    std::vector<InstanceId> ids;
    for (int t = 0; t < kThreads; ++t)
        ids.push_back(session.register_instance(
            DsKind::List, "List<Int64>",
            {"BP", "M", static_cast<std::uint32_t>(t)}));
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&session, &ids, t] {
            for (int i = 0; i < kPerThread; ++i)
                session.record(ids[static_cast<size_t>(t)], OpKind::Add, i,
                               static_cast<std::uint32_t>(i + 1));
        });
    }
    for (auto& th : threads) th.join();
    session.stop();
    EXPECT_EQ(delivered, static_cast<std::size_t>(kThreads) * kPerThread);
    for (const InstanceId id : ids) {
        const auto events = core::instance_events(session.store(), id);
        ASSERT_EQ(events.size(), static_cast<std::size_t>(kPerThread));
        for (size_t i = 0; i < events.size(); ++i)
            EXPECT_EQ(events[i].position, static_cast<std::int64_t>(i));
    }
}

TEST(Session, TwoLiveSessionsDoNotInterfere) {
    ProfilingSession s1(CaptureMode::Buffered);
    ProfilingSession s2(CaptureMode::Buffered);
    const InstanceId a = s1.register_instance(DsKind::List, "List<Int32>",
                                              {"C", "M", 1});
    const InstanceId b = s2.register_instance(DsKind::List, "List<Int32>",
                                              {"C", "M", 2});
    for (int i = 0; i < 10; ++i) {
        s1.record(a, OpKind::Add, i, static_cast<std::uint32_t>(i + 1));
        s2.record(b, OpKind::Get, i, 10);
    }
    s1.stop();
    s2.stop();
    EXPECT_EQ(core::instance_events(s1.store(), a).size(), 10u);
    EXPECT_EQ(core::instance_events(s2.store(), b).size(), 10u);
    EXPECT_EQ(core::instance_events(s1.store(), a)[0].op, OpKind::Add);
    EXPECT_EQ(core::instance_events(s2.store(), b)[0].op, OpKind::Get);
}

}  // namespace
}  // namespace dsspy::runtime
