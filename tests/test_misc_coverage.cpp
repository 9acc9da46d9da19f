// Remaining coverage: Probe move semantics, report filters, iterator
// interop, and miscellaneous edge cases.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <sstream>

#include "core/dsspy.hpp"
#include "core/report.hpp"
#include "ds/ds.hpp"

namespace dsspy {
namespace {

using runtime::ProfilingSession;

TEST(Probe, MoveTransfersRecordingOwnership) {
    ProfilingSession session;
    ds::Probe a(&session, runtime::DsKind::List, "List<Int32>",
                {"C", "M", 1});
    const runtime::InstanceId id = a.id();
    ds::Probe b(std::move(a));
    EXPECT_FALSE(a.profiled());  // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(b.profiled());
    EXPECT_EQ(b.id(), id);
    b.rec(runtime::OpKind::Add, 0, 1);
    a.rec(runtime::OpKind::Add, 1, 2);  // no-op: a was moved from
    session.stop();
    EXPECT_EQ(core::instance_events(session.store(), id).size(), 1u);
    // The instance is NOT yet deallocated: b still owns it.
    // (b goes out of scope after stop(); mark happens then.)
}

TEST(Probe, MoveAssignmentReleasesPrevious) {
    ProfilingSession session;
    ds::Probe a(&session, runtime::DsKind::List, "List<Int32>",
                {"C", "A", 1});
    ds::Probe b(&session, runtime::DsKind::List, "List<Int32>",
                {"C", "B", 2});
    const runtime::InstanceId a_id = a.id();
    const runtime::InstanceId b_id = b.id();
    a = std::move(b);
    // a's original instance was released (deallocated); a now records as b.
    EXPECT_TRUE(session.registry().info(a_id).deallocated);
    EXPECT_FALSE(session.registry().info(b_id).deallocated);
    EXPECT_EQ(a.id(), b_id);
}

TEST(Report, ParallelOnlyFilterSkipsSequentialUseCases) {
    ProfilingSession session;
    {
        // Stack-Implementation only (sequential).
        ds::ProfiledList<int> stack(&session, {"R", "Stack", 1});
        for (int round = 0; round < 30; ++round) {
            stack.add(round);
            stack.add(round);
            stack.remove_at(stack.count() - 1);
        }
        while (stack.count() > 0) stack.remove_at(stack.count() - 1);
    }
    session.stop();
    const core::AnalysisResult analysis = core::Dsspy{}.analyze(session);

    std::ostringstream all;
    core::print_use_case_report(all, analysis, /*parallel_only=*/false);
    EXPECT_NE(all.str().find("Stack-Implementation"), std::string::npos);

    std::ostringstream parallel;
    core::print_use_case_report(parallel, analysis, /*parallel_only=*/true);
    EXPECT_NE(parallel.str().find("No use cases detected."),
              std::string::npos);
}

TEST(List, IteratorInteropWithStdAlgorithms) {
    ds::List<int> list{5, 3, 1, 4, 2};
    EXPECT_EQ(std::accumulate(list.begin(), list.end(), 0), 15);
    std::sort(list.begin(), list.end());
    EXPECT_TRUE(std::is_sorted(list.begin(), list.end()));
    const ds::List<int>& clist = list;
    EXPECT_EQ(*std::max_element(clist.begin(), clist.end()), 5);
}

TEST(Array, IteratorInterop) {
    ds::Array<int> arr(5);
    std::iota(arr.begin(), arr.end(), 10);
    EXPECT_EQ(arr[0], 10);
    EXPECT_EQ(arr[4], 14);
    EXPECT_EQ(std::accumulate(arr.begin(), arr.end(), 0), 60);
}

TEST(Queue, MoveAssignment) {
    ds::Queue<int> a;
    a.enqueue(1);
    a.enqueue(2);
    ds::Queue<int> b;
    b.enqueue(99);
    b = std::move(a);
    EXPECT_EQ(b.count(), 2u);
    EXPECT_EQ(b.dequeue(), 1);
    EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move)
}

TEST(AnalysisResult, UseCaseConfidenceIsExported) {
    ProfilingSession session;
    {
        ds::ProfiledList<int> list(&session, {"Conf", "M", 1});
        for (int i = 0; i < 3000; ++i) list.add(i);
    }
    session.stop();
    const core::AnalysisResult analysis = core::Dsspy{}.analyze(session);
    const auto ucs = analysis.all_use_cases();
    ASSERT_EQ(ucs.size(), 1u);
    EXPECT_GT(ucs[0].confidence(), 0.0);
    EXPECT_LE(ucs[0].confidence(), 1.0);
}

TEST(Session, CaptureDurationGrowsWhileRunning) {
    ProfilingSession session;
    std::atomic<int> sink{0};
    auto burn = [&sink] {
        for (int i = 0; i < 100000; ++i)
            sink.fetch_add(1, std::memory_order_relaxed);
    };
    const auto d1 = session.capture_duration_ns();
    burn();
    const auto d2 = session.capture_duration_ns();
    EXPECT_GE(d2, d1);
    session.stop();
    const auto frozen = session.capture_duration_ns();
    burn();
    EXPECT_EQ(session.capture_duration_ns(), frozen);
}

}  // namespace
}  // namespace dsspy
