// Tests for the proxy-instrumented containers: every interface method must
// emit the right event, and a profiled container must behave exactly like
// the plain one.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/dsspy.hpp"
#include "ds/ds.hpp"
#include "support/rng.hpp"

namespace dsspy::ds {
namespace {

using runtime::AccessEvent;
using runtime::CaptureMode;
using runtime::DsKind;
using runtime::InstanceId;
using runtime::OpKind;
using runtime::ProfilingSession;

std::vector<AccessEvent> events_of(ProfilingSession& session,
                                   InstanceId id) {
    session.stop();
    return core::instance_events(session.store(), id);
}

TEST(Probe, NullSessionRecordsNothing) {
    ProfiledList<int> list(nullptr, {"C", "M", 1});
    list.add(1);
    (void)list.get(0);
    EXPECT_EQ(list.instance_id(), runtime::kInvalidInstance);
    EXPECT_EQ(list.count(), 1u);
}

TEST(Probe, RegistersInstanceMetadata) {
    ProfilingSession session;
    ProfiledList<std::int64_t> list(&session, {"My.Class", "Run", 42});
    const auto info = session.registry().info(list.instance_id());
    EXPECT_EQ(info.kind, DsKind::List);
    EXPECT_EQ(info.type_name, "List<Int64>");
    EXPECT_EQ(info.location.class_name, "My.Class");
    EXPECT_EQ(info.location.method, "Run");
    EXPECT_EQ(info.location.position, 42u);
    EXPECT_FALSE(info.deallocated);
}

TEST(Probe, MarksDeallocatedOnDestruction) {
    ProfilingSession session;
    InstanceId id;
    {
        ProfiledList<int> list(&session, {"C", "M", 1});
        id = list.instance_id();
    }
    EXPECT_TRUE(session.registry().info(id).deallocated);
}

TEST(ProfiledList, AddRecordsLandingIndexAndNewSize) {
    ProfilingSession session;
    ProfiledList<int> list(&session, {"C", "M", 1});
    list.add(10);
    list.add(20);
    list.add(30);
    const auto events = events_of(session, list.instance_id());
    ASSERT_EQ(events.size(), 3u);
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(events[static_cast<size_t>(i)].op, OpKind::Add);
        EXPECT_EQ(events[static_cast<size_t>(i)].position, i);
        EXPECT_EQ(events[static_cast<size_t>(i)].size,
                  static_cast<std::uint32_t>(i + 1));
        // Append satisfies the Insert-Back invariant: position == size-1.
        EXPECT_EQ(events[static_cast<size_t>(i)].position,
                  static_cast<std::int64_t>(
                      events[static_cast<size_t>(i)].size) - 1);
    }
}

TEST(ProfiledList, GetSetRecordPositionAndCurrentSize) {
    ProfilingSession session;
    ProfiledList<int> list(&session, {"C", "M", 1});
    list.add(1);
    list.add(2);
    (void)list.get(1);
    list.set(0, 7);
    const auto events = events_of(session, list.instance_id());
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(events[2].op, OpKind::Get);
    EXPECT_EQ(events[2].position, 1);
    EXPECT_EQ(events[2].size, 2u);
    EXPECT_EQ(events[3].op, OpKind::Set);
    EXPECT_EQ(events[3].position, 0);
    EXPECT_EQ(list.get(0), 7);
}

TEST(ProfiledList, RemoveAtRecordsSizeAfterRemoval) {
    ProfilingSession session;
    ProfiledList<int> list(&session, {"C", "M", 1});
    list.add(1);
    list.add(2);
    list.add(3);
    list.remove_at(2);  // back removal: position == size-after
    const auto events = events_of(session, list.instance_id());
    const AccessEvent& ev = events.back();
    EXPECT_EQ(ev.op, OpKind::RemoveAt);
    EXPECT_EQ(ev.position, 2);
    EXPECT_EQ(ev.size, 2u);
}

TEST(ProfiledList, SearchOpsRecordHitPosition) {
    ProfilingSession session;
    ProfiledList<int> list(&session, {"C", "M", 1});
    list.add(5);
    list.add(9);
    EXPECT_EQ(list.index_of(9), 1);
    EXPECT_FALSE(list.contains(42));
    EXPECT_EQ(list.find_index([](int v) { return v > 4; }), 0);
    const auto events = events_of(session, list.instance_id());
    ASSERT_EQ(events.size(), 5u);
    EXPECT_EQ(events[2].op, OpKind::IndexOf);
    EXPECT_EQ(events[2].position, 1);
    EXPECT_EQ(events[3].op, OpKind::IndexOf);
    EXPECT_EQ(events[3].position, runtime::kWholeContainer);  // miss
    EXPECT_EQ(events[4].position, 0);
}

TEST(ProfiledList, WholeContainerOps) {
    ProfilingSession session;
    ProfiledList<int> list(&session, {"C", "M", 1});
    list.add(3);
    list.add(1);
    list.sort();
    list.reverse();
    std::vector<int> out(2);
    list.copy_to(out);
    int sum = 0;
    list.for_each([&sum](int v) { sum += v; });
    list.clear();
    const auto events = events_of(session, list.instance_id());
    ASSERT_EQ(events.size(), 7u);
    EXPECT_EQ(events[2].op, OpKind::Sort);
    EXPECT_EQ(events[3].op, OpKind::Reverse);
    EXPECT_EQ(events[4].op, OpKind::CopyTo);
    EXPECT_EQ(events[5].op, OpKind::ForEach);
    EXPECT_EQ(events[6].op, OpKind::Clear);
    EXPECT_EQ(events[6].size, 0u);
    EXPECT_EQ(events[2].position, runtime::kWholeContainer);
    EXPECT_EQ(sum, 4);
    EXPECT_EQ(out, (std::vector<int>{3, 1}));  // sorted then reversed
}

TEST(ProfiledArray, SetGetResizeFill) {
    ProfilingSession session;
    ProfiledArray<double> arr(&session, {"C", "M", 2}, 4);
    arr.set(2, 1.5);
    (void)arr.get(2);
    arr.resize(8);
    arr.fill(0.5);
    const auto events = events_of(session, arr.instance_id());
    // 1 set + 1 get + 1 resize + 8 fill-sets
    ASSERT_EQ(events.size(), 11u);
    EXPECT_EQ(events[0].op, OpKind::Set);
    EXPECT_EQ(events[0].size, 4u);
    EXPECT_EQ(events[1].op, OpKind::Get);
    EXPECT_EQ(events[2].op, OpKind::Resize);
    EXPECT_EQ(events[2].size, 8u);
    for (size_t i = 3; i < 11; ++i) {
        EXPECT_EQ(events[i].op, OpKind::Set);
        EXPECT_EQ(events[i].position, static_cast<std::int64_t>(i - 3));
    }
    const auto info = session.registry().info(arr.instance_id());
    EXPECT_EQ(info.kind, DsKind::Array);
    EXPECT_EQ(info.type_name, "Array<Double>");
}

TEST(ProfiledStack, PushPopMapToBackInsertDelete) {
    ProfilingSession session;
    ProfiledStack<int> stack(&session, {"C", "M", 3});
    stack.push(1);
    stack.push(2);
    EXPECT_EQ(stack.pop(), 2);
    const auto events = events_of(session, stack.instance_id());
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].op, OpKind::Add);
    EXPECT_EQ(events[0].position, 0);
    EXPECT_EQ(events[1].position, 1);
    EXPECT_EQ(events[2].op, OpKind::RemoveAt);
    EXPECT_EQ(events[2].position, 1);  // == size-after: back delete
    EXPECT_EQ(events[2].size, 1u);
    EXPECT_EQ(session.registry().info(stack.instance_id()).kind,
              DsKind::Stack);
}

TEST(ProfiledQueue, EnqueueDequeueMapToBackInsertFrontDelete) {
    ProfilingSession session;
    ProfiledQueue<int> queue(&session, {"C", "M", 4});
    queue.enqueue(1);
    queue.enqueue(2);
    EXPECT_EQ(queue.dequeue(), 1);
    const auto events = events_of(session, queue.instance_id());
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].op, OpKind::Add);
    EXPECT_EQ(events[2].op, OpKind::RemoveAt);
    EXPECT_EQ(events[2].position, 0);  // front delete
    EXPECT_EQ(session.registry().info(queue.instance_id()).kind,
              DsKind::Queue);
}

TEST(ProfiledDictionary, RecordsWholeContainerPositions) {
    ProfilingSession session;
    ProfiledDictionary<std::string, int> dict(&session, {"C", "M", 5});
    dict.add("a", 1);
    dict.set("b", 2);
    (void)dict.get("a");
    int out = 0;
    (void)dict.try_get("b", out);
    (void)dict.contains_key("c");
    dict.remove("a");
    dict.clear();
    const auto events = events_of(session, dict.instance_id());
    ASSERT_EQ(events.size(), 7u);
    for (const AccessEvent& ev : events)
        EXPECT_EQ(ev.position, runtime::kWholeContainer);
    EXPECT_EQ(events[0].op, OpKind::Add);
    EXPECT_EQ(events[4].op, OpKind::IndexOf);
    EXPECT_EQ(session.registry().info(dict.instance_id()).type_name,
              "Dictionary<String, Int32>");
}

TEST(ProfiledHashSet, BasicOps) {
    ProfilingSession session;
    ProfiledHashSet<int> set(&session, {"C", "M", 6});
    EXPECT_TRUE(set.add(1));
    EXPECT_FALSE(set.add(1));
    EXPECT_TRUE(set.contains(1));
    EXPECT_TRUE(set.remove(1));
    set.clear();
    const auto events = events_of(session, set.instance_id());
    EXPECT_EQ(events.size(), 5u);
    EXPECT_EQ(session.registry().info(set.instance_id()).kind,
              DsKind::HashSet);
}

TEST(ProfiledLinkedList, FrontBackOpsMapToPositionalVocabulary) {
    ProfilingSession session;
    ProfiledLinkedList<int> list(&session, {"C", "M", 7});
    list.add_last(2);   // Add at 0
    list.add_first(1);  // InsertAt 0
    list.add_last(3);   // Add at 2
    EXPECT_EQ(list.first(), 1);
    EXPECT_EQ(list.last(), 3);
    EXPECT_EQ(list.remove_first(), 1);
    EXPECT_EQ(list.remove_last(), 3);
    EXPECT_TRUE(list.contains(2));
    int sum = 0;
    list.for_each([&sum](int v) { sum += v; });
    list.clear();
    const auto events = events_of(session, list.instance_id());
    ASSERT_EQ(events.size(), 10u);
    EXPECT_EQ(events[0].op, OpKind::Add);
    EXPECT_EQ(events[1].op, OpKind::InsertAt);
    EXPECT_EQ(events[1].position, 0);
    EXPECT_EQ(events[3].op, OpKind::Get);   // first()
    EXPECT_EQ(events[3].position, 0);
    EXPECT_EQ(events[4].op, OpKind::Get);   // last()
    EXPECT_EQ(events[4].position, 2);
    EXPECT_EQ(events[5].op, OpKind::RemoveAt);
    EXPECT_EQ(events[5].position, 0);
    EXPECT_EQ(events[6].op, OpKind::RemoveAt);
    EXPECT_EQ(events[6].position, 1);  // size-after convention
    EXPECT_EQ(events[7].op, OpKind::IndexOf);
    EXPECT_EQ(events[8].op, OpKind::ForEach);
    EXPECT_EQ(events[9].op, OpKind::Clear);
    EXPECT_EQ(sum, 2);
    EXPECT_EQ(session.registry().info(list.instance_id()).kind,
              DsKind::LinkedList);
}

TEST(ProfiledSortedList, InsertsRecordSortedLandingIndex) {
    ProfilingSession session;
    ProfiledSortedList<int, std::string> sl(&session, {"C", "M", 8});
    sl.add(5, "five");
    sl.add(1, "one");   // lands at index 0
    sl.add(3, "three"); // lands at index 1
    EXPECT_EQ(sl.get(3), "three");
    EXPECT_TRUE(sl.contains_key(1));
    EXPECT_FALSE(sl.contains_key(9));
    EXPECT_EQ(sl.key_at(0), 1);
    std::string out;
    EXPECT_TRUE(sl.try_get(5, out));
    EXPECT_TRUE(sl.remove(1));
    const auto events = events_of(session, sl.instance_id());
    ASSERT_EQ(events.size(), 9u);
    EXPECT_EQ(events[0].op, OpKind::InsertAt);
    EXPECT_EQ(events[0].position, 0);
    EXPECT_EQ(events[1].position, 0);  // 1 sorts before 5
    EXPECT_EQ(events[2].position, 1);  // 3 sorts between
    EXPECT_EQ(events[3].op, OpKind::IndexOf);  // get(3)
    EXPECT_EQ(events[3].position, 1);
    EXPECT_EQ(events[5].position, runtime::kWholeContainer);  // miss
    EXPECT_EQ(events[6].op, OpKind::Get);  // key_at
    EXPECT_EQ(events[8].op, OpKind::RemoveAt);
    EXPECT_EQ(session.registry().info(sl.instance_id()).type_name,
              "SortedList<Int32, String>");
}

/// Property: a profiled list behaves identically to a plain list under a
/// long random operation sequence (the proxy must be transparent).
TEST(ProfiledList, BehavesLikePlainListUnderRandomOps) {
    ProfilingSession session;
    ProfiledList<std::int64_t> profiled(&session, {"C", "M", 7});
    List<std::int64_t> plain;
    support::Rng rng(123);
    for (int step = 0; step < 5000; ++step) {
        const auto op = rng.next_below(6);
        switch (op) {
            case 0: {
                const auto v = static_cast<std::int64_t>(rng.next_below(50));
                profiled.add(v);
                plain.add(v);
                break;
            }
            case 1: {
                if (plain.empty()) break;
                const auto idx = rng.next_below(plain.count());
                EXPECT_EQ(profiled.get(idx), plain[idx]);
                break;
            }
            case 2: {
                if (plain.empty()) break;
                const auto idx = rng.next_below(plain.count());
                const auto v = static_cast<std::int64_t>(rng.next_below(50));
                profiled.set(idx, v);
                plain.set(idx, v);
                break;
            }
            case 3: {
                if (plain.empty()) break;
                const auto idx = rng.next_below(plain.count());
                profiled.remove_at(idx);
                plain.remove_at(idx);
                break;
            }
            case 4: {
                const auto idx = rng.next_below(plain.count() + 1);
                const auto v = static_cast<std::int64_t>(rng.next_below(50));
                profiled.insert(idx, v);
                plain.insert(idx, v);
                break;
            }
            default: {
                const auto v = static_cast<std::int64_t>(rng.next_below(50));
                EXPECT_EQ(profiled.index_of(v), plain.index_of(v));
                break;
            }
        }
        ASSERT_EQ(profiled.count(), plain.count());
    }
    EXPECT_EQ(profiled.raw(), plain);
}

}  // namespace
}  // namespace dsspy::ds
