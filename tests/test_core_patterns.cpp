// Tests for the eight-access-pattern detector.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "core/patterns.hpp"

namespace dsspy::core {
namespace {

using runtime::AccessEvent;
using runtime::OpKind;

struct ProfileBuilder {
    std::vector<AccessEvent> events;
    std::uint64_t seq = 0;

    ProfileBuilder& ev(OpKind op, std::int64_t pos, std::uint32_t size,
                       runtime::ThreadId thread = 0) {
        AccessEvent e;
        e.seq = seq;
        e.time_ns = seq * 100;
        e.position = pos;
        e.instance = 0;
        e.size = size;
        e.op = op;
        e.thread = thread;
        events.push_back(e);
        ++seq;
        return *this;
    }

    /// n appends (pos == size-1 afterwards).
    ProfileBuilder& append_run(int n, std::uint32_t start_size = 0,
                               runtime::ThreadId thread = 0) {
        for (int i = 0; i < n; ++i)
            ev(OpKind::Add, start_size + static_cast<std::uint32_t>(i),
               start_size + static_cast<std::uint32_t>(i) + 1, thread);
        return *this;
    }

    /// Forward read sweep over [0, n) at container size `size`.
    ProfileBuilder& read_forward(int n, std::uint32_t size,
                                 runtime::ThreadId thread = 0) {
        for (int i = 0; i < n; ++i) ev(OpKind::Get, i, size, thread);
        return *this;
    }
};

std::vector<Pattern> detect(std::span<const AccessEvent> events) {
    return PatternDetector{}.detect(events);
}

TEST(PatternDetector, EmptyProfileHasNoPatterns) {
    ProfileBuilder b;
    const auto& profile = b.events;
    EXPECT_TRUE(detect(profile).empty());
}

TEST(PatternDetector, ReadForward) {
    ProfileBuilder b;
    b.read_forward(10, 10);
    const auto& profile = b.events;
    const auto patterns = detect(profile);
    ASSERT_EQ(patterns.size(), 1u);
    EXPECT_EQ(patterns[0].kind, PatternKind::ReadForward);
    EXPECT_EQ(patterns[0].length, 10u);
    EXPECT_EQ(patterns[0].start_pos, 0);
    EXPECT_EQ(patterns[0].end_pos, 9);
    EXPECT_DOUBLE_EQ(patterns[0].coverage, 1.0);
    EXPECT_FALSE(patterns[0].synthetic);
}

TEST(PatternDetector, ReadBackward) {
    ProfileBuilder b;
    for (int i = 9; i >= 0; --i) b.ev(OpKind::Get, i, 10);
    const auto& profile = b.events;
    const auto patterns = detect(profile);
    ASSERT_EQ(patterns.size(), 1u);
    EXPECT_EQ(patterns[0].kind, PatternKind::ReadBackward);
    EXPECT_EQ(patterns[0].length, 10u);
}

TEST(PatternDetector, WriteForwardAndBackward) {
    ProfileBuilder b;
    for (int i = 0; i < 6; ++i) b.ev(OpKind::Set, i, 6);
    b.ev(OpKind::Clear, -1, 0);  // break
    for (int i = 5; i >= 0; --i) b.ev(OpKind::Set, i, 6);
    const auto& profile = b.events;
    const auto patterns = detect(profile);
    ASSERT_EQ(patterns.size(), 2u);
    EXPECT_EQ(patterns[0].kind, PatternKind::WriteForward);
    EXPECT_EQ(patterns[1].kind, PatternKind::WriteBackward);
}

TEST(PatternDetector, InsertBackViaAppends) {
    ProfileBuilder b;
    b.append_run(50);
    const auto& profile = b.events;
    const auto patterns = detect(profile);
    ASSERT_EQ(patterns.size(), 1u);
    EXPECT_EQ(patterns[0].kind, PatternKind::InsertBack);
    EXPECT_EQ(patterns[0].length, 50u);
}

TEST(PatternDetector, InsertFrontRun) {
    ProfileBuilder b;
    for (int i = 0; i < 8; ++i)
        b.ev(OpKind::InsertAt, 0, static_cast<std::uint32_t>(i + 1));
    const auto& profile = b.events;
    const auto patterns = detect(profile);
    ASSERT_EQ(patterns.size(), 1u);
    EXPECT_EQ(patterns[0].kind, PatternKind::InsertFront);
}

TEST(PatternDetector, DeleteFrontRun) {
    ProfileBuilder b;
    // Deleting the front of a shrinking container: size after removal.
    for (int i = 0; i < 6; ++i)
        b.ev(OpKind::RemoveAt, 0, static_cast<std::uint32_t>(5 - i));
    const auto& profile = b.events;
    const auto patterns = detect(profile);
    ASSERT_EQ(patterns.size(), 1u);
    EXPECT_EQ(patterns[0].kind, PatternKind::DeleteFront);
}

TEST(PatternDetector, DeleteBackRun) {
    ProfileBuilder b;
    // Back removal: position == size-after.
    for (int i = 0; i < 6; ++i)
        b.ev(OpKind::RemoveAt, 5 - i, static_cast<std::uint32_t>(5 - i));
    const auto& profile = b.events;
    const auto patterns = detect(profile);
    ASSERT_EQ(patterns.size(), 1u);
    EXPECT_EQ(patterns[0].kind, PatternKind::DeleteBack);
}

TEST(PatternDetector, MinimumRunLengthIsConfigurable) {
    ProfileBuilder b;
    b.read_forward(2, 10);  // below default min of 3
    const auto& profile = b.events;
    EXPECT_TRUE(detect(profile).empty());

    DetectorConfig config;
    config.min_pattern_events = 2;
    const auto patterns = PatternDetector(config).detect(profile);
    ASSERT_EQ(patterns.size(), 1u);
    EXPECT_EQ(patterns[0].length, 2u);
}

TEST(PatternDetector, DirectionChangeSplitsRuns) {
    ProfileBuilder b;
    // 0,1,2,3 then 2,1,0: one forward run, one backward run.
    for (int i = 0; i < 4; ++i) b.ev(OpKind::Get, i, 4);
    for (int i = 2; i >= 0; --i) b.ev(OpKind::Get, i, 4);
    const auto& profile = b.events;
    const auto patterns = detect(profile);
    ASSERT_EQ(patterns.size(), 2u);
    EXPECT_EQ(patterns[0].kind, PatternKind::ReadForward);
    EXPECT_EQ(patterns[0].length, 4u);
    EXPECT_EQ(patterns[1].kind, PatternKind::ReadBackward);
    EXPECT_EQ(patterns[1].length, 3u);
}

TEST(PatternDetector, RepeatedPositionBreaksRun) {
    ProfileBuilder b;
    b.ev(OpKind::Get, 0, 8).ev(OpKind::Get, 1, 8).ev(OpKind::Get, 2, 8);
    b.ev(OpKind::Get, 2, 8);  // repeat
    b.ev(OpKind::Get, 3, 8).ev(OpKind::Get, 4, 8);
    const auto& profile = b.events;
    const auto patterns = detect(profile);
    // First run of 3 emitted; repeat starts run {2,3,4} of length 3.
    ASSERT_EQ(patterns.size(), 2u);
    EXPECT_EQ(patterns[0].length, 3u);
    EXPECT_EQ(patterns[1].length, 3u);
}

TEST(PatternDetector, JumpReadsProduceNoPattern) {
    ProfileBuilder b;
    int pos = 0;
    for (int i = 0; i < 40; ++i) {
        b.ev(OpKind::Get, pos, 15);
        pos = (pos + 7) % 15;
    }
    const auto& profile = b.events;
    EXPECT_TRUE(detect(profile).empty());
}

TEST(PatternDetector, SearchEventBreaksReadRun) {
    ProfileBuilder b;
    b.read_forward(4, 8);
    b.ev(OpKind::IndexOf, 5, 8);
    b.read_forward(4, 8);
    const auto& profile = b.events;
    const auto patterns = detect(profile);
    ASSERT_EQ(patterns.size(), 2u);
    EXPECT_EQ(patterns[0].length, 4u);
    EXPECT_EQ(patterns[1].length, 4u);
}

TEST(PatternDetector, ForAllSynthesizesFullReadSweep) {
    ProfileBuilder b;
    b.ev(OpKind::ForEach, -1, 20);
    const auto& profile = b.events;
    const auto patterns = detect(profile);
    ASSERT_EQ(patterns.size(), 1u);
    EXPECT_EQ(patterns[0].kind, PatternKind::ReadForward);
    EXPECT_TRUE(patterns[0].synthetic);
    EXPECT_EQ(patterns[0].length, 20u);
    EXPECT_DOUBLE_EQ(patterns[0].coverage, 1.0);
}

TEST(PatternDetector, ForAllOnEmptyContainerIgnored) {
    ProfileBuilder b;
    b.ev(OpKind::ForEach, -1, 0);
    const auto& profile = b.events;
    EXPECT_TRUE(detect(profile).empty());
}

TEST(PatternDetector, PerThreadSeparation) {
    ProfileBuilder b;
    // Interleave two threads, each reading forward; a thread-agnostic
    // detector would see position jumps and find nothing.
    for (int i = 0; i < 10; ++i) {
        b.ev(OpKind::Get, i, 10, 0);
        b.ev(OpKind::Get, 9 - i, 10, 1);
    }
    const auto& profile = b.events;
    const auto patterns = detect(profile);
    ASSERT_EQ(patterns.size(), 2u);
    EXPECT_EQ(patterns[0].kind, PatternKind::ReadForward);
    EXPECT_EQ(patterns[0].thread, 0);
    EXPECT_EQ(patterns[1].kind, PatternKind::ReadBackward);
    EXPECT_EQ(patterns[1].thread, 1);
}

TEST(PatternDetector, CoverageIsPartialForShortSweeps) {
    ProfileBuilder b;
    b.read_forward(5, 20);
    const auto& profile = b.events;
    const auto patterns = detect(profile);
    ASSERT_EQ(patterns.size(), 1u);
    EXPECT_DOUBLE_EQ(patterns[0].coverage, 0.25);
}

TEST(PatternDetector, MixedEndInsertsEmitNothing) {
    ProfileBuilder b;
    // Alternating front/back inserts: neither all-front nor all-back.
    b.ev(OpKind::InsertAt, 0, 1);   // both (size 1)
    b.ev(OpKind::Add, 1, 2);        // back
    b.ev(OpKind::InsertAt, 0, 3);   // front -> run no longer all-back...
    b.ev(OpKind::Add, 3, 4);        // back -> breaks
    b.ev(OpKind::InsertAt, 2, 5);   // middle
    const auto& profile = b.events;
    for (const Pattern& p : detect(profile))
        EXPECT_GE(p.length, PatternDetector{}.config().min_pattern_events);
}

TEST(PatternDetector, Figure2Profile) {
    // The paper's Figure 2: fill 10 front-to-back, then read back-to-front.
    ProfileBuilder b;
    b.append_run(10);
    for (int i = 9; i >= 0; --i) b.ev(OpKind::Get, i, 10);
    const auto& profile = b.events;
    const auto patterns = detect(profile);
    ASSERT_EQ(patterns.size(), 2u);
    EXPECT_EQ(patterns[0].kind, PatternKind::InsertBack);
    EXPECT_EQ(patterns[0].length, 10u);
    EXPECT_EQ(patterns[1].kind, PatternKind::ReadBackward);
    EXPECT_EQ(patterns[1].length, 10u);
}

TEST(PatternDetector, CountByKind) {
    ProfileBuilder b;
    b.append_run(5);
    b.read_forward(5, 5);
    const auto& profile = b.events;
    const auto counts = count_by_kind(detect(profile));
    EXPECT_EQ(counts[static_cast<size_t>(PatternKind::InsertBack)], 1u);
    EXPECT_EQ(counts[static_cast<size_t>(PatternKind::ReadForward)], 1u);
    EXPECT_EQ(counts[static_cast<size_t>(PatternKind::DeleteBack)], 0u);
}

TEST(PatternDetector, PatternsSortedByFirstEvent) {
    ProfileBuilder b;
    b.append_run(5);
    b.read_forward(5, 5);
    b.append_run(5, 5);
    const auto& profile = b.events;
    const auto patterns = detect(profile);
    ASSERT_EQ(patterns.size(), 3u);
    EXPECT_LT(patterns[0].first, patterns[1].first);
    EXPECT_LT(patterns[1].first, patterns[2].first);
}

}  // namespace
}  // namespace dsspy::core
