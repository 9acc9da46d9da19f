// Tests for RuntimeProfile: access-type derivation, counts, phases.
#include <gtest/gtest.h>

#include <vector>

#include "core/profile.hpp"

namespace dsspy::core {
namespace {

using runtime::AccessEvent;
using runtime::DsKind;
using runtime::InstanceInfo;
using runtime::OpKind;

/// Builds event sequences by hand.
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

    [[nodiscard]] RuntimeProfile build(DsKind kind = DsKind::List) const {
        InstanceInfo info;
        info.id = 0;
        info.kind = kind;
        info.type_name = "List<Int32>";
        info.location = {"C", "M", 1};
        return RuntimeProfile(info, events);
    }
};

TEST(AccessTypeDerivation, MapsEveryOp) {
    EXPECT_EQ(derive_access_type(OpKind::Get), AccessType::Read);
    EXPECT_EQ(derive_access_type(OpKind::Set), AccessType::Write);
    EXPECT_EQ(derive_access_type(OpKind::Add), AccessType::Insert);
    EXPECT_EQ(derive_access_type(OpKind::InsertAt), AccessType::Insert);
    EXPECT_EQ(derive_access_type(OpKind::RemoveAt), AccessType::Delete);
    EXPECT_EQ(derive_access_type(OpKind::Clear), AccessType::Clear);
    EXPECT_EQ(derive_access_type(OpKind::IndexOf), AccessType::Search);
    EXPECT_EQ(derive_access_type(OpKind::Sort), AccessType::Sort);
    EXPECT_EQ(derive_access_type(OpKind::Reverse), AccessType::Reverse);
    EXPECT_EQ(derive_access_type(OpKind::CopyTo), AccessType::Copy);
    EXPECT_EQ(derive_access_type(OpKind::ForEach), AccessType::ForAll);
    EXPECT_EQ(derive_access_type(OpKind::Resize), AccessType::Copy);
}

TEST(AccessTypeDerivation, ReadWriteClassification) {
    EXPECT_TRUE(is_read_like(AccessType::Read));
    EXPECT_TRUE(is_read_like(AccessType::Search));
    EXPECT_TRUE(is_read_like(AccessType::Copy));
    EXPECT_TRUE(is_read_like(AccessType::ForAll));
    EXPECT_TRUE(is_write_like(AccessType::Write));
    EXPECT_TRUE(is_write_like(AccessType::Insert));
    EXPECT_TRUE(is_write_like(AccessType::Delete));
    EXPECT_TRUE(is_write_like(AccessType::Clear));
    EXPECT_TRUE(is_write_like(AccessType::Sort));
    EXPECT_TRUE(is_write_like(AccessType::Reverse));
}

TEST(RuntimeProfile, EmptyProfile) {
    ProfileBuilder b;
    const RuntimeProfile p = b.build();
    EXPECT_EQ(p.total_events(), 0u);
    EXPECT_TRUE(p.phases().empty());
    EXPECT_DOUBLE_EQ(p.share(AccessType::Read), 0.0);
    EXPECT_DOUBLE_EQ(p.read_like_share(), 0.0);
    EXPECT_EQ(p.duration_ns(), 0u);
}

TEST(RuntimeProfile, CountsAndShares) {
    ProfileBuilder b;
    b.ev(OpKind::Add, 0, 1).ev(OpKind::Add, 1, 2);
    b.ev(OpKind::Get, 0, 2).ev(OpKind::Get, 1, 2);
    b.ev(OpKind::IndexOf, 1, 2);
    b.ev(OpKind::Clear, -1, 0);
    const RuntimeProfile p = b.build();
    EXPECT_EQ(p.total_events(), 6u);
    EXPECT_EQ(p.count(AccessType::Insert), 2u);
    EXPECT_EQ(p.count(AccessType::Read), 2u);
    EXPECT_EQ(p.count(AccessType::Search), 1u);
    EXPECT_EQ(p.count(AccessType::Clear), 1u);
    EXPECT_DOUBLE_EQ(p.share(AccessType::Insert), 2.0 / 6.0);
    EXPECT_DOUBLE_EQ(p.read_like_share(), 3.0 / 6.0);  // 2 reads + 1 search
    EXPECT_EQ(p.max_size(), 2u);
}

TEST(RuntimeProfile, PhaseSegmentation) {
    ProfileBuilder b;
    for (int i = 0; i < 5; ++i)
        b.ev(OpKind::Add, i, static_cast<std::uint32_t>(i + 1));
    for (int i = 0; i < 3; ++i) b.ev(OpKind::Get, i, 5);
    b.ev(OpKind::Sort, -1, 5);
    for (int i = 0; i < 2; ++i) b.ev(OpKind::Set, i, 5);
    const RuntimeProfile p = b.build();
    const auto& phases = p.phases();
    ASSERT_EQ(phases.size(), 4u);
    EXPECT_EQ(phases[0].type, AccessType::Insert);
    EXPECT_EQ(phases[0].length(), 5u);
    EXPECT_EQ(phases[1].type, AccessType::Read);
    EXPECT_EQ(phases[1].length(), 3u);
    EXPECT_EQ(phases[2].type, AccessType::Sort);
    EXPECT_EQ(phases[2].length(), 1u);
    EXPECT_EQ(phases[3].type, AccessType::Write);
    EXPECT_EQ(phases[3].length(), 2u);
    EXPECT_EQ(phases[3].first, 9u);
    EXPECT_EQ(phases[3].last, 10u);
}

TEST(RuntimeProfile, PhaseShareWithMinimumLength) {
    ProfileBuilder b;
    // Insert phase of 10, read phase of 5, insert phase of 3.
    for (int i = 0; i < 10; ++i)
        b.ev(OpKind::Add, i, static_cast<std::uint32_t>(i + 1));
    for (int i = 0; i < 5; ++i) b.ev(OpKind::Get, i, 10);
    for (int i = 0; i < 3; ++i)
        b.ev(OpKind::Add, 10 + i, static_cast<std::uint32_t>(11 + i));
    const RuntimeProfile p = b.build();
    EXPECT_DOUBLE_EQ(p.phase_share(AccessType::Insert), 13.0 / 18.0);
    // Only the first insert phase has >= 10 events.
    EXPECT_DOUBLE_EQ(p.phase_share(AccessType::Insert, 10), 10.0 / 18.0);
    EXPECT_TRUE(p.has_long_phase(AccessType::Insert, 10));
    EXPECT_FALSE(p.has_long_phase(AccessType::Insert, 11));
    EXPECT_TRUE(p.has_long_phase(AccessType::Read, 5));
    EXPECT_FALSE(p.has_long_phase(AccessType::Write, 1));
}

TEST(RuntimeProfile, ThreadCountAndDuration) {
    ProfileBuilder b;
    b.ev(OpKind::Add, 0, 1, 0);
    b.ev(OpKind::Add, 1, 2, 1);
    b.ev(OpKind::Add, 2, 3, 2);
    b.ev(OpKind::Get, 0, 3, 0);
    const RuntimeProfile p = b.build();
    EXPECT_EQ(p.thread_count(), 3u);
    EXPECT_EQ(p.duration_ns(), 300u);  // time_ns = seq*100
}

}  // namespace
}  // namespace dsspy::core
