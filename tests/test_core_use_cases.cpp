// Tests for the use-case engine: each of the eight rules fires exactly on
// its documented evidence and respects its thresholds.
#include <gtest/gtest.h>

#include <vector>

#include "core/use_cases.hpp"

namespace dsspy::core {
namespace {

using runtime::AccessEvent;
using runtime::DsKind;
using runtime::InstanceInfo;
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

    ProfileBuilder& append_run(int n, std::uint32_t start_size = 0) {
        for (int i = 0; i < n; ++i)
            ev(OpKind::Add, start_size + static_cast<std::uint32_t>(i),
               start_size + static_cast<std::uint32_t>(i) + 1);
        return *this;
    }

    ProfileBuilder& read_forward(int n, std::uint32_t size) {
        for (int i = 0; i < n; ++i) ev(OpKind::Get, i, size);
        return *this;
    }

    ProfileBuilder& jump_reads(int n, std::uint32_t size) {
        int pos = 0;
        for (int i = 0; i < n; ++i) {
            ev(OpKind::Get, pos, size);
            pos = (pos + 7) % static_cast<int>(size);
        }
        return *this;
    }

    /// A profile together with the events it was built from.
    struct Built {
        std::vector<AccessEvent> events;
        RuntimeProfile profile;
    };

    [[nodiscard]] Built build(DsKind kind = DsKind::List) const {
        InstanceInfo info;
        info.id = 0;
        info.kind = kind;
        info.type_name = "List<Int32>";
        info.location = {"C", "M", 1};
        return Built{events, RuntimeProfile(info, events)};
    }
};

std::vector<UseCase> classify(const ProfileBuilder::Built& built,
                              DetectorConfig config = {}) {
    const auto patterns = PatternDetector(config).detect(built.events);
    return UseCaseEngine(config).classify(built.profile, built.events,
                                          patterns);
}

bool has(const std::vector<UseCase>& ucs, UseCaseKind kind) {
    for (const UseCase& uc : ucs)
        if (uc.kind == kind) return true;
    return false;
}

// ------------------------------- metadata ---------------------------------

TEST(UseCaseMeta, NamesCodesAndParallelFlags) {
    EXPECT_EQ(use_case_name(UseCaseKind::LongInsert), "Long-Insert");
    EXPECT_EQ(use_case_code(UseCaseKind::LongInsert), "LI");
    EXPECT_EQ(use_case_code(UseCaseKind::FrequentLongRead), "FLR");
    EXPECT_TRUE(has_parallel_potential(UseCaseKind::LongInsert));
    EXPECT_TRUE(has_parallel_potential(UseCaseKind::ImplementQueue));
    EXPECT_TRUE(has_parallel_potential(UseCaseKind::SortAfterInsert));
    EXPECT_TRUE(has_parallel_potential(UseCaseKind::FrequentSearch));
    EXPECT_TRUE(has_parallel_potential(UseCaseKind::FrequentLongRead));
    EXPECT_FALSE(has_parallel_potential(UseCaseKind::InsertDeleteFront));
    EXPECT_FALSE(has_parallel_potential(UseCaseKind::StackImplementation));
    EXPECT_FALSE(has_parallel_potential(UseCaseKind::WriteWithoutRead));
    for (std::size_t k = 0; k < kUseCaseKindCount; ++k)
        EXPECT_FALSE(
            recommended_action(static_cast<UseCaseKind>(k)).empty());
}

// ------------------------------- Long-Insert ------------------------------

TEST(ShareBasis, TimeBasisUsesWallClockSpans) {
    // 120 inserts over a LONG wall-clock span followed by 300 reads packed
    // into a short span: by event count the insertion share is ~28%
    // (below threshold), by time it is ~90% (above threshold).
    ProfileBuilder b;
    for (int i = 0; i < 120; ++i) {
        AccessEvent e;
        e.seq = b.seq;
        e.time_ns = b.seq * 1000;  // 1 us per insert
        e.position = i;
        e.instance = 0;
        e.size = static_cast<std::uint32_t>(i + 1);
        e.op = OpKind::Add;
        e.thread = 0;
        b.events.push_back(e);
        ++b.seq;
    }
    const std::uint64_t insert_end_ns = (b.seq - 1) * 1000;
    int pos = 0;
    for (int i = 0; i < 300; ++i) {
        AccessEvent e;
        e.seq = b.seq;
        e.time_ns = insert_end_ns + 40 * (static_cast<std::uint64_t>(i) + 1);
        e.position = pos;
        e.instance = 0;
        e.size = 120;
        e.op = OpKind::Get;
        e.thread = 0;
        b.events.push_back(e);
        ++b.seq;
        pos = (pos + 7) % 120;
    }
    const auto profile = b.build();

    DetectorConfig by_events;
    EXPECT_FALSE(has(classify(profile, by_events), UseCaseKind::LongInsert));

    DetectorConfig by_time;
    by_time.share_basis = ShareBasis::Time;
    EXPECT_TRUE(has(classify(profile, by_time), UseCaseKind::LongInsert));
}

TEST(LongInsert, FiresOnLongDominantInsertPhases) {
    ProfileBuilder b;
    b.append_run(150);
    b.jump_reads(30, 150);
    const auto profile = b.build();
    const auto ucs = classify(profile);
    ASSERT_EQ(ucs.size(), 1u);
    EXPECT_EQ(ucs[0].kind, UseCaseKind::LongInsert);
    EXPECT_TRUE(ucs[0].parallel_potential());
    EXPECT_FALSE(ucs[0].reason().empty());
    EXPECT_EQ(ucs[0].recommendation(),
              std::string(recommended_action(UseCaseKind::LongInsert)));
}

TEST(LongInsert, DoesNotFireBelowPhaseLength) {
    ProfileBuilder b;
    b.append_run(99);  // just below the 100-event threshold
    const auto profile = b.build();
    EXPECT_FALSE(has(classify(profile), UseCaseKind::LongInsert));
}

TEST(LongInsert, FiresAtExactThresholdLength) {
    ProfileBuilder b;
    b.append_run(100);
    const auto profile = b.build();
    EXPECT_TRUE(has(classify(profile), UseCaseKind::LongInsert));
}

TEST(LongInsert, DoesNotFireBelowShare) {
    ProfileBuilder b;
    b.append_run(120);
    b.jump_reads(300, 120);  // insertions are only ~28% of the profile
    const auto profile = b.build();
    EXPECT_FALSE(has(classify(profile), UseCaseKind::LongInsert));
}

TEST(LongInsert, ArrayWriteForwardCountsAsInsertion) {
    ProfileBuilder b;
    for (int i = 0; i < 150; ++i) b.ev(OpKind::Set, i, 150);
    b.jump_reads(20, 150);
    const auto profile = b.build(DsKind::Array);
    EXPECT_TRUE(has(classify(profile), UseCaseKind::LongInsert));
}

TEST(LongInsert, ListWriteForwardDoesNotCount) {
    // On a dynamic list a write streak is not an insertion.
    ProfileBuilder b;
    for (int i = 0; i < 150; ++i) b.ev(OpKind::Set, i, 150);
    const auto profile = b.build(DsKind::List);
    EXPECT_FALSE(has(classify(profile), UseCaseKind::LongInsert));
}

TEST(LongInsert, NotOnDictionaries) {
    ProfileBuilder b;
    for (int i = 0; i < 200; ++i) b.ev(OpKind::Add, -1, 0);
    const auto profile = b.build(DsKind::Dictionary);
    EXPECT_FALSE(has(classify(profile), UseCaseKind::LongInsert));
}

TEST(LongInsert, ThresholdsAreConfigurable) {
    ProfileBuilder b;
    b.append_run(50);
    const auto profile = b.build();
    DetectorConfig config;
    config.li_min_phase_events = 40;
    EXPECT_TRUE(has(classify(profile, config), UseCaseKind::LongInsert));
}

// --------------------------- Implement-Queue ------------------------------

TEST(ImplementQueue, FiresOnTwoEndTraffic) {
    ProfileBuilder b;
    // Interleaved enqueue-at-back / read+dequeue-at-front on a list.
    std::uint32_t count = 5;
    b.append_run(5);
    for (int i = 0; i < 120; ++i) {
        b.ev(OpKind::Add, count, count + 1);       // back insert
        ++count;
        b.ev(OpKind::Get, 0, count);               // front read
        b.ev(OpKind::RemoveAt, 0, count - 1);      // front delete
        --count;
    }
    const auto profile = b.build();
    const auto ucs = classify(profile);
    EXPECT_TRUE(has(ucs, UseCaseKind::ImplementQueue));
    EXPECT_FALSE(has(ucs, UseCaseKind::StackImplementation));
    EXPECT_FALSE(has(ucs, UseCaseKind::LongInsert));
}

TEST(ImplementQueue, NotOnActualQueues) {
    ProfileBuilder b;
    std::uint32_t count = 0;
    for (int i = 0; i < 120; ++i) {
        b.ev(OpKind::Add, count, count + 1);
        ++count;
        b.ev(OpKind::RemoveAt, 0, count - 1);
        --count;
    }
    const auto profile = b.build(DsKind::Queue);
    EXPECT_FALSE(has(classify(profile), UseCaseKind::ImplementQueue));
}

TEST(ImplementQueue, NotOnTinyLists) {
    // A handful of accesses is not "a high amount" — the rule needs
    // iq_min_events total accesses before it applies.
    ProfileBuilder b;
    b.append_run(4);
    b.ev(OpKind::Get, 0, 4);
    const auto profile = b.build();
    EXPECT_FALSE(has(classify(profile), UseCaseKind::ImplementQueue));
}

TEST(ImplementQueue, NotWhenMiddleTrafficDominates) {
    ProfileBuilder b;
    b.append_run(10);
    b.jump_reads(200, 10);  // mid-structure reads dominate
    for (int i = 0; i < 10; ++i) b.ev(OpKind::RemoveAt, 0, 9 - i);
    const auto profile = b.build();
    EXPECT_FALSE(has(classify(profile), UseCaseKind::ImplementQueue));
}

// --------------------------- Sort-After-Insert ----------------------------

TEST(SortAfterInsert, FiresAndSuppressesLongInsert) {
    ProfileBuilder b;
    b.append_run(150);
    b.ev(OpKind::Sort, -1, 150);
    b.jump_reads(20, 150);
    const auto profile = b.build();
    const auto ucs = classify(profile);
    EXPECT_TRUE(has(ucs, UseCaseKind::SortAfterInsert));
    EXPECT_FALSE(has(ucs, UseCaseKind::LongInsert));
}

TEST(SortAfterInsert, GapTooLargeFallsBackToLongInsert) {
    ProfileBuilder b;
    b.append_run(150);
    b.jump_reads(30, 150);  // 30 events between insertion end and sort
    b.ev(OpKind::Sort, -1, 150);
    const auto profile = b.build();
    const auto ucs = classify(profile);
    EXPECT_FALSE(has(ucs, UseCaseKind::SortAfterInsert));
    EXPECT_TRUE(has(ucs, UseCaseKind::LongInsert));
}

TEST(SortAfterInsert, ShortInsertPhaseDoesNotQualify) {
    ProfileBuilder b;
    b.append_run(50);
    b.ev(OpKind::Sort, -1, 50);
    const auto profile = b.build();
    EXPECT_FALSE(has(classify(profile), UseCaseKind::SortAfterInsert));
}

// ----------------------------- Frequent-Search ----------------------------

TEST(FrequentSearch, FiresAboveSearchCountWithReadPatterns) {
    ProfileBuilder b;
    b.append_run(64);
    for (int i = 0; i < 1100; ++i) {
        b.ev(OpKind::IndexOf, i % 64, 64);
        if (i % 250 == 0) b.read_forward(64, 64);
    }
    const auto profile = b.build();
    EXPECT_TRUE(has(classify(profile), UseCaseKind::FrequentSearch));
}

TEST(FrequentSearch, RequiresMoreThanThousandSearches) {
    ProfileBuilder b;
    b.append_run(64);
    for (int i = 0; i < 900; ++i) {
        b.ev(OpKind::IndexOf, i % 64, 64);
        if (i % 250 == 0) b.read_forward(64, 64);
    }
    const auto profile = b.build();
    EXPECT_FALSE(has(classify(profile), UseCaseKind::FrequentSearch));
}

TEST(FrequentSearch, RequiresReadPatternEvidence) {
    ProfileBuilder b;
    b.append_run(64);
    for (int i = 0; i < 1200; ++i) b.ev(OpKind::IndexOf, i % 64, 64);
    const auto profile = b.build();
    EXPECT_FALSE(has(classify(profile), UseCaseKind::FrequentSearch));
}

// --------------------------- Frequent-Long-Read ---------------------------

TEST(FrequentLongRead, FiresOnRepeatedFullSweeps) {
    ProfileBuilder b;
    b.append_run(100);
    for (int sweep = 0; sweep < 12; ++sweep) b.read_forward(100, 100);
    const auto profile = b.build();
    const auto ucs = classify(profile);
    EXPECT_TRUE(has(ucs, UseCaseKind::FrequentLongRead));
}

TEST(FrequentLongRead, TenSweepsAreNotEnough) {
    ProfileBuilder b;
    b.append_run(20);
    for (int sweep = 0; sweep < 10; ++sweep) b.read_forward(20, 20);
    const auto profile = b.build();
    EXPECT_FALSE(has(classify(profile), UseCaseKind::FrequentLongRead));
}

TEST(FrequentLongRead, ShortSweepsDoNotCount) {
    ProfileBuilder b;
    b.append_run(10);
    // 15 sweeps that each cover only 30% of the structure.
    for (int sweep = 0; sweep < 15; ++sweep) b.read_forward(30, 100);
    const auto profile = b.build();
    EXPECT_FALSE(has(classify(profile), UseCaseKind::FrequentLongRead));
}

TEST(FrequentLongRead, ForEachSweepsCount) {
    ProfileBuilder b;
    b.append_run(50);
    for (int i = 0; i < 12; ++i) b.ev(OpKind::ForEach, -1, 50);
    const auto profile = b.build();
    EXPECT_TRUE(has(classify(profile), UseCaseKind::FrequentLongRead));
}

// --------------------------- Insert/Delete-Front --------------------------

TEST(InsertDeleteFront, FiresOnRepeatedArrayResizes) {
    ProfileBuilder b;
    for (int i = 0; i < 12; ++i)
        b.ev(OpKind::Resize, -1, static_cast<std::uint32_t>(100 + i));
    const auto profile = b.build(DsKind::Array);
    const auto ucs = classify(profile);
    EXPECT_TRUE(has(ucs, UseCaseKind::InsertDeleteFront));
    EXPECT_FALSE(ucs.empty());
    EXPECT_FALSE(ucs[0].parallel_potential());
}

TEST(InsertDeleteFront, FewResizesDoNotFire) {
    ProfileBuilder b;
    for (int i = 0; i < 5; ++i) b.ev(OpKind::Resize, -1, 100);
    const auto profile = b.build(DsKind::Array);
    EXPECT_FALSE(has(classify(profile), UseCaseKind::InsertDeleteFront));
}

TEST(InsertDeleteFront, FiresOnListFrontChurn) {
    ProfileBuilder b;
    // Keep the container large so front accesses are unambiguous (a front
    // insert on a 1-element list is also a back insert).
    std::uint32_t count = 20;
    b.append_run(20);
    for (int i = 0; i < 60; ++i) {
        b.ev(OpKind::InsertAt, 0, ++count);
        b.jump_reads(3, count);
        b.ev(OpKind::RemoveAt, 0, --count);
    }
    const auto profile = b.build();
    EXPECT_TRUE(has(classify(profile), UseCaseKind::InsertDeleteFront));
}

// --------------------------- Stack-Implementation -------------------------

TEST(StackImplementation, FiresOnCommonEndMutations) {
    ProfileBuilder b;
    std::uint32_t count = 0;
    for (int i = 0; i < 40; ++i) {
        b.ev(OpKind::Add, count, count + 1);  // push
        ++count;
        b.ev(OpKind::Add, count, count + 1);  // push
        ++count;
        b.ev(OpKind::RemoveAt, count - 1, count - 1);  // pop (back)
        --count;
    }
    const auto profile = b.build();
    const auto ucs = classify(profile);
    EXPECT_TRUE(has(ucs, UseCaseKind::StackImplementation));
    EXPECT_FALSE(has(ucs, UseCaseKind::ImplementQueue));
}

TEST(StackImplementation, MixedEndsDoNotFire) {
    ProfileBuilder b;
    // Keep the container large so front and back removals are distinct.
    std::uint32_t count = 20;
    b.append_run(20);
    for (int i = 0; i < 40; ++i) {
        b.ev(OpKind::Add, count, count + 1);
        ++count;
        // Pop alternating between front and back.
        if (i % 2 == 0) {
            b.ev(OpKind::RemoveAt, count - 1, count - 1);
        } else {
            b.ev(OpKind::RemoveAt, 0, count - 1);
        }
        --count;
    }
    const auto profile = b.build();
    EXPECT_FALSE(has(classify(profile), UseCaseKind::StackImplementation));
}

TEST(StackImplementation, RequiresDeletes) {
    ProfileBuilder b;
    b.append_run(40);
    const auto profile = b.build();
    EXPECT_FALSE(has(classify(profile), UseCaseKind::StackImplementation));
}

// ---------------------------- Write-Without-Read --------------------------

TEST(WriteWithoutRead, FiresOnTrailingWritePhase) {
    ProfileBuilder b;
    b.append_run(50);
    b.jump_reads(30, 50);
    for (int i = 0; i < 30; ++i) b.ev(OpKind::Set, i, 50);  // cleanup
    const auto profile = b.build();
    const auto ucs = classify(profile);
    EXPECT_TRUE(has(ucs, UseCaseKind::WriteWithoutRead));
}

TEST(WriteWithoutRead, NotWhenWritesAreReadBack) {
    ProfileBuilder b;
    b.append_run(50);
    for (int i = 0; i < 30; ++i) b.ev(OpKind::Set, i, 50);
    b.jump_reads(10, 50);  // profile ends with reads
    const auto profile = b.build();
    EXPECT_FALSE(has(classify(profile), UseCaseKind::WriteWithoutRead));
}

TEST(WriteWithoutRead, ShortTrailingPhaseDoesNotFire) {
    ProfileBuilder b;
    b.append_run(50);
    for (int i = 0; i < 5; ++i) b.ev(OpKind::Set, i, 50);
    const auto profile = b.build();
    EXPECT_FALSE(has(classify(profile), UseCaseKind::WriteWithoutRead));
}

TEST(WriteWithoutRead, LowCoverageDoesNotFire) {
    ProfileBuilder b;
    b.append_run(100);
    for (int i = 0; i < 12; ++i) b.ev(OpKind::Set, i, 100);  // 12% coverage
    const auto profile = b.build();
    EXPECT_FALSE(has(classify(profile), UseCaseKind::WriteWithoutRead));
}

// ------------------------------ combinations ------------------------------

TEST(Combinations, PopulationListGetsBothLiAndFlr) {
    // The GPdotNET population profile: rebuilt every generation and fully
    // swept by fitness evaluation (Table V use cases two and three).
    ProfileBuilder b;
    for (int gen = 0; gen < 12; ++gen) {
        b.append_run(150);
        b.read_forward(150, 150);  // fitness evaluation sweep
        b.read_forward(150, 150);  // parent-selection sweep
        b.ev(OpKind::Clear, -1, 0);
    }
    const auto profile = b.build();
    const auto ucs = classify(profile);
    EXPECT_TRUE(has(ucs, UseCaseKind::LongInsert));
    EXPECT_TRUE(has(ucs, UseCaseKind::FrequentLongRead));
}

TEST(Combinations, EmptyProfileYieldsNothing) {
    ProfileBuilder b;
    const auto profile = b.build();
    EXPECT_TRUE(classify(profile).empty());
}

}  // namespace
}  // namespace dsspy::core
