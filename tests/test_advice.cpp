// The structured Advice layer (DESIGN.md §14).
//
// The refactor's byte-identity contract is pinned by a differential: a
// test-local *legacy formatter* reproduces the original inline string
// construction (the code that classify() used before Advice existed,
// ported verbatim from the pre-refactor use_cases.cpp) from the same
// InstanceStats, and every reason/recommendation the seven evaluation
// apps produce must match it byte for byte.  The advice JSON document is
// validated with the test-local RFC 8259 parser.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "apps/app_registry.hpp"
#include "core/advice.hpp"
#include "core/dsspy.hpp"
#include "core/export.hpp"
#include "core/incremental.hpp"
#include "core/instance_stats.hpp"
#include "core/use_cases.hpp"
#include "json_check.hpp"
#include "runtime/session.hpp"
#include "support/table.hpp"

namespace {

using dsspy::core::AccessType;
using dsspy::core::AdviceAction;
using dsspy::core::AnalysisResult;
using dsspy::core::DetectorConfig;
using dsspy::core::Dsspy;
using dsspy::core::EndTraffic;
using dsspy::core::InstanceStats;
using dsspy::core::ShareBasis;
using dsspy::core::UseCase;
using dsspy::core::UseCaseKind;
using dsspy::support::Table;

// --- the legacy formatter ----------------------------------------------------

struct LegacyText {
    UseCaseKind kind;
    std::string reason;
    std::string recommendation;
};

std::string legacy_recommended_action(UseCaseKind kind) {
    switch (kind) {
        case UseCaseKind::LongInsert:
            return "Parallelize the insert operation.";
        case UseCaseKind::ImplementQueue:
            return "Employ a parallel queue as data container.";
        case UseCaseKind::SortAfterInsert:
            return "The insertion order is not important: parallelize both "
                   "the insert and the search phases.";
        case UseCaseKind::FrequentSearch:
            return "Either employ a parallel data structure that is "
                   "optimized for searches or parallelize the search "
                   "operation by splitting the list into smaller chunks "
                   "searched in parallel.";
        case UseCaseKind::FrequentLongRead:
            return "Check the origin of this access. If it contains a "
                   "program loop that looks for a specific element, "
                   "transform the operation into a parallel search.";
        case UseCaseKind::InsertDeleteFront:
            return "Insert/delete traffic causes high copy overhead on a "
                   "fixed-size array: a dynamic data structure like a list "
                   "might be better suited.";
        case UseCaseKind::StackImplementation:
            return "Insert and delete operations always access a common "
                   "end: think about using a stack implementation.";
        case UseCaseKind::WriteWithoutRead:
            return "The results of the trailing write accesses are never "
                   "read; check whether these writes are necessary or can "
                   "be left to deallocation/garbage collection.";
        case UseCaseKind::Count: break;
    }
    return "?";
}

bool legacy_is_linear(dsspy::runtime::DsKind kind) {
    switch (kind) {
        case dsspy::runtime::DsKind::List:
        case dsspy::runtime::DsKind::Array:
        case dsspy::runtime::DsKind::Stack:
        case dsspy::runtime::DsKind::Queue:
        case dsspy::runtime::DsKind::LinkedList:
            return true;
        default:
            return false;
    }
}

/// Verbatim port of the pre-Advice classify(): same rules, same inline
/// string building.  Only the strings matter here — confidence and rule
/// order are covered by the engine's own tests.
std::vector<LegacyText> legacy_classify(const InstanceStats& s,
                                        const DetectorConfig& config) {
    std::vector<LegacyText> out;
    const dsspy::runtime::InstanceInfo& info = s.info;
    const std::size_t total = s.total;
    if (total == 0) return out;

    auto emit = [&out, &s](UseCaseKind kind, std::string reason) {
        LegacyText t;
        t.kind = kind;
        t.reason = std::move(reason);
        t.recommendation = legacy_recommended_action(kind);
        if (s.thread_count > 1 && dsspy::core::has_parallel_potential(kind)) {
            t.recommendation +=
                " Note: this instance is already accessed by " +
                std::to_string(s.thread_count) +
                " threads; verify synchronization before transforming.";
        }
        out.push_back(std::move(t));
    };

    const bool linear = legacy_is_linear(info.kind);

    const double insert_share =
        config.share_basis == ShareBasis::Time
            ? (s.duration_ns > 0
                   ? static_cast<double>(s.long_insert_ns) /
                         static_cast<double>(s.duration_ns)
                   : 0.0)
            : static_cast<double>(s.long_insert_events) /
                  static_cast<double>(total);
    const bool li_conditions = linear && s.has_longest_insert &&
                               insert_share > config.li_min_insert_share;

    bool sai_fired = false;
    if (li_conditions && s.sai_match) {
        emit(UseCaseKind::SortAfterInsert,
             "Sort follows an insertion phase of " +
                 std::to_string(s.sai_phase_length) + " events (" +
                 Table::pct(insert_share) +
                 " of the profile is long insertions); the "
                 "insertion order is obviously not important.");
        sai_fired = true;
    }

    if (li_conditions && !sai_fired) {
        emit(UseCaseKind::LongInsert,
             "Insertion phases cover " + Table::pct(insert_share) +
                 " of the profile (threshold " +
                 Table::pct(config.li_min_insert_share) +
                 "); longest consecutive insertion streak: " +
                 std::to_string(s.longest_insert_length) +
                 " events from the " +
                 (s.longest_insert_front ? "front." : "end."));
    }

    if (info.kind == dsspy::runtime::DsKind::List &&
        total >= config.iq_min_events) {
        const EndTraffic& t = s.iq_traffic;
        const std::size_t fifo1 =
            t.back_insert + t.front_delete + t.front_read;
        const std::size_t fifo2 =
            t.front_insert + t.back_delete + t.back_read;
        const bool orientation1 = fifo1 >= fifo2;
        const std::size_t insert_side =
            orientation1 ? t.back_insert : t.front_insert;
        const std::size_t consume_side =
            orientation1 ? t.front_delete + t.front_read
                         : t.back_delete + t.back_read;
        const double two_end_share =
            static_cast<double>(insert_side + consume_side) /
            static_cast<double>(total);
        const double balance =
            insert_side + consume_side == 0
                ? 0.0
                : static_cast<double>(std::min(insert_side, consume_side)) /
                      static_cast<double>(insert_side + consume_side);
        if (two_end_share > config.iq_min_two_end_share &&
            balance >= config.iq_min_per_end_share && insert_side > 0 &&
            consume_side > 0) {
            emit(UseCaseKind::ImplementQueue,
                 Table::pct(two_end_share) +
                     " of all accesses affect two different ends of the "
                     "list (" +
                     std::to_string(insert_side) + " inserts at the " +
                     (orientation1 ? "back" : "front") + ", " +
                     std::to_string(consume_side) +
                     " reads/deletes at the " +
                     (orientation1 ? "front" : "back") +
                     "): the list is used like a queue.");
        }
    }

    const std::size_t search_ops =
        s.counts[static_cast<std::size_t>(AccessType::Search)];
    if (linear && search_ops > config.fs_min_search_ops) {
        const double read_pattern_share =
            static_cast<double>(s.read_pattern_events) /
            static_cast<double>(total);
        if (read_pattern_share >= config.fs_min_read_pattern_share) {
            emit(UseCaseKind::FrequentSearch,
                 std::to_string(search_ops) +
                     " search operations (threshold " +
                     std::to_string(config.fs_min_search_ops) + "); " +
                     Table::pct(read_pattern_share) +
                     " of all access events are Read-Forward/Read-Backward "
                     "patterns.");
        }
    }

    if (linear) {
        const double read_share =
            s.weighted_total > 0.0 ? s.weighted_reads / s.weighted_total
                                   : 0.0;
        if (s.long_read_patterns > config.flr_min_read_patterns &&
            read_share >= config.flr_min_read_share) {
            emit(UseCaseKind::FrequentLongRead,
                 std::to_string(s.long_read_patterns) +
                     " sequential read patterns each covering at least " +
                     Table::pct(config.flr_min_coverage) +
                     " of the structure; " + Table::pct(read_share) +
                     " of all access types are Read or Search — this looks "
                     "like a disguised search operation.");
        }
    }

    if (info.kind == dsspy::runtime::DsKind::Array) {
        if (s.resizes >= config.idf_min_resizes) {
            emit(UseCaseKind::InsertDeleteFront,
                 std::to_string(s.resizes) +
                     " array reallocations: every resize copies all "
                     "elements.");
        }
    } else if (info.kind == dsspy::runtime::DsKind::List) {
        const EndTraffic& t = s.edge_traffic;
        if (t.front_insert >= config.idf_min_front_ops &&
            t.front_delete >= config.idf_min_front_ops) {
            emit(UseCaseKind::InsertDeleteFront,
                 std::to_string(t.front_insert) + " front inserts and " +
                     std::to_string(t.front_delete) +
                     " front deletes each shift the whole tail.");
        }
    }

    if (info.kind == dsspy::runtime::DsKind::List) {
        const EndTraffic& t = s.edge_traffic;
        const std::size_t muts = t.inserts() + t.deletes();
        const std::size_t inserts =
            s.counts[static_cast<std::size_t>(AccessType::Insert)];
        const std::size_t deletes =
            s.counts[static_cast<std::size_t>(AccessType::Delete)];
        const std::size_t all_muts = inserts + deletes;
        if (all_muts >= config.si_min_ops && muts > 0 && inserts > 0 &&
            deletes > 0) {
            const double back_share =
                static_cast<double>(t.back_insert + t.back_delete) /
                static_cast<double>(all_muts);
            const double front_share =
                static_cast<double>(t.front_insert + t.front_delete) /
                static_cast<double>(all_muts);
            if (back_share >= config.si_min_common_end_share ||
                front_share >= config.si_min_common_end_share) {
                emit(UseCaseKind::StackImplementation,
                     Table::pct(std::max(back_share, front_share)) +
                         " of all insert/delete operations access the " +
                         (back_share >= front_share ? "back" : "front") +
                         " of the list: this is a stack implementation.");
            }
        }
    }

    if (s.tail_type == AccessType::Write &&
        s.tail_length >= config.wwr_min_events) {
        const double denom = s.tail_last_size > 0
                                 ? static_cast<double>(s.tail_last_size)
                                 : 1.0;
        const double coverage =
            std::min(1.0, static_cast<double>(s.tail_length) / denom);
        if (coverage >= config.wwr_min_coverage) {
            emit(UseCaseKind::WriteWithoutRead,
                 "The profile ends with a write phase of " +
                     std::to_string(s.tail_length) +
                     " events covering " + Table::pct(coverage) +
                     " of the structure whose results are never read.");
        }
    }

    return out;
}

// --- the differential across the evaluation apps -----------------------------

TEST(AdviceDifferential, RenderedTextMatchesLegacyFormatterOnAllApps) {
    const DetectorConfig config{};
    std::size_t compared = 0;
    for (const dsspy::apps::AppInfo& app : dsspy::apps::evaluation_apps()) {
        dsspy::runtime::ProfilingSession session;
        app.run_sequential(&session);
        session.stop();
        const AnalysisResult result = Dsspy{config}.analyze(session);
        for (const dsspy::core::InstanceAnalysis& inst : result.instances()) {
            const InstanceStats stats = dsspy::core::compute_instance_stats(
                inst.profile,
                dsspy::core::instance_events(session.store(),
                                             inst.profile.info().id),
                inst.patterns, config);
            const std::vector<LegacyText> legacy =
                legacy_classify(stats, config);
            ASSERT_EQ(inst.use_cases.size(), legacy.size())
                << app.name << " " << stats.info.location.to_string();
            for (std::size_t i = 0; i < legacy.size(); ++i) {
                const UseCase& uc = inst.use_cases[i];
                EXPECT_EQ(uc.kind, legacy[i].kind) << app.name;
                EXPECT_EQ(uc.reason(), legacy[i].reason)
                    << app.name << " " << stats.info.location.to_string();
                EXPECT_EQ(uc.recommendation(), legacy[i].recommendation)
                    << app.name << " " << stats.info.location.to_string();
                ++compared;
            }
        }
    }
    // The evaluation corpus flags dozens of use cases; if this drops to
    // zero the differential is vacuous.
    EXPECT_GT(compared, 20u);
}

// --- structured model invariants ---------------------------------------------

TEST(AdviceModel, ActionBijectionAndNames) {
    for (std::size_t i = 0; i < dsspy::core::kUseCaseKindCount; ++i) {
        const auto kind = static_cast<UseCaseKind>(i);
        const AdviceAction action = dsspy::core::advice_action_for(kind);
        EXPECT_NE(dsspy::core::advice_action_name(action), "?");
        // The action's canonical text is the kind's recommended action.
        EXPECT_EQ(dsspy::core::advice_action_text(action),
                  dsspy::core::recommended_action(kind));
        // Parallel potential agrees between the kind and the action.
        EXPECT_EQ(dsspy::core::advice_action_parallel(action),
                  dsspy::core::has_parallel_potential(kind));
    }
    // Distinct kinds map to distinct actions (it is a bijection).
    for (std::size_t a = 0; a < dsspy::core::kUseCaseKindCount; ++a)
        for (std::size_t b = a + 1; b < dsspy::core::kUseCaseKindCount; ++b)
            EXPECT_NE(dsspy::core::advice_action_for(
                          static_cast<UseCaseKind>(a)),
                      dsspy::core::advice_action_for(
                          static_cast<UseCaseKind>(b)));
}

TEST(AdviceModel, MultithreadNoteRendersFromEvidence) {
    dsspy::core::Advice advice;
    advice.action = AdviceAction::ParallelInsert;
    advice.evidence.thread_count = 3;
    const std::string rec = dsspy::core::render_advice_recommendation(advice);
    EXPECT_NE(rec.find("already accessed by 3 threads"), std::string::npos);
    // Non-parallel advice never carries the note.
    advice.action = AdviceAction::UseStack;
    EXPECT_EQ(dsspy::core::render_advice_recommendation(advice)
                  .find("threads"),
              std::string::npos);
}

// --- the advice JSON document ------------------------------------------------

TEST(AdviceJson, PostmortemDocumentParsesAndCarriesActions) {
    const dsspy::apps::AppInfo* app = dsspy::apps::find_app("Mandelbrot");
    ASSERT_NE(app, nullptr);
    dsspy::runtime::ProfilingSession session;
    app->run_sequential(&session);
    session.stop();
    const AnalysisResult result = Dsspy{}.analyze(session);

    std::ostringstream os;
    dsspy::core::write_advice_json(os, result);
    const std::string doc = os.str();
    EXPECT_TRUE(dsspy_test::json_valid(doc)) << doc.substr(0, 400);
    EXPECT_NE(doc.find("\"advice_version\": 1"), std::string::npos);
    EXPECT_NE(doc.find("\"verdicts\""), std::string::npos);
    EXPECT_NE(doc.find("\"action\""), std::string::npos);
    EXPECT_NE(doc.find("\"evidence\""), std::string::npos);
    // Every action name in the document is a real enum name.
    for (const UseCase& uc : result.all_use_cases()) {
        const std::string needle =
            "\"action\": \"" +
            std::string(dsspy::core::advice_action_name(uc.advice.action)) +
            "\"";
        EXPECT_NE(doc.find(needle), std::string::npos) << needle;
    }
}

TEST(AdviceJson, StreamDocumentMatchesPostmortemDocument) {
    const dsspy::apps::AppInfo* app = dsspy::apps::find_app("WordWheelSolver");
    ASSERT_NE(app, nullptr);
    dsspy::runtime::ProfilingSession session;
    app->run_sequential(&session);
    session.stop();

    const AnalysisResult pm = Dsspy{}.analyze(session);
    std::ostringstream pm_os;
    dsspy::core::write_advice_json(pm_os, pm);

    dsspy::core::IncrementalAnalyzer analyzer;
    const auto instances = session.registry().snapshot();
    for (const auto& info : instances) analyzer.declare_instance(info);
    for (const auto& info : instances)
        analyzer.fold(dsspy::core::instance_events(session.store(), info.id));
    const dsspy::core::StreamReport stream = analyzer.finish(instances);
    std::ostringstream st_os;
    dsspy::core::write_advice_json(st_os, stream);

    EXPECT_TRUE(dsspy_test::json_valid(st_os.str()));
    EXPECT_EQ(pm_os.str(), st_os.str())
        << "incremental advice document diverged from post-mortem";
}

}  // namespace
