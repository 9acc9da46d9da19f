// Differential tests for the columnar analysis core (DESIGN.md §11).
//
// Two layers of bit-identity guarantees are pinned here:
//   1. Kernel level — every vectorized detector kernel returns exactly the
//      scalar core's bits at every dispatch tier the CPU supports, over
//      adversarial fuzzed columns (remainder lengths, negative positions,
//      saturated sizes).
//   2. Verdict level — Dsspy::analyze (columnar, SIMD, event-balanced
//      shards) produces digest-identical results to analyze_reference (the
//      pre-columnar AoS path) across the seven evaluation apps and the
//      whole empirical-study corpus, for scalar and SIMD dispatch, under
//      1/2/4 worker threads, and through the zero-copy column reader.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "apps/app_registry.hpp"
#include "core/column_analysis.hpp"
#include "core/detector_kernels.hpp"
#include "core/dsspy.hpp"
#include "corpus/program_model.hpp"
#include "corpus/workload.hpp"
#include "ds/ds.hpp"
#include "parallel/thread_pool.hpp"
#include "runtime/session.hpp"
#include "runtime/trace_binary.hpp"
#include "runtime/trace_mmap.hpp"

namespace dsspy::core {
namespace {

using kernels::SimdLevel;

// ------------------------------------------------------------- fuzz input

/// Deterministic 64-bit LCG (no std::random: identical streams everywhere).
struct Lcg {
    std::uint64_t state;
    std::uint64_t next() {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        return state >> 11;
    }
    std::uint64_t next(std::uint64_t bound) { return next() % bound; }
};

/// One fuzzed column set: valid ops plus derived types, positions with a
/// negative sprinkle, small-cardinality threads, occasional huge sizes.
struct FuzzColumns {
    std::vector<std::uint8_t> ops;
    std::vector<std::uint8_t> types;
    std::vector<std::int64_t> positions;
    std::vector<std::uint32_t> sizes;
    std::vector<std::uint16_t> threads;
};

FuzzColumns make_columns(std::size_t n, Lcg& rng) {
    FuzzColumns c;
    c.ops.resize(n);
    c.types.resize(n);
    c.positions.resize(n);
    c.sizes.resize(n);
    c.threads.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        c.ops[i] = static_cast<std::uint8_t>(rng.next(runtime::kOpKindCount));
        c.types[i] = static_cast<std::uint8_t>(derive_access_type(
            static_cast<runtime::OpKind>(c.ops[i])));
        const std::uint64_t r = rng.next(100);
        c.positions[i] = r < 10 ? -1
                                : static_cast<std::int64_t>(rng.next(64));
        c.sizes[i] = r > 95 ? 0xFFFFFFF0u + static_cast<std::uint32_t>(r)
                            : static_cast<std::uint32_t>(rng.next(64));
        c.threads[i] = static_cast<std::uint16_t>(rng.next(5));
    }
    return c;
}

/// Dispatch tiers to sweep: scalar always, plus whatever the CPU offers.
std::vector<SimdLevel> sweep_levels() {
    std::vector<SimdLevel> levels{SimdLevel::Scalar};
    kernels::reset_forced_simd_level();
    const SimdLevel best = kernels::active_simd_level();
    if (best >= SimdLevel::Sse42) levels.push_back(SimdLevel::Sse42);
    if (best >= SimdLevel::Avx2) levels.push_back(SimdLevel::Avx2);
    return levels;
}

/// Lengths that stress every remainder path (vector width 4/16/32).
constexpr std::size_t kFuzzLengths[] = {0,  1,  3,  4,   5,   15,  16, 17,
                                        31, 32, 33, 100, 255, 1000, 4097};

class KernelSweep : public ::testing::Test {
protected:
    void TearDown() override { kernels::reset_forced_simd_level(); }
};

TEST_F(KernelSweep, FoldKernelsMatchScalarAtEveryTier) {
    Lcg rng{42};
    for (const std::size_t n : kFuzzLengths) {
        const FuzzColumns c = make_columns(n, rng);

        // Scalar reference for every fold.
        kernels::force_simd_level(SimdLevel::Scalar);
        std::vector<std::uint8_t> ref_types(n);
        kernels::derive_types(c.ops.data(), n, ref_types.data());
        std::array<std::size_t, kAccessTypeCount> ref_hist{};
        kernels::type_histogram(c.types.data(), n, ref_hist);
        const std::uint32_t ref_max = kernels::max_size_u32(c.sizes.data(), n);
        const std::size_t ref_threads =
            kernels::distinct_threads(c.threads.data(), n);
        const std::size_t ref_resize =
            kernels::count_op(c.ops.data(), n, runtime::OpKind::Resize);
        EndTraffic ref_iq, ref_edge;
        kernels::end_traffic(c.types.data(), c.positions.data(),
                             c.sizes.data(), n, 3, ref_iq, ref_edge);
        const kernels::WeightedReads ref_wr =
            kernels::weighted_reads(c.types.data(), c.sizes.data(), n);
        const std::vector<Phase> ref_phases =
            kernels::phases_from_types(c.types.data(), n);
        std::vector<std::uint32_t> ref_sorts;
        kernels::collect_type_indices(
            c.types.data(), n, static_cast<std::uint8_t>(AccessType::Sort),
            ref_sorts);

        for (const SimdLevel level : sweep_levels()) {
            kernels::force_simd_level(level);
            SCOPED_TRACE(testing::Message()
                         << "n=" << n << " level="
                         << kernels::simd_level_name(level));

            std::vector<std::uint8_t> types(n);
            kernels::derive_types(c.ops.data(), n, types.data());
            EXPECT_EQ(types, ref_types);

            std::array<std::size_t, kAccessTypeCount> hist{};
            kernels::type_histogram(c.types.data(), n, hist);
            EXPECT_EQ(hist, ref_hist);

            EXPECT_EQ(kernels::max_size_u32(c.sizes.data(), n), ref_max);
            EXPECT_EQ(kernels::distinct_threads(c.threads.data(), n),
                      ref_threads);
            EXPECT_EQ(
                kernels::count_op(c.ops.data(), n, runtime::OpKind::Resize),
                ref_resize);

            EndTraffic iq, edge;
            kernels::end_traffic(c.types.data(), c.positions.data(),
                                 c.sizes.data(), n, 3, iq, edge);
            EXPECT_EQ(iq.front_insert, ref_iq.front_insert);
            EXPECT_EQ(iq.back_insert, ref_iq.back_insert);
            EXPECT_EQ(iq.front_delete, ref_iq.front_delete);
            EXPECT_EQ(iq.back_delete, ref_iq.back_delete);
            EXPECT_EQ(iq.front_read, ref_iq.front_read);
            EXPECT_EQ(iq.back_read, ref_iq.back_read);
            EXPECT_EQ(edge.front_insert, ref_edge.front_insert);
            EXPECT_EQ(edge.back_insert, ref_edge.back_insert);
            EXPECT_EQ(edge.front_delete, ref_edge.front_delete);
            EXPECT_EQ(edge.back_delete, ref_edge.back_delete);
            EXPECT_EQ(edge.front_read, ref_edge.front_read);
            EXPECT_EQ(edge.back_read, ref_edge.back_read);

            const kernels::WeightedReads wr =
                kernels::weighted_reads(c.types.data(), c.sizes.data(), n);
            EXPECT_EQ(wr.reads, ref_wr.reads);
            EXPECT_EQ(wr.total, ref_wr.total);

            const std::vector<Phase> phases =
                kernels::phases_from_types(c.types.data(), n);
            ASSERT_EQ(phases.size(), ref_phases.size());
            for (std::size_t p = 0; p < phases.size(); ++p) {
                EXPECT_EQ(phases[p].type, ref_phases[p].type);
                EXPECT_EQ(phases[p].first, ref_phases[p].first);
                EXPECT_EQ(phases[p].last, ref_phases[p].last);
            }

            std::vector<std::uint32_t> sorts;
            kernels::collect_type_indices(
                c.types.data(), n,
                static_cast<std::uint8_t>(AccessType::Sort), sorts);
            EXPECT_EQ(sorts, ref_sorts);

            // Constant-type span fold == general fold over a column filled
            // with that type, for every class the span kernel specializes
            // (plus one it must treat as a no-op).
            for (const AccessType span_type :
                 {AccessType::Read, AccessType::Write, AccessType::Insert,
                  AccessType::Delete, AccessType::Search}) {
                const auto ty = static_cast<std::uint8_t>(span_type);
                const std::vector<std::uint8_t> const_types(n, ty);
                EndTraffic span_iq, span_edge, full_iq, full_edge;
                kernels::end_traffic_span(ty, c.positions.data(),
                                          c.sizes.data(), n, 3, span_iq,
                                          span_edge);
                kernels::end_traffic(const_types.data(), c.positions.data(),
                                     c.sizes.data(), n, 3, full_iq,
                                     full_edge);
                EXPECT_EQ(span_iq.front_insert, full_iq.front_insert);
                EXPECT_EQ(span_iq.back_insert, full_iq.back_insert);
                EXPECT_EQ(span_iq.front_delete, full_iq.front_delete);
                EXPECT_EQ(span_iq.back_delete, full_iq.back_delete);
                EXPECT_EQ(span_iq.front_read, full_iq.front_read);
                EXPECT_EQ(span_iq.back_read, full_iq.back_read);
                EXPECT_EQ(span_edge.front_insert, full_edge.front_insert);
                EXPECT_EQ(span_edge.back_insert, full_edge.back_insert);
                EXPECT_EQ(span_edge.front_delete, full_edge.front_delete);
                EXPECT_EQ(span_edge.back_delete, full_edge.back_delete);
                EXPECT_EQ(span_edge.front_read, full_edge.front_read);
                EXPECT_EQ(span_edge.back_read, full_edge.back_read);
            }
        }
    }
}

TEST_F(KernelSweep, StreakKernelsMatchScalarAtEveryTier) {
    Lcg rng{1234};
    for (const std::size_t n : kFuzzLengths) {
        // Streak-friendly columns: long same-type same-thread runs with
        // regular positions so the vector bodies actually execute, plus
        // fuzzed interruptions.
        FuzzColumns c = make_columns(n, rng);
        for (std::size_t i = 0; i < n; ++i) {
            if (rng.next(100) < 85) {  // mostly streaky
                c.types[i] = static_cast<std::uint8_t>(
                    rng.next(2) ? AccessType::Read : AccessType::Insert);
                c.threads[i] = 1;
                c.positions[i] = static_cast<std::int64_t>(i);
                c.sizes[i] = static_cast<std::uint32_t>(i + 1);
            }
        }

        struct Probe {
            std::uint8_t type;
            std::uint16_t tid;
            std::int64_t prev_pos;
            std::int64_t dir;
        };
        const Probe probes[] = {
            {static_cast<std::uint8_t>(AccessType::Read), 1, -1, 1},
            {static_cast<std::uint8_t>(AccessType::Read), 1,
             static_cast<std::int64_t>(n), -1},
            {static_cast<std::uint8_t>(AccessType::Write), 0, 5, 1},
            {static_cast<std::uint8_t>(AccessType::Read), 9, 0, 1},
        };
        const kernels::EndAnchor anchors[] = {
            kernels::EndAnchor::InsertBack, kernels::EndAnchor::DeleteBack,
            kernels::EndAnchor::Front};

        kernels::force_simd_level(SimdLevel::Scalar);
        std::vector<std::size_t> ref;
        for (const Probe& p : probes)
            ref.push_back(kernels::monotone_streak(
                c.types.data(), c.positions.data(), c.threads.data(), n,
                p.type, p.tid, p.prev_pos, p.dir));
        for (const kernels::EndAnchor a : anchors)
            ref.push_back(kernels::end_anchor_streak(
                c.types.data(), c.positions.data(), c.sizes.data(),
                c.threads.data(), n,
                static_cast<std::uint8_t>(a == kernels::EndAnchor::DeleteBack
                                              ? AccessType::Delete
                                              : AccessType::Insert),
                1, a));
        ref.push_back(kernels::flushable_streak(
            c.types.data(), c.positions.data(), c.threads.data(), n, 1));

        for (const SimdLevel level : sweep_levels()) {
            kernels::force_simd_level(level);
            SCOPED_TRACE(testing::Message()
                         << "n=" << n << " level="
                         << kernels::simd_level_name(level));
            std::size_t k = 0;
            for (const Probe& p : probes)
                EXPECT_EQ(kernels::monotone_streak(
                              c.types.data(), c.positions.data(),
                              c.threads.data(), n, p.type, p.tid, p.prev_pos,
                              p.dir),
                          ref[k++]);
            for (const kernels::EndAnchor a : anchors)
                EXPECT_EQ(
                    kernels::end_anchor_streak(
                        c.types.data(), c.positions.data(), c.sizes.data(),
                        c.threads.data(), n,
                        static_cast<std::uint8_t>(
                            a == kernels::EndAnchor::DeleteBack
                                ? AccessType::Delete
                                : AccessType::Insert),
                        1, a),
                    ref[k++]);
            EXPECT_EQ(kernels::flushable_streak(c.types.data(),
                                                c.positions.data(),
                                                c.threads.data(), n, 1),
                      ref[k++]);
        }
    }
}

TEST_F(KernelSweep, ForcedLevelClampsToCpuAndNames) {
    kernels::force_simd_level(SimdLevel::Avx2);
    // Whatever the CPU supports, the active level never exceeds the
    // forced request and never exceeds the hardware.
    EXPECT_LE(static_cast<int>(kernels::active_simd_level()),
              static_cast<int>(SimdLevel::Avx2));
    kernels::force_simd_level(SimdLevel::Scalar);
    EXPECT_EQ(kernels::active_simd_level(), SimdLevel::Scalar);
    EXPECT_EQ(kernels::simd_level_name(SimdLevel::Scalar), "scalar");
    EXPECT_EQ(kernels::simd_level_name(SimdLevel::Sse42), "sse4.2");
    EXPECT_EQ(kernels::simd_level_name(SimdLevel::Avx2), "avx2");
}

// --------------------------------------------------- verdict differential

/// Everything that constitutes a verdict, flattened to text: profile
/// aggregates, every pattern field, every use-case field.  Two analyses
/// are "bit-identical" iff their digests compare equal.
std::string digest(const AnalysisResult& result) {
    std::ostringstream os;
    os << result.total_instances() << '|' << result.list_array_instances()
       << '|' << result.flagged_instances() << '|' << result.total_events()
       << '\n';
    for (const InstanceAnalysis& ia : result.instances()) {
        const RuntimeProfile& p = ia.profile;
        os << p.info().id << ':' << p.total_events() << ':' << p.max_size()
           << ':' << p.duration_ns() << ':' << p.thread_count();
        for (std::size_t t = 0; t < kAccessTypeCount; ++t)
            os << ',' << p.count(static_cast<AccessType>(t));
        for (const Phase& ph : p.phases())
            os << ';' << static_cast<int>(ph.type) << '.' << ph.first << '.'
               << ph.last;
        os << '\n';
        for (const Pattern& pat : ia.patterns)
            os << "  P" << static_cast<int>(pat.kind) << ' ' << pat.first
               << ' ' << pat.last << ' ' << pat.length << ' '
               << pat.start_pos << ' ' << pat.end_pos << ' ' << pat.coverage
               << ' ' << pat.thread << ' ' << pat.synthetic << '\n';
        for (const UseCase& uc : ia.use_cases)
            os << "  U" << static_cast<int>(uc.kind) << ' '
               << uc.parallel_potential() << ' ' << uc.confidence() << ' '
               << uc.reason() << " -> " << uc.recommendation() << '\n';
    }
    return std::move(os).str();
}

/// Run `analyze` (columnar) against `analyze_reference` (AoS) over the
/// same session, sweeping dispatch tiers and worker-thread counts.
void expect_columnar_matches_reference(const runtime::ProfilingSession& s,
                                       const std::string& label) {
    const std::vector<runtime::InstanceInfo> instances =
        s.registry().snapshot();
    const Dsspy analyzer;
    kernels::reset_forced_simd_level();
    const std::string ref =
        digest(analyzer.analyze_reference(instances, s.store()));

    for (const SimdLevel level : sweep_levels()) {
        kernels::force_simd_level(level);
        for (const unsigned threads : {1u, 2u, 4u}) {
            SCOPED_TRACE(testing::Message()
                         << label << " level="
                         << kernels::simd_level_name(level)
                         << " threads=" << threads);
            par::ThreadPool pool(threads);
            EXPECT_EQ(digest(analyzer.analyze(instances, s.store(), &pool)),
                      ref);
        }
    }
    kernels::reset_forced_simd_level();
}

class VerdictDifferential : public ::testing::Test {
protected:
    void TearDown() override { kernels::reset_forced_simd_level(); }
};

TEST_F(VerdictDifferential, SevenEvaluationApps) {
    for (const apps::AppInfo& app : apps::evaluation_apps()) {
        runtime::ProfilingSession session;
        (void)app.run_sequential(&session);
        session.stop();
        expect_columnar_matches_reference(session, app.name);
    }
}

TEST_F(VerdictDifferential, EmpiricalStudyCorpus) {
    for (const corpus::ProgramModel& program : corpus::all_programs()) {
        runtime::ProfilingSession session;
        if (program.in_eval23)
            corpus::run_eval_workload(program, &session);
        else
            corpus::run_study15_workload(program, &session);
        session.stop();
        expect_columnar_matches_reference(session, program.name);
    }
}

TEST_F(VerdictDifferential, ZeroCopyColumnReaderMatchesAoSAnalysis) {
    // write binary -> decode to columns -> analyze(columns) must give the
    // same verdicts as the per-event reference over the live session.
    runtime::ProfilingSession session;
    const apps::AppInfo* app = apps::find_app("WordWheelSolver");
    ASSERT_NE(app, nullptr);
    (void)app->run_sequential(&session);
    session.stop();

    std::ostringstream out;
    runtime::write_trace_binary(out, session.registry().snapshot(),
                                session.store());
    const std::string bytes = std::move(out).str();

    const runtime::ColumnTrace cols = runtime::read_trace_columns(bytes);

    const Dsspy analyzer;
    const std::string ref = digest(analyzer.analyze_reference(
        session.registry().snapshot(), session.store()));
    EXPECT_EQ(digest(analyzer.analyze(cols.instances, cols.columns)), ref);
    par::ThreadPool pool(4);
    EXPECT_EQ(digest(analyzer.analyze(cols.instances, cols.columns, &pool)),
              ref);
}

TEST_F(VerdictDifferential, SkewedEventDistributionShardsCorrectly) {
    // One whale instance plus many minnows: instance-count partitioning
    // would put the whale and a third of the minnows on one worker; the
    // event-balanced shards must still produce identical verdicts.
    runtime::ProfilingSession session;
    {
        ds::ProfiledList<int> whale(&session, {"Skew.Whale", "run", 1});
        for (int i = 0; i < 50000; ++i) whale.add(i);
        for (std::size_t i = 0; i < whale.count(); ++i) (void)whale.get(i);
        for (int m = 0; m < 60; ++m) {
            ds::ProfiledList<int> minnow(
                &session, {"Skew.Minnow" + std::to_string(m), "run", 2});
            for (int i = 0; i < 5; ++i) minnow.add(i);
        }
    }
    session.stop();
    expect_columnar_matches_reference(session, "skewed");
}

}  // namespace
}  // namespace dsspy::core
