// DSspy facade: profile -> patterns -> use cases -> recommendations.
//
// "DSspy uses static and dynamic analyses to collect the runtime profiles,
// to find recurring access patterns and use cases, and to deduce
// recommended actions" (Section IV, Figure 4).  `Dsspy::analyze` runs the
// post-mortem half of that pipeline over a stopped ProfilingSession.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "core/detector_config.hpp"
#include "core/incremental.hpp"
#include "core/patterns.hpp"
#include "core/profile.hpp"
#include "core/use_cases.hpp"
#include "runtime/column_store.hpp"
#include "runtime/session.hpp"

namespace dsspy::par {
class ThreadPool;
}

namespace dsspy::core {

/// Per-instance analysis output: the profile view, its patterns, and the
/// use cases found on it.
struct InstanceAnalysis {
    RuntimeProfile profile;
    std::vector<Pattern> patterns;
    std::vector<UseCase> use_cases;

    [[nodiscard]] bool flagged() const noexcept { return !use_cases.empty(); }

    [[nodiscard]] bool flagged_parallel() const noexcept {
        for (const UseCase& uc : use_cases)
            if (uc.parallel_potential()) return true;
        return false;
    }
};

/// Whole-session analysis result (self-contained: holds no reference to
/// the analyzed store).
class AnalysisResult {
public:
    [[nodiscard]] const std::vector<InstanceAnalysis>& instances()
        const noexcept {
        return instances_;
    }

    /// All use cases across all instances, in instance order.
    [[nodiscard]] std::vector<UseCase> all_use_cases() const;

    /// Count of use cases per kind (indexed by UseCaseKind).
    [[nodiscard]] std::array<std::size_t, kUseCaseKindCount>
    use_case_counts() const;

    /// Number of registered list/array instances — the search-space
    /// denominator used in Table IV ("we manually counted the number of
    /// instantiations of both data structures").
    [[nodiscard]] std::size_t list_array_instances() const noexcept {
        return list_array_instances_;
    }

    /// All registered instances regardless of kind.
    [[nodiscard]] std::size_t total_instances() const noexcept {
        return total_instances_;
    }

    /// List/array instances flagged with at least one parallel use case.
    [[nodiscard]] std::size_t flagged_instances() const noexcept;

    /// 1 - flagged/total over list+array instances (Table IV's
    /// "Search Space Reduction"); 0 when there are no instances.
    [[nodiscard]] double search_space_reduction() const noexcept;

    /// Total number of recorded access events.
    [[nodiscard]] std::size_t total_events() const noexcept {
        return total_events_;
    }

private:
    friend class Dsspy;
    std::vector<InstanceAnalysis> instances_;
    std::size_t list_array_instances_ = 0;
    std::size_t total_instances_ = 0;
    std::size_t total_events_ = 0;
};

/// One instance's rows of `columns` rebuilt as AccessEvent records, in
/// ascending seq (empty when the id is unknown or silent).  The per-event
/// form analyze_reference reads; tests use it to inspect a store.
[[nodiscard]] std::vector<runtime::AccessEvent> instance_events(
    const runtime::ColumnStore& columns, runtime::InstanceId id);

/// The analyzer.  Stateless apart from its configuration; reusable.
class Dsspy {
public:
    explicit Dsspy(DetectorConfig config = {})
        : config_(config), detector_(config), engine_(config) {}

    /// Analyze a stopped session: build a profile per instance, detect
    /// patterns, classify use cases.  With a pool, instances are analyzed
    /// in parallel; the result is bit-identical to the sequential run (the
    /// detector and engine are stateless and each instance writes its own
    /// pre-allocated slot).
    [[nodiscard]] AnalysisResult analyze(
        const runtime::ProfilingSession& session,
        par::ThreadPool* pool = nullptr) const;

    /// Analyze explicit instance metadata + a store (a trace read with
    /// runtime::read_trace or the zero-copy DST1 path,
    /// runtime::read_trace_columns).  Runs over the store's columns with
    /// the vectorized kernels (DESIGN.md §11).
    [[nodiscard]] AnalysisResult analyze(
        const std::vector<runtime::InstanceInfo>& instances,
        const runtime::ColumnStore& columns,
        par::ThreadPool* pool = nullptr) const;

    /// The pre-columnar per-event implementation, kept as the differential
    /// reference: each instance's rows rebuilt as AccessEvent records
    /// (instance_events), per-event RuntimeProfile construction, per-step
    /// pattern machine, instance-count work partitioning.  The
    /// differential suite and the benchmark baseline compare analyze()
    /// against this.
    [[nodiscard]] AnalysisResult analyze_reference(
        const std::vector<runtime::InstanceInfo>& instances,
        const runtime::ColumnStore& columns,
        par::ThreadPool* pool = nullptr) const;

    /// Live snapshot of an incremental analyzer attached to a running
    /// session (attach_incremental): classifies everything folded so far
    /// against the session's current registry, without stopping the
    /// session or disturbing the analyzer's state.
    [[nodiscard]] static StreamReport snapshot(
        const IncrementalAnalyzer& analyzer,
        const runtime::ProfilingSession& session) {
        return analyzer.snapshot(session.registry().snapshot());
    }

    /// Terminal incremental report for a stopped session.
    [[nodiscard]] static StreamReport finish(
        IncrementalAnalyzer& analyzer,
        const runtime::ProfilingSession& session) {
        return analyzer.finish(session.registry().snapshot());
    }

    [[nodiscard]] const DetectorConfig& config() const noexcept {
        return config_;
    }

private:
    DetectorConfig config_;
    PatternDetector detector_;
    UseCaseEngine engine_;
};

}  // namespace dsspy::core
