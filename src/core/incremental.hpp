// The incremental streaming analyzer (DESIGN.md §8).
//
// Post-mortem DSspy materializes every access event, then runs pattern
// detection and use-case classification over the finalized store.  The
// IncrementalAnalyzer folds each event into O(1) per-instance state as it
// arrives — per-thread pattern runs (shared PatternMachine), end-traffic
// counters, read/write ratios, tail-phase and Sort-After-Insert
// bookkeeping — and classifies from those aggregates on demand.  Memory is
// bounded by the number of live instances (times recording threads), not
// by the event count.
//
// Equivalence: both pipelines reduce to the same InstanceStats and
// classify through the same UseCaseEngine::classify(const InstanceStats&),
// so verdicts, reasons, recommendations and confidences are bit-identical
// (tests/test_incremental.cpp holds this over every app and corpus
// workload).
//
// Contract: events must be folded in per-instance seq order (the order a
// session's grouped ColumnStore presents).  ProfilingSession's incremental
// sink, trace files written by write_trace, and per-instance replays all
// satisfy this.  Instance metadata should be declared before (or with) the
// instance's first event so Array-specific rules see the right kind.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <mutex>
#include <span>
#include <vector>

#include "core/detector_config.hpp"
#include "core/instance_stats.hpp"
#include "core/pattern_machine.hpp"
#include "core/use_cases.hpp"
#include "runtime/access_event.hpp"
#include "runtime/instance_registry.hpp"

namespace dsspy::runtime {
class ProfilingSession;
}  // namespace dsspy::runtime

namespace dsspy::core {

/// One instance in a streaming report: folded aggregates plus the use
/// cases classified from them.
struct StreamInstance {
    InstanceStats stats;
    std::vector<UseCase> use_cases;

    [[nodiscard]] bool flagged() const noexcept { return !use_cases.empty(); }

    [[nodiscard]] bool flagged_parallel() const noexcept {
        for (const UseCase& uc : use_cases)
            if (uc.parallel_potential()) return true;
        return false;
    }

    /// Completed patterns on the instance (sum over pattern kinds); equals
    /// the post-mortem pattern count for the same events.
    [[nodiscard]] std::size_t total_patterns() const noexcept {
        std::size_t n = 0;
        for (const std::size_t c : stats.pattern_counts) n += c;
        return n;
    }
};

/// Streaming counterpart of AnalysisResult: same aggregate accessors,
/// produced from folded state instead of a materialized event store.
class StreamReport {
public:
    [[nodiscard]] const std::vector<StreamInstance>& instances()
        const noexcept {
        return instances_;
    }

    /// All use cases across all instances, in instance order.
    [[nodiscard]] std::vector<UseCase> all_use_cases() const;

    /// Count of use cases per kind (indexed by UseCaseKind).
    [[nodiscard]] std::array<std::size_t, kUseCaseKindCount>
    use_case_counts() const;

    /// Number of registered list/array instances (Table IV denominator).
    [[nodiscard]] std::size_t list_array_instances() const noexcept {
        return list_array_instances_;
    }

    /// All registered instances regardless of kind.
    [[nodiscard]] std::size_t total_instances() const noexcept {
        return total_instances_;
    }

    /// List/array instances flagged with at least one parallel use case.
    [[nodiscard]] std::size_t flagged_instances() const noexcept;

    /// 1 - flagged/total over list+array instances; 0 with no instances.
    [[nodiscard]] double search_space_reduction() const noexcept;

    /// Total number of folded access events (including instances that are
    /// not in the registered list).
    [[nodiscard]] std::size_t total_events() const noexcept {
        return total_events_;
    }

private:
    friend class IncrementalAnalyzer;
    std::vector<StreamInstance> instances_;
    std::size_t list_array_instances_ = 0;
    std::size_t total_instances_ = 0;
    std::size_t total_events_ = 0;
};

/// Folds a per-instance seq-ordered event stream into bounded state and
/// classifies it on demand.  Thread-safe: fold/declare/snapshot may be
/// called concurrently (a mutex serializes them), so a collector thread
/// can fold while another thread takes live snapshots.
class IncrementalAnalyzer {
public:
    explicit IncrementalAnalyzer(DetectorConfig config = {})
        : config_(config), engine_(config) {}

    /// Register instance metadata (kind drives the Array-specific rules).
    /// Idempotent; later declarations update the stored metadata.
    void declare_instance(const runtime::InstanceInfo& info);

    /// Fold one event (must be the next event of its instance).
    void fold(const runtime::AccessEvent& ev);

    /// Fold a batch under one lock acquisition.  Events of different
    /// instances may interleave; each instance's sub-sequence must be in
    /// its seq order.
    void fold(std::span<const runtime::AccessEvent> events);

    /// Events folded so far.
    [[nodiscard]] std::uint64_t events_folded() const;

    /// Classify the state seen so far without disturbing it: open pattern
    /// runs are flushed virtually (on a copy), exactly as if the stream
    /// ended here.  `instances` is the registered-instance list (e.g.
    /// session.registry().snapshot() or a trace's instance table); kinds
    /// recorded at declare/fold time are used for rule selection.
    [[nodiscard]] StreamReport snapshot(
        const std::vector<runtime::InstanceInfo>& instances) const;

    /// Terminal classification: flushes open runs in place and reports.
    /// Further folding after finish() is not supported.
    [[nodiscard]] StreamReport finish(
        const std::vector<runtime::InstanceInfo>& instances);

    [[nodiscard]] const DetectorConfig& config() const noexcept {
        return config_;
    }

private:
    /// Closed insertion pattern still inside the Sort-After-Insert gap
    /// window (candidate for a future Sort).
    struct SaiCandidate {
        std::uint32_t first = 0;
        std::uint32_t last = 0;
        std::uint32_t length = 0;
    };

    /// Everything folded for one instance.  All containers are bounded by
    /// the number of recording threads and the SAI gap window — never by
    /// the event count.
    struct State {
        bool declared = false;
        runtime::DsKind kind = runtime::DsKind::List;
        std::uint32_t next_index = 0;  ///< Per-instance event index.

        std::array<std::size_t, kAccessTypeCount> counts{};
        std::uint64_t first_ns = 0;
        std::uint64_t last_ns = 0;
        std::size_t max_size = 0;
        std::vector<runtime::ThreadId> threads;

        AccessType tail_type = AccessType::Read;
        std::size_t tail_length = 0;
        std::uint32_t tail_last_size = 0;

        double weighted_reads = 0.0;
        double weighted_total = 0.0;
        std::size_t resizes = 0;
        EndTraffic iq_traffic;
        EndTraffic edge_traffic;

        detail::PatternMachine machine{3};

        std::array<std::size_t, kPatternKindCount> pattern_counts{};
        std::size_t long_insert_events = 0;
        std::uint64_t long_insert_ns = 0;
        bool has_longest_insert = false;
        std::uint32_t longest_insert_length = 0;
        std::uint32_t longest_insert_first = 0;
        bool longest_insert_front = false;
        std::size_t read_pattern_events = 0;
        std::size_t long_read_patterns = 0;

        // Sort-After-Insert bookkeeping (see incremental.cpp for the
        // equivalence argument).
        std::deque<SaiCandidate> sai_closed;
        std::vector<std::uint32_t> sai_pending;
        bool sai_match = false;
        std::uint32_t sai_sort = 0;
        std::uint32_t sai_first = 0;
        std::uint32_t sai_length = 0;
    };

    State& state_for(runtime::InstanceId id);
    /// Fold a non-empty run of consecutive events of one instance (the
    /// caller holds the mutex).
    void fold_run(State& st, std::span<const runtime::AccessEvent> run);
    void absorb_pattern(State& st, const Pattern& p, std::uint64_t first_ns,
                        std::uint64_t last_ns) const;
    void on_sort(State& st, std::uint32_t index);
    static void merge_sai(State& st, std::uint32_t sort_index,
                          std::uint32_t first, std::uint32_t length);
    [[nodiscard]] StreamReport report_from(
        std::vector<State> states,
        const std::vector<runtime::InstanceInfo>& instances) const;
    [[nodiscard]] static InstanceStats to_stats(
        const State& st, const runtime::InstanceInfo& info);

    DetectorConfig config_;
    UseCaseEngine engine_;
    mutable std::mutex mutex_;
    std::vector<State> states_;  ///< Indexed by InstanceId.
    std::uint64_t events_folded_ = 0;
};

/// Wire an analyzer into a session: instance registrations flow to
/// declare_instance() and ordered event batches to fold().  Instances
/// already registered are declared immediately.  Call before the session
/// records its first event; the analyzer must outlive the session's
/// stop().  Typically paired with AnalysisMode::Incremental so the session
/// retains no events.
void attach_incremental(runtime::ProfilingSession& session,
                        IncrementalAnalyzer& analyzer);

}  // namespace dsspy::core
