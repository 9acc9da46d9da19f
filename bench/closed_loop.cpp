// Closed-loop evaluation: self-adapting containers vs fixed baselines.
//
// The paper's loop is profile -> classify -> programmer applies the
// remedy; DESIGN.md §15 closes it in-process: AdaptiveList /
// AdaptiveDictionary fold their own access stream, reclassify
// periodically, and migrate their backing at safe points.  This bench
// quantifies that loop on workloads modeled after the paper's
// evaluation programs, pitting each adaptive container against the
// fixed container a programmer would have reached for first:
//
//   * file_search   — FileSearcher-shaped: load entries, then rounds of
//     listing reads plus point searches.  Frequent-Search should flip
//     the list to the Indexed backing (value -> index dictionary),
//     turning O(n) IndexOf scans into O(1) lookups.
//   * message_queue — producer/consumer on a List: append at the back,
//     peek-and-pop at the front.  Implement-Queue should flip the
//     backing to a deque, turning O(n) front removals into O(1) pops.
//   * word_index    — WordWheelSolver-shaped reverse lookups on a
//     dictionary: key gets plus value -> key searches.  Frequent-Search
//     on the dense entry view should build the value index.
//   * phase_change  — alternating search / queue phases; not a speed
//     race but a thrash gauge: the hysteresis controller must converge
//     in at most three switches instead of chasing every phase.
//
// Every workload is one templated driver, so the identical operation
// sequence runs against the baseline, the adaptive container, and a
// ProfiledList (for word_index, one holding the dictionary's values in
// insertion order) whose trace feeds the offline post-mortem engine — the bench asserts the adaptive verdicts match
// that offline analysis exactly (zero divergence) and that checksums
// agree, then writes BENCH_closed_loop.json.  Machine note: the wins
// measured here are algorithmic (index lookups, deque pops), so they
// hold on a single hardware thread.
//
// Usage: closed_loop [output.json]
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "adapt/adaptive_dictionary.hpp"
#include "adapt/adaptive_list.hpp"
#include "core/detector_kernels.hpp"
#include "core/dsspy.hpp"
#include "core/use_cases.hpp"
#include "ds/dictionary.hpp"
#include "ds/list.hpp"
#include "ds/profiled_list.hpp"
#include "parallel/thread_pool.hpp"
#include "runtime/session.hpp"

namespace {

using namespace dsspy;
using Clock = std::chrono::steady_clock;

// --- workload drivers --------------------------------------------------------
// Templated over the container so baseline, adaptive, and profiled runs
// execute the exact same operation sequence.  Entry loads interleave a
// progress read every 64 appends — the realistic "update the UI while
// loading" shape — which also keeps insert runs below the Long-Insert
// phase threshold so the search/queue verdicts are the story here (the
// phase_change workload exercises verdict succession instead).

/// FileSearcher: load a directory table, then repeated listing reads
/// plus point searches for known names.
template <typename ListT>
std::uint64_t run_file_search(ListT& list) {
    constexpr std::size_t kEntries = 8192;
    constexpr int kRounds = 50;
    std::uint64_t checksum = 0;
    for (std::size_t i = 0; i < kEntries; ++i) {
        list.add(static_cast<long>(i * 7 + 1));
        if (i % 64 == 63)
            checksum += static_cast<std::uint64_t>(list.get(i));
    }
    for (int round = 0; round < kRounds; ++round) {
        for (int k = 0; k < 200; ++k)  // sequential listing reads
            checksum += static_cast<std::uint64_t>(
                list.get((static_cast<std::size_t>(round) * 113 + k) %
                         kEntries));
        for (int k = 0; k < 200; ++k) {  // scattered point searches
            const std::size_t target =
                (static_cast<std::size_t>(round) * 53 + k * 97u) % kEntries;
            checksum += static_cast<std::uint64_t>(
                list.index_of(static_cast<long>(target * 7 + 1)));
        }
    }
    return checksum;
}

/// Producer/consumer queue on a List: append back, peek and pop front.
template <typename ListT>
std::uint64_t run_message_queue(ListT& list) {
    constexpr std::size_t kDepth = 32768;
    constexpr int kMessages = 30000;
    std::uint64_t checksum = 0;
    for (std::size_t i = 0; i < kDepth; ++i) {
        list.add(static_cast<long>(i));
        if (i % 64 == 63)
            checksum += static_cast<std::uint64_t>(list.get(i));
    }
    for (int i = 0; i < kMessages; ++i) {
        list.add(static_cast<long>(kDepth) + i);
        checksum += static_cast<std::uint64_t>(list.get(0));
        list.remove_at(0);
    }
    return checksum;
}

/// Alternating search-heavy and queue-heavy phases: the thrash gauge.
template <typename ListT>
std::uint64_t run_phase_change(ListT& list) {
    constexpr std::size_t kEntries = 1024;
    std::uint64_t checksum = 0;
    for (std::size_t i = 0; i < kEntries; ++i) {
        list.add(static_cast<long>(i * 3 + 1));
        if (i % 64 == 63)
            checksum += static_cast<std::uint64_t>(list.get(i));
    }
    long next = static_cast<long>(kEntries) * 3 + 1;
    for (int phase = 0; phase < 4; ++phase) {
        if (phase % 2 == 0) {
            for (int round = 0; round < 12; ++round)
                for (int k = 0; k < 96; ++k) {
                    checksum += static_cast<std::uint64_t>(list.get(
                        (static_cast<std::size_t>(round) * 29 + k) %
                        list.count()));
                    checksum += static_cast<std::uint64_t>(
                        list.index_of(static_cast<long>(
                            ((static_cast<std::size_t>(round) * 31 +
                              k * 89u) %
                             kEntries) *
                                3 +
                            1)));
                }
        } else {
            for (int i = 0; i < 1152; ++i) {
                list.add(next++);
                checksum += static_cast<std::uint64_t>(list.get(0));
                list.remove_at(0);
            }
        }
    }
    return checksum;
}

/// WordWheelSolver-shaped dictionary use: key gets in insertion order
/// plus value -> key reverse searches.  Values are distinct so the
/// first-key-wins answer is unambiguous across backings.
template <typename DictT>
std::uint64_t run_word_index(DictT& dict) {
    constexpr std::size_t kWords = 8192;
    constexpr int kRounds = 40;
    std::uint64_t checksum = 0;
    for (std::size_t i = 0; i < kWords; ++i) {
        dict.set(static_cast<long>(i), static_cast<long>(i * 11 + 5));
        if (i % 64 == 63)
            checksum += static_cast<std::uint64_t>(
                dict.get(static_cast<long>(i - 1)));
    }
    for (int round = 0; round < kRounds; ++round) {
        for (int k = 0; k < 300; ++k)  // in-order key gets
            checksum += static_cast<std::uint64_t>(dict.get(static_cast<long>(
                (static_cast<std::size_t>(round) * 113 + k) % kWords)));
        for (int k = 0; k < 300; ++k) {  // reverse value -> key searches
            const std::size_t target =
                (static_cast<std::size_t>(round) * 53 + k * 97u) % kWords;
            const std::optional<long> key =
                dict.find_key(static_cast<long>(target * 11 + 5));
            checksum += key ? static_cast<std::uint64_t>(*key) : 0u;
        }
    }
    return checksum;
}

/// The fixed dictionary a programmer writes first: O(1) key lookup via
/// a position map, linear scan for value -> key — exactly the adaptive
/// dictionary's Sequential strategy, minus the profiling.
struct PlainWordIndex {
    std::vector<std::pair<long, long>> entries;
    ds::Dictionary<long, std::size_t> pos;

    void set(long key, long value) {
        std::size_t idx = 0;
        if (pos.try_get(key, idx)) {
            entries[idx].second = value;
            return;
        }
        pos.set(key, entries.size());
        entries.emplace_back(key, value);
    }
    [[nodiscard]] long get(long key) const {
        std::size_t idx = 0;
        if (!pos.try_get(key, idx)) return 0;
        return entries[idx].second;
    }
    [[nodiscard]] std::optional<long> find_key(long value) const {
        for (const auto& [k, v] : entries)
            if (v == value) return k;
        return std::nullopt;
    }
    [[nodiscard]] std::size_t count() const { return entries.size(); }
};

/// The access stream AdaptiveDictionary folds for run_word_index, on a
/// ProfiledList of its values in insertion order: a new-key set is an
/// Add, a get a Get, a find_key a predicate IndexOf search.  Every get
/// and search in the workload hits, so each call has a positional twin.
class PositionalWordIndex {
public:
    explicit PositionalWordIndex(ds::ProfiledList<long>& values)
        : values_(values) {}

    void set(long key, long value) {
        std::size_t idx = 0;
        if (pos_.try_get(key, idx)) {
            values_.set(idx, value);
            return;
        }
        pos_.set(key, keys_.size());
        keys_.push_back(key);
        values_.add(value);
    }
    [[nodiscard]] long get(long key) const {
        std::size_t idx = 0;
        pos_.try_get(key, idx);
        return values_.get(idx);
    }
    [[nodiscard]] std::optional<long> find_key(long value) const {
        const std::ptrdiff_t idx =
            values_.find_index([value](long v) { return v == value; });
        if (idx < 0) return std::nullopt;
        return keys_[static_cast<std::size_t>(idx)];
    }

private:
    ds::ProfiledList<long>& values_;
    std::vector<long> keys_;
    ds::Dictionary<long, std::size_t> pos_;
};

// --- measurement -------------------------------------------------------------

constexpr int kReps = 3;

struct WorkloadResult {
    std::string name;
    double baseline_ms = 0.0;
    double adaptive_ms = 0.0;
    std::uint64_t baseline_checksum = 0;
    std::uint64_t adaptive_checksum = 0;
    std::string final_strategy;
    std::size_t switches = 0;
    std::size_t suppressed = 0;
    std::size_t events_folded = 0;
    int verdict_divergence = 0;
    std::vector<std::string> verdicts;

    [[nodiscard]] double speedup() const {
        return adaptive_ms > 0.0 ? baseline_ms / adaptive_ms : 0.0;
    }
    [[nodiscard]] bool checksums_equal() const {
        return baseline_checksum == adaptive_checksum;
    }
};

/// Best-of-kReps wall-clock of `fn()`; every rep builds fresh state.
template <typename Fn>
double best_ms(Fn fn, std::uint64_t* checksum) {
    double best = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
        const auto t0 = Clock::now();
        const std::uint64_t sum = fn();
        const double ms =
            std::chrono::duration<double, std::milli>(Clock::now() - t0)
                .count();
        if (rep == 0 || ms < best) best = ms;
        *checksum = sum;
    }
    return best;
}

std::multiset<core::UseCaseKind> verdict_kinds(
    const std::vector<core::UseCase>& use_cases) {
    std::multiset<core::UseCaseKind> kinds;
    for (const core::UseCase& uc : use_cases) kinds.insert(uc.kind);
    return kinds;
}

/// Run the same workload through a ProfiledList and the offline
/// post-mortem engine; return its verdict-kind multiset.
template <typename Workload>
std::multiset<core::UseCaseKind> offline_kinds(Workload workload) {
    runtime::ProfilingSession session;
    ds::ProfiledList<long> profiled(&session,
                                    {"Bench.ClosedLoop", "Offline", 0});
    (void)workload(profiled);
    session.stop();
    const core::AnalysisResult offline = core::Dsspy{}.analyze(session);
    std::multiset<core::UseCaseKind> kinds;
    for (const core::InstanceAnalysis& inst : offline.instances())
        for (const core::UseCase& uc : inst.use_cases)
            kinds.insert(uc.kind);
    return kinds;
}

/// Measure one list workload: ds::List baseline vs AdaptiveList, plus
/// the offline-divergence cross-check.
template <typename Workload>
WorkloadResult run_list_workload(const std::string& name,
                                 Workload workload) {
    WorkloadResult r;
    r.name = name;
    r.baseline_ms = best_ms(
        [&] {
            ds::List<long> list;
            return workload(list);
        },
        &r.baseline_checksum);

    std::vector<core::UseCase> verdicts;
    r.adaptive_ms = best_ms(
        [&] {
            adapt::AdaptiveList<long> list;
            const std::uint64_t sum = workload(list);
            r.final_strategy = std::string(strategy_name(list.strategy()));
            r.switches = list.switch_count();
            r.suppressed = list.suppressed_count();
            r.events_folded = static_cast<std::size_t>(list.events_folded());
            verdicts = list.verdicts();
            return sum;
        },
        &r.adaptive_checksum);

    const std::multiset<core::UseCaseKind> adaptive = verdict_kinds(verdicts);
    const std::multiset<core::UseCaseKind> offline = offline_kinds(workload);
    r.verdict_divergence = adaptive == offline ? 0 : 1;
    for (const core::UseCase& uc : verdicts)
        r.verdicts.emplace_back(use_case_name(uc.kind));
    return r;
}

WorkloadResult run_dictionary_workload() {
    WorkloadResult r;
    r.name = "word_index";
    r.baseline_ms = best_ms(
        [&] {
            PlainWordIndex dict;
            return run_word_index(dict);
        },
        &r.baseline_checksum);
    std::vector<core::UseCase> verdicts;
    r.adaptive_ms = best_ms(
        [&] {
            adapt::AdaptiveDictionary<long, long> dict;
            const std::uint64_t sum = run_word_index(dict);
            r.final_strategy = std::string(strategy_name(dict.strategy()));
            r.switches = dict.switch_count();
            r.suppressed = dict.suppressed_count();
            verdicts = dict.verdicts();
            return sum;
        },
        &r.adaptive_checksum);
    const std::multiset<core::UseCaseKind> offline =
        offline_kinds([](ds::ProfiledList<long>& values) {
            PositionalWordIndex dict(values);
            return run_word_index(dict);
        });
    r.verdict_divergence = verdict_kinds(verdicts) == offline ? 0 : 1;
    for (const core::UseCase& uc : verdicts)
        r.verdicts.emplace_back(use_case_name(uc.kind));
    return r;
}

// --- output ------------------------------------------------------------------

void write_workload_json(std::FILE* f, const WorkloadResult& r, bool last) {
    std::fprintf(f, "    \"%s\": {\n", r.name.c_str());
    std::fprintf(f, "      \"baseline_ms\": %.3f,\n", r.baseline_ms);
    std::fprintf(f, "      \"adaptive_ms\": %.3f,\n", r.adaptive_ms);
    std::fprintf(f, "      \"speedup\": %.2f,\n", r.speedup());
    std::fprintf(f, "      \"checksums_equal\": %s,\n",
                 r.checksums_equal() ? "true" : "false");
    std::fprintf(f, "      \"final_strategy\": \"%s\",\n",
                 r.final_strategy.c_str());
    std::fprintf(f, "      \"switches\": %zu,\n", r.switches);
    std::fprintf(f, "      \"suppressed_switches\": %zu,\n", r.suppressed);
    std::fprintf(f, "      \"verdict_divergence\": %d,\n",
                 r.verdict_divergence);
    std::fprintf(f, "      \"verdicts\": [");
    for (std::size_t i = 0; i < r.verdicts.size(); ++i)
        std::fprintf(f, "%s\"%s\"", i == 0 ? "" : ", ",
                     r.verdicts[i].c_str());
    std::fprintf(f, "]\n    }%s\n", last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
    const std::string out_path =
        argc > 1 ? argv[1] : "BENCH_closed_loop.json";

    std::vector<WorkloadResult> results;
    std::fprintf(stderr, "running file_search...\n");
    results.push_back(run_list_workload(
        "file_search", [](auto& list) { return run_file_search(list); }));
    std::fprintf(stderr, "running message_queue...\n");
    results.push_back(run_list_workload(
        "message_queue",
        [](auto& list) { return run_message_queue(list); }));
    std::fprintf(stderr, "running word_index...\n");
    results.push_back(run_dictionary_workload());
    std::fprintf(stderr, "running phase_change...\n");
    results.push_back(run_list_workload(
        "phase_change", [](auto& list) { return run_phase_change(list); }));

    bool ok = true;
    int over_threshold = 0;
    int divergence_total = 0;
    std::size_t phase_switches = 0;
    for (const WorkloadResult& r : results) {
        std::fprintf(stderr,
                     "  %-13s baseline=%8.3f ms  adaptive=%8.3f ms  "
                     "speedup=%5.2fx  strategy=%s  switches=%zu\n",
                     r.name.c_str(), r.baseline_ms, r.adaptive_ms,
                     r.speedup(), r.final_strategy.c_str(), r.switches);
        if (!r.checksums_equal()) {
            std::fprintf(stderr, "FAIL: %s checksums differ\n",
                         r.name.c_str());
            ok = false;
        }
        if (r.verdict_divergence > 0) {
            std::fprintf(stderr,
                         "FAIL: %s adaptive verdicts diverge from offline "
                         "analysis\n",
                         r.name.c_str());
            ok = false;
        }
        divergence_total += r.verdict_divergence;
        if (r.name == "phase_change") {
            phase_switches = r.switches;
        } else if (r.speedup() > 1.3) {
            ++over_threshold;
        }
    }
    if (over_threshold < 2) {
        std::fprintf(stderr,
                     "FAIL: expected >1.3x speedup on >=2 workloads, got "
                     "%d\n",
                     over_threshold);
        ok = false;
    }
    if (phase_switches < 1 || phase_switches > 3) {
        std::fprintf(stderr,
                     "FAIL: phase_change should switch 1..3 times, "
                     "switched %zu\n",
                     phase_switches);
        ok = false;
    }

    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
        std::perror("closed_loop: fopen");
        return 1;
    }
    const std::string_view simd_name = core::kernels::simd_level_name(
        core::kernels::active_simd_level());
    std::fprintf(f, "{\n  \"benchmark\": \"closed_loop\",\n");
    std::fprintf(f, "  \"hardware_threads\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(f, "  \"threads_setting\": %u,\n",
                 par::ThreadPool::effective_default_threads());
    std::fprintf(f, "  \"simd_level\": \"%.*s\",\n",
                 static_cast<int>(simd_name.size()), simd_name.data());
    std::fprintf(f, "  \"reps\": %d,\n", kReps);
    std::fprintf(f, "  \"speedup_threshold\": 1.3,\n");
    std::fprintf(f, "  \"speedups_over_threshold\": %d,\n", over_threshold);
    std::fprintf(f, "  \"verdict_divergence_total\": %d,\n",
                 divergence_total);
    std::fprintf(f, "  \"phase_change_switches\": %zu,\n", phase_switches);
    std::fprintf(f, "  \"workloads\": {\n");
    for (std::size_t i = 0; i < results.size(); ++i)
        write_workload_json(f, results[i], i + 1 == results.size());
    std::fprintf(f, "  }\n}\n");
    std::fclose(f);

    std::fprintf(stderr, "%s -> %s\n", ok ? "PASS" : "FAIL",
                 out_path.c_str());
    return ok ? 0 : 1;
}
