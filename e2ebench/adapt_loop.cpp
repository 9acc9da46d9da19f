// adapt_loop: the four closed-loop streams, each run on the self-adapting
// container (AdaptiveList / AdaptiveDictionary) and on the fixed ds::
// baseline a programmer writes first, every iteration.
//
//   file_search    load entries, then rounds of listing reads plus point
//                  searches (Frequent-Search -> Indexed backing)
//   message_queue  append at the back, peek and pop at the front
//                  (Implement-Queue -> deque backing)
//   word_index     key gets plus value -> key searches on a dictionary
//                  (Frequent-Search on the entry view -> reverse index)
//   phase_change   alternating search and queue phases (the thrash gauge)
//
// The seed draws the read positions, search targets and stored values;
// the operation mix and sizes are fixed, so every stream keeps its
// verdict.  Each stream is long enough (tens of ms on the baseline) for
// a steady ratio.
#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "adapt/adaptive_dictionary.hpp"
#include "adapt/adaptive_list.hpp"
#include "core/dsspy.hpp"
#include "ds/dictionary.hpp"
#include "ds/list.hpp"
#include "ds/profiled_list.hpp"
#include "e2e.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"

namespace e2e {

namespace {

using namespace dsspy;

struct Sizes {
    std::size_t search_entries;
    int search_rounds;
    std::size_t queue_depth;
    int queue_messages;
    std::size_t words;
    int word_rounds;
    std::size_t phase_entries;
    int phase_rounds;  ///< Search rounds per search phase.
    int phase_pops;    ///< Pops per queue phase.
};

constexpr Sizes kFull{8192, 250, 32768, 30000, 8192, 200, 4096, 96, 18432};
constexpr Sizes kSmoke{1024, 8, 2048, 2000, 1024, 8, 512, 4, 576};

constexpr int kReadsPerRound = 200;
constexpr int kWordOpsPerRound = 300;
constexpr int kPhaseOpsPerRound = 96;
constexpr int kPhases = 4;

/// Seeded inputs of the four streams (identical for every container).
struct Streams {
    std::vector<long> search_values;
    std::vector<std::size_t> search_reads;
    std::vector<long> search_targets;
    std::vector<long> queue_values;
    std::vector<long> word_values;
    std::vector<long> word_get_keys;
    std::vector<long> word_targets;
    std::vector<long> phase_values;
    std::vector<std::size_t> phase_reads;
    std::vector<long> phase_targets;
};

Streams make_streams(const Sizes& z, std::uint64_t seed) {
    support::Rng rng(seed);
    Streams st;
    const auto below = [&rng](std::size_t n) {
        return static_cast<std::size_t>(rng.next_below(n));
    };
    for (std::size_t i = 0; i < z.search_entries; ++i)
        st.search_values.push_back(static_cast<long>(i * 7 + 1));
    for (int k = 0; k < z.search_rounds * kReadsPerRound; ++k) {
        st.search_reads.push_back(below(z.search_entries));
        st.search_targets.push_back(
            st.search_values[below(z.search_entries)]);
    }
    for (std::size_t i = 0; i < z.queue_depth + z.queue_messages; ++i)
        st.queue_values.push_back(static_cast<long>(rng.next_below(1u << 30)));
    // Distinct values, so value -> key has one answer on every backing.
    std::vector<std::size_t> perm(z.words);
    for (std::size_t i = 0; i < z.words; ++i) perm[i] = i;
    std::shuffle(perm.begin(), perm.end(), rng);
    for (std::size_t i = 0; i < z.words; ++i)
        st.word_values.push_back(static_cast<long>(perm[i] * 11 + 5));
    for (int k = 0; k < z.word_rounds * kWordOpsPerRound; ++k) {
        st.word_get_keys.push_back(static_cast<long>(below(z.words)));
        st.word_targets.push_back(st.word_values[below(z.words)]);
    }
    for (std::size_t i = 0;
         i < z.phase_entries + static_cast<std::size_t>(z.phase_pops) * 2; ++i)
        st.phase_values.push_back(static_cast<long>(i * 3 + 1));
    for (int k = 0; k < z.phase_rounds * kPhaseOpsPerRound * 2; ++k) {
        st.phase_reads.push_back(below(z.phase_entries));
        st.phase_targets.push_back(st.phase_values[below(z.phase_entries)]);
    }
    return st;
}

// --- streams -----------------------------------------------------------------
// Templated over the container so every backing sees the same operation
// sequence.  Loads read back every 64th entry ("update the UI while
// loading"), which keeps insert runs below the Long-Insert threshold.

template <typename ListT>
std::uint64_t file_search(ListT& list, const Sizes& z, const Streams& st) {
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < z.search_entries; ++i) {
        list.add(st.search_values[i]);
        if (i % 64 == 63) sum += static_cast<std::uint64_t>(list.get(i));
    }
    std::size_t k = 0;
    for (int round = 0; round < z.search_rounds; ++round) {
        const std::size_t base = k;
        for (int j = 0; j < kReadsPerRound; ++j)  // listing reads
            sum += static_cast<std::uint64_t>(
                list.get((st.search_reads[base] + j) % z.search_entries));
        for (int j = 0; j < kReadsPerRound; ++j, ++k)  // point searches
            sum += static_cast<std::uint64_t>(
                list.index_of(st.search_targets[k]));
    }
    return sum;
}

template <typename ListT>
std::uint64_t message_queue(ListT& list, const Sizes& z, const Streams& st) {
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < z.queue_depth; ++i) {
        list.add(st.queue_values[i]);
        if (i % 64 == 63) sum += static_cast<std::uint64_t>(list.get(i));
    }
    for (int i = 0; i < z.queue_messages; ++i) {
        list.add(st.queue_values[z.queue_depth + i]);
        sum += static_cast<std::uint64_t>(list.get(0));
        list.remove_at(0);
    }
    return sum;
}

template <typename ListT>
std::uint64_t phase_change(ListT& list, const Sizes& z, const Streams& st) {
    std::uint64_t sum = 0;
    std::size_t next = 0;
    for (; next < z.phase_entries; ++next) {
        list.add(st.phase_values[next]);
        if (next % 64 == 63) sum += static_cast<std::uint64_t>(list.get(next));
    }
    std::size_t k = 0;
    for (int phase = 0; phase < kPhases; ++phase) {
        if (phase % 2 == 0) {
            for (int j = 0; j < z.phase_rounds * kPhaseOpsPerRound; ++j, ++k) {
                sum += static_cast<std::uint64_t>(
                    list.get(st.phase_reads[k] % list.count()));
                sum += static_cast<std::uint64_t>(
                    list.index_of(st.phase_targets[k]));
            }
        } else {
            for (int i = 0; i < z.phase_pops; ++i) {
                list.add(st.phase_values[next++]);
                sum += static_cast<std::uint64_t>(list.get(0));
                list.remove_at(0);
            }
        }
    }
    return sum;
}

template <typename DictT>
std::uint64_t word_index(DictT& dict, const Sizes& z, const Streams& st) {
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < z.words; ++i) {
        dict.set(static_cast<long>(i), st.word_values[i]);
        if (i % 64 == 63)
            sum += static_cast<std::uint64_t>(
                dict.get(static_cast<long>(i - 1)));
    }
    std::size_t k = 0;
    for (int round = 0; round < z.word_rounds; ++round) {
        const std::size_t base = k;
        for (int j = 0; j < kWordOpsPerRound; ++j)  // in-order key gets
            sum += static_cast<std::uint64_t>(dict.get(static_cast<long>(
                (static_cast<std::size_t>(st.word_get_keys[base]) + j) %
                z.words)));
        for (int j = 0; j < kWordOpsPerRound; ++j, ++k) {  // reverse lookups
            const std::optional<long> key = dict.find_key(st.word_targets[k]);
            sum += key ? static_cast<std::uint64_t>(*key) : 0u;
        }
    }
    return sum;
}

/// The fixed dictionary a programmer writes first: O(1) key lookup via a
/// position map, a linear scan for value -> key.
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
        return pos.try_get(key, idx) ? entries[idx].second : 0;
    }
    [[nodiscard]] std::optional<long> find_key(long value) const {
        for (const auto& [k, v] : entries)
            if (v == value) return k;
        return std::nullopt;
    }
};

std::multiset<core::UseCaseKind> kinds(const std::vector<core::UseCase>& ucs) {
    std::multiset<core::UseCaseKind> out;
    for (const core::UseCase& uc : ucs) out.insert(uc.kind);
    return out;
}

class AdaptLoop final : public Workload {
public:
    explicit AdaptLoop(const Config& config)
        : config_(config), sizes_(config.smoke ? kSmoke : kFull) {}

    void setup() override {
        streams_ = make_streams(sizes_, config_.seed);
        // One untimed pass warms the allocator and caches.
        Sample warm;
        Checks checks;
        iterate(warm, checks);
    }

    void iterate(Sample& s, Checks& checks) override {
        list_stream<&file_search<ds::List<long>>,
                    &file_search<adapt::AdaptiveList<long>>>(
            "file_search", "adapt.file_search", s, checks);
        list_stream<&message_queue<ds::List<long>>,
                    &message_queue<adapt::AdaptiveList<long>>>(
            "message_queue", "adapt.message_queue", s, checks);
        word_stream(s, checks);
        list_stream<&phase_change<ds::List<long>>,
                    &phase_change<adapt::AdaptiveList<long>>>(
            "phase_change", "adapt.phase_change", s, checks);
    }

    void derive(Sample& s) const override {
        double total = 0.0;
        double worst = 0.0;
        bool first = true;
        for (const char* name : {"file_search", "message_queue", "word_index",
                                 "phase_change"}) {
            const double adaptive = s[std::string("adapt.") + name + "_ms"];
            const double fixed = s[std::string("fixed.") + name + "_ms"];
            total += adaptive;
            if (adaptive <= 0) continue;
            const double ratio = fixed / adaptive;
            if (first || ratio < worst) worst = ratio;
            first = false;
        }
        s["adapt_ms"] = total;
        s["adapt_worst_x"] = worst;
    }

    void final_checks(Checks& checks) override {
        // Zero verdict divergence: each adaptive list ends on the verdicts
        // the post-mortem engine gives a ProfiledList fed the same stream.
        divergence<&file_search<ds::ProfiledList<long>>,
                   &file_search<adapt::AdaptiveList<long>>>("file_search",
                                                            checks);
        divergence<&message_queue<ds::ProfiledList<long>>,
                   &message_queue<adapt::AdaptiveList<long>>>("message_queue",
                                                              checks);
        divergence<&phase_change<ds::ProfiledList<long>>,
                   &phase_change<adapt::AdaptiveList<long>>>("phase_change",
                                                             checks);
    }

private:
    template <auto Fixed, auto Adaptive>
    void list_stream(const std::string& name, const char* layer_name,
                     Sample& s, Checks& checks) {
        std::uint64_t fixed_sum = 0;
        const std::uint64_t t0 = support::now_ns();
        {
            const Layer layer("adapt.fixed", s);
            ds::List<long> list;
            fixed_sum = Fixed(list, sizes_, streams_);
        }
        s["fixed." + name + "_ms"] = ms_between(t0, support::now_ns());
        std::uint64_t adaptive_sum = 0;
        {
            const Layer layer(layer_name, s);
            adapt::AdaptiveList<long> list;
            adaptive_sum = Adaptive(list, sizes_, streams_);
            s["adapt.switches"] += static_cast<double>(list.switch_count());
            s["adapt.suppressed_switches"] +=
                static_cast<double>(list.suppressed_count());
            s["events"] += static_cast<double>(list.events_folded());
        }
        checks.expect(adaptive_sum == fixed_sum,
                      name + ": adaptive checksum " +
                          std::to_string(adaptive_sum) + " != fixed " +
                          std::to_string(fixed_sum));
    }

    void word_stream(Sample& s, Checks& checks) {
        std::uint64_t fixed_sum = 0;
        const std::uint64_t t0 = support::now_ns();
        {
            const Layer layer("adapt.fixed", s);
            PlainWordIndex dict;
            fixed_sum = word_index(dict, sizes_, streams_);
        }
        s["fixed.word_index_ms"] = ms_between(t0, support::now_ns());
        std::uint64_t adaptive_sum = 0;
        {
            const Layer layer("adapt.word_index", s);
            adapt::AdaptiveDictionary<long, long> dict;
            adaptive_sum = word_index(dict, sizes_, streams_);
            s["adapt.switches"] += static_cast<double>(dict.switch_count());
            s["adapt.suppressed_switches"] +=
                static_cast<double>(dict.suppressed_count());
            s["events"] += static_cast<double>(dict.events_folded());
        }
        checks.expect(adaptive_sum == fixed_sum,
                      "word_index: adaptive checksum " +
                          std::to_string(adaptive_sum) + " != fixed " +
                          std::to_string(fixed_sum));
    }

    template <auto Profiled, auto Adaptive>
    void divergence(const std::string& name, Checks& checks) {
        runtime::ProfilingSession session;
        {
            ds::ProfiledList<long> list(&session,
                                        {"Bench.AdaptLoop", name, 0});
            (void)Profiled(list, sizes_, streams_);
        }
        session.stop();
        const core::AnalysisResult analysis = core::Dsspy{}.analyze(session);
        const std::multiset<core::UseCaseKind> offline =
            kinds(analysis.all_use_cases());
        adapt::AdaptiveList<long> list;
        (void)Adaptive(list, sizes_, streams_);
        checks.expect(kinds(list.verdicts()) == offline,
                      name + ": adaptive verdicts diverge from offline "
                             "analysis of the same stream");
    }

    Config config_;
    Sizes sizes_;
    Streams streams_;
};

}  // namespace

std::unique_ptr<Workload> make_adapt_loop(const Config& config) {
    return std::make_unique<AdaptLoop>(config);
}

}  // namespace e2e
