// Ablation: minimum pattern run length (min_pattern_events).
//
// The pattern detector only reports runs of adjacent accesses at least
// this long.  Too small and single incidental steps count as regularities;
// too large and short real streaks disappear.  This bench sweeps the knob
// over a mixed workload and reports pattern counts plus detector runtime.
#include <iostream>

#include "core/column_analysis.hpp"
#include "core/dsspy.hpp"
#include "ds/ds.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"

int main() {
    using namespace dsspy;
    using support::Table;

    // Mixed workload: clean streaks of several lengths plus random noise.
    runtime::ProfilingSession session;
    runtime::InstanceId id;
    {
        ds::ProfiledList<std::int64_t> list(&session, {"Bench", "Mixed", 1});
        support::Rng rng(99);
        for (int i = 0; i < 512; ++i) list.add(i);
        for (int streak_len : {2, 3, 5, 8, 16, 64, 256}) {
            for (int repeat = 0; repeat < 20; ++repeat) {
                const std::size_t start = rng.next_below(512 - 257);
                for (int i = 0; i < streak_len; ++i)
                    (void)list.get(start + static_cast<std::size_t>(i));
                // Noise access between streaks.
                (void)list.get(rng.next_below(512));
            }
        }
        id = list.instance_id();
    }
    session.stop();

    const runtime::ColumnStore& store = session.store();
    const std::vector<std::uint8_t> types = core::access_types(store);
    const core::ColumnSlice slice =
        core::make_slice(store, store.range(id), types.data());
    const core::RuntimeProfile profile(session.registry().info(id),
                                       core::aggregates_from_columns(slice));

    std::cout << "Ablation - minimum pattern length over a mixed workload ("
              << profile.total_events() << " events; streak lengths "
                 "2/3/5/8/16/64/256 x20 plus noise)\n\n";

    Table table({"min_pattern_events", "Patterns found", "Pattern events",
                 "Detect time (us)"});
    for (const std::size_t min_len : {2u, 3u, 4u, 6u, 9u, 17u, 65u}) {
        core::DetectorConfig config;
        config.min_pattern_events = min_len;

        support::Stopwatch sw;
        std::vector<core::Pattern> patterns;
        constexpr int kReps = 50;
        for (int rep = 0; rep < kReps; ++rep)
            patterns = core::detect_patterns_columns(slice, config);
        const double us = sw.elapsed_ns() / 1e3 / kReps;

        std::size_t covered = 0;
        for (const core::Pattern& p : patterns) covered += p.length;
        table.add_row({std::to_string(min_len),
                       std::to_string(patterns.size()),
                       std::to_string(covered), Table::fmt(us, 1)});
    }
    table.print(std::cout);

    std::cout << "\nReading: the default (3) keeps every intentional streak "
                 ">= 3 while dropping incidental two-step adjacencies; the "
                 "count decreases stepwise as thresholds cross the planted "
                 "streak lengths.\n";
    return 0;
}
