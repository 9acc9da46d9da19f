#include "core/column_analysis.hpp"

#include <algorithm>

#include "core/detector_kernels.hpp"
#include "core/pattern_machine.hpp"

namespace dsspy::core {

namespace {

constexpr std::uint8_t kTypeRead =
    static_cast<std::uint8_t>(AccessType::Read);
constexpr std::uint8_t kTypeWrite =
    static_cast<std::uint8_t>(AccessType::Write);
constexpr std::uint8_t kTypeInsert =
    static_cast<std::uint8_t>(AccessType::Insert);
constexpr std::uint8_t kTypeDelete =
    static_cast<std::uint8_t>(AccessType::Delete);
constexpr std::uint8_t kTypeSearch =
    static_cast<std::uint8_t>(AccessType::Search);
constexpr std::uint8_t kTypeForAll =
    static_cast<std::uint8_t>(AccessType::ForAll);

/// Reconstruct the event-struct view of row `i` for the generic machine
/// step (the slow path of the detector: rows that open, close, or redirect
/// a run).
runtime::AccessEvent row_event(const ColumnSlice& s, std::size_t i) {
    runtime::AccessEvent ev{};
    ev.seq = i;
    ev.time_ns = s.time_ns[i];
    ev.position = s.positions[i];
    ev.size = s.sizes[i];
    ev.op = static_cast<runtime::OpKind>(s.ops[i]);
    ev.thread = s.threads[i];
    return ev;
}

/// Longest prefix of rows starting at `i` that provably extend `run`
/// (kernels::* streak scans); 0 when no bulk fast path applies and the
/// row must go through the generic machine step.
///
/// Each case first tests row `i` alone with the scalar predicate: when the
/// very first row does not continue the run the kernel would return 0
/// anyway, and skipping its dispatch/setup keeps streak-hostile streams
/// (alternating categories, queue churn) no slower than the plain
/// per-event machine.
std::size_t run_streak(const ColumnSlice& s, std::size_t i,
                       const detail::PatternRun& run) {
    const std::size_t n = s.n - i;
    const std::uint16_t tid = s.threads[i];
    switch (run.cat) {
        case detail::RunCat::Read:
        case detail::RunCat::Write: {
            // Direction still open after one event: the next row fixes it
            // (generic step).  Locked direction: monotone position chain.
            if (run.direction == 0) return 0;
            const std::uint8_t code =
                run.cat == detail::RunCat::Read ? kTypeRead : kTypeWrite;
            const std::int64_t expect = run.last_pos + run.direction;
            if (expect < 0 || s.types[i] != code || s.positions[i] != expect)
                return 0;
            return kernels::monotone_streak(s.types + i, s.positions + i,
                                            s.threads + i, n, code, tid,
                                            run.last_pos, run.direction);
        }
        case detail::RunCat::Insert:
        case detail::RunCat::Delete: {
            // Ambiguous runs (every access both front and back so far,
            // e.g. inserts while size stays 1) keep stepping generically;
            // single-anchor runs are absorbing and scan in bulk.
            if (run.all_front == run.all_back) return 0;
            const bool is_insert = run.cat == detail::RunCat::Insert;
            const std::uint8_t code = is_insert ? kTypeInsert : kTypeDelete;
            const kernels::EndAnchor anchor =
                run.all_front ? kernels::EndAnchor::Front
                : is_insert   ? kernels::EndAnchor::InsertBack
                              : kernels::EndAnchor::DeleteBack;
            const std::int64_t want =
                anchor == kernels::EndAnchor::Front ? 0
                : anchor == kernels::EndAnchor::InsertBack
                    ? static_cast<std::int64_t>(s.sizes[i]) - 1
                    : static_cast<std::int64_t>(s.sizes[i]);
            if (s.types[i] != code || s.positions[i] != want) return 0;
            return kernels::end_anchor_streak(s.types + i, s.positions + i,
                                              s.sizes + i, s.threads + i, n,
                                              code, tid, anchor);
        }
        case detail::RunCat::None: {
            // Closed run: category-None rows on this thread are no-ops.
            const std::uint8_t ty = s.types[i];
            const bool flushable =
                (ty >= kTypeSearch && ty < kTypeForAll) ||
                (ty <= kTypeWrite && s.positions[i] < 0);
            if (!flushable) return 0;
            return kernels::flushable_streak(s.types + i, s.positions + i,
                                             s.threads + i, n, tid);
        }
    }
    return 0;
}

}  // namespace

std::vector<std::uint8_t> access_types(const runtime::ColumnStore& store) {
    std::vector<std::uint8_t> types(store.total_events());
    kernels::derive_types(store.op(), store.total_events(), types.data());
    return types;
}

ColumnSlice make_slice(const runtime::ColumnStore& store,
                       runtime::ColumnRange range,
                       const std::uint8_t* types_base) {
    ColumnSlice s;
    s.time_ns = store.time_ns() + range.begin;
    s.positions = store.position() + range.begin;
    s.sizes = store.sizes() + range.begin;
    s.ops = store.op() + range.begin;
    s.types = types_base + range.begin;
    s.threads = store.thread() + range.begin;
    s.n = range.size();
    return s;
}

ProfileAggregates aggregates_from_columns(const ColumnSlice& s) {
    ProfileAggregates agg;
    agg.total_events = s.n;
    if (s.n == 0) return agg;
    agg.phases = kernels::phases_from_types(s.types, s.n);
    // Every row belongs to exactly one same-type phase, so the type
    // histogram is the phase lengths summed per type — no second pass
    // over the column.
    for (const Phase& p : agg.phases)
        agg.counts[static_cast<std::size_t>(p.type)] += p.length();
    agg.max_size = kernels::max_size_u32(s.sizes, s.n);
    agg.duration_ns = s.time_ns[s.n - 1] - s.time_ns[0];
    agg.thread_count = kernels::distinct_threads(s.threads, s.n);
    return agg;
}

std::vector<Pattern> detect_patterns_columns(const ColumnSlice& s,
                                             const DetectorConfig& config) {
    std::vector<Pattern> out;
    if (s.n == 0) return out;

    detail::PatternMachine machine(config.min_pattern_events);
    const auto collect = [&out](const Pattern& p, std::uint64_t /*first_ns*/,
                                std::uint64_t /*last_ns*/) {
        out.push_back(p);
    };

    std::size_t i = 0;
    while (i < s.n) {
        const std::uint16_t tid = s.threads[i];
        const detail::PatternRun& run = machine.peek_run(tid);
        const std::size_t streak = run_streak(s, i, run);
        if (streak > 0) {
            if (run.cat != detail::RunCat::None) {
                const std::size_t tail = i + streak - 1;
                machine.extend_run(tid, static_cast<std::uint32_t>(tail),
                                   s.positions[tail], s.sizes[tail],
                                   s.time_ns[tail],
                                   static_cast<std::uint32_t>(streak));
            }
            // RunCat::None streaks are pure skips: flushing a closed run
            // does nothing, so the machine state is already right.
            i += streak;
            continue;
        }
        machine.step(static_cast<std::uint32_t>(i), row_event(s, i),
                     static_cast<AccessType>(s.types[i]), collect);
        ++i;
    }
    machine.finish(collect);

    std::sort(out.begin(), out.end(),
              [](const Pattern& a, const Pattern& b) {
                  return a.first < b.first;
              });
    return out;
}

InstanceStats instance_stats_from_columns(const runtime::InstanceInfo& info,
                                          const ColumnSlice& s,
                                          const ProfileAggregates& agg,
                                          const std::vector<Pattern>& patterns,
                                          const DetectorConfig& config) {
    InstanceStats st;
    st.info = info;
    st.total = agg.total_events;
    st.counts = agg.counts;
    st.thread_count = agg.thread_count;
    st.duration_ns = agg.duration_ns;
    st.max_size = agg.max_size;

    // End traffic folds per constant-type phase: types other than
    // Insert/Delete/Read/Write never touch the counters
    // (accumulate_end_traffic), so their phases are skipped outright and
    // the span kernel hoists the type test out of the row loop.
    for (const Phase& ph : agg.phases) {
        const auto ty = static_cast<std::uint8_t>(ph.type);
        if (ty > kTypeDelete) continue;
        kernels::end_traffic_span(ty, s.positions + ph.first,
                                  s.sizes + ph.first, ph.length(),
                                  config.iq_end_window, st.iq_traffic,
                                  st.edge_traffic);
    }
    st.resizes = kernels::count_op(s.ops, s.n, runtime::OpKind::Resize);
    // Weighted read share from the histogram: every row weighs 1 except
    // ForAll rows with size > 0, which weigh their size — so only the
    // (rare) ForAll rows need a lookup.  Doubles here are exact: the sums
    // are integers well below 2^53, the same values the per-event double
    // accumulation reaches.
    const std::size_t forall_rows =
        agg.counts[static_cast<std::size_t>(AccessType::ForAll)];
    std::uint64_t forall_extra = 0;
    if (forall_rows > 0) {
        std::vector<std::uint32_t> rows;
        kernels::collect_type_indices(s.types, s.n, kTypeForAll, rows);
        for (const std::uint32_t r : rows)
            if (s.sizes[r] > 0) forall_extra += s.sizes[r] - 1;
    }
    st.weighted_total = static_cast<double>(s.n + forall_extra);
    st.weighted_reads = static_cast<double>(
        agg.counts[static_cast<std::size_t>(AccessType::Read)] +
        agg.counts[static_cast<std::size_t>(AccessType::Search)] +
        agg.counts[static_cast<std::size_t>(AccessType::Copy)] +
        forall_rows + forall_extra);

    for (const Pattern& p : patterns) {
        ++st.pattern_counts[static_cast<std::size_t>(p.kind)];
        if (is_read_pattern(p.kind)) {
            if (!p.synthetic) st.read_pattern_events += p.length;
            if (p.coverage >= config.flr_min_coverage)
                ++st.long_read_patterns;
        }
        if (!counts_as_insertion_pattern(p, st.info.kind)) continue;
        if (p.length >= config.li_min_phase_events) {
            st.long_insert_events += p.length;
            if (!p.synthetic)
                st.long_insert_ns += s.time_ns[p.last] - s.time_ns[p.first];
            if (!st.has_longest_insert ||
                p.length > st.longest_insert_length) {
                st.has_longest_insert = true;
                st.longest_insert_length = p.length;
                st.longest_insert_front = p.kind == PatternKind::InsertFront;
            }
        }
    }

    // Sort-After-Insert: only Sort rows can match, so scan the collected
    // Sort indices instead of every event (same earliest-first result).
    std::vector<std::uint32_t> sort_rows;
    kernels::collect_type_indices(
        s.types, s.n, static_cast<std::uint8_t>(AccessType::Sort),
        sort_rows);
    for (const std::uint32_t i : sort_rows) {
        if (st.sai_match) break;
        for (const Pattern& p : patterns) {
            if (!counts_as_insertion_pattern(p, st.info.kind)) continue;
            if (p.length < config.sai_min_phase_events) continue;
            if (p.last < i && i - p.last <= config.sai_max_gap_events) {
                st.sai_match = true;
                st.sai_phase_length = p.length;
                break;
            }
        }
    }

    if (!agg.phases.empty()) {
        const Phase& tail = agg.phases.back();
        st.tail_type = tail.type;
        st.tail_length = tail.length();
        st.tail_last_size = s.sizes[tail.last];
    }
    return st;
}

}  // namespace dsspy::core
