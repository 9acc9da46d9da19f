#include "core/use_cases.hpp"

#include <algorithm>

namespace dsspy::core {

namespace {

/// Linear data structures — the ones positional use cases apply to.
bool is_linear(runtime::DsKind kind) noexcept {
    switch (kind) {
        case runtime::DsKind::List:
        case runtime::DsKind::Array:
        case runtime::DsKind::Stack:
        case runtime::DsKind::Queue:
        case runtime::DsKind::LinkedList:
            return true;
        default:
            return false;
    }
}

}  // namespace

std::string_view recommended_action(UseCaseKind kind) noexcept {
    return advice_action_text(advice_action_for(kind));
}

InstanceStats compute_instance_stats(
    const RuntimeProfile& profile,
    std::span<const runtime::AccessEvent> events,
    const std::vector<Pattern>& patterns, const DetectorConfig& config) {
    InstanceStats s;
    s.info = profile.info();
    s.total = profile.total_events();
    for (std::size_t t = 0; t < kAccessTypeCount; ++t)
        s.counts[t] = profile.count(static_cast<AccessType>(t));
    s.thread_count = profile.thread_count();
    s.duration_ns = profile.duration_ns();
    s.max_size = profile.max_size();

    for (const runtime::AccessEvent& ev : events) {
        accumulate_end_traffic(s.iq_traffic, ev, config.iq_end_window);
        accumulate_end_traffic(s.edge_traffic, ev, 1);
        if (ev.op == runtime::OpKind::Resize) ++s.resizes;
        // ForAll traversals weigh as many reads as elements they touch:
        // one for_each over n elements is n reads for the 50%-reads rule.
        const AccessType type = derive_access_type(ev.op);
        const double weight = type == AccessType::ForAll && ev.size > 0
                                  ? static_cast<double>(ev.size)
                                  : 1.0;
        s.weighted_total += weight;
        if (is_read_like(type)) s.weighted_reads += weight;
    }

    for (const Pattern& p : patterns) {
        ++s.pattern_counts[static_cast<std::size_t>(p.kind)];
        if (is_read_pattern(p.kind)) {
            if (!p.synthetic) s.read_pattern_events += p.length;
            if (p.coverage >= config.flr_min_coverage) ++s.long_read_patterns;
        }
        if (!counts_as_insertion_pattern(p, s.info.kind)) continue;
        if (p.length >= config.li_min_phase_events) {
            s.long_insert_events += p.length;
            if (!p.synthetic)
                s.long_insert_ns +=
                    events[p.last].time_ns - events[p.first].time_ns;
            // Longest qualifying phase; first-seen wins ties (patterns are
            // ordered by first event index).
            if (!s.has_longest_insert ||
                p.length > s.longest_insert_length) {
                s.has_longest_insert = true;
                s.longest_insert_length = p.length;
                s.longest_insert_front = p.kind == PatternKind::InsertFront;
            }
        }
    }

    // Sort-After-Insert: the earliest Sort trailing a qualifying insertion
    // phase within the gap window; among that Sort's phases, the earliest.
    for (std::uint32_t i = 0; i < events.size() && !s.sai_match; ++i) {
        if (derive_access_type(events[i].op) != AccessType::Sort) continue;
        for (const Pattern& p : patterns) {
            if (!counts_as_insertion_pattern(p, s.info.kind)) continue;
            if (p.length < config.sai_min_phase_events) continue;
            if (p.last < i && i - p.last <= config.sai_max_gap_events) {
                s.sai_match = true;
                s.sai_phase_length = p.length;
                break;
            }
        }
    }

    if (!profile.phases().empty()) {
        const Phase& tail = profile.phases().back();
        s.tail_type = tail.type;
        s.tail_length = tail.length();
        s.tail_last_size = events[tail.last].size;
    }
    return s;
}

std::vector<UseCase> UseCaseEngine::classify(
    const RuntimeProfile& profile,
    std::span<const runtime::AccessEvent> events,
    const std::vector<Pattern>& patterns) const {
    return classify(
        compute_instance_stats(profile, events, patterns, config_));
}

std::vector<UseCase> UseCaseEngine::classify(const InstanceStats& s) const {
    std::vector<UseCase> out;
    const runtime::InstanceInfo& info = s.info;
    const std::size_t total = s.total;
    if (total == 0) return out;

    // Confidence: ~0.5 when the evidence sits exactly at the rule's
    // threshold, saturating at 1.0 from twice the threshold upward.
    auto confidence_of = [](double metric, double threshold) {
        if (threshold <= 0.0) return 1.0;
        return std::clamp(metric / (2.0 * threshold), 0.0, 1.0);
    };

    auto emit = [&out, &info, &s](UseCaseKind kind, double confidence,
                                  AdviceEvidence evidence) {
        UseCase uc;
        uc.kind = kind;
        uc.instance = info;
        uc.advice.action = advice_action_for(kind);
        uc.advice.confidence = confidence;
        evidence.thread_count = s.thread_count;
        uc.advice.evidence = evidence;
        out.push_back(std::move(uc));
    };

    const bool linear = is_linear(info.kind);

    // ---- Long-Insert evidence (shared with Sort-After-Insert) -----------
    // "Insertion phases >30% of runtime": measured in events (default) or
    // wall-clock time between each qualifying phase's first/last event.
    const double insert_share =
        config_.share_basis == ShareBasis::Time
            ? (s.duration_ns > 0
                   ? static_cast<double>(s.long_insert_ns) /
                         static_cast<double>(s.duration_ns)
                   : 0.0)
            : static_cast<double>(s.long_insert_events) /
                  static_cast<double>(total);
    const bool li_conditions = linear && s.has_longest_insert &&
                               insert_share > config_.li_min_insert_share;

    // ---- Sort-After-Insert: a Sort directly after a long insertion ------
    bool sai_fired = false;
    if (li_conditions && s.sai_match) {
        AdviceEvidence e;
        e.share = insert_share;
        e.share_threshold = config_.sai_min_insert_share;
        e.phase_length = s.sai_phase_length;
        emit(UseCaseKind::SortAfterInsert,
             confidence_of(insert_share, config_.sai_min_insert_share), e);
        sai_fired = true;
    }

    // ---- Long-Insert (suppressed when subsumed by Sort-After-Insert) ----
    if (li_conditions && !sai_fired) {
        AdviceEvidence e;
        e.share = insert_share;
        e.share_threshold = config_.li_min_insert_share;
        e.phase_length = s.longest_insert_length;
        e.at_front = s.longest_insert_front;
        emit(UseCaseKind::LongInsert,
             confidence_of(insert_share, config_.li_min_insert_share), e);
    }

    // ---- Implement-Queue: two-end traffic on a list ----------------------
    if (info.kind == runtime::DsKind::List &&
        total >= config_.iq_min_events) {
        const EndTraffic& t = s.iq_traffic;
        // A queue inserts at one end and consumes (reads/deletes) at the
        // other.  Evaluate both orientations.
        const std::size_t fifo1 =
            t.back_insert + t.front_delete + t.front_read;  // enqueue back
        const std::size_t fifo2 =
            t.front_insert + t.back_delete + t.back_read;   // enqueue front
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
        if (two_end_share > config_.iq_min_two_end_share &&
            balance >= config_.iq_min_per_end_share && insert_side > 0 &&
            consume_side > 0) {
            AdviceEvidence e;
            e.share = two_end_share;
            e.share_threshold = config_.iq_min_two_end_share;
            e.ops = insert_side;
            e.aux_ops = consume_side;
            e.at_front = !orientation1;
            emit(UseCaseKind::ImplementQueue,
                 confidence_of(two_end_share,
                               config_.iq_min_two_end_share),
                 e);
        }
    }

    // ---- Frequent-Search --------------------------------------------------
    const std::size_t search_ops =
        s.counts[static_cast<std::size_t>(AccessType::Search)];
    if (linear && search_ops > config_.fs_min_search_ops) {
        const double read_pattern_share =
            static_cast<double>(s.read_pattern_events) /
            static_cast<double>(total);
        if (read_pattern_share >= config_.fs_min_read_pattern_share) {
            AdviceEvidence e;
            e.share = read_pattern_share;
            e.share_threshold = config_.fs_min_read_pattern_share;
            e.ops = search_ops;
            e.ops_threshold = config_.fs_min_search_ops;
            emit(UseCaseKind::FrequentSearch,
                 confidence_of(static_cast<double>(search_ops),
                               static_cast<double>(
                                   config_.fs_min_search_ops)),
                 e);
        }
    }

    // ---- Frequent-Long-Read -------------------------------------------------
    if (linear) {
        const double read_share =
            s.weighted_total > 0.0 ? s.weighted_reads / s.weighted_total
                                   : 0.0;
        if (s.long_read_patterns > config_.flr_min_read_patterns &&
            read_share >= config_.flr_min_read_share) {
            AdviceEvidence e;
            e.share = read_share;
            e.share_threshold = config_.flr_min_coverage;
            e.ops = s.long_read_patterns;
            e.ops_threshold = config_.flr_min_read_patterns;
            emit(UseCaseKind::FrequentLongRead,
                 confidence_of(static_cast<double>(s.long_read_patterns),
                               static_cast<double>(
                                   config_.flr_min_read_patterns)),
                 e);
        }
    }

    // ---- Insert/Delete-Front (sequential) --------------------------------
    if (info.kind == runtime::DsKind::Array) {
        if (s.resizes >= config_.idf_min_resizes) {
            AdviceEvidence e;
            e.ops = s.resizes;
            e.ops_threshold = config_.idf_min_resizes;
            emit(UseCaseKind::InsertDeleteFront,
                 confidence_of(static_cast<double>(s.resizes),
                               static_cast<double>(
                                   config_.idf_min_resizes)),
                 e);
        }
    } else if (info.kind == runtime::DsKind::List) {
        const EndTraffic& t = s.edge_traffic;
        if (t.front_insert >= config_.idf_min_front_ops &&
            t.front_delete >= config_.idf_min_front_ops) {
            AdviceEvidence e;
            e.ops = t.front_insert;
            e.aux_ops = t.front_delete;
            e.ops_threshold = config_.idf_min_front_ops;
            e.at_front = true;
            emit(UseCaseKind::InsertDeleteFront,
                 confidence_of(
                     static_cast<double>(
                         std::min(t.front_insert, t.front_delete)),
                     static_cast<double>(config_.idf_min_front_ops)),
                 e);
        }
    }

    // ---- Stack-Implementation (sequential) ---------------------------------
    if (info.kind == runtime::DsKind::List) {
        const EndTraffic& t = s.edge_traffic;
        const std::size_t muts = t.inserts() + t.deletes();
        // Count *all* insert/delete events to catch mid-structure traffic
        // that would disqualify the stack pattern.
        const std::size_t inserts =
            s.counts[static_cast<std::size_t>(AccessType::Insert)];
        const std::size_t deletes =
            s.counts[static_cast<std::size_t>(AccessType::Delete)];
        const std::size_t all_muts = inserts + deletes;
        if (all_muts >= config_.si_min_ops && muts > 0 && inserts > 0 &&
            deletes > 0) {
            const double back_share =
                static_cast<double>(t.back_insert + t.back_delete) /
                static_cast<double>(all_muts);
            const double front_share =
                static_cast<double>(t.front_insert + t.front_delete) /
                static_cast<double>(all_muts);
            if (back_share >= config_.si_min_common_end_share ||
                front_share >= config_.si_min_common_end_share) {
                AdviceEvidence e;
                e.share = std::max(back_share, front_share);
                e.share_threshold = config_.si_min_common_end_share;
                e.ops = all_muts;
                e.at_front = back_share < front_share;
                emit(UseCaseKind::StackImplementation,
                     confidence_of(std::max(back_share, front_share),
                                   config_.si_min_common_end_share),
                     e);
            }
        }
    }

    // ---- Write-Without-Read (sequential) -------------------------------------
    if (s.tail_type == AccessType::Write &&
        s.tail_length >= config_.wwr_min_events) {
        const double denom = s.tail_last_size > 0
                                 ? static_cast<double>(s.tail_last_size)
                                 : 1.0;
        const double coverage =
            std::min(1.0, static_cast<double>(s.tail_length) / denom);
        if (coverage >= config_.wwr_min_coverage) {
            AdviceEvidence e;
            e.share = coverage;
            e.share_threshold = config_.wwr_min_coverage;
            e.phase_length = s.tail_length;
            emit(UseCaseKind::WriteWithoutRead,
                 confidence_of(coverage, config_.wwr_min_coverage),
                 e);
        }
    }

    return out;
}

}  // namespace dsspy::core
