// AdaptiveDictionary<K, V> — a dictionary that acts on its own verdicts.
//
// ProfiledDictionary records every operation as whole-container (hash
// access has no linear position), which means the positional detectors —
// Frequent-Search, Frequent-Long-Read — can never fire for it.  The
// adaptive dictionary therefore profiles its *dense entry view*: entries
// live in an insertion-ordered dense vector (the hash table maps key ->
// dense index), and every operation is folded as a List-kind event at the
// entry's dense position, exactly as a ds::ProfiledList over the same
// access sequence would record it.  The verdicts then drive the backing:
//
//   Frequent-Search on values (find_key scans) -> Indexed
//       a value -> key reverse index makes find_key O(1); the paper's
//       "data structure that is optimized for searches".
//   Frequent-Long-Read / ForAll traversals      -> Parallel
//       for_each fans out over parallel::ThreadPool chunks of the dense
//       entry vector.
//
// Strategies with no dictionary-side remedy (DequeBacked — front traffic
// does not exist in a hash map) behave exactly like Sequential; the
// controller may still *select* them, the migration is just a no-op.
//
// Threading matches AdaptiveList: std::shared_mutex, reads shared,
// mutations and strategy migrations exclusive, the interval-crossing
// operation upgrades itself to the write lock at a safe point, and seq
// issue + analyzer fold share one serialization point so concurrent
// shared-lock readers cannot violate the analyzer's per-instance
// seq-order contract.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "adapt/adaptive_list.hpp"
#include "adapt/controller.hpp"
#include "core/incremental.hpp"
#include "ds/dictionary.hpp"
#include "ds/type_names.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel_for.hpp"
#include "runtime/access_event.hpp"

namespace dsspy::adapt {

/// Self-adapting Dictionary<K, V>.  See the file comment for how its
/// dense entry view is profiled and which strategies it can run.
template <typename K, typename V, typename Hash = std::hash<K>>
class AdaptiveDictionary {
public:
    explicit AdaptiveDictionary(AdaptConfig config = {},
                                support::SourceLoc location =
                                    {"AdaptiveDictionary", "self", 0})
        : config_(config),
          analyzer_(config.detector),
          controller_(config.controller) {
        info_.id = 0;
        // List kind on purpose: the dense entry view is a linear
        // sequence, and only List/Array instances reach the positional
        // detectors (see file comment).
        info_.kind = runtime::DsKind::List;
        info_.type_name =
            ds::container_type_name2<K, V>("AdaptiveDictionary");
        info_.location = std::move(location);
        analyzer_.declare_instance(info_);
    }

    AdaptiveDictionary(const AdaptiveDictionary&) = delete;
    AdaptiveDictionary& operator=(const AdaptiveDictionary&) = delete;

    [[nodiscard]] std::size_t count() const {
        std::shared_lock lock(mutex_);
        return entries_.size();
    }
    [[nodiscard]] bool empty() const { return count() == 0; }

    /// Insert or overwrite (indexer set).  An overwrite is a Set at the
    /// entry's dense position; a fresh key is an Add at the landing index.
    void set(K key, V value) {
        std::unique_lock lock(mutex_);
        std::size_t idx = 0;
        if (pos_.try_get(key, idx)) {
            fold(runtime::OpKind::Set, static_cast<std::int64_t>(idx),
                 entries_.size());
            if (reverse_ && !(entries_[idx].second == value)) {
                const V old = std::move(entries_[idx].second);
                entries_[idx].second = std::move(value);
                reverse_remove_occurrence(old, entries_[idx].first);
                reverse_add(entries_[idx].second, entries_[idx].first, idx);
            } else {
                entries_[idx].second = std::move(value);
            }
        } else {
            const std::size_t landing = entries_.size();
            entries_.emplace_back(key, std::move(value));
            pos_.set(std::move(key), landing);
            fold(runtime::OpKind::Add, static_cast<std::int64_t>(landing),
                 entries_.size());
            // The landing entry is the newest: an existing canonical key
            // for this value stays canonical (first-key-wins).
            if (reverse_)
                reverse_add(entries_.back().second, entries_.back().first,
                            landing);
        }
        maybe_reclassify(lock);
    }

    /// Indexer get; by value — a reference could dangle across a
    /// concurrent migration.  Throws std::out_of_range if missing.
    [[nodiscard]] V get(const K& key) const {
        const bool reclassify = crosses_interval();
        if (reclassify) {
            std::unique_lock lock(mutex_);
            V out = get_locked(key);
            do_reclassify();
            return out;
        }
        std::shared_lock lock(mutex_);
        return get_locked(key);
    }

    /// TryGetValue: writes to `out` and returns true if present.
    bool try_get(const K& key, V& out) const {
        const bool reclassify = crosses_interval();
        if (reclassify) {
            std::unique_lock lock(mutex_);
            const bool hit = try_get_locked(key, out);
            do_reclassify();
            return hit;
        }
        std::shared_lock lock(mutex_);
        return try_get_locked(key, out);
    }

    [[nodiscard]] bool contains_key(const K& key) const {
        V ignored;
        return try_get(key, ignored);
    }

    /// Value search: the first key whose value equals `value` (insertion
    /// order).  Linear over the dense entries — unless the Indexed
    /// strategy holds the value -> key reverse index.  Recorded as
    /// IndexOf at the hit position, the Frequent-Search signal.
    [[nodiscard]] std::optional<K> find_key(const V& value) const {
        const bool reclassify = crosses_interval();
        if (reclassify) {
            std::unique_lock lock(mutex_);
            std::optional<K> hit = find_key_locked(value);
            do_reclassify();
            return hit;
        }
        std::shared_lock lock(mutex_);
        return find_key_locked(value);
    }

    /// Remove `key`; true if it was present.  A hit is recorded as
    /// RemoveAt at the entry's dense position (order-preserving erase,
    /// like List); a miss is a failed whole-container key lookup — the
    /// try_get miss convention — never a synthetic front delete.
    bool remove(const K& key) {
        std::unique_lock lock(mutex_);
        std::size_t idx = 0;
        const bool present = pos_.try_get(key, idx);
        if (present) {
            const V old = std::move(entries_[idx].second);
            entries_.erase(entries_.begin() +
                           static_cast<std::ptrdiff_t>(idx));
            pos_.remove(key);
            // Entries after the erased one shifted down by one.
            for (std::size_t i = idx; i < entries_.size(); ++i)
                pos_.set(entries_[i].first, i);
            if (reverse_) reverse_remove_occurrence(old, key);
            fold(runtime::OpKind::RemoveAt, static_cast<std::int64_t>(idx),
                 entries_.size());
        } else {
            fold(runtime::OpKind::Get, runtime::kWholeContainer,
                 entries_.size());
        }
        maybe_reclassify(lock);
        return present;
    }

    void clear() {
        std::unique_lock lock(mutex_);
        entries_.clear();
        pos_.clear();
        if (reverse_) reverse_->clear();
        fold(runtime::OpKind::Clear, runtime::kWholeContainer, 0);
        maybe_reclassify(lock);
    }

    /// Traverse entries in insertion order; recorded as one ForEach.
    /// Under the Parallel strategy `fn` runs on pool workers over
    /// disjoint chunks (unordered across chunks) — it must be
    /// thread-safe then.
    template <typename Fn>
    void for_each(Fn fn) const {
        const bool reclassify = crosses_interval();
        if (reclassify) {
            std::unique_lock lock(mutex_);
            fold(runtime::OpKind::ForEach, runtime::kWholeContainer,
                 entries_.size());
            traverse(fn);
            do_reclassify();
            return;
        }
        std::shared_lock lock(mutex_);
        fold(runtime::OpKind::ForEach, runtime::kWholeContainer,
             entries_.size());
        traverse(fn);
    }

    // --- adaptation introspection -----------------------------------------

    [[nodiscard]] Strategy strategy() const {
        std::shared_lock lock(mutex_);
        return controller_.current();
    }

    [[nodiscard]] std::size_t switch_count() const {
        std::shared_lock lock(mutex_);
        return controller_.switch_count();
    }

    [[nodiscard]] std::size_t suppressed_count() const {
        std::shared_lock lock(mutex_);
        return controller_.suppressed_count();
    }

    [[nodiscard]] std::vector<core::UseCase> verdicts() const {
        std::shared_lock lock(mutex_);
        return current_verdicts();
    }

    [[nodiscard]] std::uint64_t events_folded() const {
        return analyzer_.events_folded();
    }

private:
    [[nodiscard]] V get_locked(const K& key) const {
        std::size_t idx = 0;
        if (!pos_.try_get(key, idx)) {
            fold(runtime::OpKind::Get, runtime::kWholeContainer,
                 entries_.size());
            throw std::out_of_range("AdaptiveDictionary::get: missing key");
        }
        fold(runtime::OpKind::Get, static_cast<std::int64_t>(idx),
             entries_.size());
        return entries_[idx].second;
    }

    bool try_get_locked(const K& key, V& out) const {
        std::size_t idx = 0;
        if (!pos_.try_get(key, idx)) {
            fold(runtime::OpKind::Get, runtime::kWholeContainer,
                 entries_.size());
            return false;
        }
        fold(runtime::OpKind::Get, static_cast<std::int64_t>(idx),
             entries_.size());
        out = entries_[idx].second;
        return true;
    }

    [[nodiscard]] std::optional<K> find_key_locked(const V& value) const {
        if (reverse_) {
            const auto it = reverse_->find(value);
            if (it != reverse_->end()) {
                std::size_t idx = 0;
                pos_.try_get(it->second.first_key, idx);
                fold(runtime::OpKind::IndexOf,
                     static_cast<std::int64_t>(idx), entries_.size());
                return it->second.first_key;
            }
            fold(runtime::OpKind::IndexOf, runtime::kWholeContainer,
                 entries_.size());
            return std::nullopt;
        }
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            if (entries_[i].second == value) {
                fold(runtime::OpKind::IndexOf,
                     static_cast<std::int64_t>(i), entries_.size());
                return entries_[i].first;
            }
        }
        fold(runtime::OpKind::IndexOf, runtime::kWholeContainer,
             entries_.size());
        return std::nullopt;
    }

    template <typename Fn>
    void traverse(Fn& fn) const {
        if (controller_.current() == Strategy::Parallel &&
            entries_.size() >= 2048) {
            par::parallel_for_chunks(
                0, entries_.size(),
                [this, &fn](std::size_t lo, std::size_t hi) {
                    for (std::size_t i = lo; i < hi; ++i)
                        fn(entries_[i].first, entries_[i].second);
                });
            return;
        }
        for (const auto& [key, value] : entries_) fn(key, value);
    }

    /// Seq issue and fold share one lock: the analyzer requires
    /// per-instance seq order, and two shared-lock readers must not
    /// reorder between taking a seq and folding it.
    void fold(runtime::OpKind op, std::int64_t position,
              std::size_t size) const {
        runtime::AccessEvent ev;
        ev.position = position;
        ev.instance = info_.id;
        ev.size = static_cast<std::uint32_t>(size);
        ev.op = op;
        ev.thread = detail::thread_slot();
        const std::lock_guard<std::mutex> guard(fold_mutex_);
        ev.seq = seq_++;
        ev.time_ns = ev.seq;
        analyzer_.fold(ev);
    }

    [[nodiscard]] bool crosses_interval() const {
        const std::uint64_t n =
            ops_.fetch_add(1, std::memory_order_relaxed) + 1;
        return config_.reclassify_interval != 0 &&
               n % config_.reclassify_interval == 0;
    }

    void maybe_reclassify(std::unique_lock<std::shared_mutex>&) const {
        if (crosses_interval()) do_reclassify();
    }

    [[nodiscard]] std::vector<core::UseCase> current_verdicts() const {
        core::StreamReport report = analyzer_.snapshot({info_});
        for (const core::StreamInstance& si : report.instances())
            if (si.stats.info.id == info_.id) return si.use_cases;
        return {};
    }

    void do_reclassify() const {
        const std::vector<core::UseCase> verdicts = current_verdicts();
        std::vector<AdviceSignal> signals;
        signals.reserve(verdicts.size());
        for (const core::UseCase& uc : verdicts)
            signals.push_back({uc.advice.action, uc.confidence()});
        const std::uint64_t now = ops_.load(std::memory_order_relaxed);
        const std::size_t delta =
            static_cast<std::size_t>(now - last_observed_ops_);
        last_observed_ops_ = now;
        const Strategy before = controller_.current();
        const std::size_t suppressed_before = controller_.suppressed_count();
        const Strategy after = controller_.observe(
            signals.data(), signals.size(), entries_.size(), delta);
        if (obs::enabled()) {
            const auto& m = detail::AdaptMetrics::get();
            obs::MetricsRegistry::global().add(m.reclassifications);
            const std::size_t newly_suppressed =
                controller_.suppressed_count() - suppressed_before;
            if (newly_suppressed > 0)
                obs::MetricsRegistry::global().add(m.suppressed,
                                                   newly_suppressed);
        }
        if (after != before) migrate(before, after);
    }

    void migrate(Strategy from, Strategy to) const {
        DSSPY_TRACE_SPAN("adapt.switch");
        if (obs::enabled())
            obs::MetricsRegistry::global().add(
                detail::AdaptMetrics::get().switches);
        if (from == Strategy::Indexed && to != Strategy::Indexed)
            reverse_.reset();
        if (to == Strategy::Indexed) {
            reverse_.emplace();
            rebuild_reverse();
        }
        // Parallel and DequeBacked need no representation change here:
        // Parallel only alters the traversal path, and DequeBacked has no
        // dictionary-side remedy (behaves like Sequential).
    }

    /// One more entry (`key` at dense index `idx`) now holds `value`.
    /// O(1): first-key-wins resolved by comparing dense positions.
    void reverse_add(const V& value, const K& key, std::size_t idx) const {
        auto [it, fresh] = reverse_->try_emplace(value, RevEntry{key, 0});
        ++it->second.count;
        if (!fresh) {
            std::size_t canonical = 0;
            pos_.try_get(it->second.first_key, canonical);
            // Dense order is insertion order (order-preserving erase), so
            // the smaller index is the earlier-inserted key.
            if (idx < canonical) it->second.first_key = key;
        }
    }

    /// The entry under `key` no longer holds `value` (overwrite or
    /// removal; entries_ already reflects the change).  O(1) unless the
    /// canonical key of a duplicated value is hit, which re-derives
    /// first-key-wins by a targeted scan.
    void reverse_remove_occurrence(const V& value, const K& key) const {
        const auto it = reverse_->find(value);
        if (it == reverse_->end()) return;
        if (it->second.count <= 1) {
            reverse_->erase(it);
            return;
        }
        --it->second.count;
        if (it->second.first_key == key) {
            for (const auto& [other_key, other_value] : entries_) {
                if (other_value == value) {
                    it->second.first_key = other_key;
                    break;
                }
            }
        }
    }

    /// Full rebuild of the value -> (first key, count) reverse index —
    /// only when entering the Indexed strategy; point mutations maintain
    /// it incrementally.  First-key-wins: insertion-order iteration with
    /// try_emplace keeps the earliest key.
    void rebuild_reverse() const {
        reverse_->clear();
        for (const auto& [key, value] : entries_) {
            auto [it, fresh] = reverse_->try_emplace(value, RevEntry{key, 0});
            ++it->second.count;
        }
    }

    /// Reverse-index bookkeeping: the earliest-inserted key holding the
    /// value plus its occurrence count, so point mutations update in O(1)
    /// and only losing the canonical key of a duplicate needs a rescan.
    struct RevEntry {
        K first_key;
        std::size_t count = 0;
    };

    AdaptConfig config_;
    runtime::InstanceInfo info_;

    mutable std::shared_mutex mutex_;
    /// Insertion-ordered dense entry view — the profiled linear sequence.
    mutable std::vector<std::pair<K, V>> entries_;
    /// Key -> dense index (the primary hash lookup).
    mutable ds::Dictionary<K, std::size_t, Hash> pos_;
    /// Value -> (first key, count) (Indexed strategy only).
    mutable std::optional<std::unordered_map<V, RevEntry>> reverse_;

    mutable core::IncrementalAnalyzer analyzer_;
    mutable HysteresisController controller_;
    mutable std::mutex fold_mutex_;
    mutable std::uint64_t seq_ = 0;
    mutable std::atomic<std::uint64_t> ops_{0};
    mutable std::uint64_t last_observed_ops_ = 0;
};

}  // namespace dsspy::adapt
