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
//       a value -> first dense position index makes find_key O(1); the
//       paper's "data structure that is optimized for searches".
//   Frequent-Long-Read / ForAll traversals      -> Parallel
//       for_each fans out over parallel::ThreadPool chunks of the dense
//       entry vector.
//
// Strategies with no dictionary-side remedy (DequeBacked — front traffic
// does not exist in a hash map) behave exactly like Sequential; the
// controller may still *select* them, the migration is just a no-op.
//
// The adaptation loop — fold, interval count, reclassify, controller,
// the shared/exclusive locking and the read path's lock upgrade — is the
// same AdaptiveCore code AdaptiveList runs; the Indexed strategy's value
// index is the same PositionIndex.  This file holds only the dense entry
// view and its key map.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "adapt/adaptive_core.hpp"
#include "adapt/position_index.hpp"
#include "ds/dictionary.hpp"
#include "ds/type_names.hpp"
#include "parallel/parallel_for.hpp"
#include "runtime/access_event.hpp"

namespace dsspy::adapt {

/// Self-adapting Dictionary<K, V>.  See the file comment for how its
/// dense entry view is profiled and which strategies it can run.
template <typename K, typename V, typename Hash = std::hash<K>>
class AdaptiveDictionary : public AdaptiveCore {
public:
    explicit AdaptiveDictionary(AdaptConfig config = {},
                                support::SourceLoc location =
                                    {"AdaptiveDictionary", "self", 0})
        : AdaptiveCore(config,
                       ds::container_type_name2<K, V>("AdaptiveDictionary"),
                       std::move(location)) {}

    [[nodiscard]] std::size_t count() const {
        return inspect([this] { return entries_.size(); });
    }
    [[nodiscard]] bool empty() const { return count() == 0; }

    /// Insert or overwrite (indexer set).  An overwrite is a Set at the
    /// entry's dense position; a fresh key is an Add at the landing index.
    void set(K key, V value) {
        write([&] {
            std::size_t idx = 0;
            if (pos_.try_get(key, idx)) {
                fold(runtime::OpKind::Set, static_cast<std::int64_t>(idx),
                     entries_.size());
                if (index_ && !(entries_[idx].second == value)) {
                    const V old = std::move(entries_[idx].second);
                    entries_[idx].second = std::move(value);
                    index_->remove(old, idx, entries_.size(), value_at());
                    index_->add(entries_[idx].second, idx);
                } else {
                    entries_[idx].second = std::move(value);
                }
                return;
            }
            const std::size_t landing = entries_.size();
            entries_.emplace_back(key, std::move(value));
            pos_.set(std::move(key), landing);
            fold(runtime::OpKind::Add, static_cast<std::int64_t>(landing),
                 entries_.size());
            // The landing entry is the newest: an existing first position
            // for this value stays first (first-key-wins).
            if (index_) index_->add(entries_.back().second, landing);
        });
    }

    /// Indexer get; by value — a reference could dangle across a
    /// concurrent migration.  Throws std::out_of_range if missing.
    [[nodiscard]] V get(const K& key) const {
        return read([this, &key] {
            const std::ptrdiff_t idx = lookup(key);
            if (idx < 0)
                throw std::out_of_range(
                    "AdaptiveDictionary::get: missing key");
            return entries_[static_cast<std::size_t>(idx)].second;
        });
    }

    /// TryGetValue: writes to `out` and returns true if present.
    bool try_get(const K& key, V& out) const {
        return read([this, &key, &out] {
            const std::ptrdiff_t idx = lookup(key);
            if (idx < 0) return false;
            out = entries_[static_cast<std::size_t>(idx)].second;
            return true;
        });
    }

    [[nodiscard]] bool contains_key(const K& key) const {
        V ignored;
        return try_get(key, ignored);
    }

    /// Value search: the first key whose value equals `value` (insertion
    /// order).  Linear over the dense entries — unless the Indexed
    /// strategy holds the value -> first position index.  Recorded as
    /// IndexOf at the hit position, the Frequent-Search signal.
    [[nodiscard]] std::optional<K> find_key(const V& value) const {
        return read([this, &value]() -> std::optional<K> {
            const std::ptrdiff_t idx = index_ ? index_->find(value)
                                              : scan_for(value);
            fold(runtime::OpKind::IndexOf,
                 idx >= 0 ? idx : runtime::kWholeContainer, entries_.size());
            if (idx < 0) return std::nullopt;
            return entries_[static_cast<std::size_t>(idx)].first;
        });
    }

    /// Remove `key`; true if it was present.  A hit is recorded as
    /// RemoveAt at the entry's dense position (order-preserving erase,
    /// like List); a miss is a failed whole-container key lookup — the
    /// try_get miss convention — never a synthetic front delete.
    bool remove(const K& key) {
        return write([&] {
            std::size_t idx = 0;
            if (!pos_.try_get(key, idx)) {
                fold(runtime::OpKind::Get, runtime::kWholeContainer,
                     entries_.size());
                return false;
            }
            const V old = std::move(entries_[idx].second);
            entries_.erase(entries_.begin() +
                           static_cast<std::ptrdiff_t>(idx));
            pos_.remove(key);
            // Entries after the erased one shifted down by one.
            for (std::size_t i = idx; i < entries_.size(); ++i)
                pos_.set(entries_[i].first, i);
            if (index_)
                index_->erase_at(old, idx, entries_.size(), value_at());
            fold(runtime::OpKind::RemoveAt, static_cast<std::int64_t>(idx),
                 entries_.size());
            return true;
        });
    }

    void clear() {
        write([&] {
            entries_.clear();
            pos_.clear();
            if (index_) index_->clear();
            fold(runtime::OpKind::Clear, runtime::kWholeContainer, 0);
        });
    }

    /// Traverse entries in insertion order; recorded as one ForEach.
    /// Under the Parallel strategy `fn` runs on pool workers over
    /// disjoint chunks (unordered across chunks) — it must be
    /// thread-safe then.
    template <typename Fn>
    void for_each(Fn fn) const {
        read([this, &fn] {
            fold(runtime::OpKind::ForEach, runtime::kWholeContainer,
                 entries_.size());
            if (fans_out(entries_.size())) {
                par::parallel_for_chunks(
                    0, entries_.size(),
                    [this, &fn](std::size_t lo, std::size_t hi) {
                        for (std::size_t i = lo; i < hi; ++i)
                            fn(entries_[i].first, entries_[i].second);
                    });
                return;
            }
            for (const auto& [key, value] : entries_) fn(key, value);
        });
    }

private:
    [[nodiscard]] std::size_t backing_size() const final {
        return entries_.size();
    }

    /// Key lookup, folded as a Get at the entry's dense position (a miss
    /// is a whole-container Get).  Dense position or -1.
    [[nodiscard]] std::ptrdiff_t lookup(const K& key) const {
        std::size_t idx = 0;
        if (!pos_.try_get(key, idx)) {
            fold(runtime::OpKind::Get, runtime::kWholeContainer,
                 entries_.size());
            return -1;
        }
        fold(runtime::OpKind::Get, static_cast<std::int64_t>(idx),
             entries_.size());
        return static_cast<std::ptrdiff_t>(idx);
    }

    /// Linear first-key-wins value scan over the dense entries.
    [[nodiscard]] std::ptrdiff_t scan_for(const V& value) const {
        for (std::size_t i = 0; i < entries_.size(); ++i)
            if (entries_[i].second == value)
                return static_cast<std::ptrdiff_t>(i);
        return -1;
    }

    /// The search index's view of the dense entries.
    [[nodiscard]] auto value_at() const {
        return [this](std::size_t i) -> const V& {
            return entries_[i].second;
        };
    }

    void migrate(Strategy from, Strategy to) const final {
        if (from == Strategy::Indexed && to != Strategy::Indexed)
            index_.reset();
        if (to == Strategy::Indexed) {
            index_.emplace();
            index_->rebuild(entries_.size(), value_at());
        }
        // Parallel and DequeBacked need no representation change here:
        // Parallel only alters the traversal path, and DequeBacked has no
        // dictionary-side remedy (behaves like Sequential).
    }

    /// Insertion-ordered dense entry view — the profiled linear sequence.
    /// Dense order is insertion order (order-preserving erase), so the
    /// first position holding a value is its first-inserted key.
    mutable std::vector<std::pair<K, V>> entries_;
    /// Key -> dense index (the primary hash lookup).
    mutable ds::Dictionary<K, std::size_t, Hash> pos_;
    /// Value -> (first dense position, count) (Indexed strategy only).
    mutable std::optional<PositionIndex<V>> index_;
};

}  // namespace dsspy::adapt
