// PositionIndex<T> — the Indexed strategy's search index.
//
// Maps each value of a dense sequence to the first position holding it
// plus its occurrence count, so a search is one hash lookup and point
// mutations update the index in O(1) (O(distinct values) when positions
// shift).  Only displacing the canonical (first) occurrence of a
// duplicated value costs a rescan of the sequence.  Both adaptive
// containers keep one while they run Indexed: AdaptiveList over its
// elements, AdaptiveDictionary over the values of its insertion-ordered
// entries (the first position is then the first-inserted key).
//
// The index never reads the sequence itself: operations that may need a
// rescan take the sequence length and a `value_at(i)` accessor, and are
// called after the sequence reflects the change.  Not thread-safe; the
// containers call it under their exclusive lock (find under either).
#pragma once

#include <cstddef>
#include <unordered_map>

namespace dsspy::adapt {

template <typename T>
class PositionIndex {
public:
    /// First position holding `value`, or -1.
    [[nodiscard]] std::ptrdiff_t find(const T& value) const {
        const auto it = entries_.find(value);
        return it != entries_.end()
                   ? static_cast<std::ptrdiff_t>(it->second.first)
                   : -1;
    }

    /// One more occurrence of `value` now lives at `pos`; no positions
    /// shifted (an append, or the new value of an overwrite).
    void add(const T& value, std::size_t pos) {
        auto [it, fresh] = entries_.try_emplace(value, Entry{pos, 0});
        ++it->second.count;
        if (pos < it->second.first) it->second.first = pos;
    }

    /// The occurrence of `value` at `pos` was overwritten in place; the
    /// sequence (`n` elements) already holds the new value there.
    template <typename ValueAt>
    void remove(const T& value, std::size_t pos, std::size_t n,
                ValueAt value_at) {
        const auto it = entries_.find(value);
        if (it == entries_.end()) return;
        if (it->second.count <= 1) {
            entries_.erase(it);
            return;
        }
        --it->second.count;
        if (it->second.first == pos)
            it->second.first = rescan(value, n, value_at);
    }

    /// Everything at positions >= `pos` is about to shift up by one
    /// (positional insert); call add() for the inserted value after.
    void shift_up(std::size_t pos) {
        for (auto& [value, entry] : entries_)
            if (entry.first >= pos) ++entry.first;
    }

    /// The element at `pos` (holding `value`) was erased and everything
    /// behind it shifted down by one; the sequence has `n` elements left.
    template <typename ValueAt>
    void erase_at(const T& value, std::size_t pos, std::size_t n,
                  ValueAt value_at) {
        for (auto& [v, entry] : entries_)
            if (entry.first > pos) --entry.first;
        remove(value, pos, n, value_at);
    }

    /// Rebuild from scratch over `n` elements — for wholesale reorderings
    /// and entering the Indexed strategy.  Iterating in order with
    /// try_emplace keeps each value's first position.
    template <typename ValueAt>
    void rebuild(std::size_t n, ValueAt value_at) {
        entries_.clear();
        for (std::size_t i = 0; i < n; ++i) {
            auto [it, fresh] = entries_.try_emplace(value_at(i), Entry{i, 0});
            ++it->second.count;
        }
    }

    void clear() { entries_.clear(); }

private:
    struct Entry {
        std::size_t first = 0;
        std::size_t count = 0;
    };

    /// First position holding `value`; only reached when the remaining
    /// count guarantees a hit.
    template <typename ValueAt>
    [[nodiscard]] static std::size_t rescan(const T& value, std::size_t n,
                                            ValueAt& value_at) {
        for (std::size_t i = 0; i < n; ++i)
            if (value_at(i) == value) return i;
        return n;  // Unreachable while counts are consistent.
    }

    std::unordered_map<T, Entry> entries_;
};

}  // namespace dsspy::adapt
