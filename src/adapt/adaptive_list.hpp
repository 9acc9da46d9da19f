// AdaptiveList<T> — a list that acts on its own DSspy verdicts.
//
// The profiler's output used to be prose for an engineer; the Advice
// refactor made it a typed value, and this container is the consumer that
// closes the loop.  Every operation is folded into an embedded
// core::IncrementalAnalyzer using the exact recording conventions of
// ds::ProfiledList (same op kinds, positions, sizes), so the verdicts the
// container sees are bit-identical to what offline analysis of the same
// access stream would produce.  Every `reclassify_interval` operations
// the container snapshots its analyzer, feeds the verdict signals to the
// damped adapt::HysteresisController, and — at that safe point, under the
// write lock — migrates its backing strategy:
//
//   Frequent-Search      -> Indexed     (value -> index dictionary; the
//                                        paper's "data structure that is
//                                        optimized for searches")
//   Long-Insert / SAI /
//   Frequent-Long-Read   -> Parallel    (whole-container reads fan out
//                                        over parallel::ThreadPool)
//   Implement-Queue /
//   Insert-Delete-Front  -> DequeBacked (O(1) front inserts/deletes)
//
// The loop itself (fold, reclassify, controller, locking) is the shared
// AdaptiveCore; this file holds only the backings and their migration.
// Read methods are const but may adapt the internal representation.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <optional>
#include <utility>

#include "adapt/adaptive_core.hpp"
#include "adapt/position_index.hpp"
#include "ds/list.hpp"
#include "ds/type_names.hpp"
#include "parallel/parallel_for.hpp"
#include "runtime/access_event.hpp"

namespace dsspy::adapt {

/// Self-adapting List<T>.  API and recorded-event semantics mirror
/// ds::ProfiledList; see the file comment for the strategy loop.
template <typename T>
class AdaptiveList : public AdaptiveCore {
public:
    explicit AdaptiveList(AdaptConfig config = {},
                          support::SourceLoc location = {"AdaptiveList",
                                                         "self", 0})
        : AdaptiveCore(config, ds::container_type_name<T>("AdaptiveList"),
                       std::move(location)) {}

    // --- element access ---------------------------------------------------

    /// Indexer read; by value — a reference could dangle across a
    /// concurrent backing migration.
    [[nodiscard]] T get(std::size_t index) const {
        return read([this, index] {
            fold(runtime::OpKind::Get, static_cast<std::int64_t>(index),
                 backing_size());
            return backing_get(index);
        });
    }

    void set(std::size_t index, T value) {
        write([&] {
            fold(runtime::OpKind::Set, static_cast<std::int64_t>(index),
                 backing_size());
            std::optional<T> old;
            if (index_) old = backing_get(index);
            if (deque_) {
                (*deque_)[index] = std::move(value);
            } else {
                list_.set(index, std::move(value));
            }
            if (index_ && !(*old == backing_get(index))) {
                index_->remove(*old, index, backing_size(), value_at());
                index_->add(backing_get(index), index);
            }
        });
    }

    // --- size -------------------------------------------------------------

    [[nodiscard]] std::size_t count() const {
        return inspect([this] { return backing_size(); });
    }
    [[nodiscard]] bool empty() const { return count() == 0; }

    // --- mutation ---------------------------------------------------------

    /// Append; recorded as Add at the landing index.
    void add(T value) {
        write([&] {
            const std::size_t landing = backing_size();
            if (deque_) {
                deque_->push_back(value);
            } else {
                list_.add(value);
            }
            fold(runtime::OpKind::Add, static_cast<std::int64_t>(landing),
                 backing_size());
            // Appends shift nothing: a single occurrence bump keeps the
            // index exact.
            if (index_) index_->add(value, landing);
        });
    }

    /// Positional insert; recorded as InsertAt.
    void insert(std::size_t index, T value) {
        write([&] {
            if (index_) {
                index_->shift_up(index);
                index_->add(value, index);
            }
            if (deque_) {
                deque_->insert(deque_->begin() +
                                   static_cast<std::ptrdiff_t>(index),
                               std::move(value));
            } else {
                list_.insert(index, std::move(value));
            }
            fold(runtime::OpKind::InsertAt, static_cast<std::int64_t>(index),
                 backing_size());
        });
    }

    /// Positional removal; recorded as RemoveAt.
    void remove_at(std::size_t index) {
        write([&] {
            erase_at(index);
            fold(runtime::OpKind::RemoveAt, static_cast<std::int64_t>(index),
                 backing_size());
        });
    }

    /// Remove first equal element; search + removal both recorded (the
    /// ProfiledList convention), both inside one exclusive critical
    /// section — the found index must not go stale under a concurrent
    /// mutation between the search and the erase.
    bool remove(const T& value) {
        return write([&] {
            const std::ptrdiff_t idx = backing_index_of(value);
            fold(runtime::OpKind::IndexOf,
                 idx >= 0 ? idx : runtime::kWholeContainer, backing_size());
            if (idx < 0) return false;
            // The search counts as one operation; a reclassification here
            // may migrate the backing, which preserves element order, so
            // idx stays valid.
            count_op();
            erase_at(static_cast<std::size_t>(idx));
            fold(runtime::OpKind::RemoveAt, idx, backing_size());
            return true;
        });
    }

    void clear() {
        write([&] {
            if (deque_) {
                deque_->clear();
            } else {
                list_.clear();
            }
            if (index_) index_->clear();
            fold(runtime::OpKind::Clear, runtime::kWholeContainer, 0);
        });
    }

    // --- whole-container operations ---------------------------------------

    /// Linear search — unless the Indexed strategy holds a value -> index
    /// dictionary (O(1)) or the Parallel strategy fans the scan out in
    /// chunks.  Recorded as IndexOf with the hit position.
    [[nodiscard]] std::ptrdiff_t index_of(const T& value) const {
        return read([this, &value] {
            const std::ptrdiff_t idx = backing_index_of(value);
            fold(runtime::OpKind::IndexOf,
                 idx >= 0 ? idx : runtime::kWholeContainer, backing_size());
            return idx;
        });
    }

    [[nodiscard]] bool contains(const T& value) const {
        return index_of(value) >= 0;
    }

    void sort() {
        write([&] {
            if (deque_) {
                std::sort(deque_->begin(), deque_->end());
            } else {
                list_.sort();
            }
            fold(runtime::OpKind::Sort, runtime::kWholeContainer,
                 backing_size());
            if (index_) index_->rebuild(backing_size(), value_at());
        });
    }

    void reverse() {
        write([&] {
            if (deque_) {
                std::reverse(deque_->begin(), deque_->end());
            } else {
                list_.reverse();
            }
            fold(runtime::OpKind::Reverse, runtime::kWholeContainer,
                 backing_size());
            if (index_) index_->rebuild(backing_size(), value_at());
        });
    }

    /// Whole-container traversal; recorded as a single ForEach event.
    /// Under the Parallel strategy `fn` runs on pool workers over
    /// disjoint chunks — it must be thread-safe then (it is called
    /// sequentially, in order, under every other strategy).
    template <typename Fn>
    void for_each(Fn fn) const {
        read([this, &fn] {
            fold(runtime::OpKind::ForEach, runtime::kWholeContainer,
                 backing_size());
            backing_for_each(fn);
        });
    }

private:
    // --- backing dispatch (callers hold a lock) ---------------------------

    [[nodiscard]] std::size_t backing_size() const final {
        return deque_ ? deque_->size() : list_.count();
    }

    [[nodiscard]] T backing_get(std::size_t index) const {
        return deque_ ? (*deque_)[index] : list_.get(index);
    }

    /// The search index's view of the backing.
    [[nodiscard]] auto value_at() const {
        return [this](std::size_t i) { return backing_get(i); };
    }

    [[nodiscard]] std::ptrdiff_t backing_index_of(const T& value) const {
        if (index_) return index_->find(value);
        if (deque_) {
            for (std::size_t i = 0; i < deque_->size(); ++i)
                if ((*deque_)[i] == value)
                    return static_cast<std::ptrdiff_t>(i);
            return -1;
        }
        if (fans_out(list_.count())) {
            // Chunked parallel scan; the atomic min keeps the
            // first-occurrence answer deterministic.
            std::atomic<std::size_t> first{list_.count()};
            par::parallel_for_chunks(
                0, list_.count(),
                [this, &value, &first](std::size_t lo, std::size_t hi) {
                    if (lo >= first.load(std::memory_order_relaxed)) return;
                    for (std::size_t i = lo; i < hi; ++i) {
                        if (list_.get(i) == value) {
                            std::size_t cur =
                                first.load(std::memory_order_relaxed);
                            while (i < cur &&
                                   !first.compare_exchange_weak(cur, i)) {
                            }
                            return;
                        }
                    }
                });
            const std::size_t hit = first.load(std::memory_order_relaxed);
            return hit < list_.count()
                       ? static_cast<std::ptrdiff_t>(hit)
                       : -1;
        }
        return list_.index_of(value);
    }

    template <typename Fn>
    void backing_for_each(Fn& fn) const {
        if (deque_) {
            for (const T& v : *deque_) fn(v);
            return;
        }
        if (fans_out(list_.count())) {
            par::parallel_for_chunks(
                0, list_.count(),
                [this, &fn](std::size_t lo, std::size_t hi) {
                    for (std::size_t i = lo; i < hi; ++i) fn(list_.get(i));
                });
            return;
        }
        list_.for_each([&fn](const T& v) { fn(v); });
    }

    /// Erase the element at `index`, keeping the search index (when the
    /// Indexed strategy holds one) exact.  Exclusive lock held.
    void erase_at(std::size_t index) {
        std::optional<T> old;
        if (index_) old = backing_get(index);
        if (deque_) {
            deque_->erase(deque_->begin() +
                          static_cast<std::ptrdiff_t>(index));
        } else {
            list_.remove_at(index);
        }
        if (index_)
            index_->erase_at(*old, index, backing_size(), value_at());
    }

    // --- migration --------------------------------------------------------

    void migrate(Strategy from, Strategy to) const final {
        // Leave the old backing.
        if (from == Strategy::DequeBacked && to != Strategy::DequeBacked) {
            list_.clear();
            list_.reserve(deque_->size());
            for (T& v : *deque_) list_.add(std::move(v));
            deque_.reset();
        }
        if (from == Strategy::Indexed && to != Strategy::Indexed)
            index_.reset();
        // Enter the new one.
        switch (to) {
            case Strategy::Indexed:
                index_.emplace();
                index_->rebuild(backing_size(), value_at());
                break;
            case Strategy::DequeBacked: {
                deque_.emplace();
                for (std::size_t i = 0; i < list_.count(); ++i)
                    deque_->push_back(std::move(list_[i]));
                list_.clear();
                break;
            }
            default:
                break;
        }
    }

    mutable ds::List<T> list_;
    mutable std::optional<std::deque<T>> deque_;
    mutable std::optional<PositionIndex<T>> index_;
};

}  // namespace dsspy::adapt
