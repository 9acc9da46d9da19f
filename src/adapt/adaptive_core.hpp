// AdaptiveCore — the adaptation loop shared by every adaptive container.
//
// An adaptive container folds each of its operations into an embedded
// core::IncrementalAnalyzer, every `reclassify_interval` operations turns
// the analyzer's verdicts into advice signals for the damped
// adapt::HysteresisController, and migrates its backing when the
// controller changes strategy.  Everything in that sentence except the
// backing itself lives here, once: AdaptiveList and AdaptiveDictionary
// derive from this class and supply only their backing size and their
// migration body.
//
// Threading: a std::shared_mutex.  Reads take the shared lock; mutations
// and strategy migrations take the exclusive lock.  Whether an operation
// is the one that crosses the reclassification interval is decided by an
// atomic counter *before* locking, so a read-only phase still
// reclassifies (that op upgrades itself to the exclusive lock) and a
// migration can never run under a shared lock.  Event folding has its own
// serialization point (fold_mutex_) because IncrementalAnalyzer requires
// per-instance seq order: two readers under the shared lock must not be
// able to fold out of the order their seqs were issued in, so seq
// assignment and the fold happen under one lock.  Read methods are const
// but may adapt the internal representation — mutable members, the
// self-organizing-container idiom.
//
// The per-op path (crosses_interval, fold, the lock choice) is inline;
// only the reclassification step is compiled in adaptive_core.cpp.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <type_traits>
#include <vector>

#include "adapt/controller.hpp"
#include "core/incremental.hpp"
#include "runtime/access_event.hpp"
#include "support/source_location.hpp"

namespace dsspy::adapt {

namespace detail {

/// Process-wide compact thread slot for synthesized events (the adaptive
/// containers have no ProfilingSession to assign dense ids).
inline runtime::ThreadId thread_slot() noexcept {
    static std::atomic<std::uint16_t> next{0};
    thread_local const std::uint16_t slot =
        next.fetch_add(1, std::memory_order_relaxed);
    return slot;
}

}  // namespace detail

/// Tuning for an adaptive container.
struct AdaptConfig {
    /// Operations between reclassifications (the analyzer fold runs every
    /// operation; only the classify + controller step is periodic).
    std::size_t reclassify_interval = 256;
    ControllerConfig controller{};
    core::DetectorConfig detector{};
};

/// Smallest backing the Parallel strategy fans out over; below it the
/// chunked pool traversal costs more than the sequential one.
inline constexpr std::size_t kParallelMinSize = 2048;

/// The shared adaptation loop; see the file comment.  A container derives
/// from it, answers backing_size() and migrate(), and routes every
/// operation through read() or write().
class AdaptiveCore {
public:
    AdaptiveCore(const AdaptiveCore&) = delete;
    AdaptiveCore& operator=(const AdaptiveCore&) = delete;

    // --- adaptation introspection -----------------------------------------

    [[nodiscard]] Strategy strategy() const {
        std::shared_lock lock(mutex_);
        return controller_.current();
    }

    /// Completed backing migrations (the thrash counter).
    [[nodiscard]] std::size_t switch_count() const {
        std::shared_lock lock(mutex_);
        return controller_.switch_count();
    }

    /// Switches the hysteresis suppressed.
    [[nodiscard]] std::size_t suppressed_count() const {
        std::shared_lock lock(mutex_);
        return controller_.suppressed_count();
    }

    /// Current verdicts of the embedded analyzer — what offline analysis
    /// of the same access stream would report right now.
    [[nodiscard]] std::vector<core::UseCase> verdicts() const {
        std::shared_lock lock(mutex_);
        return current_verdicts();
    }

    [[nodiscard]] std::uint64_t events_folded() const {
        return analyzer_.events_folded();
    }

protected:
    /// Declares the container as instance 0 of its embedded analyzer.
    /// List kind for both containers: only List/Array instances reach the
    /// positional detectors.
    AdaptiveCore(const AdaptConfig& config, std::string type_name,
                 support::SourceLoc location);
    ~AdaptiveCore() = default;

    /// Element count of the backing (callers hold a lock).
    [[nodiscard]] virtual std::size_t backing_size() const = 0;

    /// Move the backing from one strategy's representation to the
    /// other's.  Runs under the exclusive lock, inside the adapt.switch
    /// span.
    virtual void migrate(Strategy from, Strategy to) const = 0;

    /// Fold one synthesized event with ds::ProfiledList's recording
    /// conventions (op, position, size-at-access).  Seq issue and fold
    /// happen under one lock: IncrementalAnalyzer requires per-instance
    /// seq order, and two shared-lock readers must not reorder between
    /// taking a seq and folding it.
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
        ev.time_ns = ev.seq;  // Logical clock: classification under the
                              // default config is event-based.
        analyzer_.fold(ev);
    }

    /// The read path: shared lock normally; the interval-crossing op
    /// takes the exclusive lock so it can reclassify (and migrate) at a
    /// safe point once `body` is done — also when `body` throws (a
    /// missing-key get is still an operation of the interval).
    template <typename Body>
    decltype(auto) read(Body&& body) const {
        if (!crosses_interval()) {
            std::shared_lock lock(mutex_);
            return body();
        }
        std::unique_lock lock(mutex_);
        const auto run = [&]() -> decltype(auto) {
            try {
                return body();
            } catch (...) {
                reclassify();
                throw;
            }
        };
        if constexpr (std::is_void_v<decltype(body())>) {
            run();
            reclassify();
        } else {
            auto result = run();
            reclassify();
            return result;
        }
    }

    /// A read that is not an operation (a size query): shared lock, no
    /// fold, no interval count.
    template <typename Body>
    decltype(auto) inspect(Body&& body) const {
        std::shared_lock lock(mutex_);
        return body();
    }

    /// The write path: `body` runs under the exclusive lock, then the
    /// operation counts toward the interval.
    template <typename Body>
    decltype(auto) write(Body&& body) {
        std::unique_lock lock(mutex_);
        if constexpr (std::is_void_v<decltype(body())>) {
            body();
            count_op();
        } else {
            auto result = body();
            count_op();
            return result;
        }
    }

    /// Count one operation inside a write's critical section (a write
    /// that records two operations counts the first one itself).
    void count_op() const {
        if (crosses_interval()) reclassify();
    }

    /// Whether whole-container reads of a `size`-element backing fan out
    /// over the pool (callers hold a lock).
    [[nodiscard]] bool fans_out(std::size_t size) const noexcept {
        return controller_.current() == Strategy::Parallel &&
               size >= kParallelMinSize;
    }

private:
    /// Pre-lock decision: is this the operation that crosses the
    /// reclassification interval?
    [[nodiscard]] bool crosses_interval() const {
        const std::uint64_t n =
            ops_.fetch_add(1, std::memory_order_relaxed) + 1;
        return config_.reclassify_interval != 0 &&
               n % config_.reclassify_interval == 0;
    }

    /// Operations since the previous reclassification (under the
    /// exclusive lock).
    [[nodiscard]] std::size_t take_ops_delta() const {
        const std::uint64_t now = ops_.load(std::memory_order_relaxed);
        const auto delta = static_cast<std::size_t>(now - last_observed_ops_);
        last_observed_ops_ = now;
        return delta;
    }

    [[nodiscard]] std::vector<core::UseCase> current_verdicts() const;

    /// Runs under the exclusive lock: classify, consult the controller,
    /// migrate the backing if the strategy changed.
    void reclassify() const;

    AdaptConfig config_;
    runtime::InstanceInfo info_;

    mutable std::shared_mutex mutex_;
    mutable core::IncrementalAnalyzer analyzer_;
    mutable HysteresisController controller_;
    mutable std::mutex fold_mutex_;
    mutable std::uint64_t seq_ = 0;
    mutable std::atomic<std::uint64_t> ops_{0};
    mutable std::uint64_t last_observed_ops_ = 0;
};

}  // namespace dsspy::adapt
