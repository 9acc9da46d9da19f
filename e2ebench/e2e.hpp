// Shared pieces of the end-to-end benchmark (see README.md).
//
// The benchmark times DSspy from outside: every call into a module's
// public functions is wrapped in a Layer scope named "<module>.<step>"
// (apps, ds, runtime, core, parallel, serve, adapt).  A Layer adds
// its self time (its duration minus the Layers nested inside it) to the
// iteration's Sample under "<module>.<step>_ms"; in a traced iteration it
// also records a span with the same name on the program's global
// TraceRecorder, so the program's own spans (capture.stop,
// capture.finalize, analyze.shard, serve.fold, ...) nest inside it.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/dsspy.hpp"
#include "obs/trace.hpp"
#include "support/rng.hpp"

namespace dsspy::par {
class ThreadPool;
}

namespace e2e {

/// Everything one iteration measured: layer self times in ms, counts,
/// and the workload's derived metrics, keyed by metric name.
using Sample = std::map<std::string, double>;

/// Times one call into a module.  Scopes nest per thread: a Layer's
/// self time excludes the Layers opened inside it, which is exactly the
/// span self time the traced run reports.
class Layer {
public:
    /// `name` must be a string literal (it becomes a span name).
    Layer(const char* name, Sample& sample);
    /// Client-thread root: parented explicitly under `parent`.
    Layer(const char* name, Sample& sample, dsspy::obs::TraceContext parent);
    ~Layer();
    Layer(const Layer&) = delete;
    Layer& operator=(const Layer&) = delete;

    /// Span context for children opened on other threads.
    [[nodiscard]] dsspy::obs::TraceContext context() const noexcept;

    /// Whether Layers open spans (the traced iterations turn this on).
    static void set_tracing(bool on) noexcept;
    [[nodiscard]] static bool tracing() noexcept;

    /// Whether a span of this name was opened by a Layer (as opposed to
    /// the program's own spans).
    [[nodiscard]] static bool is_layer_span(std::string_view name);

private:
    /// `parent` null: nest under this thread's innermost span.
    Layer(const char* name, Sample& sample,
          const dsspy::obs::TraceContext* parent);

    const char* name_;
    Sample& sample_;
    Layer* parent_;
    std::uint64_t start_ns_;
    std::uint64_t child_ns_ = 0;
    std::optional<dsspy::obs::ScopedSpan> span_;
};

/// The correctness gate: every comparison is one attempted check.
class Checks {
public:
    /// Count one check; on failure print `what` to stderr.
    void expect(bool ok, const std::string& what);
    [[nodiscard]] std::uint64_t attempted() const noexcept {
        return attempted_;
    }
    [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }

private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/// Frozen digests ("key value" lines) the gate compares against.
class Golden {
public:
    /// Empty when the file cannot be read (every lookup then fails).
    static Golden load(const std::string& path);
    /// The frozen value, or "<missing KEY>" so a comparison fails.
    [[nodiscard]] std::string get(const std::string& key) const;

private:
    std::map<std::string, std::string> values_;
};

/// FNV-1a 64-bit digest as 16 hex digits.
[[nodiscard]] std::string digest(const std::string& bytes);
/// A checksum as text with every digit (golden format).
[[nodiscard]] std::string checksum_text(double value);
/// Golden key fragment: spaces become underscores.
[[nodiscard]] std::string key_name(const std::string& name);

/// The `--report` rendering of the report sink (use cases plus the
/// search-space footer): what `dsspy run`/`analyze` print by default.
[[nodiscard]] std::string render_report(
    const dsspy::core::AnalysisResult& result);
[[nodiscard]] std::string render_report(
    const dsspy::core::StreamReport& report);

/// Digest of the verdicts alone (use-case kind, instance type and site),
/// independent of event counts, timings and instance order.
[[nodiscard]] std::string verdict_digest(
    const std::vector<dsspy::core::UseCase>& use_cases);

/// Replay every corpus program `passes` times into `session`, each run
/// with its own seed drawn from `rng` (the replays' verdicts do not
/// depend on the seed; their event streams do).
void replay_corpus(dsspy::runtime::ProfilingSession& session,
                   dsspy::support::Rng& rng, int passes);

/// What a workload is given.
struct Config {
    std::uint64_t seed = 1;
    bool smoke = false;               ///< Tiny sizes, seconds per workload.
    std::string work_dir;             ///< Scratch files (traces, socket).
    const Golden* golden = nullptr;
    dsspy::par::ThreadPool* pool = nullptr;  ///< Analysis/parallel pool.
};

/// One benchmark workload.  Iterations run back to back until the time
/// budget is spent; set-up runs several times to measure setup_s.
class Workload {
public:
    virtual ~Workload() = default;

    /// Build every input the iterations need, replacing any earlier
    /// set-up (recorded traces, a running daemon, ...).
    virtual void setup() = 0;

    /// One iteration.  Layer times and counts go to `sample`; the events
    /// the iteration handled go to sample["events"].
    virtual void iterate(Sample& sample, Checks& checks) = 0;

    /// Untimed checks after each iteration.
    virtual void verify(Checks& /*checks*/) {}

    /// Untimed checks after the last iteration.
    virtual void final_checks(Checks& /*checks*/) {}

    /// Add the workload's derived metrics (the named end-to-end figures,
    /// per-event costs) to one iteration's sample.  Runs on untraced
    /// samples (steady-clock self times) and on traced ones (span self
    /// times) alike.
    virtual void derive(Sample& /*sample*/) const {}

    /// Threads the workload keeps busy at once; the host sentinel runs
    /// at the same width.
    [[nodiscard]] virtual unsigned concurrency() const { return 1; }

    /// Metrics reported as medians over every untraced iteration of the
    /// run rather than per iteration (tenant latency percentiles).
    virtual void pooled(Sample& /*out*/) const {}
};

[[nodiscard]] std::unique_ptr<Workload> make_apps_run(const Config& config);
[[nodiscard]] std::unique_ptr<Workload> make_trace_analyze(
    const Config& config);
[[nodiscard]] std::unique_ptr<Workload> make_serve_push(const Config& config);
[[nodiscard]] std::unique_ptr<Workload> make_adapt_loop(const Config& config);

/// Median of `values` (0 for an empty list).
[[nodiscard]] double median(std::vector<double> values);
/// Nearest-rank percentile `p` in [0, 1] (0 for an empty list).
[[nodiscard]] double percentile(std::vector<double> values, double p);

/// Milliseconds between two support::now_ns() readings.
[[nodiscard]] inline double ms_between(std::uint64_t start_ns,
                                       std::uint64_t end_ns) {
    return static_cast<double>(end_ns - start_ns) / 1e6;
}

}  // namespace e2e
