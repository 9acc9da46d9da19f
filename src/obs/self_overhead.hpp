// Self-overhead estimate: how much did profiling slow this workload down?
//
// The paper reports an average 47.13x capture slowdown (Table IV) measured
// offline; DSspy's capture path amortizes timestamps (one clock read per
// kTimestampStride events) precisely to push that figure toward 1x.  This
// module turns the offline number into an online one: from the observed
// event count and capture wall time plus a short calibration loop, it
// estimates the fraction of the run spent inside record() — the user sees
// the paper's slowdown figure for their own workload, live.
//
// Method: two calibration loops write one capture chunk of synthetic rows
// in the capture path's compact form (position, instance, size and op per
// row; one seq base per 1024 rows; one clock reading per stride rows) into
// freshly mapped memory, so each page pays the first-touch fault a new
// chunk pays in a one-shot `dsspy run`.  One loop reads the clock every
// row ("instrumented" — what a naive profiler pays), the other once per
// `timestamp_stride` rows (the amortized capture path).  The amortized
// per-event cost times the recorded event count approximates the time
// spent recording; adding the session's measured stop() duration (drain,
// merge and grouping into columns) gives the capture cost.  Dividing it by
// the remaining (application) time yields the overhead fraction and the
// estimated slowdown.  Calibration costs a few milliseconds and runs only
// on demand (metrics export), never on the hot path.
#pragma once

#include <cstddef>
#include <cstdint>

namespace dsspy::obs {

struct SelfOverhead {
    std::uint64_t events = 0;            ///< Events recorded in the window.
    std::uint64_t capture_wall_ns = 0;   ///< Capture-window wall time.
    double instrumented_ns_per_event = 0;  ///< Clock read every event.
    double amortized_ns_per_event = 0;     ///< Clock read once per stride.
    std::uint64_t stop_ns = 0;    ///< Measured stop() duration.
    /// events * amortized_ns_per_event + stop_ns.
    double capture_cost_ns = 0;
    double overhead_fraction = 0;  ///< capture cost / application time.
    double estimated_slowdown = 1;  ///< 1 + overhead_fraction.
};

/// Calibrate and estimate; see the file comment.  `timestamp_stride` and
/// `chunk_rows` should be ProfilingSession::kTimestampStride and
/// ProfilingSession::kMaxChunkEvents.  With zero events or an empty window
/// the estimate degenerates to a 1.0x slowdown; if the estimated record
/// cost exceeds the whole window (tiny windows, noisy calibration) it is
/// clamped so the slowdown stays finite.
[[nodiscard]] SelfOverhead estimate_self_overhead(
    std::uint64_t events, std::uint64_t capture_wall_ns,
    std::uint64_t stop_ns, std::uint32_t timestamp_stride,
    std::size_t chunk_rows);

/// Peak resident set size of this process in bytes (VmHWM on Linux);
/// 0 where the platform offers no cheap source.
[[nodiscard]] std::uint64_t sample_peak_rss_bytes();

}  // namespace dsspy::obs
