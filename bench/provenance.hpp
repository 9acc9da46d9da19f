// Host provenance for the committed BENCH_*.json snapshots: how many
// hardware threads the host reports, how many of them a spin test can
// actually use at once, the SIMD tier the detector kernels dispatch to,
// and the build type.  A number without these cannot be compared with a
// number from another host.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/detector_kernels.hpp"
#include "support/stopwatch.hpp"

#ifndef DSSPY_BUILD_TYPE
#define DSSPY_BUILD_TYPE "unknown"
#endif

namespace dsspy::bench {

/// Effective parallelism at `threads` threads: how many single-thread spin
/// loops' worth of work finish in the time one takes when all run at once
/// (median of three).  Below `threads` when the host is shared or
/// oversubscribed.
inline double effective_parallelism(unsigned threads) {
    const auto spin = [] {
        std::uint64_t x = 0x9E3779B97F4A7C15ULL;
        for (int i = 0; i < 40'000'000; ++i)
            x = x * 6364136223846793005ULL + 1;
        return x;
    };
    std::atomic<std::uint64_t> sink{0};
    std::array<double, 3> ratios{};
    for (double& ratio : ratios) {
        std::uint64_t t0 = support::now_ns();
        sink += spin();
        const auto one = static_cast<double>(support::now_ns() - t0);
        t0 = support::now_ns();
        std::vector<std::thread> workers;
        for (unsigned t = 0; t < threads; ++t)
            workers.emplace_back([&sink, &spin] { sink += spin(); });
        for (std::thread& w : workers) w.join();
        const auto all = static_cast<double>(support::now_ns() - t0);
        ratio = static_cast<double>(threads) * one / all;
    }
    std::sort(ratios.begin(), ratios.end());
    return ratios[1];
}

/// The provenance object as one JSON member line (trailing comma).
inline std::string provenance_json() {
    const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "  \"provenance\": {\"hardware_threads\": %u, "
                  "\"effective_parallelism\": %.2f, \"simd\": \"%s\", "
                  "\"build_type\": \"%s\"},\n",
                  threads, effective_parallelism(threads),
                  std::string(core::kernels::simd_level_name(
                                  core::kernels::active_simd_level()))
                      .c_str(),
                  DSSPY_BUILD_TYPE);
    return buf;
}

}  // namespace dsspy::bench
