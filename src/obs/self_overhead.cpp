#include "obs/self_overhead.hpp"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <memory>

#if defined(__linux__)
#include <sys/mman.h>
#endif

#include "support/stopwatch.hpp"

namespace dsspy::obs {

namespace {

/// Rows per seq base in the capture path's compact chunk form (obs stays
/// independent of runtime/; mirrors runtime::kSeqBlockSize).
constexpr std::size_t kSeqBlockRows = 1024;

/// Sink that survives optimization: folding the chunk into an atomic keeps
/// the compiler from deleting the calibration loop.
std::atomic<std::uint64_t> g_calibration_sink{0};

/// `bytes` of memory no one has touched yet: fresh anonymous pages where
/// the platform offers them (an allocator may hand back recycled pages).
class FreshMemory {
public:
    explicit FreshMemory(std::size_t bytes) : bytes_(bytes) {
#if defined(__linux__)
        void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p != MAP_FAILED) data_ = static_cast<std::byte*>(p);
#endif
        if (data_ == nullptr) {
            owned_ = std::make_unique_for_overwrite<std::byte[]>(bytes);
            data_ = owned_.get();
        }
    }
    ~FreshMemory() {
#if defined(__linux__)
        if (owned_ == nullptr) ::munmap(data_, bytes_);
#endif
    }
    FreshMemory(const FreshMemory&) = delete;
    FreshMemory& operator=(const FreshMemory&) = delete;

    [[nodiscard]] std::byte* data() const noexcept { return data_; }

private:
    std::size_t bytes_;
    std::byte* data_ = nullptr;
    std::unique_ptr<std::byte[]> owned_;
};

/// ns/event of writing `rows` compact rows, one clock read per `stride`
/// rows, into a fresh chunk.  Best of `rounds` (minimum is the
/// noise-robust statistic).
double calibrate_ns_per_event(std::uint32_t stride, std::size_t rows,
                              int rounds) {
    const std::size_t seq_blocks = (rows + kSeqBlockRows - 1) / kSeqBlockRows;
    const std::size_t ts_groups = (rows + stride - 1) / stride;
    const std::size_t bytes =
        rows * (8 + 4 + 4 + 1) + (seq_blocks + ts_groups) * 8;
    std::atomic<std::uint64_t> seq_alloc{0};
    double best = 1e100;
    for (int r = 0; r < rounds; ++r) {
        const FreshMemory chunk(bytes);
        // Eight-byte columns first, so every column stays aligned.
        auto* position = reinterpret_cast<std::int64_t*>(chunk.data());
        auto* seq_base = reinterpret_cast<std::uint64_t*>(position + rows);
        auto* time_ns = seq_base + seq_blocks;
        auto* instance = reinterpret_cast<std::uint32_t*>(time_ns + ts_groups);
        auto* size = instance + rows;
        auto* op = reinterpret_cast<std::uint8_t*>(size + rows);
        const std::uint64_t t0 = support::now_ns();
        for (std::size_t i = 0; i < rows; ++i) {
            if (i % kSeqBlockRows == 0)
                seq_base[i / kSeqBlockRows] = seq_alloc.fetch_add(
                    kSeqBlockRows, std::memory_order_relaxed);
            if (i % stride == 0) time_ns[i / stride] = support::now_ns();
            position[i] = static_cast<std::int64_t>(i);
            instance[i] = static_cast<std::uint32_t>(i & 0xff);
            size[i] = static_cast<std::uint32_t>(i + 1);
            op[i] = static_cast<std::uint8_t>(i & 7);
        }
        const std::uint64_t t1 = support::now_ns();
        g_calibration_sink.fetch_add(
            time_ns[ts_groups - 1] + seq_base[seq_blocks - 1] +
                static_cast<std::uint64_t>(position[rows - 1]) +
                instance[rows - 1] + size[rows - 1] + op[rows - 1],
            std::memory_order_relaxed);
        best = std::min(best, static_cast<double>(t1 - t0) /
                                  static_cast<double>(rows));
    }
    return best;
}

}  // namespace

SelfOverhead estimate_self_overhead(std::uint64_t events,
                                    std::uint64_t capture_wall_ns,
                                    std::uint64_t stop_ns,
                                    std::uint32_t timestamp_stride,
                                    std::size_t chunk_rows) {
    SelfOverhead est;
    est.events = events;
    est.capture_wall_ns = capture_wall_ns;
    est.stop_ns = stop_ns;
    constexpr int kRounds = 3;
    const std::size_t rows = std::max<std::size_t>(chunk_rows, 1);
    est.instrumented_ns_per_event = calibrate_ns_per_event(1, rows, kRounds);
    est.amortized_ns_per_event = calibrate_ns_per_event(
        std::max<std::uint32_t>(timestamp_stride, 1), rows, kRounds);
    const double record_ns =
        static_cast<double>(events) * est.amortized_ns_per_event;
    est.capture_cost_ns = record_ns + static_cast<double>(stop_ns);
    if (events == 0 || capture_wall_ns == 0) return est;
    const double wall = static_cast<double>(capture_wall_ns);
    // Application time = capture window minus estimated record time (stop()
    // runs after the window); clamp so a tiny window (or noisy
    // calibration) cannot send the fraction to infinity — the window
    // itself bounds what recording can have cost.
    const double app_ns = std::max(wall - record_ns, wall * 0.01);
    est.overhead_fraction =
        (std::min(record_ns, wall) + static_cast<double>(stop_ns)) / app_ns;
    est.estimated_slowdown = 1.0 + est.overhead_fraction;
    return est;
}

std::uint64_t sample_peak_rss_bytes() {
#if defined(__linux__)
    std::FILE* f = std::fopen("/proc/self/status", "r");
    if (f == nullptr) return 0;
    char line[256];
    std::uint64_t kb = 0;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
        if (std::strncmp(line, "VmHWM:", 6) == 0) {
            std::sscanf(line + 6, "%llu",
                        reinterpret_cast<unsigned long long*>(&kb));
            break;
        }
    }
    std::fclose(f);
    return kb * 1024;
#else
    return 0;
#endif
}

}  // namespace dsspy::obs
