// Ablation: event-capture design (Section IV).
//
// The paper motivates asynchronous intra-process event shipping: "I/O is
// time consuming and for in-memory the log size can be a limiting factor."
// This bench measures capture throughput (events/s) for:
//   * Buffered capture (per-thread chunk chains, merged at stop), and
//   * Streaming capture (the same chains delivered live by the collector
//     thread to a counting sink) across bounds on undelivered rows,
// with 1..4 recording threads — quantifying the cost of the design the
// paper chose and the backpressure effect of small bounds.
#include <cstdint>
#include <iostream>
#include <span>
#include <thread>
#include <vector>

#include "runtime/session.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"

namespace {

using namespace dsspy;

double measure(runtime::CaptureMode mode, std::size_t max_undelivered,
               unsigned threads, std::size_t events_per_thread) {
    std::uint64_t delivered = 0;
    runtime::ProfilingSession session(mode, max_undelivered);
    if (mode == runtime::CaptureMode::Streaming)
        session.set_event_sink(
            [&delivered](std::span<const runtime::AccessEvent> events) {
                delivered += events.size();
            });
    std::vector<runtime::InstanceId> ids;
    for (unsigned t = 0; t < threads; ++t)
        ids.push_back(session.register_instance(
            runtime::DsKind::List, "List<Int64>", {"Bench", "M", t}));

    support::Stopwatch sw;
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < threads; ++t) {
        workers.emplace_back([&session, &ids, t, events_per_thread] {
            const runtime::InstanceId id = ids[t];
            for (std::size_t i = 0; i < events_per_thread; ++i)
                session.record(id, runtime::OpKind::Add,
                               static_cast<std::int64_t>(i),
                               static_cast<std::uint32_t>(i + 1));
        });
    }
    for (auto& w : workers) w.join();
    session.stop();
    const double seconds = sw.elapsed_s();
    const double total =
        static_cast<double>(events_per_thread) * threads;
    return total / seconds;
}

}  // namespace

int main() {
    using support::Table;

    constexpr std::size_t kEventsPerThread = 400'000;

    std::cout << "Ablation - capture-mode throughput ("
              << kEventsPerThread << " events/thread)\n\n";

    Table table({"Mode", "Undelivered bound", "Threads", "Events/s (M)"});
    for (const unsigned threads : {1u, 2u, 4u}) {
        table.add_row({"Buffered", "-", std::to_string(threads),
                       Table::fmt(measure(runtime::CaptureMode::Buffered, 0,
                                          threads, kEventsPerThread) /
                                  1e6)});
    }
    table.add_separator();
    for (const std::size_t bound : {1u << 10, 1u << 14, 1u << 18}) {
        for (const unsigned threads : {1u, 2u, 4u}) {
            table.add_row(
                {"Streaming", std::to_string(bound), std::to_string(threads),
                 Table::fmt(measure(runtime::CaptureMode::Streaming, bound,
                                    threads, kEventsPerThread) /
                            1e6)});
        }
    }
    table.print(std::cout);

    std::cout << "\nReading: both modes record into the same per-thread "
                 "chunks.  Buffered delivers every event at stop(); "
                 "Streaming delivers while producers record, which "
                 "overlaps analysis-side work with capture and, with an "
                 "Incremental analysis, bounds the chunk memory — the "
                 "paper's log-size vs I/O trade-off.  Small bounds throttle "
                 "producers via backpressure; which mode wins on wall clock "
                 "depends on the sink's cost and the core count.\n";
    return 0;
}
