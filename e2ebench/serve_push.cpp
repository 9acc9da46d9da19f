// serve_push: an in-process serve::Daemon on a unix socket and two client
// threads in a closed loop.  Each client sends its next hello only after
// its previous tenant's 'R'.  One iteration pushes every trace once, in a
// seeded order:
//
//   * the seven apps' DST1 traces (what `dsspy push` sends), and
//   * corpus-replay traces in CSV (the format live SocketTraceSink
//     clients stream).
//
// Client side, each push is timed as the calls `serve::push_trace_file`
// makes: open_tenant_stream (handshake), 'T' frame writes (send, daemon
// backpressure included) and read_stream_result (result).  Daemon side,
// the connection threads fold into per-tenant IncrementalAnalyzers.
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/app_registry.hpp"
#include "core/incremental.hpp"
#include "e2e.hpp"
#include "runtime/trace_io.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/wire.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"

namespace e2e {

namespace {

using namespace dsspy;

constexpr int kClients = 2;
/// Corpus CSV traces per iteration; each replays a seeded run of every
/// corpus program.
constexpr int kCorpusTraces = 7;
constexpr int kSmokeCorpusTraces = 2;
/// `dsspy push`'s frame size.
constexpr std::size_t kFrameBytes = 256 << 10;

/// One trace the clients push, with the offline reference result.
struct PushTrace {
    std::string name;
    std::string bytes;
    std::string report;  ///< Offline `dsspy analyze` of the same bytes.
    std::size_t events = 0;
};

/// Offline reference: the default streaming `analyze` of `bytes`.
void analyze_offline(PushTrace& trace) {
    class Sink final : public runtime::TraceSink {
    public:
        explicit Sink(core::IncrementalAnalyzer& a) : analyzer(a) {}
        void on_instance(const runtime::InstanceInfo& info) override {
            instances.push_back(info);
            analyzer.declare_instance(info);
        }
        void on_events(std::span<const runtime::AccessEvent> ev) override {
            analyzer.fold(ev);
        }
        core::IncrementalAnalyzer& analyzer;
        std::vector<runtime::InstanceInfo> instances;
    };
    core::IncrementalAnalyzer analyzer;
    Sink sink(analyzer);
    std::istringstream in(trace.bytes);
    trace.events = runtime::read_trace_stream(in, sink);
    trace.report = render_report(analyzer.finish(sink.instances));
}

/// A finished push, checked after the iteration (outside its timing).
struct Pushed {
    std::size_t trace = 0;
    serve::ClientResult result;
};

class ServePush final : public Workload {
public:
    explicit ServePush(const Config& config)
        : config_(config), rng_(config.seed) {}

    ~ServePush() override { stop_daemon(); }

    void setup() override {
        stop_daemon();
        rng_ = support::Rng(config_.seed);
        traces_.clear();
        for (const apps::AppInfo& app : apps::evaluation_apps()) {
            if (config_.smoke && app.name != "Contentfinder" &&
                app.name != "WordWheelSolver")
                continue;
            runtime::ProfilingSession session;
            (void)app.run_sequential(&session);
            session.stop();
            std::ostringstream out;
            runtime::write_trace(out, session, runtime::TraceFormat::Binary);
            add_trace(key_name(app.name) + ".dst1", out.str());
        }
        const int corpus = config_.smoke ? kSmokeCorpusTraces : kCorpusTraces;
        for (int i = 0; i < corpus; ++i) {
            runtime::ProfilingSession session;
            replay_corpus(session, rng_, 1);
            session.stop();
            std::ostringstream out;
            runtime::write_trace(out, session, runtime::TraceFormat::Csv);
            add_trace("corpus" + std::to_string(i) + ".csv", out.str());
        }

        serve::DaemonOptions options;
        const std::string socket_path = config_.work_dir + "/serve-" +
                                        std::to_string(::getpid()) + ".sock";
        std::filesystem::remove(socket_path);
        options.listen = "unix:" + socket_path;
        options.max_finished_tenants = 4096;
        daemon_ = std::make_unique<serve::Daemon>(options);
        std::string error;
        if (!daemon_->start(&error))
            throw std::runtime_error("daemon failed to start: " + error);
    }

    void iterate(Sample& s, Checks& /*checks*/) override {
        std::vector<std::size_t> order(traces_.size());
        for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
        std::shuffle(order.begin(), order.end(), rng_);

        const bool traced = Layer::tracing();
        const obs::TraceContext root = obs::current_trace_context();
        std::atomic<std::size_t> next{0};
        std::vector<Sample> client_samples(kClients);
        std::vector<std::vector<double>> latencies(kClients);
        std::vector<std::vector<Pushed>> pushed(kClients);
        std::vector<std::thread> clients;
        for (int c = 0; c < kClients; ++c)
            clients.emplace_back([&, c] {
                Sample& cs = client_samples[c];
                const Layer client("bench.client", cs, root);
                for (;;) {
                    const std::size_t n = next.fetch_add(1);
                    if (n >= order.size()) break;
                    const std::uint64_t t0 = support::now_ns();
                    pushed[c].push_back(
                        {order[n], push(traces_[order[n]], cs)});
                    latencies[c].push_back(
                        ms_between(t0, support::now_ns()));
                }
            });
        for (std::thread& t : clients) t.join();

        for (int c = 0; c < kClients; ++c) {
            for (const auto& [key, value] : client_samples[c]) s[key] += value;
            for (Pushed& p : pushed[c]) pending_.push_back(std::move(p));
            if (!traced)
                latencies_.insert(latencies_.end(), latencies[c].begin(),
                                  latencies[c].end());
        }
        double events = 0.0;
        for (const PushTrace& trace : traces_)
            events += static_cast<double>(trace.events);
        s["serve.tenants"] = static_cast<double>(traces_.size());
        s["serve.events"] = events;
        s["events"] = events;
    }

    void verify(Checks& checks) override {
        for (const Pushed& p : pending_) {
            const PushTrace& trace = traces_[p.trace];
            checks.expect(p.result.ok, trace.name + ": push failed: " +
                                           p.result.error);
            const std::optional<std::string> report =
                daemon_->tenant_report(p.result.tenant_id);
            checks.expect(report.has_value() && *report == trace.report,
                          trace.name + ": tenant " +
                              std::to_string(p.result.tenant_id) +
                              " report differs from offline analyze");
        }
        pending_.clear();
    }

    void final_checks(Checks& checks) override {
        const serve::DaemonStats stats = daemon_->stats();
        rejected_ = static_cast<double>(stats.rejected);
        malformed_ = static_cast<double>(stats.malformed);
        checks.expect(stats.rejected == 0,
                      std::to_string(stats.rejected) + " tenants rejected");
        checks.expect(stats.malformed == 0,
                      std::to_string(stats.malformed) + " malformed streams");
    }

    void derive(Sample& s) const override {
        if (s["wall_ms"] > 0)
            s["serve_events_per_s"] = s["serve.events"] / (s["wall_ms"] / 1e3);
    }

    [[nodiscard]] unsigned concurrency() const override { return kClients; }

    void pooled(Sample& out) const override {
        out["tenant_ms_p50"] = percentile(latencies_, 0.5);
        out["tenant_ms_p90"] = percentile(latencies_, 0.9);
        out["serve.rejected"] = rejected_;
        out["serve.malformed"] = malformed_;
    }

private:
    void add_trace(std::string name, std::string bytes) {
        PushTrace trace;
        trace.name = std::move(name);
        trace.bytes = std::move(bytes);
        analyze_offline(trace);
        traces_.push_back(std::move(trace));
    }

    serve::ClientResult push(const PushTrace& trace, Sample& cs) const {
        serve::ClientResult result;
        serve::Socket socket;
        {
            const Layer layer("serve.handshake", cs);
            socket = serve::open_tenant_stream(daemon_->address(),
                                               "bench-" + trace.name,
                                               &result.tenant_id,
                                               &result.error);
        }
        if (!socket.valid()) return result;
        {
            const Layer layer("serve.send", cs);
            const std::string_view bytes(trace.bytes);
            for (std::size_t off = 0; off < bytes.size(); off += kFrameBytes) {
                const std::string_view frame =
                    bytes.substr(off, kFrameBytes);
                if (!socket.write_all(serve::wire::encode_frame_header(
                        serve::wire::kFrameTrace,
                        static_cast<std::uint32_t>(frame.size()))) ||
                    !socket.write_all(frame)) {
                    result.error = "trace write failed";
                    return result;
                }
            }
        }
        const Layer layer("serve.result", cs);
        return serve::read_stream_result(socket, result.tenant_id);
    }

    void stop_daemon() {
        if (daemon_ == nullptr) return;
        const std::string path = daemon_->address().path;
        daemon_.reset();
        std::filesystem::remove(path);
    }

    Config config_;
    support::Rng rng_;
    std::vector<PushTrace> traces_;
    std::unique_ptr<serve::Daemon> daemon_;
    std::vector<Pushed> pending_;
    std::vector<double> latencies_;  ///< Untraced iterations only.
    double rejected_ = 0.0;
    double malformed_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_serve_push(const Config& config) {
    return std::make_unique<ServePush>(config);
}

}  // namespace e2e
