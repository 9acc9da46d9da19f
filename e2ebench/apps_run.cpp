// apps_run: the seven evaluation apps, four ways each, per iteration.
//
//   plain        run_sequential(nullptr)
//   run          Buffered capture -> stop() -> Dsspy::analyze -> report
//                (what `dsspy run <app>` does)
//   incremental  Incremental capture + attach_incremental -> stop() ->
//                Dsspy::finish -> report (`dsspy run <app> --incremental`)
//   parallel     run_parallel(pool), the recommendations applied
//
// The seed orders the apps differently in every iteration; the apps'
// inputs are fixed, so checksums and reports are frozen in golden.txt.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <vector>

#include "apps/app_registry.hpp"
#include "core/dsspy.hpp"
#include "e2e.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"

namespace e2e {

namespace {

using namespace dsspy;

class AppsRun final : public Workload {
public:
    explicit AppsRun(const Config& config)
        : config_(config), rng_(config.seed) {}

    void setup() override {
        rng_ = support::Rng(config_.seed);
        apps_.clear();
        for (const apps::AppInfo& app : apps::evaluation_apps())
            apps_.push_back(&app);
        // Build the apps' lazily initialised inputs (text corpora,
        // tables) before anything is timed.
        for (const apps::AppInfo* app : apps_)
            (void)app->run_sequential(nullptr);
    }

    void iterate(Sample& s, Checks& checks) override {
        std::shuffle(apps_.begin(), apps_.end(), rng_);
        for (const apps::AppInfo* app : apps_) run_app(*app, s, checks);
        s["events"] = 2.0 * s["runtime.events"];
    }

    void derive(Sample& s) const override {
        const double plain = s["apps.plain_ms"];
        const double events = s["runtime.events"];
        s["slowdown_x"] = plain > 0 ? s["run_ms"] / plain : 0.0;
        s["apply_speedup_x"] = s["parallel.run_parallel_ms"] > 0
                                   ? plain / s["parallel.run_parallel_ms"]
                                   : 0.0;
        if (events > 0) {
            s["runtime.record_ns_per_event"] =
                (s["ds.record_ms"] - plain) * 1e6 / events;
            s["runtime.stop_ns_per_event"] =
                s["runtime.stop_ms"] * 1e6 / events;
        }
        if (s["run_ms"] > 0)
            s["runtime.stop_share_pct"] =
                100.0 * s["runtime.stop_ms"] / s["run_ms"];
    }

private:
    void run_app(const apps::AppInfo& app, Sample& s, Checks& checks) {
        const std::string key = "app." + key_name(app.name);
        const std::string want_checksum =
            config_.golden->get(key + ".checksum");
        const std::string want_report = config_.golden->get(key + ".report");

        double plain = 0.0;
        std::uint64_t start = support::now_ns();
        {
            const Layer layer("apps.plain", s);
            plain = app.run_sequential(nullptr).checksum;
        }
        const double plain_ms = ms_between(start, support::now_ns());
        checks.expect(checksum_text(plain) == want_checksum,
                      app.name + ": plain checksum " + checksum_text(plain) +
                          " != golden " + want_checksum);

        // dsspy run <app>
        start = support::now_ns();
        std::unique_ptr<runtime::ProfilingSession> session;
        {
            const Layer layer("runtime.open", s);
            session = std::make_unique<runtime::ProfilingSession>();
        }
        double recorded = 0.0;
        {
            const Layer layer("ds.record", s);
            recorded = app.run_sequential(session.get()).checksum;
        }
        {
            const Layer layer("runtime.stop", s);
            session->stop();
        }
        const std::size_t events = session->store().total_events();
        std::optional<core::AnalysisResult> analysis;
        {
            const Layer layer("core.analyze", s);
            analysis.emplace(core::Dsspy{}.analyze(*session, config_.pool));
        }
        std::string report;
        {
            const Layer layer("core.report", s);
            report = render_report(*analysis);
        }
        {
            const Layer layer("runtime.close", s);
            analysis.reset();
            session.reset();
        }
        const double run_ms = ms_between(start, support::now_ns());
        s["run_ms"] += run_ms;
        // Whole-run slowdown of this app alone (compare table4_evaluation's
        // record-only "Profiling" column).
        s["slowdown_x." + key_name(app.name)] = run_ms / plain_ms;
        s["runtime.events"] += static_cast<double>(events);
        checks.expect(checksum_text(recorded) == want_checksum,
                      app.name + ": run checksum differs from golden");
        checks.expect(digest(report) == want_report,
                      app.name + ": run report digest " + digest(report) +
                          " != golden " + want_report);

        // dsspy run <app> --incremental
        start = support::now_ns();
        std::unique_ptr<core::IncrementalAnalyzer> analyzer;
        {
            const Layer layer("runtime.open_incremental", s);
            session = std::make_unique<runtime::ProfilingSession>(
                runtime::CaptureMode::Buffered, 64 * 1024,
                runtime::AnalysisMode::Incremental);
            analyzer = std::make_unique<core::IncrementalAnalyzer>();
            core::attach_incremental(*session, *analyzer);
        }
        {
            const Layer layer("ds.record_incremental", s);
            recorded = app.run_sequential(session.get()).checksum;
        }
        {
            const Layer layer("runtime.stop_incremental", s);
            session->stop();
        }
        const std::uint64_t folded = analyzer->events_folded();
        std::optional<core::StreamReport> stream;
        {
            const Layer layer("core.finish", s);
            stream.emplace(core::Dsspy::finish(*analyzer, *session));
        }
        {
            const Layer layer("core.report_incremental", s);
            report = render_report(*stream);
        }
        {
            const Layer layer("runtime.close_incremental", s);
            stream.reset();
            session.reset();
            analyzer.reset();
        }
        s["run_incremental_ms"] += ms_between(start, support::now_ns());
        checks.expect(checksum_text(recorded) == want_checksum,
                      app.name + ": incremental checksum differs");
        checks.expect(folded == events,
                      app.name + ": incremental folded " +
                          std::to_string(folded) + " events, run recorded " +
                          std::to_string(events));
        checks.expect(digest(report) == want_report,
                      app.name + ": incremental report digest " +
                          digest(report) + " != golden " + want_report);

        // The recommendations applied.
        double parallel = 0.0;
        {
            const Layer layer("parallel.run_parallel", s);
            parallel = app.run_parallel(*config_.pool).checksum;
        }
        // The apps' own tolerance (tests/test_apps.cpp): parallel
        // reductions may reorder floating-point sums.
        checks.expect(std::abs(parallel - plain) <=
                          1e-6 * std::max(1.0, std::abs(plain)),
                      app.name + ": run_parallel checksum " +
                          checksum_text(parallel) + " != sequential " +
                          checksum_text(plain));
    }

    Config config_;
    support::Rng rng_;
    std::vector<const apps::AppInfo*> apps_;
};

}  // namespace

std::unique_ptr<Workload> make_apps_run(const Config& config) {
    return std::make_unique<AppsRun>(config);
}

}  // namespace e2e
