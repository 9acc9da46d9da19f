#include "pipeline/report_sink.hpp"

#include <ostream>

#include "core/export.hpp"
#include "core/report.hpp"
#include "core/transform_plan.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/self_overhead.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"
#include "support/table.hpp"
#include "viz/html_report.hpp"

namespace dsspy::pipeline {

namespace {

/// One-line-per-instance table (`--summary`).
class SummarySink final : public ReportSink {
public:
    [[nodiscard]] std::string_view name() const noexcept override {
        return "summary";
    }
    bool emit(const RunOutcome& outcome, std::ostream& out,
              std::ostream&) override {
        if (outcome.analysis) {
            core::print_instance_summary(out, *outcome.analysis);
        } else if (outcome.stream) {
            core::print_instance_summary(out, *outcome.stream);
        }
        out << '\n';
        return true;
    }
};

/// Table V style use-case report plus the search-space reduction line
/// (`--report`, the default output).
class UseCaseReportSink final : public ReportSink {
public:
    [[nodiscard]] std::string_view name() const noexcept override {
        return "report";
    }
    bool emit(const RunOutcome& outcome, std::ostream& out,
              std::ostream&) override {
        const auto footer = [&out](double reduction, std::size_t flagged,
                                   std::size_t total) {
            out << "Search space reduction: " << support::Table::pct(reduction)
                << " (" << flagged << " of " << total
                << " list/array instances flagged)\n";
        };
        if (outcome.analysis) {
            core::print_use_case_report(out, *outcome.analysis);
            footer(outcome.analysis->search_space_reduction(),
                   outcome.analysis->flagged_instances(),
                   outcome.analysis->list_array_instances());
        } else if (outcome.stream) {
            core::print_use_case_report(out, *outcome.stream);
            footer(outcome.stream->search_space_reduction(),
                   outcome.stream->flagged_instances(),
                   outcome.stream->list_array_instances());
        }
        return true;
    }
};

/// Transformation plan (`--plan`); needs materialized patterns.
class TransformPlanSink final : public ReportSink {
public:
    [[nodiscard]] std::string_view name() const noexcept override {
        return "plan";
    }
    [[nodiscard]] bool supports_stream() const noexcept override {
        return false;
    }
    bool emit(const RunOutcome& outcome, std::ostream& out,
              std::ostream&) override {
        if (!outcome.analysis) return true;
        const core::TransformPlan plan =
            core::plan_transformations(*outcome.analysis);
        core::print_transform_plan(out, plan);
        return true;
    }
};

/// Structured advice as one JSON document (`dsspy advise`, `--advice`).
/// Works on both engines: the advice entries render from the classified
/// use cases, which both result types carry.
class AdviceSink final : public ReportSink {
public:
    [[nodiscard]] std::string_view name() const noexcept override {
        return "advice";
    }
    bool emit(const RunOutcome& outcome, std::ostream& out,
              std::ostream&) override {
        if (outcome.analysis) {
            core::write_advice_json(out, *outcome.analysis);
        } else if (outcome.stream) {
            core::write_advice_json(out, *outcome.stream);
        }
        return true;
    }
};

/// Full analysis as one JSON document (`--json`).
class JsonSink final : public ReportSink {
public:
    [[nodiscard]] std::string_view name() const noexcept override {
        return "json";
    }
    [[nodiscard]] bool supports_stream() const noexcept override {
        return false;
    }
    bool emit(const RunOutcome& outcome, std::ostream& out,
              std::ostream&) override {
        if (outcome.analysis) core::write_analysis_json(out, *outcome.analysis);
        return true;
    }
};

class CsvUseCasesSink final : public ReportSink {
public:
    [[nodiscard]] std::string_view name() const noexcept override {
        return "csv-usecases";
    }
    bool emit(const RunOutcome& outcome, std::ostream& out,
              std::ostream&) override {
        if (outcome.analysis) {
            core::write_use_cases_csv(out, *outcome.analysis);
        } else if (outcome.stream) {
            core::write_use_cases_csv(out, *outcome.stream);
        }
        return true;
    }
};

class CsvInstancesSink final : public ReportSink {
public:
    [[nodiscard]] std::string_view name() const noexcept override {
        return "csv-instances";
    }
    bool emit(const RunOutcome& outcome, std::ostream& out,
              std::ostream&) override {
        if (outcome.analysis) {
            core::write_instances_csv(out, *outcome.analysis);
        } else if (outcome.stream) {
            core::write_instances_csv(out, *outcome.stream);
        }
        return true;
    }
};

class CsvPatternsSink final : public ReportSink {
public:
    [[nodiscard]] std::string_view name() const noexcept override {
        return "csv-patterns";
    }
    [[nodiscard]] bool supports_stream() const noexcept override {
        return false;
    }
    bool emit(const RunOutcome& outcome, std::ostream& out,
              std::ostream&) override {
        if (outcome.analysis) core::write_patterns_csv(out, *outcome.analysis);
        return true;
    }
};

/// Self-contained HTML report written to a file (`--html FILE`).
class HtmlSink final : public ReportSink {
public:
    explicit HtmlSink(std::string path) : path_(std::move(path)) {}
    [[nodiscard]] std::string_view name() const noexcept override {
        return "html";
    }
    [[nodiscard]] bool supports_stream() const noexcept override {
        return false;
    }
    bool emit(const RunOutcome& outcome, std::ostream&,
              std::ostream& err) override {
        if (!outcome.analysis || outcome.store() == nullptr) return true;
        if (viz::write_html_report_file(path_, *outcome.analysis,
                                        *outcome.store())) {
            err << "Wrote " << path_ << '\n';
            return true;
        }
        err << "Failed to write " << path_ << '\n';
        return false;
    }

private:
    std::string path_;
};

/// Self-telemetry snapshot: the `dsspy metrics` stdout document and/or the
/// `--metrics-out` JSON file.  The self-overhead estimate needs a capture
/// window, so it appears only when the outcome carries a session (offline
/// trace analysis does not).
class MetricsSink final : public ReportSink {
public:
    MetricsSink(MetricsDoc doc, std::string out_path)
        : doc_(doc), out_path_(std::move(out_path)) {}
    [[nodiscard]] std::string_view name() const noexcept override {
        return "metrics";
    }
    bool emit(const RunOutcome& outcome, std::ostream& out,
              std::ostream& err) override {
        if (!obs::enabled()) return true;
        auto& reg = obs::MetricsRegistry::global();
        static const obs::MetricId rss_metric =
            reg.gauge("process.peak_rss_bytes");
        reg.gauge_max(rss_metric, obs::sample_peak_rss_bytes());
        obs::SelfOverhead overhead;
        const obs::SelfOverhead* overhead_ptr = nullptr;
        if (outcome.session != nullptr) {
            overhead = obs::estimate_self_overhead(
                outcome.session->events_recorded(),
                outcome.session->capture_duration_ns(),
                outcome.session->stop_duration_ns(),
                runtime::ProfilingSession::kTimestampStride,
                runtime::ProfilingSession::kMaxChunkEvents);
            overhead_ptr = &overhead;
        }
        const std::vector<obs::MetricValue> metrics = reg.collect();
        if (doc_ == MetricsDoc::Json) {
            obs::write_metrics_json(out, metrics, overhead_ptr);
        } else if (doc_ == MetricsDoc::Prometheus) {
            obs::write_metrics_prometheus(out, metrics, overhead_ptr);
        }
        if (out_path_.empty()) return true;
        if (obs::write_metrics_json_file(out_path_, metrics, overhead_ptr)) {
            err << "Wrote metrics to " << out_path_ << '\n';
            return true;
        }
        err << "Failed to write metrics to " << out_path_ << '\n';
        return false;
    }

private:
    MetricsDoc doc_;
    std::string out_path_;
};

}  // namespace

std::vector<std::unique_ptr<ReportSink>> build_sinks(
    const OutputSelection& outputs) {
    std::vector<std::unique_ptr<ReportSink>> sinks;
    if (outputs.summary) sinks.push_back(std::make_unique<SummarySink>());
    if (outputs.report) sinks.push_back(std::make_unique<UseCaseReportSink>());
    if (outputs.plan) sinks.push_back(std::make_unique<TransformPlanSink>());
    if (outputs.advice) sinks.push_back(std::make_unique<AdviceSink>());
    if (outputs.json) sinks.push_back(std::make_unique<JsonSink>());
    if (outputs.csv_usecases)
        sinks.push_back(std::make_unique<CsvUseCasesSink>());
    if (outputs.csv_instances)
        sinks.push_back(std::make_unique<CsvInstancesSink>());
    if (outputs.csv_patterns)
        sinks.push_back(std::make_unique<CsvPatternsSink>());
    if (!outputs.html_path.empty())
        sinks.push_back(std::make_unique<HtmlSink>(outputs.html_path));
    if (outputs.metrics_doc != MetricsDoc::None || !outputs.metrics_out.empty())
        sinks.push_back(std::make_unique<MetricsSink>(outputs.metrics_doc,
                                                      outputs.metrics_out));
    return sinks;
}

bool emit_reports(const OutputSelection& outputs, const RunOutcome& outcome,
                  std::ostream& out, std::ostream& err) {
    bool ok = true;
    for (const std::unique_ptr<ReportSink>& sink : build_sinks(outputs)) {
        if (!outcome.analysis && !sink->supports_stream()) continue;
        ok = sink->emit(outcome, out, err) && ok;
    }
    return ok;
}

bool write_trace_spans(const std::string& path, std::ostream& err) {
    if (path.empty()) return true;
    const std::vector<obs::SpanRecord> spans =
        obs::TraceRecorder::global().snapshot();
    if (obs::write_trace_json_file(path, spans)) {
        err << "Wrote trace spans to " << path << '\n';
        return true;
    }
    err << "Failed to write trace spans to " << path << '\n';
    return false;
}

}  // namespace dsspy::pipeline
