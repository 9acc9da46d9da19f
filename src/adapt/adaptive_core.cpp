#include "adapt/adaptive_core.hpp"

#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dsspy::adapt {

namespace detail {

/// Self-telemetry for the adaptive layer (registered once, shared by all
/// instances; no-ops while obs is disabled).
struct AdaptMetrics {
    obs::MetricId switches;
    obs::MetricId reclassifications;
    obs::MetricId suppressed;

    static const AdaptMetrics& get() {
        static const AdaptMetrics m{
            obs::MetricsRegistry::global().counter("adapt.switches"),
            obs::MetricsRegistry::global().counter(
                "adapt.reclassifications"),
            obs::MetricsRegistry::global().counter(
                "adapt.suppressed_switches"),
        };
        return m;
    }
};

}  // namespace detail

AdaptiveCore::AdaptiveCore(const AdaptConfig& config, std::string type_name,
                           support::SourceLoc location)
    : config_(config),
      analyzer_(config.detector),
      controller_(config.controller) {
    info_.id = 0;
    info_.kind = runtime::DsKind::List;
    info_.type_name = std::move(type_name);
    info_.location = std::move(location);
    analyzer_.declare_instance(info_);
}

std::vector<core::UseCase> AdaptiveCore::current_verdicts() const {
    core::StreamReport report = analyzer_.snapshot({info_});
    for (const core::StreamInstance& si : report.instances())
        if (si.stats.info.id == info_.id) return si.use_cases;
    return {};
}

void AdaptiveCore::reclassify() const {
    const std::vector<core::UseCase> verdicts = current_verdicts();
    std::vector<AdviceSignal> signals;
    signals.reserve(verdicts.size());
    for (const core::UseCase& uc : verdicts)
        signals.push_back({uc.advice.action, uc.confidence()});
    const std::size_t delta = take_ops_delta();
    const Strategy before = controller_.current();
    const std::size_t suppressed_before = controller_.suppressed_count();
    const Strategy after = controller_.observe(
        signals.data(), signals.size(), backing_size(), delta);
    if (obs::enabled()) {
        const auto& m = detail::AdaptMetrics::get();
        obs::MetricsRegistry::global().add(m.reclassifications);
        const std::size_t newly_suppressed =
            controller_.suppressed_count() - suppressed_before;
        if (newly_suppressed > 0)
            obs::MetricsRegistry::global().add(m.suppressed,
                                               newly_suppressed);
    }
    if (after == before) return;
    DSSPY_TRACE_SPAN("adapt.switch");
    if (obs::enabled())
        obs::MetricsRegistry::global().add(
            detail::AdaptMetrics::get().switches);
    migrate(before, after);
}

}  // namespace dsspy::adapt
