#include "core/patterns.hpp"

#include <algorithm>

#include "core/pattern_machine.hpp"

namespace dsspy::core {

std::vector<Pattern> PatternDetector::detect(
    std::span<const runtime::AccessEvent> events) const {
    std::vector<Pattern> out;
    if (events.empty()) return out;

    detail::PatternMachine machine(config_.min_pattern_events);
    const auto collect = [&out](const Pattern& p, std::uint64_t /*first_ns*/,
                                std::uint64_t /*last_ns*/) {
        out.push_back(p);
    };
    for (std::uint32_t i = 0; i < events.size(); ++i)
        machine.step(i, events[i], collect);
    machine.finish(collect);

    std::sort(out.begin(), out.end(),
              [](const Pattern& a, const Pattern& b) {
                  return a.first < b.first;
              });
    return out;
}

std::vector<std::size_t> count_by_kind(const std::vector<Pattern>& patterns) {
    std::vector<std::size_t> counts(kPatternKindCount, 0);
    for (const Pattern& p : patterns)
        ++counts[static_cast<std::size_t>(p.kind)];
    return counts;
}

}  // namespace dsspy::core
