#include "core/profile.hpp"

#include <algorithm>

namespace dsspy::core {

RuntimeProfile::RuntimeProfile(runtime::InstanceInfo info,
                               std::span<const runtime::AccessEvent> events)
    : info_(std::move(info)), total_(events.size()) {
    if (events.empty()) return;

    std::vector<runtime::ThreadId> threads;
    AccessType current_type = derive_access_type(events.front().op);
    std::uint32_t phase_start = 0;

    for (std::uint32_t i = 0; i < events.size(); ++i) {
        const runtime::AccessEvent& ev = events[i];
        const AccessType type = derive_access_type(ev.op);
        ++counts_[static_cast<std::size_t>(type)];
        max_size_ = std::max(max_size_, static_cast<std::size_t>(ev.size));
        if (std::find(threads.begin(), threads.end(), ev.thread) ==
            threads.end())
            threads.push_back(ev.thread);

        if (type != current_type) {
            phases_.push_back(Phase{current_type, phase_start, i - 1});
            current_type = type;
            phase_start = i;
        }
    }
    phases_.push_back(
        Phase{current_type, phase_start,
              static_cast<std::uint32_t>(events.size()) - 1});

    duration_ns_ = events.back().time_ns - events.front().time_ns;
    thread_count_ = threads.size();
}

RuntimeProfile::RuntimeProfile(runtime::InstanceInfo info,
                               ProfileAggregates aggregates)
    : info_(std::move(info)),
      total_(aggregates.total_events),
      counts_(aggregates.counts),
      phases_(std::move(aggregates.phases)),
      max_size_(aggregates.max_size),
      duration_ns_(aggregates.duration_ns),
      thread_count_(aggregates.thread_count) {}

double RuntimeProfile::share(AccessType type) const noexcept {
    if (total_ == 0) return 0.0;
    return static_cast<double>(count(type)) / static_cast<double>(total_);
}

double RuntimeProfile::read_like_share() const noexcept {
    if (total_ == 0) return 0.0;
    std::size_t reads = 0;
    for (std::size_t t = 0; t < kAccessTypeCount; ++t) {
        if (is_read_like(static_cast<AccessType>(t))) reads += counts_[t];
    }
    return static_cast<double>(reads) / static_cast<double>(total_);
}

double RuntimeProfile::phase_share(AccessType type,
                                   std::size_t min_phase_events)
    const noexcept {
    if (total_ == 0) return 0.0;
    std::size_t in_phase = 0;
    for (const Phase& phase : phases_) {
        if (phase.type == type && phase.length() >= min_phase_events)
            in_phase += phase.length();
    }
    return static_cast<double>(in_phase) / static_cast<double>(total_);
}

bool RuntimeProfile::has_long_phase(AccessType type,
                                    std::size_t min_events) const noexcept {
    for (const Phase& phase : phases_) {
        if (phase.type == type && phase.length() >= min_events) return true;
    }
    return false;
}

}  // namespace dsspy::core
