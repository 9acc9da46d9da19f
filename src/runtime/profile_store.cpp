#include "runtime/profile_store.hpp"

#include <utility>

namespace dsspy::runtime {

ProfileStore::ProfileStore(ProfileStore&& other) noexcept {
    std::scoped_lock lock(other.mutex_);
    staged_ = std::move(other.staged_);
    columns_ = std::move(other.columns_);
    other.staged_.clear();
    other.columns_.clear();
}

ProfileStore& ProfileStore::operator=(ProfileStore&& other) noexcept {
    if (this != &other) {
        std::scoped_lock lock(mutex_, other.mutex_);
        staged_ = std::move(other.staged_);
        columns_ = std::move(other.columns_);
        other.staged_.clear();
        other.columns_.clear();
    }
    return *this;
}

void ProfileStore::append(std::span<const AccessEvent> events) {
    std::scoped_lock lock(mutex_);
    if (staged_.empty() && columns_.total_events() > 0) {
        // Appending after a read: the grouped rows came first, so they
        // rejoin the input ahead of the new batch.
        for (InstanceId id = 0; id < columns_.instance_slots(); ++id) {
            const std::vector<AccessEvent> rows = events_locked(id);
            staged_.insert(staged_.end(), rows.begin(), rows.end());
        }
        columns_.clear();
    }
    staged_.insert(staged_.end(), events.begin(), events.end());
}

void ProfileStore::finalize() {
    std::scoped_lock lock(mutex_);
    group_locked();
}

void ProfileStore::group_locked() const {
    if (staged_.empty()) return;
    const std::span<const AccessEvent> block(staged_);
    columns_ = ColumnStore::group({&block, 1});
    staged_ = {};  // release the staging copy: events live once
}

const ColumnStore& ProfileStore::columns() const {
    std::scoped_lock lock(mutex_);
    group_locked();
    return columns_;
}

std::vector<AccessEvent> ProfileStore::events_locked(InstanceId id) const {
    const ColumnRange range = columns_.range(id);
    std::vector<AccessEvent> out;
    out.reserve(range.size());
    for (std::size_t r = range.begin; r < range.end; ++r) {
        AccessEvent ev = columns_.row(r);
        ev.instance = id;
        out.push_back(ev);
    }
    return out;
}

std::vector<AccessEvent> ProfileStore::events(InstanceId id) const {
    std::scoped_lock lock(mutex_);
    group_locked();
    return events_locked(id);
}

std::size_t ProfileStore::total_events() const {
    std::scoped_lock lock(mutex_);
    group_locked();
    return columns_.total_events();
}

std::size_t ProfileStore::populated_instances() const {
    std::scoped_lock lock(mutex_);
    group_locked();
    std::size_t count = 0;
    for (InstanceId id = 0; id < columns_.instance_slots(); ++id)
        if (!columns_.range(id).empty()) ++count;
    return count;
}

std::size_t ProfileStore::instance_slots() const {
    std::scoped_lock lock(mutex_);
    group_locked();
    return columns_.instance_slots();
}

std::size_t ProfileStore::orphan_events(
    std::size_t registered_instances) const {
    std::scoped_lock lock(mutex_);
    group_locked();
    std::size_t orphans = 0;
    for (std::size_t id = registered_instances;
         id < columns_.instance_slots(); ++id)
        orphans += columns_.range(static_cast<InstanceId>(id)).size();
    return orphans;
}

}  // namespace dsspy::runtime
