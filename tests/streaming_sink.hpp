// A collecting event sink shared by the capture-mode tests.
//
// A Streaming session starts its live collector only once an event sink is
// attached; without one it runs exactly the Buffered path.  StreamingSink
// attaches to Streaming sessions (Buffered ones stay sinkless) and keeps
// every delivered row.  After stop(), expect_matches_store() checks the
// live delivery against the session's store: strictly ascending seq, and
// the same rows, instance by instance.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "core/dsspy.hpp"
#include "runtime/session.hpp"

namespace dsspy_test {

class StreamingSink {
public:
    explicit StreamingSink(dsspy::runtime::ProfilingSession& session) {
        if (session.mode() != dsspy::runtime::CaptureMode::Streaming) return;
        rows_ = std::make_shared<std::vector<dsspy::runtime::AccessEvent>>();
        // The rows outlive this object if the session delivers after it.
        session.set_event_sink(
            [rows = rows_](std::span<const dsspy::runtime::AccessEvent> ev) {
                rows->insert(rows->end(), ev.begin(), ev.end());
            });
    }

    /// Check the delivered rows against the stopped session's store (a
    /// no-op for a Buffered session).
    void expect_matches_store(
        const dsspy::runtime::ProfilingSession& session) const {
        if (!rows_) return;
        const std::vector<dsspy::runtime::AccessEvent>& rows = *rows_;
        for (std::size_t i = 1; i < rows.size(); ++i)
            ASSERT_LT(rows[i - 1].seq, rows[i].seq) << "delivery " << i;
        // Ascending seq, stably grouped by instance: the store's order.
        std::vector<dsspy::runtime::AccessEvent> grouped = rows;
        std::stable_sort(grouped.begin(), grouped.end(),
                         [](const auto& a, const auto& b) {
                             return a.instance < b.instance;
                         });
        const dsspy::runtime::ColumnStore& store = session.store();
        ASSERT_EQ(grouped.size(), store.total_events());
        std::size_t i = 0;
        for (dsspy::runtime::InstanceId id = 0; id < store.instance_slots();
             ++id)
            for (const dsspy::runtime::AccessEvent& ev :
                 dsspy::core::instance_events(store, id))
                ASSERT_EQ(grouped[i++], ev) << "store row " << i - 1;
    }

private:
    std::shared_ptr<std::vector<dsspy::runtime::AccessEvent>> rows_;
};

}  // namespace dsspy_test
