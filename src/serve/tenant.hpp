// One tenant of the serve daemon (DESIGN.md §12): a single client's
// trace stream bound to its own IncrementalAnalyzer.
//
// A TenantSession is the daemon-side TraceSink for one DSRV connection.
// Memory stays bounded the same way `dsspy analyze --engine=incremental`
// is bounded: the analyzer folds every event into O(instances x threads)
// state, the instance table is capped (`max_instances`), and trace bytes
// are never retained past the frame that carried them.
//
// Crash recovery: a connection that dies mid-stream (EOF, timeout, stop)
// calls abort(), which finalizes exactly like finish() — the report over
// everything folded so far is still byte-identical to offline analysis of
// the received prefix — but records the state as Aborted plus a reason.
// Events whose instance was never declared are counted as orphans
// (mirroring ProfilingSession::orphan_events in the capture layer), so a
// truncated stream is visible in the numbers, not silently absorbed.
#pragma once

#include <cstdint>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/detector_config.hpp"
#include "core/incremental.hpp"
#include "obs/trace.hpp"
#include "runtime/instance_registry.hpp"
#include "runtime/trace_io.hpp"

namespace dsspy::serve {

/// Lifecycle of a tenant's stream.
enum class TenantState {
    Streaming,  ///< Connection open, events still folding.
    Finished,   ///< Client sent end-of-stream; report is final.
    Aborted,    ///< Connection died or was rejected mid-stream; the
                ///< report covers the received prefix.
};

[[nodiscard]] const char* tenant_state_name(TenantState state);

/// Point-in-time view of a tenant for `GET /tenants` and metrics.
struct TenantSummary {
    std::uint32_t id = 0;
    std::string name;
    TenantState state = TenantState::Streaming;
    std::uint64_t bytes = 0;       ///< Trace payload bytes received.
    std::uint64_t frames = 0;      ///< 'T' frames received.
    std::uint64_t events = 0;      ///< Events folded so far.
    std::uint64_t instances = 0;   ///< Instances declared so far.
    std::uint64_t orphan_events = 0;  ///< Events on undeclared instances
                                      ///< (meaningful once finalized).
    std::uint64_t flagged = 0;     ///< Flagged instances (once finalized).
    std::string error;             ///< Abort reason, empty otherwise.
};

/// Tenant instance-table cap exceeded; the daemon aborts only this
/// tenant's connection, never the process.
class TenantLimitError final : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

class TenantSession final : public runtime::TraceSink {
public:
    TenantSession(std::uint32_t id, std::string name,
                  core::DetectorConfig config, std::size_t max_instances);

    /// Ends the session's root span if the tenant was never finalized.
    ~TenantSession() override;

    // TraceSink: called by runtime::read_trace_stream on the connection
    // thread.  on_instance throws TenantLimitError past `max_instances`.
    void on_instance(const runtime::InstanceInfo& info) override;
    void on_events(std::span<const runtime::AccessEvent> events) override;

    /// Account one received 'T' frame of `bytes` payload bytes.
    void add_frame(std::uint64_t bytes);

    /// Clean end of stream: finalize the report.
    void finish();

    /// Connection died (or the stream was malformed): finalize what was
    /// received and record the reason.
    void abort(std::string reason);

    [[nodiscard]] std::uint32_t id() const noexcept { return id_; }
    [[nodiscard]] const std::string& name() const noexcept { return name_; }

    [[nodiscard]] TenantSummary summary() const;

    /// Table V use-case report.  Final (and byte-identical to offline
    /// `dsspy analyze --report` of the same bytes) once finalized; a live
    /// snapshot while still streaming.
    [[nodiscard]] std::string report_text() const;

    /// The structured advice document (JSON, advice_version 1).  Final
    /// (and byte-identical to offline `dsspy advise` of the same bytes)
    /// once finalized; a live snapshot while still streaming.
    [[nodiscard]] std::string advice_json() const;

    /// One-line result for the DSRV 'R' frame and the push client.
    [[nodiscard]] std::string summary_line() const;

    /// The session's root-span context: frame/fold spans parent here, and
    /// `GET /tenants/<id>/trace` selects the tenant's tree by its root id.
    /// Invalid when tracing was off at construction.
    [[nodiscard]] obs::TraceContext trace_context() const noexcept {
        return root_span_.ctx;
    }

private:
    /// Orphans = folded events minus events attributed to declared
    /// instances (ProfilingSession::orphan_events counts the same events
    /// post-mortem).
    static std::uint64_t count_orphans(const core::StreamReport& report);
    void fill_report_fields(const core::StreamReport& report);

    const std::uint32_t id_;
    const std::string name_;
    const std::size_t max_instances_;
    core::IncrementalAnalyzer analyzer_;
    /// Root span covering the whole session, begun on the connection
    /// thread and ended wherever finalization happens (finish, abort, or
    /// daemon shutdown) — the manual begin/end pair exists exactly for
    /// spans whose ends change threads.
    obs::ManualSpan root_span_;

    mutable std::mutex mutex_;  ///< Guards everything below.
    std::vector<runtime::InstanceInfo> instances_;
    TenantState state_ = TenantState::Streaming;
    std::uint64_t bytes_ = 0;
    std::uint64_t frames_ = 0;
    std::uint64_t orphan_events_ = 0;
    std::uint64_t flagged_ = 0;
    std::string error_;
    std::string final_report_;  ///< Rendered at finalize time.
    std::string final_advice_;  ///< Advice JSON, rendered at finalize time.
};

}  // namespace dsspy::serve
