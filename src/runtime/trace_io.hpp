// Trace serialization: export a recorded session and re-import it for
// offline analysis.
//
// DSspy analyzes profiles post-mortem; persisting the raw event stream
// decouples capture from analysis entirely — a trace taken on one machine
// (or by an external instrumentation layer such as a Pin tool) can be
// analyzed anywhere.  Two on-disk formats are supported (see DESIGN.md §7):
//
//  * CSV — line-oriented text with two record types:
//
//      I,<id>,<kind>,<type_name>,<class>,<method>,<position>,<deallocated>
//      E,<seq>,<time_ns>,<instance>,<op>,<position>,<size>,<thread>
//
//    Instance records come first; event records follow in arbitrary order
//    (the reader groups them by instance and orders each instance by seq,
//    see ColumnStore::group).  Text fields are CSV-escaped;
//    quoted fields may span physical lines (a name may contain newlines).
//
//  * DST1 — the compact binary format in trace_binary.hpp: a fixed header,
//    an instance table, then ~64K-event chunks with delta/varint-encoded
//    fields.  Roughly an order of magnitude smaller and several times
//    faster to read than CSV; chunks decode in parallel on a ThreadPool
//    straight into columns (trace_mmap.hpp).
//
// `read_trace` auto-detects the format from the leading magic bytes.
#pragma once

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/column_store.hpp"
#include "runtime/instance_registry.hpp"
#include "runtime/session.hpp"

namespace dsspy::par {
class ThreadPool;
}

namespace dsspy::runtime {

/// On-disk trace encodings.
enum class TraceFormat {
    Csv,     ///< Line-oriented text (human-inspectable, foreign-tool-friendly).
    Binary,  ///< DST1 chunked binary (compact, fast, parallel-decodable).
};

/// A deserialized trace: instance metadata plus the grouped store.
struct Trace {
    std::vector<InstanceInfo> instances;
    ColumnStore store;
};

/// Write a stopped session's registry and events to `os`.
/// Returns the number of events written.
std::size_t write_trace(std::ostream& os, const ProfilingSession& session,
                        TraceFormat format = TraceFormat::Csv);

/// Write explicit instances/events (for tools that build traces directly).
/// Events whose instance id does not appear in `instances` are written too
/// (after the listed instances, in id order), so externally built stores
/// survive a write/read cycle.
std::size_t write_trace(std::ostream& os,
                        const std::vector<InstanceInfo>& instances,
                        const ColumnStore& store,
                        TraceFormat format = TraceFormat::Csv);

/// Parse a trace written by `write_trace`, auto-detecting the format from
/// the magic bytes.  Throws std::runtime_error on malformed input (wrong
/// field counts, non-numeric fields, unknown record tags, truncated or
/// corrupt binary data).  CSV input streams through the same record
/// scanner as read_trace_stream and is grouped once at the end; DST1
/// input is read whole and goes through the column decoder
/// (read_trace_columns), whose chunks decode in parallel with a pool,
/// bit-identical to the sequential path.
[[nodiscard]] Trace read_trace(std::istream& is,
                               par::ThreadPool* pool = nullptr);

/// Incremental consumer for read_trace_stream: instance metadata and event
/// batches are delivered as they are decoded, without materializing the
/// trace.  Within one instance, events arrive in the file's (per-instance
/// seq) order — the order write_trace emits and the order the incremental
/// analyzer requires.
class TraceSink {
public:
    virtual ~TraceSink() = default;
    virtual void on_instance(const InstanceInfo& info) = 0;
    virtual void on_events(std::span<const AccessEvent> events) = 0;
};

/// Stream a trace through `sink` in bounded memory (roughly `buffer_bytes`
/// for CSV, one ~64K-event chunk for DST1 — never the whole trace).  The
/// format is auto-detected from the magic bytes; CSV quote state is
/// carried across buffer refills, so quoted fields spanning any boundary
/// parse exactly as in read_trace.  Throws std::runtime_error on the same
/// malformed inputs read_trace rejects.  Returns the number of events
/// delivered.
std::size_t read_trace_stream(std::istream& is, TraceSink& sink,
                              std::size_t buffer_bytes = 1u << 20);

/// File-path convenience; throws when the file cannot be opened.
std::size_t read_trace_stream_file(const std::string& path, TraceSink& sink,
                                   std::size_t buffer_bytes = 1u << 20);

/// Pull-based byte source for read_trace_stream when the trace does not
/// sit behind a std::istream: each call returns the next chunk of the
/// trace byte stream, or an empty view at end of input.  The returned
/// bytes must stay valid until the next call.  The serve layer's framed
/// socket connections implement this (src/serve/), so a network-delivered
/// trace flows through exactly the same prefix-carry streaming readers —
/// CSV quote-state carry, DST1 chunk decode — as a file on disk.
using ChunkSource = std::function<std::string_view()>;

/// Stream a trace pulled from `next_chunk` through `sink` in bounded
/// memory.  Chunk boundaries are arbitrary: they need not align to CSV
/// records or DST1 chunks (the readers carry partial state across
/// refills).  Same format auto-detection, validation, errors, and return
/// value as the istream overload.
std::size_t read_trace_stream(const ChunkSource& next_chunk, TraceSink& sink,
                              std::size_t buffer_bytes = 1u << 20);

/// Convenience: file-path overloads.  `write_trace_file` returns false if
/// the file cannot be opened or the flushed stream reports a short write;
/// `read_trace_file` throws std::runtime_error when the file cannot be
/// opened (a missing trace is not an empty trace) and propagates
/// `read_trace` parse errors.
bool write_trace_file(const std::string& path, const ProfilingSession& session,
                      TraceFormat format = TraceFormat::Csv);
bool write_trace_file(const std::string& path,
                      const std::vector<InstanceInfo>& instances,
                      const ColumnStore& store,
                      TraceFormat format = TraceFormat::Csv);
[[nodiscard]] Trace read_trace_file(const std::string& path,
                                    par::ThreadPool* pool = nullptr);

namespace detail {

/// The instance-id order in which writers emit event sequences: ids from
/// `instances` first (in list order), then store-only ("orphan") ids in
/// ascending order.  Both the CSV and DST1 writers follow this order, so
/// cross-format conversions produce identically ordered stores.
std::vector<InstanceId> event_write_order(
    const std::vector<InstanceInfo>& instances, const ColumnStore& columns);

/// Emit one CSV instance/event record (including the trailing newline) in
/// exactly the encoding write_trace produces.  Shared with the serve
/// layer's SocketTraceSink, which streams records live over a socket: one
/// encoder means a live stream and a written file parse identically.
void write_csv_instance_record(std::ostream& os, const InstanceInfo& info);
void write_csv_event_record(std::ostream& os, const AccessEvent& ev);

}  // namespace detail

}  // namespace dsspy::runtime
