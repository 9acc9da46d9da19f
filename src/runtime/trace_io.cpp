#include "runtime/trace_io.hpp"

#include <algorithm>
#include <charconv>
#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string_view>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/trace_binary.hpp"
#include "runtime/trace_mmap.hpp"

namespace dsspy::runtime {

namespace {

/// Self-telemetry ids for trace serialization (registered lazily; every
/// call site guards on obs::enabled() first).
struct TraceMetricIds {
    obs::MetricId bytes_written;
    obs::MetricId bytes_read;
    obs::MetricId events_written;
    obs::MetricId events_read;
    obs::MetricId blank_records;  ///< Empty CSV records skipped.
};

const TraceMetricIds& trace_metrics() {
    static const TraceMetricIds ids = [] {
        auto& reg = obs::MetricsRegistry::global();
        return TraceMetricIds{
            reg.counter("trace.bytes_written"),
            reg.counter("trace.bytes_read"),
            reg.counter("trace.events_written"),
            reg.counter("trace.events_read"),
            reg.counter("trace.blank_records_skipped"),
        };
    }();
    return ids;
}

/// CSV-escape a text field (quotes only when needed).
std::string escape(const std::string& field) {
    if (field.find_first_of(",\"\n") == std::string::npos) return field;
    std::string out = "\"";
    for (char ch : field) {
        if (ch == '"') out += '"';
        out += ch;
    }
    out += '"';
    return out;
}

/// Split one CSV record honoring quoted fields (which may contain commas,
/// escaped quotes, and newlines — record extraction below guarantees the
/// record holds a balanced set of quotes).
std::vector<std::string> split_csv(std::string_view line) {
    std::vector<std::string> fields;
    std::string current;
    bool quoted = false;
    for (std::size_t i = 0; i < line.size(); ++i) {
        const char ch = line[i];
        if (quoted) {
            if (ch == '"') {
                if (i + 1 < line.size() && line[i + 1] == '"') {
                    current += '"';
                    ++i;
                } else {
                    quoted = false;
                }
            } else {
                current += ch;
            }
        } else if (ch == '"') {
            quoted = true;
        } else if (ch == ',') {
            fields.push_back(std::move(current));
            current.clear();
        } else {
            current += ch;
        }
    }
    fields.push_back(std::move(current));
    return fields;
}

template <typename T>
T parse_number(std::string_view field, const char* what) {
    T value{};
    const auto* begin = field.data();
    const auto* end = field.data() + field.size();
    const auto [ptr, ec] = std::from_chars(begin, end, value);
    if (ec != std::errc{} || ptr != end)
        throw std::runtime_error(std::string("trace_io: bad ") + what +
                                 " field: '" + std::string(field) + "'");
    return value;
}

/// Quote-aware CSV record extraction as a resumable state machine: a
/// record ends at a '\n' outside quotes, and `""` toggles the quote state
/// twice (no net change), so quoted fields may span physical lines — and,
/// here, buffer refills: the quote state and any partial record carry over
/// between feed() calls, so a boundary can fall anywhere (even between the
/// two '"' of an escaped quote) without changing what is parsed.
/// read_trace and read_trace_stream both read CSV through this scanner.
class CsvRecordScanner {
public:
    /// Scan `chunk`, invoking `emit(std::string_view record)` for every
    /// completed record.  The view is valid only during the call.
    template <typename Fn>
    void feed(std::string_view chunk, Fn&& emit) {
        std::size_t start = 0;
        for (std::size_t i = 0; i < chunk.size(); ++i) {
            const char ch = chunk[i];
            if (ch == '"') {
                in_quote_ = !in_quote_;
            } else if (ch == '\n' && !in_quote_) {
                if (carry_.empty()) {
                    emit(chunk.substr(start, i - start));
                } else {
                    carry_.append(chunk, start, i - start);
                    emit(std::string_view(carry_));
                    carry_.clear();
                }
                start = i + 1;
            }
        }
        carry_.append(chunk, start, chunk.size() - start);
    }

    /// End of input: emit the final unterminated record, if any.  Throws
    /// if a quoted field is still open.
    template <typename Fn>
    void finish(Fn&& emit) {
        if (in_quote_)
            throw std::runtime_error("trace_io: unterminated quoted field");
        if (!carry_.empty()) {
            emit(std::string_view(carry_));
            carry_.clear();
        }
    }

private:
    std::string carry_;    ///< Partial record spanning feed() boundaries.
    bool in_quote_ = false;
};

/// Parse one CSV record and route it to the sink (events via `batch`,
/// flushed when full).  Returns the number of events parsed (0 or 1).
std::size_t parse_csv_record(std::string_view line, TraceSink& sink,
                             std::vector<AccessEvent>& batch) {
    if (line.empty()) {
        if (obs::enabled())
            obs::MetricsRegistry::global().add(trace_metrics().blank_records);
        return 0;
    }
    const std::vector<std::string> fields = split_csv(line);
    if (fields[0] == "I") {
        if (fields.size() != 8)
            throw std::runtime_error(
                "trace_io: instance record needs 8 fields, got " +
                std::to_string(fields.size()));
        InstanceInfo info;
        info.id = parse_number<InstanceId>(fields[1], "id");
        const auto kind = parse_number<unsigned>(fields[2], "kind");
        if (kind >= kDsKindCount)
            throw std::runtime_error("trace_io: bad kind value");
        info.kind = static_cast<DsKind>(kind);
        info.type_name = fields[3];
        info.location.class_name = fields[4];
        info.location.method = fields[5];
        info.location.position =
            parse_number<std::uint32_t>(fields[6], "position");
        info.deallocated = fields[7] == "1";
        sink.on_instance(info);
        return 0;
    }
    if (fields[0] == "E") {
        if (fields.size() != 8)
            throw std::runtime_error(
                "trace_io: event record needs 8 fields, got " +
                std::to_string(fields.size()));
        AccessEvent ev;
        ev.seq = parse_number<std::uint64_t>(fields[1], "seq");
        ev.time_ns = parse_number<std::uint64_t>(fields[2], "time_ns");
        ev.instance = parse_number<InstanceId>(fields[3], "instance");
        const auto op = parse_number<unsigned>(fields[4], "op");
        if (op >= kOpKindCount)
            throw std::runtime_error("trace_io: bad op value");
        ev.op = static_cast<OpKind>(op);
        ev.position = parse_number<std::int64_t>(fields[5], "position");
        ev.size = parse_number<std::uint32_t>(fields[6], "size");
        ev.thread = parse_number<ThreadId>(fields[7], "thread");
        batch.push_back(ev);
        if (batch.size() == batch.capacity()) {
            sink.on_events(batch);
            batch.clear();
        }
        return 1;
    }
    throw std::runtime_error("trace_io: unknown record tag '" + fields[0] +
                             "'");
}

/// Count one completed read in the self-telemetry registry.
void count_read(std::size_t bytes, std::size_t events) {
    if (!obs::enabled()) return;
    auto& reg = obs::MetricsRegistry::global();
    reg.add(trace_metrics().bytes_read, bytes);
    reg.add(trace_metrics().events_read, events);
}

/// Up to `bytes` leading bytes of `is`: the format sniff's probe, handed
/// on to the chosen reader so no byte is read twice.
std::string read_prefix(std::istream& is, std::size_t bytes) {
    std::string prefix(bytes, '\0');
    is.read(prefix.data(), static_cast<std::streamsize>(bytes));
    prefix.resize(static_cast<std::size_t>(is.gcount()));
    if (is.bad())
        throw std::runtime_error("trace_io: I/O error while reading trace");
    return prefix;
}

std::size_t write_trace_csv(std::ostream& os,
                            const std::vector<InstanceInfo>& instances,
                            const ColumnStore& columns) {
    for (const InstanceInfo& info : instances)
        detail::write_csv_instance_record(os, info);
    std::size_t events = 0;
    for (const InstanceId id : detail::event_write_order(instances, columns)) {
        const ColumnRange range = columns.range(id);
        for (std::size_t row = range.begin; row < range.end; ++row) {
            AccessEvent ev = columns.row(row);
            ev.instance = id;
            detail::write_csv_event_record(os, ev);
        }
        events += range.size();
    }
    return events;
}

/// A DST1 column decode as a Trace.
Trace as_trace(ColumnTrace decoded) {
    Trace trace;
    trace.instances = std::move(decoded.instances);
    trace.store = std::move(decoded.columns);
    return trace;
}

/// Collects a streamed CSV trace for read_trace: instances as they
/// arrive, event rows until the end, then one ColumnStore::group.
class CollectSink final : public TraceSink {
public:
    void on_instance(const InstanceInfo& info) override {
        trace_.instances.push_back(info);
    }
    void on_events(std::span<const AccessEvent> events) override {
        rows_.insert(rows_.end(), events.begin(), events.end());
    }
    [[nodiscard]] Trace take() {
        const std::span<const AccessEvent> rows(rows_);
        trace_.store = ColumnStore::group({&rows, 1});
        return std::move(trace_);
    }

private:
    Trace trace_;
    std::vector<AccessEvent> rows_;
};

/// Streaming CSV: refill a fixed buffer and feed it through the scanner;
/// quote state and partial records survive the refills.
std::size_t read_trace_csv_stream(std::istream& is, std::string_view first,
                                  TraceSink& sink, std::size_t buffer_bytes) {
    CsvRecordScanner scanner;
    std::vector<AccessEvent> batch;
    batch.reserve(1024);
    std::size_t events = 0;
    std::size_t bytes = first.size();
    const auto handle = [&](std::string_view line) {
        events += parse_csv_record(line, sink, batch);
    };
    scanner.feed(first, handle);
    std::string buf(buffer_bytes, '\0');
    while (is) {
        is.read(buf.data(), static_cast<std::streamsize>(buf.size()));
        const auto got = static_cast<std::size_t>(is.gcount());
        if (got == 0) break;
        bytes += got;
        scanner.feed(std::string_view(buf.data(), got), handle);
    }
    if (is.bad())
        throw std::runtime_error("trace_io: I/O error while reading trace");
    scanner.finish(handle);
    if (!batch.empty()) sink.on_events(batch);
    count_read(bytes, events);
    return events;
}

}  // namespace

namespace detail {

std::vector<InstanceId> event_write_order(
    const std::vector<InstanceInfo>& instances, const ColumnStore& columns) {
    std::vector<InstanceId> order;
    order.reserve(instances.size());
    std::vector<bool> listed(columns.instance_slots(), false);
    for (const InstanceInfo& info : instances) {
        order.push_back(info.id);
        if (info.id < listed.size()) listed[info.id] = true;
    }
    // Store-only ids (events appended without a matching registry entry,
    // e.g. by an external tool building traces directly) must still be
    // written — dropping them silently would corrupt the round trip.
    for (InstanceId id = 0; id < listed.size(); ++id)
        if (!listed[id] && !columns.range(id).empty()) order.push_back(id);
    return order;
}

void write_csv_instance_record(std::ostream& os, const InstanceInfo& info) {
    os << "I," << info.id << ','
       << static_cast<unsigned>(info.kind) << ','
       << escape(info.type_name) << ','
       << escape(info.location.class_name) << ','
       << escape(info.location.method) << ','
       << info.location.position << ','
       << (info.deallocated ? 1 : 0) << '\n';
}

void write_csv_event_record(std::ostream& os, const AccessEvent& ev) {
    os << "E," << ev.seq << ',' << ev.time_ns << ',' << ev.instance << ','
       << static_cast<unsigned>(ev.op) << ',' << ev.position << ',' << ev.size
       << ',' << ev.thread << '\n';
}

}  // namespace detail

std::size_t write_trace(std::ostream& os,
                        const std::vector<InstanceInfo>& instances,
                        const ColumnStore& store, TraceFormat format) {
    DSSPY_TRACE_SPAN("trace.write");
    const std::streampos before = obs::enabled() ? os.tellp()
                                                 : std::streampos{-1};
    const std::size_t events = format == TraceFormat::Binary
                                   ? write_trace_binary(os, instances, store)
                                   : write_trace_csv(os, instances, store);
    if (obs::enabled()) {
        auto& reg = obs::MetricsRegistry::global();
        reg.add(trace_metrics().events_written, events);
        // Non-seekable sinks (pipes) report -1; skip the byte count then.
        const std::streampos after = os.tellp();
        if (before >= std::streampos{0} && after >= before)
            reg.add(trace_metrics().bytes_written,
                    static_cast<std::uint64_t>(after - before));
    }
    return events;
}

std::size_t write_trace(std::ostream& os, const ProfilingSession& session,
                        TraceFormat format) {
    return write_trace(os, session.registry().snapshot(), session.store(),
                       format);
}

std::size_t read_trace_stream(std::istream& is, TraceSink& sink,
                              std::size_t buffer_bytes) {
    DSSPY_TRACE_SPAN("trace.read");
    const std::size_t cap = std::max<std::size_t>(buffer_bytes, 64);
    const std::string probe = read_prefix(is, cap);
    if (is_binary_trace(probe))
        return read_trace_binary_stream(is, probe, sink);
    return read_trace_csv_stream(is, probe, sink, cap);
}

std::size_t read_trace_stream_file(const std::string& path, TraceSink& sink,
                                   std::size_t buffer_bytes) {
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("trace_io: cannot open trace file '" + path +
                                 "'");
    return read_trace_stream(in, sink, buffer_bytes);
}

namespace {

/// Read-only streambuf over a ChunkSource: underflow() pulls the next
/// chunk and exposes it as the get area without copying.  This is what
/// lets the framed socket connections of the serve layer feed the same
/// istream-based prefix-carry readers files go through.
class ChunkSourceBuf final : public std::streambuf {
public:
    explicit ChunkSourceBuf(const ChunkSource& next) : next_(next) {}

protected:
    int_type underflow() override {
        if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
        const std::string_view chunk = next_();
        if (chunk.empty()) return traits_type::eof();
        // The source guarantees the chunk stays valid until the next pull;
        // the get area never outlives it (underflow refills before reads).
        char* base = const_cast<char*>(chunk.data());
        setg(base, base, base + chunk.size());
        return traits_type::to_int_type(*gptr());
    }

private:
    const ChunkSource& next_;
};

}  // namespace

std::size_t read_trace_stream(const ChunkSource& next_chunk, TraceSink& sink,
                              std::size_t buffer_bytes) {
    ChunkSourceBuf buf(next_chunk);
    std::istream is(&buf);
    return read_trace_stream(is, sink, buffer_bytes);
}

Trace read_trace(std::istream& is, par::ThreadPool* pool) {
    DSSPY_TRACE_SPAN("trace.read");
    constexpr std::size_t kBufferBytes = std::size_t{1} << 20;
    std::string data = read_prefix(is, kBufferBytes);
    if (!is_binary_trace(data)) {
        // CSV streams through the record scanner in bounded buffers; only
        // the parsed rows are kept, and they are grouped once.
        CollectSink sink;
        read_trace_csv_stream(is, data, sink, kBufferBytes);
        return sink.take();
    }
    // DST1 is decoded whole: the column decode indexes every chunk.
    std::ostringstream whole;
    whole << data << is.rdbuf();
    if (is.bad())
        throw std::runtime_error("trace_io: I/O error while reading trace");
    data = std::move(whole).str();
    Trace trace = as_trace(read_trace_columns(data, pool));
    count_read(data.size(), trace.store.total_events());
    return trace;
}

bool write_trace_file(const std::string& path,
                      const std::vector<InstanceInfo>& instances,
                      const ColumnStore& store, TraceFormat format) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    write_trace(out, instances, store, format);
    // A short write (full disk, dead pipe) may only surface at flush time;
    // report it instead of pretending the trace landed.
    out.flush();
    return static_cast<bool>(out);
}

bool write_trace_file(const std::string& path, const ProfilingSession& session,
                      TraceFormat format) {
    return write_trace_file(path, session.registry().snapshot(),
                            session.store(), format);
}

Trace read_trace_file(const std::string& path, par::ThreadPool* pool) {
    // DST1 files are mmapped instead of read; same decoder as read_trace.
    if (is_binary_trace_file(path)) {
        Trace trace = as_trace(read_trace_columns_file(path, pool));
        if (obs::enabled())
            count_read(std::filesystem::file_size(path),
                       trace.store.total_events());
        return trace;
    }
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("trace_io: cannot open trace file '" + path +
                                 "'");
    return read_trace(in, pool);
}

}  // namespace dsspy::runtime
