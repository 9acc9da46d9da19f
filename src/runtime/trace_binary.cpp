#include "runtime/trace_binary.hpp"

#include <algorithm>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "runtime/trace_codec.hpp"

namespace dsspy::runtime {

namespace {

using codec::chunk_baseline;
using codec::checked_narrow;
using codec::Cursor;
using codec::fail;
using codec::kControlReserved;
using codec::kPosPlusOne;
using codec::kSameInstance;
using codec::kSameOp;
using codec::kSameThread;
using codec::kSeqPlusOne;
using codec::kSizeSame;
using codec::kTimeSame;

/// Self-telemetry: DST1 chunks decoded (lazy-registered; call sites guard
/// on obs::enabled()).
obs::MetricId chunks_decoded_metric() {
    static const obs::MetricId id =
        obs::MetricsRegistry::global().counter("trace.chunks_decoded");
    return id;
}

// ---------------------------------------------------------------- encoding

void put_u32(std::string& out, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out += static_cast<char>((v >> (8 * i)) & 0xFF);
}

void put_u64(std::string& out, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out += static_cast<char>((v >> (8 * i)) & 0xFF);
}

/// LEB128: 7 value bits per byte, high bit = continuation.
void put_varint(std::string& out, std::uint64_t v) {
    while (v >= 0x80) {
        out += static_cast<char>((v & 0x7F) | 0x80);
        v >>= 7;
    }
    out += static_cast<char>(v);
}

/// Zigzag folds small negative deltas into small varints.
std::uint64_t zigzag(std::uint64_t delta) {
    const auto s = static_cast<std::int64_t>(delta);
    return (static_cast<std::uint64_t>(s) << 1) ^
           static_cast<std::uint64_t>(s >> 63);
}

void put_delta(std::string& out, std::uint64_t cur, std::uint64_t prev) {
    put_varint(out, zigzag(cur - prev));  // mod-2^64 delta: exact round trip
}

void put_string(std::string& out, const std::string& s) {
    put_varint(out, s.size());
    out += s;
}

void put_event(std::string& out, const AccessEvent& ev,
               const AccessEvent& prev) {
    const auto upos = static_cast<std::uint64_t>(ev.position);
    const auto uprev_pos = static_cast<std::uint64_t>(prev.position);
    std::uint8_t control = 0;
    if (ev.seq == prev.seq + 1) control |= kSeqPlusOne;
    if (ev.time_ns == prev.time_ns) control |= kTimeSame;
    if (ev.instance == prev.instance) control |= kSameInstance;
    if (ev.op == prev.op) control |= kSameOp;
    if (upos == uprev_pos + 1) control |= kPosPlusOne;
    if (ev.size == prev.size) control |= kSizeSame;
    if (ev.thread == prev.thread) control |= kSameThread;
    out += static_cast<char>(control);
    if (!(control & kSeqPlusOne)) put_delta(out, ev.seq, prev.seq);
    if (!(control & kTimeSame)) put_delta(out, ev.time_ns, prev.time_ns);
    if (!(control & kSameInstance))
        put_delta(out, ev.instance, prev.instance);
    if (!(control & kSameOp)) out += static_cast<char>(ev.op);
    if (!(control & kPosPlusOne)) put_delta(out, upos, uprev_pos);
    if (!(control & kSizeSame)) put_delta(out, ev.size, prev.size);
    if (!(control & kSameThread)) put_delta(out, ev.thread, prev.thread);
}

// ---------------------------------------------------------------- decoding
// The bounded cursor, control bits, and chunk validation are shared with
// the columnar mmap decoder — see trace_codec.hpp.

/// Decode exactly `count` events from one chunk payload into `out` (the
/// streaming reader's per-chunk batch).
void decode_chunk(Cursor cur, std::uint32_t count,
                  std::vector<AccessEvent>& out) {
    out.resize(count);
    AccessEvent prev = chunk_baseline();
    for (std::uint32_t i = 0; i < count; ++i) {
        AccessEvent& ev = out[i];
        const std::uint8_t control = cur.u8();
        if (control & kControlReserved) fail("bad event control byte");
        ev.seq = (control & kSeqPlusOne) ? prev.seq + 1 : cur.delta(prev.seq);
        ev.time_ns = (control & kTimeSame) ? prev.time_ns
                                           : cur.delta(prev.time_ns);
        ev.instance = (control & kSameInstance)
                          ? prev.instance
                          : checked_narrow<InstanceId>(
                                cur.delta(prev.instance), "instance");
        if (control & kSameOp) {
            ev.op = prev.op;
        } else {
            const std::uint8_t op = cur.u8();
            if (op >= kOpKindCount) fail("bad op value");
            ev.op = static_cast<OpKind>(op);
        }
        const auto uprev_pos = static_cast<std::uint64_t>(prev.position);
        ev.position = static_cast<std::int64_t>(
            (control & kPosPlusOne) ? uprev_pos + 1 : cur.delta(uprev_pos));
        ev.size = (control & kSizeSame)
                      ? prev.size
                      : checked_narrow<std::uint32_t>(cur.delta(prev.size),
                                                      "size");
        ev.thread = (control & kSameThread)
                        ? prev.thread
                        : checked_narrow<ThreadId>(cur.delta(prev.thread),
                                                   "thread");
        prev = ev;
    }
    if (cur.ptr != cur.end) fail("chunk payload longer than declared events");
}

/// Byte source for the streaming decoder: serves the sniffed prefix first,
/// then pulls from the stream.  Mirrors Cursor's primitives (and error
/// messages) but never needs the whole trace in memory.
struct StreamSource {
    std::istream& is;
    std::string_view carry;

    /// Read exactly `n` bytes; false only on a clean end of input.
    bool get(char* dst, std::size_t n) {
        const std::size_t from_carry = std::min(n, carry.size());
        std::memcpy(dst, carry.data(), from_carry);
        carry.remove_prefix(from_carry);
        if (from_carry == n) return true;
        is.read(dst + from_carry,
                static_cast<std::streamsize>(n - from_carry));
        if (is.bad()) fail("I/O error while reading trace");
        return static_cast<std::size_t>(is.gcount()) == n - from_carry;
    }

    std::uint8_t u8(const char* what) {
        char c;
        if (!get(&c, 1)) fail(what);
        return static_cast<std::uint8_t>(c);
    }

    std::uint32_t u32() {
        unsigned char b[4];
        if (!get(reinterpret_cast<char*>(b), 4))
            fail("truncated fixed-width field");
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i) v |= std::uint32_t{b[i]} << (8 * i);
        return v;
    }

    std::uint64_t u64() {
        unsigned char b[8];
        if (!get(reinterpret_cast<char*>(b), 8))
            fail("truncated fixed-width field");
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i) v |= std::uint64_t{b[i]} << (8 * i);
        return v;
    }

    std::uint64_t varint() {
        std::uint64_t v = 0;
        for (unsigned shift = 0; shift < 64; shift += 7) {
            const std::uint8_t byte = u8("unterminated varint");
            v |= std::uint64_t{byte & 0x7Fu} << shift;
            if ((byte & 0x80u) == 0) {
                if (shift == 63 && byte > 1) fail("varint overflows 64 bits");
                return v;
            }
        }
        fail("varint longer than 10 bytes");
    }

    std::string str() {
        const std::uint64_t len = varint();
        // No "remaining" to check against a stream; cap at a size no real
        // name field reaches so corrupt lengths fail before allocating.
        if (len > (1u << 30)) fail("truncated string field");
        std::string s(static_cast<std::size_t>(len), '\0');
        if (!get(s.data(), s.size())) fail("truncated string field");
        return s;
    }

    [[nodiscard]] bool at_end() {
        if (!carry.empty()) return false;
        return is.peek() == std::istream::traits_type::eof();
    }
};

}  // namespace

std::size_t read_trace_binary_stream(std::istream& is, std::string_view prefix,
                                     TraceSink& sink) {
    StreamSource src{is, prefix};
    char magic[sizeof(kTraceBinaryMagic)];
    if (!src.get(magic, sizeof(magic)) ||
        std::memcmp(magic, kTraceBinaryMagic, sizeof(magic)) != 0)
        fail("bad magic (not a DST1 trace)");
    const std::uint32_t version = src.u32();
    if (version != kTraceBinaryVersion)
        fail("unsupported DST1 version " + std::to_string(version));
    const std::uint64_t instance_count = src.u64();
    const std::uint64_t event_count = src.u64();

    for (std::uint64_t i = 0; i < instance_count; ++i) {
        InstanceInfo info;
        info.id = checked_narrow<InstanceId>(src.varint(), "id");
        const std::uint64_t kind = src.varint();
        if (kind >= kDsKindCount) fail("bad kind value");
        info.kind = static_cast<DsKind>(kind);
        info.location.position =
            checked_narrow<std::uint32_t>(src.varint(), "position");
        info.type_name = src.str();
        info.location.class_name = src.str();
        info.location.method = src.str();
        info.deallocated = src.u8("truncated byte field") != 0;
        sink.on_instance(info);
    }

    std::vector<char> payload;
    std::vector<AccessEvent> decoded;
    std::uint64_t declared = 0;
    std::size_t delivered = 0;
    while (declared < event_count) {
        unsigned char header[8];
        if (!src.get(reinterpret_cast<char*>(header), sizeof(header)))
            fail("truncated chunk header");
        std::uint32_t count = 0;
        std::uint32_t payload_bytes = 0;
        for (int i = 0; i < 4; ++i) {
            count |= std::uint32_t{header[i]} << (8 * i);
            payload_bytes |= std::uint32_t{header[4 + i]} << (8 * i);
        }
        codec::check_chunk_header(count, payload_bytes,
                                  std::numeric_limits<std::size_t>::max());
        payload.resize(payload_bytes);
        if (!src.get(payload.data(), payload.size()))
            fail("truncated event chunk");
        const auto* begin =
            reinterpret_cast<const unsigned char*>(payload.data());
        decode_chunk(Cursor{begin, begin + payload.size()}, count, decoded);
        if (obs::enabled())
            obs::MetricsRegistry::global().add(chunks_decoded_metric());
        sink.on_events(decoded);
        delivered += decoded.size();
        declared += count;
    }
    if (declared != event_count) fail("chunk event counts exceed header total");
    if (!src.at_end()) fail("trailing bytes after final chunk");
    return delivered;
}

bool is_binary_trace(std::string_view bytes) {
    return bytes.size() >= sizeof(kTraceBinaryMagic) &&
           std::memcmp(bytes.data(), kTraceBinaryMagic,
                       sizeof(kTraceBinaryMagic)) == 0;
}

std::size_t write_trace_binary(std::ostream& os,
                               const std::vector<InstanceInfo>& instances,
                               const ColumnStore& columns) {
    const std::vector<InstanceId> order =
        detail::event_write_order(instances, columns);
    std::uint64_t event_count = 0;
    for (const InstanceId id : order) event_count += columns.range(id).size();

    std::string head;
    head.append(kTraceBinaryMagic, sizeof(kTraceBinaryMagic));
    put_u32(head, kTraceBinaryVersion);
    put_u64(head, instances.size());
    put_u64(head, event_count);
    for (const InstanceInfo& info : instances) {
        put_varint(head, info.id);
        put_varint(head, static_cast<std::uint64_t>(info.kind));
        put_varint(head, info.location.position);
        put_string(head, info.type_name);
        put_string(head, info.location.class_name);
        put_string(head, info.location.method);
        head += static_cast<char>(info.deallocated ? 1 : 0);
    }
    os.write(head.data(), static_cast<std::streamsize>(head.size()));

    // Stream events chunk by chunk across instance boundaries.
    std::string payload;
    payload.reserve(kTraceBinaryChunkEvents * 4);
    std::uint32_t in_chunk = 0;
    AccessEvent prev = chunk_baseline();
    const auto flush_chunk = [&] {
        if (in_chunk == 0) return;
        std::string header;
        put_u32(header, in_chunk);
        put_u32(header, static_cast<std::uint32_t>(payload.size()));
        os.write(header.data(), static_cast<std::streamsize>(header.size()));
        os.write(payload.data(), static_cast<std::streamsize>(payload.size()));
        payload.clear();
        in_chunk = 0;
        prev = chunk_baseline();
    };
    std::size_t written = 0;
    for (const InstanceId id : order) {
        const ColumnRange range = columns.range(id);
        for (std::size_t row = range.begin; row < range.end; ++row) {
            AccessEvent ev = columns.row(row);
            ev.instance = id;
            put_event(payload, ev, prev);
            prev = ev;
            ++written;
            if (++in_chunk == kTraceBinaryChunkEvents) flush_chunk();
        }
    }
    flush_chunk();
    return written;
}

}  // namespace dsspy::runtime
