// Shared DST1 decode primitives (format reference: trace_binary.hpp).
//
// Two readers consume DST1 payloads: the streaming decoder in
// trace_binary.cpp (one chunk of events at a time for a TraceSink) and the
// zero-copy columnar decoder in trace_mmap.cpp (fields straight into
// ColumnStore rows).  Both must agree
// byte-for-byte on the wire protocol — control bits, varint/zigzag rules,
// bounds checks, error strings — so the primitives live here and the
// decoders share them instead of drifting apart.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "runtime/access_event.hpp"

namespace dsspy::runtime::codec {

[[noreturn]] inline void fail(const std::string& what) {
    throw std::runtime_error("trace_io: " + what);
}

/// Control-byte flags: each bit marks one field as "took its common delta"
/// (see trace_binary.hpp); clear bits have an explicit value following.
enum : std::uint8_t {
    kSeqPlusOne = 1u << 0,
    kTimeSame = 1u << 1,
    kSameInstance = 1u << 2,
    kSameOp = 1u << 3,
    kPosPlusOne = 1u << 4,
    kSizeSame = 1u << 5,
    kSameThread = 1u << 6,
    kControlReserved = 1u << 7,
};

/// Chunk-local delta baseline (all fields zero — AccessEvent's defaults
/// use sentinels, so build it explicitly).
inline AccessEvent chunk_baseline() {
    AccessEvent ev;
    ev.instance = 0;
    ev.op = OpKind::Get;
    return ev;
}

/// Bounded byte cursor; every read checks the remaining length.
struct Cursor {
    const unsigned char* ptr;
    const unsigned char* end;

    [[nodiscard]] std::size_t remaining() const {
        return static_cast<std::size_t>(end - ptr);
    }

    std::uint32_t u32() {
        if (remaining() < 4) fail("truncated fixed-width field");
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i) v |= std::uint32_t{ptr[i]} << (8 * i);
        ptr += 4;
        return v;
    }

    std::uint64_t u64() {
        if (remaining() < 8) fail("truncated fixed-width field");
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i) v |= std::uint64_t{ptr[i]} << (8 * i);
        ptr += 8;
        return v;
    }

    std::uint8_t u8() {
        if (remaining() < 1) fail("truncated byte field");
        return *ptr++;
    }

    std::uint64_t varint() {
        std::uint64_t v = 0;
        for (unsigned shift = 0; shift < 64; shift += 7) {
            if (ptr == end) fail("unterminated varint");
            const unsigned char byte = *ptr++;
            v |= std::uint64_t{byte & 0x7Fu} << shift;
            if ((byte & 0x80u) == 0) {
                // The 10th byte carries only bit 63: anything above is
                // an overlong/corrupt encoding.
                if (shift == 63 && byte > 1) fail("varint overflows 64 bits");
                return v;
            }
        }
        fail("varint longer than 10 bytes");
    }

    std::uint64_t delta(std::uint64_t prev) {
        const std::uint64_t z = varint();
        const std::uint64_t d = (z >> 1) ^ (~(z & 1) + 1);  // un-zigzag
        return prev + d;
    }

    std::string str() {
        const std::uint64_t len = varint();
        if (len > remaining()) fail("truncated string field");
        std::string s(reinterpret_cast<const char*>(ptr),
                      static_cast<std::size_t>(len));
        ptr += len;
        return s;
    }
};

template <typename T>
T checked_narrow(std::uint64_t v, const char* what) {
    if (v > static_cast<std::uint64_t>(std::numeric_limits<T>::max()))
        fail(std::string("field '") + what + "' out of range");
    return static_cast<T>(v);
}

/// Validate one chunk header (already read as `count`/`payload_bytes`
/// against a cursor positioned at the payload).  Both readers reject the
/// same corruptions with the same messages: zero-event chunks, payloads
/// that overrun the input, and declared event counts no payload that size
/// could hold (every event costs at least its control byte).
inline void check_chunk_header(std::uint32_t count,
                               std::uint32_t payload_bytes,
                               std::size_t remaining) {
    if (count == 0) fail("empty event chunk");
    if (count > payload_bytes) fail("chunk event count exceeds payload size");
    if (payload_bytes > remaining) fail("truncated event chunk");
}

}  // namespace dsspy::runtime::codec
