// DST1 — DSspy's compact binary trace format.
//
// CSV traces are portable but cost ~40 bytes and two integer parses per
// field at the million-event scale the ROADMAP targets.  DST1 follows the
// standard memory-profiler recipe (compact binary log + post-hoc toolchain,
// cf. DINAMITE in PAPERS.md): a fixed header, an instance table, then the
// event stream in independently decodable chunks.
//
// Layout (all fixed-width integers little-endian, varints LEB128):
//
//   Header (24 bytes)
//     magic           4 bytes   "DST1"
//     version         u32       1
//     instance_count  u64
//     event_count     u64
//   Instance table — instance_count records of:
//     id, kind, position   varint
//     type_name, class_name, method   varint length + raw UTF-8 bytes
//     deallocated          u8 (0/1)
//   Event chunks — until event_count events have been emitted:
//     chunk header: count u32, payload_bytes u32
//     payload: `count` events.  Each event starts with a control byte
//     whose bits say, per field, "the common delta against the previous
//     event in this chunk" (baseline all-zero); only fields whose bit is
//     clear are materialized, in order, as zigzag varint deltas (op as a
//     raw u8):
//       bit 0  seq      == prev.seq + 1
//       bit 1  time_ns  == prev.time_ns   (amortized-timestamp plateau)
//       bit 2  instance == prev.instance  (writers emit per-instance runs)
//       bit 3  op       == prev.op
//       bit 4  position == prev.position + 1  (sweeps and appends)
//       bit 5  size     == prev.size          (read-only phases)
//       bit 6  thread   == prev.thread
//       bit 7  reserved, must be zero
//
// A sequential read sweep is one control byte per event; an append run is
// two bytes.  Chunk-local baselines keep every chunk independently
// decodable, which is what lets the column decoder (trace_mmap.hpp, also
// behind `read_trace`) fan the decode out over a ThreadPool into disjoint
// row ranges — bit-identical to a sequential decode.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string_view>
#include <vector>

#include "runtime/trace_io.hpp"

namespace dsspy::runtime {

/// Leading magic of a DST1 stream ("DST1").
inline constexpr char kTraceBinaryMagic[4] = {'D', 'S', 'T', '1'};

/// Current format version.
inline constexpr std::uint32_t kTraceBinaryVersion = 1;

/// Events per chunk (the last chunk may be shorter).
inline constexpr std::size_t kTraceBinaryChunkEvents = 64 * 1024;

/// Serialize instances/events as DST1.  Returns the number of events
/// written.  Event sequences are emitted in `detail::event_write_order`.
std::size_t write_trace_binary(std::ostream& os,
                               const std::vector<InstanceInfo>& instances,
                               const ColumnStore& columns);

/// True if `bytes` starts with the DST1 magic.
[[nodiscard]] bool is_binary_trace(std::string_view bytes);

/// Stream-decode DST1 from `prefix` (bytes already pulled off the stream
/// by format sniffing) followed by `is`: instances, then one decoded chunk
/// at a time to `sink`.  Memory stays bounded by one chunk regardless of
/// trace size.  Same validation and errors as read_trace_columns;
/// returns the number of events delivered.
std::size_t read_trace_binary_stream(std::istream& is, std::string_view prefix,
                                     TraceSink& sink);

}  // namespace dsspy::runtime
