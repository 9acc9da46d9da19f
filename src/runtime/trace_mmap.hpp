// Zero-copy DST1 decode into event columns (DESIGN.md §11).
//
// The trace file is mmapped, chunk payloads decode in parallel straight
// into column rows (no AccessEvent record exists at any point), and
// ColumnStore::group — the grouping routine every producer shares — turns
// the decoded rows into per-instance ranges.  Files written by write_trace
// emit each instance's events as one contiguous ascending-seq block in id
// order, so grouping keeps the rows where they are; arbitrarily
// interleaved (externally produced) traces are scattered by instance.
// read_trace on DST1 bytes returns exactly what this decoder produces.
//
// Same validation surface as the streaming reader in trace_binary.cpp
// (shared via trace_codec.hpp) plus mmap-specific checks: unopenable or
// unmappable files and misaligned mapped regions are rejected with clear
// errors.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "runtime/column_store.hpp"
#include "runtime/instance_registry.hpp"

namespace dsspy::par {
class ThreadPool;
}

namespace dsspy::runtime {

/// A column-decoded trace: instance metadata plus the SoA event store.
struct ColumnTrace {
    std::vector<InstanceInfo> instances;
    ColumnStore columns;
};

/// True when the file exists and starts with the DST1 magic (cheap sniff;
/// CSV traces and unreadable files return false).
[[nodiscard]] bool is_binary_trace_file(const std::string& path);

/// Decode a complete DST1 buffer into columns.  Throws std::runtime_error
/// on truncated or corrupt input (bad magic/version, unterminated varint,
/// chunk size or event-count mismatch, out-of-range enum or field values)
/// and on a misaligned buffer, which the mmap path forwards here.  With a pool,
/// chunks decode concurrently into disjoint row ranges; the result is
/// bit-identical to a sequential decode.
[[nodiscard]] ColumnTrace read_trace_columns(std::string_view bytes,
                                             par::ThreadPool* pool = nullptr);

/// mmap `path` and decode without copying the file into memory; falls
/// back to a buffered read where mmap is unavailable.  Throws
/// std::runtime_error when the file cannot be opened, mapped, or parsed.
[[nodiscard]] ColumnTrace read_trace_columns_file(
    const std::string& path, par::ThreadPool* pool = nullptr);

}  // namespace dsspy::runtime
