// Tests for trace serialization: CSV and DST1 binary round trips, offline
// analysis, adversarial field content, and malformed-input rejection.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/dsspy.hpp"
#include "ds/ds.hpp"
#include "parallel/thread_pool.hpp"
#include "runtime/trace_binary.hpp"
#include "runtime/trace_io.hpp"
#include "runtime/trace_mmap.hpp"

namespace dsspy::runtime {
namespace {

/// Record a small but classification-rich session.
void drive_session(ProfilingSession& session) {
    ds::ProfiledList<std::string> list(
        &session, {"Trace.Test, with comma", "Run \"quoted\"", 3});
    for (int i = 0; i < 150; ++i)
        list.add("value," + std::to_string(i));
    for (std::size_t i = 0; i < list.count(); ++i) (void)list.get(i);

    ds::ProfiledDictionary<int, int> dict(&session, {"Trace.Test", "Aux", 9});
    dict.set(1, 2);
}

/// `events` grouped into a store, as one block.
ColumnStore store_of(std::span<const AccessEvent> events) {
    return ColumnStore::group({&events, 1});
}

/// Full structural equality of two deserialized traces (instances and the
/// per-instance event sequences).
void expect_traces_equal(const Trace& a, const Trace& b) {
    ASSERT_EQ(a.instances.size(), b.instances.size());
    for (std::size_t i = 0; i < a.instances.size(); ++i)
        EXPECT_EQ(a.instances[i], b.instances[i]) << "instance " << i;
    EXPECT_EQ(a.store.total_events(), b.store.total_events());
    const std::size_t slots =
        std::max(a.store.instance_slots(), b.store.instance_slots());
    for (std::size_t id = 0; id < slots; ++id) {
        const auto ea =
            core::instance_events(a.store, static_cast<InstanceId>(id));
        const auto eb =
            core::instance_events(b.store, static_cast<InstanceId>(id));
        ASSERT_EQ(ea.size(), eb.size()) << "instance " << id;
        for (std::size_t i = 0; i < ea.size(); ++i)
            EXPECT_EQ(ea[i], eb[i]) << "instance " << id << " event " << i;
    }
}

/// Serialize a session in `format` and parse the result back.
Trace round_trip(const ProfilingSession& session, TraceFormat format,
                 par::ThreadPool* pool = nullptr) {
    std::stringstream buffer;
    write_trace(buffer, session, format);
    return read_trace(buffer, pool);
}

/// read_trace over in-memory DST1 bytes.
Trace read_dst1(const std::string& bytes, par::ThreadPool* pool = nullptr) {
    std::istringstream in(bytes);
    return read_trace(in, pool);
}

TEST(TraceIo, RoundTripPreservesEverything) {
    ProfilingSession session;
    drive_session(session);
    session.stop();

    std::stringstream buffer;
    const std::size_t written = write_trace(buffer, session);
    EXPECT_EQ(written, session.store().total_events());

    const Trace trace = read_trace(buffer);
    ASSERT_EQ(trace.instances.size(), session.registry().size());
    EXPECT_EQ(trace.store.total_events(), session.store().total_events());

    for (const InstanceInfo& original : session.registry().snapshot()) {
        const InstanceInfo& restored = trace.instances[original.id];
        EXPECT_EQ(restored.id, original.id);
        EXPECT_EQ(restored.kind, original.kind);
        EXPECT_EQ(restored.type_name, original.type_name);
        EXPECT_EQ(restored.location, original.location);
        EXPECT_EQ(restored.deallocated, original.deallocated);

        const auto orig_events =
            core::instance_events(session.store(), original.id);
        const auto rest_events =
            core::instance_events(trace.store, original.id);
        ASSERT_EQ(orig_events.size(), rest_events.size());
        for (std::size_t i = 0; i < orig_events.size(); ++i)
            EXPECT_EQ(orig_events[i], rest_events[i]);
    }
}

TEST(TraceIo, OfflineAnalysisMatchesLiveAnalysis) {
    ProfilingSession session;
    drive_session(session);
    session.stop();

    const core::Dsspy analyzer;
    const auto live = analyzer.analyze(session);

    std::stringstream buffer;
    write_trace(buffer, session);
    const Trace trace = read_trace(buffer);
    const auto offline = analyzer.analyze(trace.instances, trace.store);

    EXPECT_EQ(live.total_instances(), offline.total_instances());
    EXPECT_EQ(live.list_array_instances(), offline.list_array_instances());
    EXPECT_EQ(live.flagged_instances(), offline.flagged_instances());
    EXPECT_EQ(live.use_case_counts(), offline.use_case_counts());
    ASSERT_EQ(live.instances().size(), offline.instances().size());
    for (std::size_t i = 0; i < live.instances().size(); ++i)
        EXPECT_EQ(live.instances()[i].patterns.size(),
                  offline.instances()[i].patterns.size());
}

TEST(TraceIo, EmptySessionRoundTrips) {
    ProfilingSession session;
    session.stop();
    std::stringstream buffer;
    EXPECT_EQ(write_trace(buffer, session), 0u);
    const Trace trace = read_trace(buffer);
    EXPECT_TRUE(trace.instances.empty());
    EXPECT_EQ(trace.store.total_events(), 0u);
}

TEST(TraceIo, FileRoundTrip) {
    ProfilingSession session;
    drive_session(session);
    session.stop();

    const std::string path = ::testing::TempDir() + "/dsspy_trace.csv";
    ASSERT_TRUE(write_trace_file(path, session));
    const Trace trace = read_trace_file(path);
    EXPECT_EQ(trace.store.total_events(), session.store().total_events());
    std::remove(path.c_str());
}

TEST(TraceIo, BinaryFileRoundTrip) {
    ProfilingSession session;
    drive_session(session);
    session.stop();

    const std::string path = ::testing::TempDir() + "/dsspy_trace.dst";
    ASSERT_TRUE(write_trace_file(path, session, TraceFormat::Binary));
    const Trace trace = read_trace_file(path);  // format auto-detected
    expect_traces_equal(trace, round_trip(session, TraceFormat::Csv));
    std::remove(path.c_str());
}

TEST(TraceIo, ReadMissingFileThrows) {
    EXPECT_THROW((void)read_trace_file("/nonexistent/dsspy.csv"),
                 std::runtime_error);
}

TEST(TraceIo, WriteToUnwritablePathReportsFailure) {
    ProfilingSession session;
    session.stop();
    EXPECT_FALSE(write_trace_file("/nonexistent/dir/dsspy.csv", session));
    EXPECT_FALSE(write_trace_file("/nonexistent/dir/dsspy.dst", session,
                                  TraceFormat::Binary));
}

TEST(TraceIo, RejectsUnknownRecordTag) {
    std::stringstream buffer("X,1,2,3\n");
    EXPECT_THROW((void)read_trace(buffer), std::runtime_error);
}

TEST(TraceIo, RejectsWrongFieldCount) {
    std::stringstream buffer("E,1,2,3\n");
    EXPECT_THROW((void)read_trace(buffer), std::runtime_error);
}

TEST(TraceIo, RejectsNonNumericField) {
    std::stringstream buffer("E,abc,2,0,1,0,1,0\n");
    EXPECT_THROW((void)read_trace(buffer), std::runtime_error);
}

TEST(TraceIo, RejectsOutOfRangeEnums) {
    std::stringstream bad_op("E,1,2,0,250,0,1,0\n");
    EXPECT_THROW((void)read_trace(bad_op), std::runtime_error);
    std::stringstream bad_kind("I,0,99,List<Int32>,C,M,1,0\n");
    EXPECT_THROW((void)read_trace(bad_kind), std::runtime_error);
}

TEST(TraceIo, RejectsUnterminatedQuote) {
    std::stringstream buffer("I,0,0,\"List<Int32>,C,M,1,0\n");
    EXPECT_THROW((void)read_trace(buffer), std::runtime_error);
}

TEST(TraceIo, SkipsBlankLines) {
    std::stringstream buffer(
        "I,0,0,List<Int32>,C,M,1,0\n\nE,1,10,0,2,0,1,0\n\n");
    const Trace trace = read_trace(buffer);
    EXPECT_EQ(trace.instances.size(), 1u);
    EXPECT_EQ(trace.store.total_events(), 1u);
}

TEST(TraceIo, HandlesQuotedFieldsWithCommasAndQuotes) {
    std::stringstream buffer(
        "I,0,0,\"List<Pair<A, B>>\",\"Cls \"\"X\"\"\",M,1,1\n");
    const Trace trace = read_trace(buffer);
    ASSERT_EQ(trace.instances.size(), 1u);
    EXPECT_EQ(trace.instances[0].type_name, "List<Pair<A, B>>");
    EXPECT_EQ(trace.instances[0].location.class_name, "Cls \"X\"");
    EXPECT_TRUE(trace.instances[0].deallocated);
}

// Regression: escape() quotes fields containing '\n', but the reader used
// to split on physical lines, so a newline inside a name blew up the
// field count on re-import.
TEST(TraceIo, NewlineInNamesRoundTrips) {
    ProfilingSession session;
    ds::ProfiledList<int> list(
        &session, {"Gen\nerated.Cls", "lambda\nat line 7", 42});
    list.add(1);
    session.stop();

    for (const TraceFormat format : {TraceFormat::Csv, TraceFormat::Binary}) {
        const Trace trace = round_trip(session, format);
        ASSERT_EQ(trace.instances.size(), 1u);
        EXPECT_EQ(trace.instances[0].location.class_name, "Gen\nerated.Cls");
        EXPECT_EQ(trace.instances[0].location.method, "lambda\nat line 7");
        EXPECT_EQ(trace.store.total_events(),
                  session.store().total_events());
    }
}

// Store events whose instance id has no registry entry (externally built
// traces) must survive a write/read cycle instead of being dropped.
TEST(TraceIo, OrphanStoreEventsSurviveRoundTrip) {
    std::vector<InstanceInfo> instances;
    InstanceInfo known;
    known.id = 0;
    known.kind = DsKind::List;
    known.type_name = "List<Int32>";
    known.location = {"Cls", "M", 1};
    instances.push_back(known);

    const AccessEvent known_ev{1, 10, 0, /*instance=*/0, 1, OpKind::Add, 0};
    const AccessEvent orphan_ev{2, 20, 3, /*instance=*/5, 7, OpKind::Get, 1};
    const AccessEvent events[] = {known_ev, orphan_ev};
    const ColumnStore store = store_of(events);

    for (const TraceFormat format : {TraceFormat::Csv, TraceFormat::Binary}) {
        std::stringstream buffer;
        EXPECT_EQ(write_trace(buffer, instances, store, format), 2u);
        const Trace trace = read_trace(buffer);
        EXPECT_EQ(trace.store.total_events(), 2u);
        ASSERT_EQ(core::instance_events(trace.store, 5).size(), 1u);
        EXPECT_EQ(core::instance_events(trace.store, 5)[0], orphan_ev);
        ASSERT_EQ(core::instance_events(trace.store, 0).size(), 1u);
        EXPECT_EQ(core::instance_events(trace.store, 0)[0], known_ev);
    }
}

// ------------------------------------------------------------ adversarial

TEST(TraceIoAdversarial, HostileNamesRoundTripInBothFormats) {
    const std::string hostile[] = {
        "plain",
        "comma, separated, name",
        "quote \"in\" the middle",
        "\"fully quoted\"",
        "newline\nin the middle",
        "both, \"and\"\nmore,\n\"even\" this",
        "trailing newline\n",
        "UTF-8: δομή δεδομένων 🚀 ラムダ",
        ",",
        "\"",
        "\n",
        std::string("embedded\0NUL-free? no: keep bytes", 33),
    };
    ProfilingSession session;
    for (const std::string& name : hostile) {
        ds::ProfiledList<int> list(&session, {name, name + "#m", 7});
        list.add(1);
    }
    session.stop();

    for (const TraceFormat format : {TraceFormat::Csv, TraceFormat::Binary}) {
        const Trace trace = round_trip(session, format);
        ASSERT_EQ(trace.instances.size(), std::size(hostile));
        for (std::size_t i = 0; i < std::size(hostile); ++i) {
            EXPECT_EQ(trace.instances[i].location.class_name, hostile[i])
                << "format " << static_cast<int>(format) << " name " << i;
            EXPECT_EQ(trace.instances[i].location.method, hostile[i] + "#m");
        }
    }
}

TEST(TraceIoAdversarial, ExtremeFieldValuesRoundTrip) {
    std::vector<InstanceInfo> instances;
    InstanceInfo info;
    info.id = 0;
    info.kind = DsKind::Array;
    info.type_name = "Int64[]";
    info.location = {"Cls", "M", std::numeric_limits<std::uint32_t>::max()};
    instances.push_back(info);

    constexpr std::uint64_t u64max = std::numeric_limits<std::uint64_t>::max();
    const AccessEvent extremes[] = {
        // seq, time_ns, position, instance, size, op, thread
        {0, 0, std::numeric_limits<std::int64_t>::min(), 0, 0, OpKind::Get, 0},
        {1, u64max, std::numeric_limits<std::int64_t>::max(), 0,
         std::numeric_limits<std::uint32_t>::max(), OpKind::Resize,
         std::numeric_limits<ThreadId>::max()},
        {u64max, 1, kWholeContainer, 0, 1, OpKind::Clear, 1},
    };
    const ColumnStore store = store_of(extremes);

    for (const TraceFormat format : {TraceFormat::Csv, TraceFormat::Binary}) {
        std::stringstream buffer;
        write_trace(buffer, instances, store, format);
        const Trace trace = read_trace(buffer);
        ASSERT_EQ(trace.instances.size(), 1u);
        EXPECT_EQ(trace.instances[0], info);
        const auto events = core::instance_events(trace.store, 0);
        ASSERT_EQ(events.size(), 3u);
        // The reader orders each instance by seq; compare against that.
        EXPECT_EQ(events[0], extremes[0]);
        EXPECT_EQ(events[1], extremes[1]);
        EXPECT_EQ(events[2], extremes[2]);
    }
}

TEST(TraceIoAdversarial, CrossFormatConversionsAgree) {
    ProfilingSession session;
    drive_session(session);
    session.stop();

    const Trace from_csv = round_trip(session, TraceFormat::Csv);
    const Trace from_binary = round_trip(session, TraceFormat::Binary);
    expect_traces_equal(from_csv, from_binary);

    // And converting the re-read CSV trace to binary (the `dsspy convert`
    // path: explicit instances + store) is still lossless.
    std::stringstream converted;
    write_trace(converted, from_csv.instances, from_csv.store,
                TraceFormat::Binary);
    std::stringstream converted_copy(converted.str());
    expect_traces_equal(read_trace(converted_copy), from_binary);
}

// ------------------------------------------------------------ DST1 binary

/// A multi-chunk session: enough synthetic events to span several 64K
/// chunks without driving real containers.
Trace multi_chunk_trace() {
    Trace trace;
    for (InstanceId id = 0; id < 8; ++id) {
        InstanceInfo info;
        info.id = id;
        info.kind = DsKind::List;
        info.type_name = "List<Int32>";
        info.location = {"Chunky.Cls", "m" + std::to_string(id), id};
        trace.instances.push_back(std::move(info));
    }
    std::vector<AccessEvent> batch;
    constexpr std::size_t kEvents = 3 * kTraceBinaryChunkEvents / 2 + 137;
    batch.reserve(kEvents);
    std::uint64_t seq = 0;
    for (std::size_t i = 0; i < kEvents; ++i) {
        AccessEvent ev;
        ev.seq = seq++;
        ev.time_ns = 1'000'000 + i * 17;
        ev.instance = static_cast<InstanceId>(i % 8);
        ev.op = static_cast<OpKind>(i % kOpKindCount);
        ev.position = static_cast<std::int64_t>(i % 1024) - 1;
        ev.size = static_cast<std::uint32_t>(i % 4096);
        ev.thread = static_cast<ThreadId>(i % 4);
        batch.push_back(ev);
    }
    trace.store = store_of(batch);
    return trace;
}

std::string binary_bytes(const Trace& trace) {
    std::ostringstream out;
    write_trace_binary(out, trace.instances, trace.store);
    return std::move(out).str();
}

TEST(TraceIoBinary, MultiChunkRoundTrips) {
    const Trace original = multi_chunk_trace();
    const std::string binary = binary_bytes(original);
    ASSERT_TRUE(is_binary_trace(binary));
    const Trace decoded = read_dst1(binary);
    expect_traces_equal(decoded, original);
}

TEST(TraceIoBinary, CompactEncodingBeatsCsvSize) {
    // A realistic capture (append phase + read sweeps, the pattern the
    // control-byte encoding is built for): the acceptance bar for the
    // 1M-event bench is ≥5× smaller than CSV, and a genuine workload must
    // clear it at test scale too.
    ProfilingSession session;
    {
        ds::ProfiledList<int> list(&session, {"Size.Test", "Fill", 1});
        for (int i = 0; i < 20000; ++i) list.add(i);
        for (int sweep = 0; sweep < 2; ++sweep)
            for (std::size_t i = 0; i < list.count(); ++i) (void)list.get(i);
    }
    session.stop();

    std::ostringstream csv;
    write_trace(csv, session, TraceFormat::Csv);
    std::ostringstream binary;
    write_trace(binary, session, TraceFormat::Binary);
    EXPECT_GE(csv.str().size(), 5 * binary.str().size())
        << "csv=" << csv.str().size() << " binary=" << binary.str().size();
}

TEST(TraceIoBinary, ParallelDecodeIsBitIdenticalToSequential) {
    const std::string binary = binary_bytes(multi_chunk_trace());
    const Trace sequential = read_dst1(binary, nullptr);
    par::ThreadPool pool(4);
    const Trace parallel = read_dst1(binary, &pool);
    expect_traces_equal(sequential, parallel);
}

TEST(TraceIoBinary, AutoDetectsFormatFromStream) {
    const Trace original = multi_chunk_trace();
    std::stringstream buffer;
    write_trace(buffer, original.instances, original.store,
                TraceFormat::Binary);
    const Trace decoded = read_trace(buffer);
    expect_traces_equal(decoded, original);
}

TEST(TraceIoBinary, RejectsBadMagicAndVersion) {
    std::string bytes = binary_bytes(multi_chunk_trace());
    {
        std::string bad = bytes;
        bad[3] = '9';  // "DST9"
        std::stringstream in(bad);
        // Without the DST1 magic the reader falls back to CSV — which
        // rejects the garbage as a malformed record, not a crash.
        EXPECT_THROW((void)read_trace(in), std::runtime_error);
    }
    {
        std::string bad = bytes;
        bad[4] = 0x7F;  // version word
        EXPECT_THROW((void)read_dst1(bad), std::runtime_error);
    }
}

TEST(TraceIoBinary, RejectsTruncation) {
    const std::string bytes = binary_bytes(multi_chunk_trace());
    // Chop at every interesting boundary: inside the header, inside the
    // instance table, inside a chunk header, inside a chunk payload, and
    // just before the final byte.
    for (const std::size_t keep :
         {std::size_t{3}, std::size_t{11}, std::size_t{30}, std::size_t{200},
          bytes.size() / 2, bytes.size() - 1}) {
        ASSERT_LT(keep, bytes.size());
        EXPECT_THROW((void)read_dst1(bytes.substr(0, keep)),
                     std::runtime_error)
            << "keep=" << keep;
    }
}

TEST(TraceIoBinary, RejectsTrailingGarbage) {
    std::string bytes = binary_bytes(multi_chunk_trace());
    bytes += "extra";
    EXPECT_THROW((void)read_dst1(bytes), std::runtime_error);
}

TEST(TraceIoBinary, RejectsBadVarint) {
    // Header declaring one instance, then an id varint that never
    // terminates (11 continuation bytes).
    std::string bytes(kTraceBinaryMagic, sizeof(kTraceBinaryMagic));
    const auto put_u32 = [&](std::uint32_t v) {
        for (int i = 0; i < 4; ++i)
            bytes += static_cast<char>((v >> (8 * i)) & 0xFF);
    };
    const auto put_u64 = [&](std::uint64_t v) {
        for (int i = 0; i < 8; ++i)
            bytes += static_cast<char>((v >> (8 * i)) & 0xFF);
    };
    put_u32(kTraceBinaryVersion);
    put_u64(1);  // instance_count
    put_u64(0);  // event_count
    bytes.append(11, static_cast<char>(0x80));
    EXPECT_THROW((void)read_dst1(bytes), std::runtime_error);
}

TEST(TraceIoBinary, RejectsCorruptChunkCounts) {
    const Trace original = multi_chunk_trace();
    std::string bytes = binary_bytes(original);
    // The first chunk header sits right after the instance table.  Find it
    // by re-encoding the instance table length: header is 24 bytes, then
    // instances; chunk count lives at a fixed offset we can recover by
    // scanning for the first chunk's u32 count == kTraceBinaryChunkEvents.
    const std::uint32_t expected =
        static_cast<std::uint32_t>(kTraceBinaryChunkEvents);
    std::size_t off = 24;
    while (off + 4 <= bytes.size()) {
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= std::uint32_t{static_cast<unsigned char>(bytes[off + i])}
                 << (8 * i);
        if (v == expected) break;
        ++off;
    }
    ASSERT_LT(off + 4, bytes.size());
    bytes[off] = static_cast<char>(0xFF);  // inflate the chunk event count
    EXPECT_THROW((void)read_dst1(bytes), std::runtime_error);
}

// --------------------------------------------------- columnar DST1 decode

/// The column decode must agree row-for-row with a trace read another
/// way: identical per-instance ranges, identical field values (seq
/// included) in identical order.
void expect_columns_match_trace(const ColumnTrace& cols, const Trace& aos) {
    ASSERT_EQ(cols.instances.size(), aos.instances.size());
    for (std::size_t i = 0; i < cols.instances.size(); ++i)
        EXPECT_EQ(cols.instances[i], aos.instances[i]) << "instance " << i;
    ASSERT_EQ(cols.columns.total_events(), aos.store.total_events());
    const std::size_t slots =
        std::max(cols.columns.instance_slots(), aos.store.instance_slots());
    for (std::size_t id = 0; id < slots; ++id) {
        const auto events =
            core::instance_events(aos.store, static_cast<InstanceId>(id));
        const ColumnRange range =
            cols.columns.range(static_cast<InstanceId>(id));
        ASSERT_EQ(range.size(), events.size()) << "instance " << id;
        for (std::size_t i = 0; i < events.size(); ++i) {
            const std::size_t row = range.begin + i;
            EXPECT_EQ(cols.columns.seq()[row], events[i].seq);
            EXPECT_EQ(cols.columns.time_ns()[row], events[i].time_ns);
            EXPECT_EQ(cols.columns.position()[row], events[i].position);
            EXPECT_EQ(cols.columns.sizes()[row], events[i].size);
            EXPECT_EQ(cols.columns.op()[row],
                      static_cast<std::uint8_t>(events[i].op));
            EXPECT_EQ(cols.columns.thread()[row], events[i].thread);
        }
    }
}

TEST(TraceIoColumns, GroupedFastPathMatchesAoSReader) {
    // write_trace emits each instance as one contiguous ascending-seq
    // block, so the decoded rows stay in place.  The CSV reader, which
    // groups AccessEvent records, is the independent reference.
    ProfilingSession session;
    drive_session(session);
    session.stop();
    std::ostringstream out;
    write_trace(out, session, TraceFormat::Binary);
    const std::string bytes = std::move(out).str();

    expect_columns_match_trace(read_trace_columns(bytes),
                               round_trip(session, TraceFormat::Csv));
}

TEST(TraceIoColumns, ParallelDecodeIsBitIdenticalToSequential) {
    const std::string bytes = binary_bytes(multi_chunk_trace());
    const ColumnTrace sequential = read_trace_columns(bytes);
    par::ThreadPool pool(4);
    const ColumnTrace parallel = read_trace_columns(bytes, &pool);
    ASSERT_EQ(parallel.columns.total_events(),
              sequential.columns.total_events());
    for (std::size_t i = 0; i < sequential.columns.total_events(); ++i)
        EXPECT_EQ(parallel.columns.row(i), sequential.columns.row(i));
}

TEST(TraceIoColumns, FileReadMatchesBufferRead) {
    const Trace original = multi_chunk_trace();
    const std::string path = ::testing::TempDir() + "/dsspy_cols.dst";
    std::ofstream out(path, std::ios::binary);
    write_trace_binary(out, original.instances, original.store);
    out.close();
    ASSERT_TRUE(is_binary_trace_file(path));

    const ColumnTrace mapped = read_trace_columns_file(path);
    expect_columns_match_trace(mapped, original);
    std::remove(path.c_str());
}

TEST(TraceIoColumns, IsBinaryTraceFileSniffs) {
    EXPECT_FALSE(is_binary_trace_file("/nonexistent/dsspy.dst"));
    const std::string path = ::testing::TempDir() + "/dsspy_not_dst.csv";
    std::ofstream(path) << "I,0,0,List<Int32>,C,M,1,0\n";
    EXPECT_FALSE(is_binary_trace_file(path));
    std::remove(path.c_str());
}

TEST(TraceIoColumns, RejectsTruncatedChunkHeader) {
    const Trace original = multi_chunk_trace();
    const std::string bytes = binary_bytes(original);
    // Locate the first chunk header (u32 count == kTraceBinaryChunkEvents)
    // and chop the file inside it.
    const std::uint32_t expected =
        static_cast<std::uint32_t>(kTraceBinaryChunkEvents);
    std::size_t off = 24;
    while (off + 4 <= bytes.size()) {
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= std::uint32_t{static_cast<unsigned char>(bytes[off + i])}
                 << (8 * i);
        if (v == expected) break;
        ++off;
    }
    ASSERT_LT(off + 4, bytes.size());
    try {
        (void)read_trace_columns(bytes.substr(0, off + 4));
        FAIL() << "truncated chunk header accepted";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("truncated chunk header"),
                  std::string::npos)
            << e.what();
    }
}

TEST(TraceIoColumns, RejectsCorruptChunkCounts) {
    std::string bytes = binary_bytes(multi_chunk_trace());
    const std::uint32_t expected =
        static_cast<std::uint32_t>(kTraceBinaryChunkEvents);
    std::size_t off = 24;
    while (off + 4 <= bytes.size()) {
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= std::uint32_t{static_cast<unsigned char>(bytes[off + i])}
                 << (8 * i);
        if (v == expected) break;
        ++off;
    }
    ASSERT_LT(off + 4, bytes.size());
    bytes[off] = static_cast<char>(0xFF);  // inflate the chunk event count
    EXPECT_THROW((void)read_trace_columns(bytes), std::runtime_error);
}

TEST(TraceIoColumns, RejectsTruncationAtEveryBoundary) {
    const std::string bytes = binary_bytes(multi_chunk_trace());
    for (const std::size_t keep :
         {std::size_t{3}, std::size_t{11}, std::size_t{30}, std::size_t{200},
          bytes.size() / 2, bytes.size() - 1}) {
        ASSERT_LT(keep, bytes.size());
        EXPECT_THROW((void)read_trace_columns(bytes.substr(0, keep)),
                     std::runtime_error)
            << "keep=" << keep;
    }
}

TEST(TraceIoColumns, RejectsTrailingGarbage) {
    std::string bytes = binary_bytes(multi_chunk_trace());
    bytes += "extra";
    EXPECT_THROW((void)read_trace_columns(bytes), std::runtime_error);
}

TEST(TraceIoColumns, RejectsMisalignedRegion) {
    const std::string bytes = binary_bytes(multi_chunk_trace());
    // An mmapped region is page-aligned by construction; a buffer shifted
    // off 8-byte alignment simulates a broken mapping and must be refused
    // up front, not decoded at a skew.
    std::string padded = "x" + bytes;
    const std::string_view skewed(padded.data() + 1, bytes.size());
    ASSERT_NE(reinterpret_cast<std::uintptr_t>(skewed.data()) %
                  alignof(std::uint64_t),
              0u);
    try {
        (void)read_trace_columns(skewed);
        FAIL() << "misaligned region accepted";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("misaligned mmap region"),
                  std::string::npos)
            << e.what();
    }
}

TEST(TraceIoColumns, MissingFileThrows) {
    EXPECT_THROW((void)read_trace_columns_file("/nonexistent/dsspy.dst"),
                 std::runtime_error);
}

// ------------------------------------------------- the grouping routine

/// What ColumnStore::group must produce from `events` (in input order):
/// instances in id order, each instance's rows stably sorted by seq, rows
/// on kInvalidInstance dropped.
std::vector<AccessEvent> grouped_oracle(std::vector<AccessEvent> events) {
    std::erase_if(events, [](const AccessEvent& ev) {
        return ev.instance == kInvalidInstance;
    });
    std::stable_sort(events.begin(), events.end(),
                     [](const AccessEvent& a, const AccessEvent& b) {
                         if (a.instance != b.instance)
                             return a.instance < b.instance;
                         return a.seq < b.seq;
                     });
    return events;
}

/// Row-for-row equality of `columns` with an oracle ordering, ranges
/// included.
void expect_columns_equal(const ColumnStore& columns,
                          const std::vector<AccessEvent>& expected) {
    ASSERT_EQ(columns.total_events(), expected.size());
    std::size_t row = 0;
    for (InstanceId id = 0; id < columns.instance_slots(); ++id) {
        const ColumnRange range = columns.range(id);
        EXPECT_EQ(range.begin, row) << "instance " << id;
        for (std::size_t r = range.begin; r < range.end; ++r, ++row) {
            AccessEvent got = columns.row(r);
            got.instance = id;
            EXPECT_EQ(got, expected[r]) << "row " << r;
        }
    }
    EXPECT_EQ(row, expected.size());
}

/// Interleaved events with out-of-order and duplicate seqs per instance.
std::vector<AccessEvent> interleaved_events(std::size_t n,
                                            InstanceId instances) {
    std::vector<AccessEvent> events(n);
    for (std::size_t i = 0; i < n; ++i) {
        AccessEvent& ev = events[i];
        ev.seq = (i * 7) % (n / 2);  // every seq twice, shuffled
        ev.time_ns = 1000 + i * 3;
        ev.instance = static_cast<InstanceId>(i % instances);
        ev.op = (i % 3 == 0) ? OpKind::Add : OpKind::Get;
        ev.position = static_cast<std::int64_t>(i / 2) - 1;
        ev.size = static_cast<std::uint32_t>(i / 2);
        ev.thread = static_cast<ThreadId>(i % 3);
    }
    return events;
}

TEST(ColumnGroup, GroupsByInstanceAndSortsBySeq) {
    const AccessEvent batch[] = {
        {.seq = 2, .time_ns = 20, .position = 1, .instance = 0, .size = 2,
         .op = OpKind::Get, .thread = 0},
        {.seq = 1, .time_ns = 10, .position = 0, .instance = 0, .size = 1,
         .op = OpKind::Add, .thread = 0},
        {.seq = 3, .time_ns = 30, .position = 0, .instance = 2, .size = 1,
         .op = OpKind::Add, .thread = 1}};
    const std::span<const AccessEvent> block(batch);
    const ColumnStore store = ColumnStore::group({&block, 1});
    EXPECT_EQ(store.total_events(), 3u);
    EXPECT_EQ(store.instance_slots(), 3u);
    const auto ev0 = core::instance_events(store, 0);
    ASSERT_EQ(ev0.size(), 2u);
    EXPECT_EQ(ev0[0].seq, 1u);  // sorted by seq
    EXPECT_EQ(ev0[1].seq, 2u);
    EXPECT_EQ(ev0[0].instance, 0u);
    EXPECT_TRUE(store.range(1).empty());  // silent id in the gap
    EXPECT_EQ(core::instance_events(store, 2).size(), 1u);
    EXPECT_TRUE(store.range(77).empty());  // out of range -> empty
    EXPECT_TRUE(core::instance_events(store, 77).empty());
}

TEST(ColumnGroup, IgnoresInvalidInstance) {
    AccessEvent ev;
    ev.instance = kInvalidInstance;
    const std::span<const AccessEvent> block(&ev, 1);
    const ColumnStore store = ColumnStore::group({&block, 1});
    EXPECT_EQ(store.total_events(), 0u);
    EXPECT_EQ(store.instance_slots(), 0u);
}

TEST(ColumnGroup, ScatterIsStableAcrossBlocksAndDropsInvalidRows) {
    std::vector<AccessEvent> events = interleaved_events(60, 3);
    events[17].instance = kInvalidInstance;
    const std::span<const AccessEvent> all(events);
    const std::span<const AccessEvent> blocks[] = {
        all.subspan(0, 25), all.subspan(25, 0), all.subspan(25)};
    const ColumnStore columns = ColumnStore::group(blocks);
    EXPECT_EQ(columns.instance_slots(), 3u);
    expect_columns_equal(columns, grouped_oracle(events));
}

TEST(ColumnGroup, DecodedRowsGroupLikeEvents) {
    const auto decoded_rows = [](const std::vector<AccessEvent>& events,
                                 std::vector<InstanceId>& instances) {
        ColumnStore rows;
        rows.resize(events.size());
        instances.clear();
        for (std::size_t i = 0; i < events.size(); ++i) {
            rows.mutable_seq()[i] = events[i].seq;
            rows.mutable_time_ns()[i] = events[i].time_ns;
            rows.mutable_position()[i] = events[i].position;
            rows.mutable_sizes()[i] = events[i].size;
            rows.mutable_op()[i] = static_cast<std::uint8_t>(events[i].op);
            rows.mutable_thread()[i] = events[i].thread;
            instances.push_back(events[i].instance);
        }
        return rows;
    };
    std::vector<InstanceId> instances;
    // Interleaved rows take the scatter.
    const std::vector<AccessEvent> events = interleaved_events(48, 4);
    ColumnStore rows = decoded_rows(events, instances);
    expect_columns_equal(ColumnStore::group(std::move(rows), instances),
                         grouped_oracle(events));
    // Already grouped rows (equal seqs included) stay in place.
    const std::vector<AccessEvent> grouped = grouped_oracle(events);
    rows = decoded_rows(grouped, instances);
    expect_columns_equal(ColumnStore::group(std::move(rows), instances),
                         grouped);
    // Empty input.
    EXPECT_EQ(ColumnStore::group(ColumnStore{}, {}).total_events(), 0u);
}

TEST(ColumnGroup, ShuffledCsvWithDuplicateSeqsMatchesAfterConvert) {
    std::vector<AccessEvent> events = interleaved_events(40, 2);
    std::ostringstream csv;
    for (InstanceId id = 0; id < 2; ++id)
        csv << "I," << id << ",0,List<Int32>,Cls,M" << id << ",1,0\n";
    for (const AccessEvent& ev : events) detail::write_csv_event_record(csv, ev);
    std::istringstream in(csv.str());
    const Trace trace = read_trace(in);
    expect_columns_equal(trace.store, grouped_oracle(events));

    std::ostringstream dst1;
    write_trace(dst1, trace.instances, trace.store, TraceFormat::Binary);
    const ColumnTrace converted = read_trace_columns(dst1.str());
    expect_columns_equal(converted.columns, grouped_oracle(events));
}

/// Hand-encode `events` as DST1 in their given order (our writers always
/// group by instance, so an interleaved file — what an external producer
/// recording in capture order would emit — needs its own encoder).  Every
/// event uses control byte 0: all fields explicit, valid but uncompressed.
std::string encode_interleaved_dst1(const std::vector<AccessEvent>& events,
                                    InstanceId instances) {
    std::string bytes(kTraceBinaryMagic, sizeof(kTraceBinaryMagic));
    const auto put_fixed = [](std::string& out, std::uint64_t v, int width) {
        for (int i = 0; i < width; ++i)
            out += static_cast<char>((v >> (8 * i)) & 0xFF);
    };
    const auto put_varint = [](std::string& out, std::uint64_t v) {
        while (v >= 0x80) {
            out += static_cast<char>((v & 0x7F) | 0x80);
            v >>= 7;
        }
        out += static_cast<char>(v);
    };
    const auto put_delta = [&](std::string& out, std::uint64_t cur,
                               std::uint64_t prev) {
        const auto d = static_cast<std::int64_t>(cur - prev);
        put_varint(out, (static_cast<std::uint64_t>(d) << 1) ^
                            static_cast<std::uint64_t>(d >> 63));
    };
    const auto put_string = [&](const std::string& str) {
        put_varint(bytes, str.size());
        bytes += str;
    };

    put_fixed(bytes, kTraceBinaryVersion, 4);
    put_fixed(bytes, instances, 8);
    put_fixed(bytes, events.size(), 8);
    for (InstanceId id = 0; id < instances; ++id) {
        put_varint(bytes, id);
        put_varint(bytes, static_cast<std::uint64_t>(DsKind::List));
        put_varint(bytes, 10 + id);  // location.position
        put_string("List<Int32>");
        put_string("Interleaved.Cls");
        put_string("m" + std::to_string(id));
        bytes += static_cast<char>(0);  // deallocated
    }

    std::string payload;
    AccessEvent prev;  // chunk baseline: all-zero fields, instance 0, op Get
    prev.instance = 0;
    prev.op = OpKind::Get;
    for (const AccessEvent& ev : events) {
        payload += static_cast<char>(0);  // control: everything explicit
        put_delta(payload, ev.seq, prev.seq);
        put_delta(payload, ev.time_ns, prev.time_ns);
        put_delta(payload, ev.instance, prev.instance);
        payload += static_cast<char>(ev.op);
        put_delta(payload, static_cast<std::uint64_t>(ev.position),
                  static_cast<std::uint64_t>(prev.position));
        put_delta(payload, ev.size, prev.size);
        put_delta(payload, ev.thread, prev.thread);
        prev = ev;
    }
    put_fixed(bytes, events.size(), 4);
    put_fixed(bytes, payload.size(), 4);
    return bytes + payload;
}

TEST(ColumnGroup, InterleavedDst1FileMatchesAcrossReaders) {
    const std::vector<AccessEvent> events = interleaved_events(40, 2);
    const std::string bytes = encode_interleaved_dst1(events, 2);
    const std::string path = ::testing::TempDir() + "/dsspy_interleaved.dst";
    std::ofstream(path, std::ios::binary) << bytes;

    const std::vector<AccessEvent> expected = grouped_oracle(events);
    const ColumnTrace mapped = read_trace_columns_file(path);
    ASSERT_EQ(mapped.instances.size(), 2u);
    expect_columns_equal(mapped.columns, expected);
    const Trace read = read_dst1(bytes);
    expect_columns_equal(read.store, expected);
    expect_columns_match_trace(mapped, read);
    std::remove(path.c_str());
}

}  // namespace
}  // namespace dsspy::runtime
