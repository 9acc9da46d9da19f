#include "runtime/column_store.hpp"

#include <algorithm>
#include <numeric>
#include <type_traits>
#include <utility>

namespace dsspy::runtime {

/// The grouping routine behind both ColumnStore::group overloads.
/// `for_each_row(fn)` calls `fn(const AccessEvent&)` for every input row
/// in input order; it runs twice (count pass, scatter pass).
template <typename ForEachRow>
ColumnStore group_rows(ForEachRow&& for_each_row) {
    // Count pass: rows per instance.
    std::vector<std::size_t> cursor;
    for_each_row([&cursor](const AccessEvent& ev) {
        if (ev.instance == kInvalidInstance) return;
        if (ev.instance >= cursor.size()) cursor.resize(ev.instance + 1, 0);
        ++cursor[ev.instance];
    });

    ColumnStore out;
    out.ranges_.resize(cursor.size());
    std::size_t rows = 0;
    for (std::size_t id = 0; id < cursor.size(); ++id) {
        out.ranges_[id] = ColumnRange{rows, rows + cursor[id]};
        cursor[id] = rows;
        rows += out.ranges_[id].size();
    }
    out.resize(rows);

    // Scatter pass: each row goes to its instance's next free slot, so
    // rows of one instance keep their input order.
    for_each_row([&cursor, &out](const AccessEvent& ev) {
        if (ev.instance == kInvalidInstance) return;
        const std::size_t r = cursor[ev.instance]++;
        out.seq_[r] = ev.seq;
        out.time_ns_[r] = ev.time_ns;
        out.position_[r] = ev.position;
        out.size_[r] = ev.size;
        out.op_[r] = static_cast<std::uint8_t>(ev.op);
        out.thread_[r] = ev.thread;
    });

    // Ranges that interleave several producers (threads, chunks) are not
    // in seq order yet: stable-sort just those, so equal seqs keep their
    // input order.
    std::vector<std::size_t> perm;
    for (const ColumnRange range : out.ranges_) {
        const std::uint64_t* seq = out.seq_.data();
        if (std::is_sorted(seq + range.begin, seq + range.end)) continue;
        perm.resize(range.size());
        std::iota(perm.begin(), perm.end(), range.begin);
        std::stable_sort(perm.begin(), perm.end(),
                         [seq](std::size_t a, std::size_t b) {
                             return seq[a] < seq[b];
                         });
        const auto permute = [&perm, range](auto& column) {
            using T = typename std::decay_t<decltype(column)>::value_type;
            std::vector<T> sorted(perm.size());
            for (std::size_t i = 0; i < perm.size(); ++i)
                sorted[i] = column[perm[i]];
            std::copy(sorted.begin(), sorted.end(),
                      column.begin() +
                          static_cast<std::ptrdiff_t>(range.begin));
        };
        permute(out.seq_);
        permute(out.time_ns_);
        permute(out.position_);
        permute(out.size_);
        permute(out.op_);
        permute(out.thread_);
    }
    return out;
}

ColumnStore ColumnStore::group(
    std::span<const std::span<const AccessEvent>> blocks) {
    return group_rows([blocks](auto&& fn) {
        for (const std::span<const AccessEvent> block : blocks)
            for (const AccessEvent& ev : block) fn(ev);
    });
}

ColumnStore ColumnStore::group(std::span<const CaptureBlock> blocks) {
    return group_rows([blocks](auto&& fn) {
        for (const CaptureBlock& block : blocks)
            for (std::size_t i = 0; i < block.rows; ++i) fn(block.row(i));
    });
}

ColumnStore ColumnStore::group(ColumnStore rows,
                               std::span<const InstanceId> instances) {
    const std::size_t n = instances.size();
    const std::uint64_t* seq = rows.seq();
    bool grouped = true;
    for (std::size_t i = 1; i < n && grouped; ++i)
        grouped = instances[i - 1] < instances[i] ||
                  (instances[i - 1] == instances[i] && seq[i - 1] <= seq[i]);
    if (n > 0 && instances[n - 1] == kInvalidInstance) grouped = false;
    if (!grouped) {
        return group_rows([&rows, instances](auto&& fn) {
            for (std::size_t i = 0; i < instances.size(); ++i) {
                AccessEvent ev = rows.row(i);
                ev.instance = instances[i];
                fn(ev);
            }
        });
    }
    rows.ranges_.assign(n > 0 ? instances[n - 1] + std::size_t{1} : 0,
                        ColumnRange{});
    for (std::size_t begin = 0; begin < n;) {
        std::size_t end = begin + 1;
        while (end < n && instances[end] == instances[begin]) ++end;
        rows.ranges_[instances[begin]] = ColumnRange{begin, end};
        begin = end;
    }
    return rows;
}

void ColumnStore::resize(std::size_t rows) {
    seq_.resize(rows);
    time_ns_.resize(rows);
    position_.resize(rows);
    size_.resize(rows);
    op_.resize(rows);
    thread_.resize(rows);
}

}  // namespace dsspy::runtime
