// Figure 2 — runtime profile of the paper's 10-element list example:
//
//   List<int> list = new List<int>(10);
//   for (int i = 0; i < 10; i++)  list.Add(i);
//   for (int i = 9; i >= 0; i--)  Debug.Write(list[i]);
//
// Prints the captured five-field events, the ASCII chart, and writes the
// SVG rendition to figure2_profile.svg.
#include <iostream>

#include "core/column_analysis.hpp"
#include "core/dsspy.hpp"
#include "ds/ds.hpp"
#include "support/table.hpp"
#include "viz/ascii_chart.hpp"
#include "viz/svg.hpp"

int main() {
    using namespace dsspy;
    using support::Table;

    runtime::ProfilingSession session;
    runtime::InstanceId id;
    {
        // The exact snippet from the paper.
        ds::ProfiledList<int> list(&session, {"Paper.Example", "Main", 1},
                                   10);
        for (int i = 0; i < 10; ++i) list.add(i);
        for (int i = 9; i >= 0; --i)
            (void)list.get(static_cast<std::size_t>(i));
        id = list.instance_id();
    }
    session.stop();

    const runtime::ColumnStore& store = session.store();
    const runtime::ColumnRange range = store.range(id);
    const std::vector<std::uint8_t> types = core::access_types(store);
    const core::ColumnSlice slice =
        core::make_slice(store, range, types.data());
    const core::RuntimeProfile profile(session.registry().info(id),
                                       core::aggregates_from_columns(slice));

    std::cout << "Figure 2 - Runtime profile for the example list\n\n";
    Table table({"#", "Op", "Type", "Position", "Size", "Thread"});
    for (std::size_t r = range.begin; r < range.end; ++r) {
        const runtime::AccessEvent ev = store.row(r);
        table.add_row({std::to_string(r - range.begin),
                       std::string(runtime::op_name(ev.op)),
                       std::string(core::access_type_name(
                           core::derive_access_type(ev.op))),
                       std::to_string(ev.position),
                       std::to_string(ev.size),
                       std::to_string(ev.thread)});
    }
    table.print(std::cout);

    std::cout << "\nProfile chart (bars = accessed index, '.' = size):\n";
    viz::ChartOptions options;
    options.max_width = 40;
    options.max_height = 11;
    std::cout << viz::render_profile_bars(profile, store, options);

    const std::string svg = viz::profile_to_svg(profile, store);
    if (viz::write_file("figure2_profile.svg", svg))
        std::cout << "\nWrote figure2_profile.svg\n";

    // The two patterns the paper points out in this profile.
    const auto patterns =
        core::detect_patterns_columns(slice, core::DetectorConfig{});
    std::cout << "\nDetected patterns (paper: two separate access "
                 "patterns):\n";
    for (const core::Pattern& p : patterns)
        std::cout << "  " << core::pattern_name(p.kind) << " of length "
                  << p.length << " (positions " << p.start_pos << " -> "
                  << p.end_pos << ")\n";
    return 0;
}
