// Self-contained HTML report: the engineer-facing deliverable.
//
// DSspy "visualizes the results to the software engineer" — this renders a
// complete analysis into one HTML file: the search-space summary, a
// sortable instance table, and per-flagged-instance sections with the
// embedded SVG runtime-profile chart, the detected patterns, and the use
// cases with reasons and recommended actions.  No external assets.
#pragma once

#include <iosfwd>
#include <string>

#include "core/dsspy.hpp"

namespace dsspy::viz {

/// Options for the HTML report.
struct HtmlReportOptions {
    std::string title = "DSspy analysis report";
    /// Also render charts for unflagged instances with >= this many
    /// events (0 = flagged instances only).
    std::size_t chart_unflagged_min_events = 0;
    /// Downsampling width of the embedded SVG charts.
    std::size_t svg_columns = 400;
};

/// Render the full report to `os`; the charts draw the analyzed events
/// from `columns` (the store `result` was computed from).
void write_html_report(std::ostream& os, const core::AnalysisResult& result,
                       const runtime::ColumnStore& columns,
                       const HtmlReportOptions& options = {});

/// Convenience: write to `path`; false on I/O failure.
bool write_html_report_file(const std::string& path,
                            const core::AnalysisResult& result,
                            const runtime::ColumnStore& columns,
                            const HtmlReportOptions& options = {});

}  // namespace dsspy::viz
