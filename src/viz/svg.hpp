// Minimal SVG writer and profile-chart export.
//
// DSspy "visualizes the runtime profiles" to the engineer; the SVG export
// reproduces the look of the paper's Figure 2 (bars, green reads, red
// writes, grey size background) for inclusion in reports.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/profile.hpp"
#include "runtime/column_store.hpp"

namespace dsspy::viz {

/// Tiny streaming SVG document builder.
class SvgWriter {
public:
    SvgWriter(double width, double height);

    void rect(double x, double y, double w, double h,
              std::string_view fill, double opacity = 1.0);
    void line(double x1, double y1, double x2, double y2,
              std::string_view stroke, double stroke_width = 1.0);
    void text(double x, double y, std::string_view content,
              double font_size = 10.0, std::string_view fill = "#333");
    void circle(double cx, double cy, double r, std::string_view fill);

    /// Append raw SVG markup (escape hatch for transforms etc.).
    void raw(std::string_view markup);

    /// Finish the document and return the SVG source.
    [[nodiscard]] std::string finish();

    [[nodiscard]] double width() const noexcept { return width_; }
    [[nodiscard]] double height() const noexcept { return height_; }

private:
    double width_;
    double height_;
    std::string body_;
    bool finished_ = false;
};

/// Figure-2 style SVG chart of a runtime profile, drawn from the
/// instance's rows in `columns`.  Reads are green bars, writes/inserts
/// red, deletes orange, the container size is a grey background bar per
/// event.  Events are downsampled to `max_columns`.
[[nodiscard]] std::string profile_to_svg(const core::RuntimeProfile& profile,
                                         const runtime::ColumnStore& columns,
                                         std::size_t max_columns = 400);

/// One bar of a stacked bar chart (Figure 1 style).
struct StackedBar {
    std::string label;                       ///< x-axis label.
    std::vector<double> segments;            ///< One value per series.
};

/// Figure-1 style stacked bar chart: one bar per program, one colored
/// segment per data-structure type, with a legend.
[[nodiscard]] std::string stacked_bars_to_svg(
    const std::vector<StackedBar>& bars,
    const std::vector<std::string>& series_names);

/// Write `content` to `path`; returns false on I/O failure.
bool write_file(const std::string& path, std::string_view content);

}  // namespace dsspy::viz
