// Mandelbrot with profile visualization and SVG export.
//
// Renders the fractal under DSspy, prints the image array's runtime
// profile as ASCII (Figure 2 style), writes an SVG of the profile to
// ./mandelbrot_profile.svg, and compares sequential vs parallel rendering.
#include <iostream>

#include "apps/mandelbrot.hpp"
#include "core/dsspy.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "viz/ascii_chart.hpp"
#include "viz/svg.hpp"

int main() {
    using namespace dsspy;
    using support::Table;

    runtime::ProfilingSession session;
    (void)apps::run_mandelbrot(&session);
    session.stop();

    const core::AnalysisResult analysis = core::Dsspy{}.analyze(session);

    // Show the profile of every flagged instance.
    for (const core::InstanceAnalysis& ia : analysis.instances()) {
        if (!ia.flagged_parallel()) continue;
        viz::ChartOptions options;
        options.max_width = 100;
        options.max_height = 10;
        options.show_legend = false;
        viz::print_profile(std::cout, ia.profile, session.store(),
                           options);
        for (const core::UseCase& uc : ia.use_cases)
            std::cout << "  -> " << core::use_case_name(uc.kind) << ": "
                      << uc.recommendation() << '\n';
        std::cout << '\n';
    }

    // Export the image array's profile as SVG.
    for (const core::InstanceAnalysis& ia : analysis.instances()) {
        if (ia.profile.info().location.method == "RenderImage") {
            const std::string svg =
                viz::profile_to_svg(ia.profile, session.store());
            if (viz::write_file("mandelbrot_profile.svg", svg))
                std::cout << "Wrote mandelbrot_profile.svg ("
                          << svg.size() << " bytes)\n";
        }
    }

    // Sequential vs parallel rendering.
    const apps::RunResult seq = apps::run_mandelbrot(nullptr);
    par::ThreadPool pool;
    const apps::RunResult par_run = apps::run_mandelbrot_parallel(pool);
    std::cout << "Sequential: "
              << Table::fmt(static_cast<double>(seq.total_ns) / 1e6)
              << " ms, parallel: "
              << Table::fmt(static_cast<double>(par_run.total_ns) / 1e6)
              << " ms, speedup "
              << Table::fmt(support::speedup(
                     static_cast<double>(seq.total_ns),
                     static_cast<double>(par_run.total_ns)))
              << "x (paper: 3.00x)\n";
    return 0;
}
