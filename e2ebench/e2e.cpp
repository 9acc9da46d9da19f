#include "e2e.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <mutex>
#include <set>
#include <sstream>

#include "core/report.hpp"
#include "corpus/program_model.hpp"
#include "corpus/workload.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"

namespace e2e {

namespace {

std::atomic<bool> g_tracing{false};
thread_local Layer* t_current = nullptr;

/// Names of the spans Layers opened.
std::mutex g_names_mutex;
std::set<std::string, std::less<>> g_names;

void remember(const char* name) {
    const std::lock_guard<std::mutex> lock(g_names_mutex);
    g_names.emplace(name);
}

}  // namespace

Layer::Layer(const char* name, Sample& sample)
    : Layer(name, sample, nullptr) {}

Layer::Layer(const char* name, Sample& sample,
             dsspy::obs::TraceContext parent)
    : Layer(name, sample, &parent) {}

Layer::Layer(const char* name, Sample& sample,
             const dsspy::obs::TraceContext* parent)
    : name_(name),
      sample_(sample),
      parent_(t_current),
      start_ns_(dsspy::support::now_ns()) {
    if (tracing()) {
        remember(name);
        if (parent != nullptr)
            span_.emplace(name, *parent);
        else
            span_.emplace(name);
    }
    t_current = this;
}

Layer::~Layer() {
    const std::uint64_t duration = dsspy::support::now_ns() - start_ns_;
    span_.reset();
    t_current = parent_;
    if (parent_ != nullptr) parent_->child_ns_ += duration;
    sample_[std::string(name_) + "_ms"] +=
        static_cast<double>(duration - std::min(duration, child_ns_)) / 1e6;
}

dsspy::obs::TraceContext Layer::context() const noexcept {
    return span_ ? span_->context() : dsspy::obs::TraceContext{};
}

void Layer::set_tracing(bool on) noexcept {
    g_tracing.store(on, std::memory_order_relaxed);
}

bool Layer::tracing() noexcept {
    return g_tracing.load(std::memory_order_relaxed);
}

bool Layer::is_layer_span(std::string_view name) {
    const std::lock_guard<std::mutex> lock(g_names_mutex);
    return g_names.find(name) != g_names.end();
}

void Checks::expect(bool ok, const std::string& what) {
    ++attempted_;
    if (ok) return;
    ++failed_;
    std::cerr << "CHECK FAILED: " << what << '\n';
}

Golden Golden::load(const std::string& path) {
    Golden golden;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') continue;
        const std::size_t space = line.find(' ');
        if (space == std::string::npos) continue;
        golden.values_[line.substr(0, space)] = line.substr(space + 1);
    }
    return golden;
}

std::string Golden::get(const std::string& key) const {
    const auto it = values_.find(key);
    return it == values_.end() ? "<missing " + key + ">" : it->second;
}

std::string digest(const std::string& bytes) {
    std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

std::string checksum_text(double value) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

std::string key_name(const std::string& name) {
    std::string out = name;
    std::replace(out.begin(), out.end(), ' ', '_');
    return out;
}

namespace {

template <typename Result>
std::string render(const Result& result) {
    std::ostringstream out;
    dsspy::core::print_use_case_report(out, result);
    out << "Search space reduction: "
        << dsspy::support::Table::pct(result.search_space_reduction())
        << " (" << result.flagged_instances() << " of "
        << result.list_array_instances()
        << " list/array instances flagged)\n";
    return out.str();
}

}  // namespace

std::string render_report(const dsspy::core::AnalysisResult& result) {
    return render(result);
}

std::string render_report(const dsspy::core::StreamReport& report) {
    return render(report);
}

std::string verdict_digest(
    const std::vector<dsspy::core::UseCase>& use_cases) {
    std::vector<std::string> lines;
    for (const dsspy::core::UseCase& uc : use_cases)
        lines.push_back(std::string(dsspy::core::use_case_name(uc.kind)) +
                        ' ' + uc.instance.type_name + ' ' +
                        uc.instance.location.to_string());
    std::sort(lines.begin(), lines.end());
    std::string all;
    for (const std::string& line : lines) all += line + '\n';
    return digest(all);
}

void replay_corpus(dsspy::runtime::ProfilingSession& session,
                   dsspy::support::Rng& rng, int passes) {
    for (int pass = 0; pass < passes; ++pass)
        for (const dsspy::corpus::ProgramModel& program :
             dsspy::corpus::all_programs()) {
            const std::uint64_t seed = rng.next();
            if (program.in_eval23)
                dsspy::corpus::run_eval_workload(program, &session, seed);
            else
                dsspy::corpus::run_study15_workload(program, &session, seed);
        }
}

double median(std::vector<double> values) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

double percentile(std::vector<double> values, double p) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(p * static_cast<double>(values.size()));
    const std::size_t index =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return values[std::min(index, values.size() - 1)];
}

}  // namespace e2e
