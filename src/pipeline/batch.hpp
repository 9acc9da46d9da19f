// Concurrent multi-plan batch driver (`dsspy batch`).
//
// Executes N RunPlans concurrently, each on its own ProfilingSession, over
// a dedicated ThreadPool — many profiling/analysis jobs in one process
// instead of one hand-wired job per invocation.  Per-job stdout/stderr are
// buffered and flushed in submission order once every job has finished, so
// the batch's primary stream is the exact concatenation of what the same
// jobs would print run sequentially (the differential tests hold it to
// byte-identity).
//
// The driver pool is deliberately separate from the analysis pool: jobs
// block inside parallel sections (chunk decode, per-instance analysis),
// and running those sections on the pool that also runs the jobs could
// starve — every worker parked in a job waiting for chunk tasks that no
// free worker can pick up.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "pipeline/run_plan.hpp"
#include "pipeline/runner.hpp"

namespace dsspy::pipeline {

/// One finished batch job: the typed outcome plus the exact text the job
/// wrote to its buffered out/err streams.
struct BatchJobResult {
    RunOutcome outcome;
    std::string out_text;
    std::string err_text;
};

struct BatchSummary {
    int exit_code = kExitOk;   ///< kExitOk, or kExitRuntimeError if any job failed.
    std::size_t jobs = 0;
    std::size_t failed = 0;
    /// Peak number of jobs observed in flight at once (telemetry for tests
    /// and the batch trailer line; bounded by min(concurrency, jobs)).
    std::size_t max_concurrent = 0;
    std::uint64_t wall_ns = 0;
};

/// Execute every plan concurrently (at most `concurrency` in flight;
/// 0 = the pool default, i.e. --threads or hardware concurrency) and
/// return the per-job results in plan order.  `runner` is shared across
/// jobs — PipelineRunner::run is safe to call from many threads at once.
[[nodiscard]] std::vector<BatchJobResult> run_batch_jobs(
    const PipelineRunner& runner, const std::vector<RunPlan>& plans,
    unsigned concurrency, BatchSummary& summary);

/// run_batch_jobs + ordered flush: each job's buffered streams are
/// replayed onto `out`/`err` in plan order, with a one-line job header and
/// a final batch trailer on `err`.
BatchSummary run_batch(const PipelineRunner& runner,
                       const std::vector<RunPlan>& plans,
                       unsigned concurrency, std::ostream& out,
                       std::ostream& err);

}  // namespace dsspy::pipeline
