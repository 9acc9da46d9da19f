#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark, in smoke mode (tiny sizes).

Run from the repository root:

    python3 e2ebench/selftest.py

It checks that
  * every workload, untraced and traced, prints exactly the metrics
    BENCHMARK.json names, each with its unit, and passes its correctness
    gate (the workload's own named figures are non-zero);
  * the gate trips on a corrupted golden digest (nonzero exit, failed > 0);
  * the command fails, without a result line, in a directory that holds
    only BENCHMARK.json and the benchmark's own files.
Exits 0 when every check holds.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work", "selftest")

# The figures each workload must measure (non-zero) in its traced run.
OWN_METRICS = {
    "apps_run": ["run_ms", "run_incremental_ms", "slowdown_x",
                 "apply_speedup_x", "apps.plain_ms", "ds.record_ms",
                 "runtime.stop_ms", "span.capture.finalize_ms",
                 "core.analyze_ms", "core.finish_ms",
                 "parallel.run_parallel_ms", "runtime.events"],
    "trace_analyze": ["analyze_ms", "analyze_stream_ms", "convert_ms",
                      "runtime.mmap_decode_ms", "core.analyze_columns_ms",
                      "core.analyze_shard_max_ms", "core.fold_ms",
                      "runtime.read_aos_ms", "runtime.write_dst1_ms",
                      "runtime.trace_bytes"],
    "serve_push": ["tenant_ms_p50", "tenant_ms_p90", "serve_events_per_s",
                   "serve.handshake_ms", "serve.send_ms", "serve.result_ms",
                   "core.fold_ms"],
    "adapt_loop": ["adapt_ms", "adapt_worst_x", "adapt.file_search_ms",
                   "adapt.message_queue_ms", "adapt.word_index_ms",
                   "adapt.phase_change_ms", "adapt.fixed_ms"],
}

failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def run(args, cwd=ROOT):
    done = subprocess.run([sys.executable, "e2ebench/run.py"] + args,
                          cwd=cwd, capture_output=True, text=True,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return done.returncode, result, done.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    expected = {0: [(m["name"], m["unit"]) for m in bench["end_to_end"]],
                1: [(m["name"], m["unit"]) for m in bench["per_layer"]]}
    workloads = [w["name"] for w in bench["workloads"]]
    check(sorted(workloads) == sorted(OWN_METRICS), "workload list")

    for workload in workloads:
        for trace in (0, 1):
            code, result, err = run(["--workload", workload, "--seed", "7",
                                     "--seconds", "1", "--trace", str(trace),
                                     "--smoke"])
            what = "%s --trace %d" % (workload, trace)
            check(code == 0 and result is not None, what + " exits 0")
            if result is None:
                sys.stderr.write(err[-2000:])
                continue
            check(sorted(result) == ["attempted", "correct", "failed",
                                     "metrics"], what + " result keys")
            check(result["correct"] is True and result["failed"] == 0 and
                  result["attempted"] > 0, what + " correctness gate")
            got = [(k, v["unit"]) for k, v in result["metrics"].items()]
            check(got == expected[trace], what + " prints every metric "
                  "with its unit")
            values = {k: v["value"] for k, v in result["metrics"].items()}
            if trace == 0:
                check(all(v > 0 for v in values.values()),
                      what + " end-to-end metrics are non-zero")
            else:
                zero = [m for m in OWN_METRICS[workload]
                        if not values.get(m)]
                check(not zero, what + " measures its own figures %s" % zero)

    # A corrupted frozen digest must trip the gate.
    os.makedirs(WORK, exist_ok=True)
    corrupt = os.path.join(WORK, "golden-corrupt.txt")
    with open(os.path.join(HERE, "golden.txt"), encoding="utf-8") as f:
        lines = f.read().splitlines()
    with open(corrupt, "w", encoding="utf-8") as f:
        for line in lines:
            if line.startswith("app.Contentfinder.report "):
                digest = line.split()[1]
                line = "app.Contentfinder.report " + (
                    "0" if digest[0] != "0" else "1") + digest[1:]
            f.write(line + "\n")
    code, result, _ = run(["--workload", "apps_run", "--seed", "7",
                           "--seconds", "1", "--trace", "0", "--smoke",
                           "--golden", corrupt])
    check(code != 0 and result is not None and result["correct"] is False
          and result["failed"] > 0, "corrupted digest trips the gate")

    # Without the program's sources the command must fail, printing no
    # result.
    bare = os.path.join(WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
    code, result, _ = run(["--workload", workloads[0], "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=bare)
    check(code != 0 and result is None, "bare checkout fails without result")
    shutil.rmtree(bare, ignore_errors=True)

    print("%d failure(s)" % len(failures))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
