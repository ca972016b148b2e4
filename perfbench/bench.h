// Shared pieces of the audit benchmark (perfbench/): workloads, the
// untraced job runners, the correctness gates and the count fingerprint.
//
// Every measurement is taken from outside the library: the driver calls the
// same public entry points `ffaudit run` / `ffaudit serve` call and times
// those calls.  See perfbench/NOTES.md for the metric definitions.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "coord/coordinator.h"
#include "core/fuzzer.h"
#include "shard/manifest.h"

namespace ffbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr int kThreads = 4;        ///< In-process pool width (and serve's prepare).
constexpr int kShards = 8;         ///< Shards of every served job.
constexpr int kWorkers = 2;        ///< Spawned `ffaudit worker` processes.
constexpr int kWorkerThreads = 2;  ///< --threads of each spawned worker.

/// Command-line settings of one benchmark run.
struct Options {
    std::string workload;
    /// Benchmark seed: the order the workload's jobs run in.
    std::uint64_t seed = 0;
    /// Sampler seed of every job (JobSpec::seed).  Fixed by default: the
    /// suite_table2 wall time swings 2.5x across sampler seeds (one hang
    /// instance dominates it), which no bound could absorb.
    std::uint64_t sampler_seed = 0x5eed;
    double seconds = 10.0;        ///< Measuring time of the untraced repeats.
    bool trace = false;
    std::string ffaudit;   ///< Worker binary exec'd by coord::serve.
    std::string work_dir;  ///< Scratch for record streams and sockets.
};

/// One workload: one job per kernel, run in-process or through coord::serve.
struct Workload {
    std::string name;
    std::vector<ff::shard::JobSpec> jobs;
    bool served = false;
    bool table2_gate = false;  ///< Check the Table 2 inventory.
};

/// The named workload, its jobs ordered by `seed` and sampled with
/// `sampler_seed`; throws ff::common::Error for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed, std::uint64_t sampler_seed);

/// Per-name accumulators of a traced run (seconds and counts).
struct Trace {
    std::map<std::string, double> values;
    void add(const std::string& name, double v) { values[name] += v; }
    double get(const std::string& name) const {
        auto it = values.find(name);
        return it == values.end() ? 0.0 : it->second;
    }
};

/// Adds the lifetime of the span to `trace` under `name` (no-op when
/// `trace` is null, which is how the untraced repeats run).
class Span {
public:
    Span(Trace* trace, const char* name) : trace_(trace), name_(name), t0_(Clock::now()) {}
    ~Span() {
        if (trace_) trace_->add(name_, seconds_since(t0_));
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

private:
    Trace* trace_;
    const char* name_;
    Clock::time_point t0_;
};

/// What one job produced.
struct JobRun {
    std::vector<ff::core::FuzzReport> reports;  ///< finalize() output, seconds intact.
    std::string canonical;                      ///< Canonical report document bytes.
    ff::core::SchedulerStats stats;             ///< In-process runs only.
    ff::coord::CoordStats coord;                ///< Served runs only.
    std::int64_t unit_count = 0;                ///< Flat (instance, trial) units.
    double setup_s = 0.0;  ///< load_job_program + job_passes + prepare.
    double wall_s = 0.0;   ///< Whole job, setup and canonical report included.
};

/// `ffaudit run`: load, prepare, run_range over every unit, finalize,
/// canonical report.  Spans go to `trace` when it is non-null.
JobRun run_inprocess(const ff::shard::JobSpec& job, Trace* trace);

/// `ffaudit serve` with spawned workers; record streams and the socket live
/// under `dir` (created fresh, removed afterwards).
JobRun run_served(const ff::shard::JobSpec& job, const Options& options, const std::string& dir,
                  Trace* trace);

/// The set-up calls of one job (load_job_program, job_passes, prepare at
/// kThreads); returns their wall time.
double measure_setup(const ff::shard::JobSpec& job);

/// Deterministic counts of a set of reports; identical across repeats of
/// one seed.
struct Counts {
    std::int64_t instances = 0;
    std::int64_t executed_trials = 0;  ///< trials + uninteresting
    std::map<std::string, std::int64_t> verdicts;
    std::int64_t original_points = 0, original_instructions = 0;
    std::int64_t transformed_points = 0, transformed_instructions = 0;
    std::int64_t pairs_hit = 0, corpus_size = 0;

    void add(const ff::core::FuzzReport& r);
    std::string describe() const;
    std::uint64_t fingerprint() const;  ///< FNV-1a of describe().
};

/// Outcome of a correctness gate: ops counted as failed and why.
struct GateResult {
    std::int64_t failed = 0;
    std::vector<std::string> problems;
};

/// Expected Table 2 outcome per transformation base name (the part before
/// "[bug:...]"): true = at least one failing instance, false = none.
using Inventory = std::map<std::string, bool>;
const Inventory& table2_inventory();

/// Instances of a transformation that contradicts `expected` count as
/// failed ops (every instance of it, so a missing flag cannot hide).
GateResult check_inventory(const std::vector<ff::core::FuzzReport>& reports,
                           const Inventory& expected);

/// A served job whose canonical bytes differ from the in-process bytes
/// fails every one of its instances.
GateResult check_same_bytes(const std::string& served, const std::string& inprocess,
                            std::int64_t instances, const std::string& job);

/// Quantiles as Python's statistics.quantiles(values, n=4) computes them
/// (exclusive method); a single value is its own quartiles.
struct Summary {
    std::size_t n = 0;
    double median = 0.0, q1 = 0.0, q3 = 0.0;
};
Summary summarize(std::vector<double> values);

/// Process-wide peak RSS in MB, including waited-for children.
double peak_rss_mb();

/// The traced run: per-layer metrics (name -> value), printed by main.
/// Sets `correct` false when a gate, the rebuild cross-check or a
/// self-check fails.
std::map<std::string, double> traced_run(const Workload& workload, const Options& options,
                                         std::int64_t& attempted, std::int64_t& failed,
                                         bool& correct);

/// Dataflow nodes over every state (FuzzReport::cutout_nodes' definition).
std::size_t count_dataflow_nodes(const ff::ir::SDFG& sdfg);

/// One repeat of the workload as a user runs it.
struct Repeat {
    double wall_s = 0.0;
    double setup_s = 0.0;
    std::vector<JobRun> jobs;  ///< Parallel to Workload::jobs.
    std::int64_t attempted = 0, failed = 0;
    std::vector<std::string> problems;
    Counts counts;
};

/// Runs every job of the workload once; gates are applied against
/// `reference` (in-process canonical bytes per job, served workloads only).
Repeat run_repeat(const Workload& workload, const Options& options, int index,
                  const std::vector<std::string>& reference, Trace* trace);

}  // namespace ffbench
