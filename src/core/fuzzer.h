// The FuzzyFlow pipeline (Fig. 1): change isolation -> cutout extraction ->
// input minimization -> constraint derivation -> differential fuzzing.
//
// Execution model (see docs/ARCHITECTURE.md): audit() prepares every
// transformation instance, then drains one global queue of (instance, trial)
// units with a fixed pool of workers.  Each worker owns one execution
// context (two interpreters + scratch), kept across run_range calls and
// rebound whenever it claims a different instance; each instance owns one
// plan cache shared by every worker bound to it.  Trial inputs are a pure
// function of (seed, trial index) and per-instance results are merged in
// canonical trial order, so reports are byte-identical at any worker count.
#pragma once

/// \file
/// Differential fuzzer (core::Fuzzer): instance preparation and the
/// audit-wide (instance, trial) scheduler.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/cutout.h"
#include "core/diff_test.h"
#include "feedback/corpus.h"
#include "core/mincut.h"
#include "core/sampler.h"
#include "transforms/transformation.h"

namespace ff::core {

struct TrialRecord;  // report.h

/// Configuration of one fuzzing run (a single instance or a whole audit).
struct FuzzConfig {
    int max_trials = 100;  ///< "we test each instance ... over 100 trials" (Sec. 6.4)
    /// Workers of the audit-wide trial pool (and of the audit prepare
    /// phase, which fans cutout extraction / min-cut / constraint
    /// derivation of independent instances over the same count).  One pool
    /// serves the whole audit: workers drain a global queue of (instance,
    /// trial) units, so trials of independent instances overlap and there
    /// is no join barrier between instances.  0 = hardware concurrency.
    /// Any value produces
    /// byte-identical FuzzReports: trial inputs are a pure function of
    /// (seed, trial index) and per-instance results are merged in canonical
    /// instance x trial order, so the reported verdict is always the
    /// lowest-indexed failing trial of each instance.
    int num_threads = 1;
    /// Consecutive trials of one instance claimed per scheduler operation.
    /// Larger chunks cost one atomic claim per `trial_chunk` trials and keep
    /// workers on one instance longer (fewer context rebinds); 1 reproduces
    /// per-trial claiming.  Determinism is unaffected.  Values < 1 clamp
    /// to 1.
    int trial_chunk = 1;
    SamplerConfig sampler;  ///< Input-configuration sampling (Sec. 5.1).
    DiffConfig diff;        ///< Comparison threshold + interpreter settings.
    CutoutOptions cutout;   ///< Cutout extraction options (Sec. 3).
    /// Run the minimum input-flow cut (Sec. 4) after extraction.
    bool use_mincut = true;
    /// Baseline mode: skip extraction and test on the whole program
    /// ("traditional approach" in the paper's comparisons).
    bool whole_program = false;
    /// Instrument original-side def-use coverage (src/feedback): reports
    /// gain pairs_total/pairs_hit and records carry coverage words.  Charged
    /// identically by every execution tier, so reports stay byte-identical.
    bool coverage = false;
    /// Coverage-guided trial generation (implies `coverage`): generation N
    /// deterministically mutates the corpus derived from generations < N
    /// (see core/guided.h).  Reports and corpora remain pure functions of
    /// the prepared job — byte-identical at any thread/shard count
    /// (docs/ARCHITECTURE.md clause 10).
    bool feedback = false;
    /// Trials per feedback generation (values < 1 clamp to 1).
    int generation_size = 25;
    /// When non-empty, failing trials dump a reproducer JSON here.
    std::string artifact_dir;
};

/// Result of fuzzing one transformation instance.
struct FuzzReport {
    std::string transformation;     ///< Transformation name.
    std::string match_description;  ///< Which match was tested.
    Verdict verdict = Verdict::Pass;  ///< Lowest-indexed failing trial's verdict.
    int trials = 0;            ///< differential trials executed
    int uninteresting = 0;     ///< resampled trials (original rejected input)
    int threads = 1;           ///< workers of the pool that ran the trials
    /// Wall-clock seconds: instance setup plus the span from the instance's
    /// first claimed trial to its last completed one.  Under the audit-wide
    /// scheduler instances overlap, so per-instance seconds sum to more than
    /// the audit's wall time.
    double seconds = 0.0;
    /// End-to-end executed-trial throughput of this instance — resampled
    /// (uninteresting) trials included, since each runs the original
    /// program; the metric the compiled tasklet engine exists to maximize.
    /// Wall-clock based: under concurrency this is aggregate throughput of
    /// the whole pool, never a sum of per-thread rates.
    double trials_per_second = 0.0;
    std::string detail;         ///< Failure detail of the reported verdict.
    /// Per-side execution cost summed over the counted trials (canonical
    /// merge order, stopping at the first failure like `trials`).  A pure
    /// function of the prepared job, so shard/thread counts never change it
    /// — the first concrete surface of performance-differential verdicts.
    std::int64_t original_points = 0;
    std::int64_t original_instructions = 0;
    std::int64_t transformed_points = 0;
    std::int64_t transformed_instructions = 0;
    /// Def-use coverage of this instance (zero unless the job enabled
    /// coverage): total pairs in the cutout's atlas, distinct pairs hit by
    /// the counted trials (union over the canonical merge, stopping at the
    /// lowest failure like `trials`), and corpus entries derived for the
    /// instance.  All three are pure functions of the prepared job —
    /// byte-identical at any thread/shard/worker count (docs/ARCHITECTURE.md
    /// clause 10).
    std::int64_t pairs_total = 0;
    std::int64_t pairs_hit = 0;
    std::int64_t corpus_size = 0;
    std::string artifact_path;  ///< Saved reproducer (failing instances only).
    /// Why writing the reproducer artifact failed (empty on success or when
    /// no artifact was due).  A failing instance with a configured
    /// `artifact_dir` but an empty `artifact_path` always carries the I/O
    /// error here; the audit table sums these per transformation.
    std::string artifact_error;

    // Cutout metrics.
    std::size_t cutout_nodes = 0;   ///< Dataflow nodes in the cutout.
    std::size_t program_nodes = 0;  ///< Dataflow nodes in the full program.
    std::int64_t input_volume = 0;                ///< elements, after minimization
    std::int64_t input_volume_before_mincut = 0;  ///< elements
    bool mincut_improved = false;        ///< Whether the min cut shrank inputs.
    bool whole_program_cutout = false;   ///< Extraction fell back to whole program.

    /// Whether this instance found a bug (any verdict besides Pass /
    /// Uninteresting).
    bool failed() const {
        return verdict != Verdict::Pass && verdict != Verdict::Uninteresting;
    }
};

/// Counters of the audit-wide scheduler, reset by every audit() /
/// test_instance() call.  `workers` is deterministic; every other field can
/// depend on thread timing (e.g. `units` varies with how many in-flight
/// trials past a failure still ran) — they exist for benchmarks, tuning
/// (docs/TUNING.md) and the scheduler tests, and only become run-to-run
/// stable at one worker or on failure-free audits.
struct SchedulerStats {
    int workers = 0;             ///< Pool size after clamping to the unit count.
    std::int64_t units = 0;      ///< (instance, trial) units executed.
    std::int64_t claims = 0;     ///< Scheduler claim operations (chunked).
    int contexts_built = 0;      ///< Worker testers constructed (one per slot).
    int context_rebinds = 0;     ///< Worker testers rebound to a new instance.
    /// Original-side re-executions the feedback corpus scan ran for trials
    /// this process had not executed when the scan reached them (summed
    /// over guided instances; 0 without `feedback`).  Non-deterministic
    /// across threads; see docs/TUNING.md.
    std::int64_t coverage_derived = 0;
    /// Wall clock of the prepare phase (cutout, min-cut, transformation
    /// application, constraint derivation across all instances; audit()
    /// fans it over the worker pool).  Deterministic in outcome, not value.
    double prepare_seconds = 0.0;
    /// Specialization counters summed over every instance's plan cache: how
    /// many scopes/tasklets classified into the flat-stride / untagged
    /// f64/i64 tiers and how the kernel launches went (see
    /// interp::SpecStats and docs/TUNING.md).  Plan-time fields are
    /// deterministic; launch counters scale with executed trials.
    interp::SpecStats spec;
};

/// A prepared audit whose trial units can be executed in arbitrary
/// sub-ranges of the global unit space — the entry point cross-process
/// sharding (src/shard) builds on.
///
/// Preparation (match discovery + the per-instance cutout pipelines) is a
/// pure function of `(program, passes, config)`, so two processes that
/// prepare the same job agree on the canonical instance indexing and on the
/// flat unit space `unit = instance * max_trials + trial`.  A shard then
/// executes any contiguous unit range with run_range(); a merger injects
/// records produced elsewhere with set_record(); finalize() performs the
/// canonical-order merge and artifact saving either way.  `Fuzzer::audit`
/// itself is prepare + run_range(0, unit_count()) + finalize().
///
/// run_range() may be called repeatedly (the shard runner executes one
/// checkpoint chunk per call); worker testers and per-instance plan caches
/// persist across calls.  Determinism contract (docs/ARCHITECTURE.md): for a fixed
/// prepared job, the records of every executed unit are byte-identical
/// regardless of how the unit space is cut into ranges, processes, or
/// worker threads.
class PreparedAudit {
public:
    PreparedAudit();   ///< Empty audit (0 instances) — assign over it.
    ~PreparedAudit();  ///< Releases jobs, plan caches and worker testers.
    PreparedAudit(PreparedAudit&&) noexcept;             ///< Movable,
    PreparedAudit& operator=(PreparedAudit&&) noexcept;  ///< not copyable.

    /// Prepared instances, in canonical (match-discovery) order.
    std::size_t instance_count() const;
    /// Trials per instance (= FuzzConfig::max_trials at prepare time).
    int max_trials() const;
    /// Size of the flat unit space: instance_count() * max_trials().
    std::int64_t unit_count() const;

    /// Whether instance `i` has trial units to run (false when the
    /// transformation failed to apply — its report is already final and its
    /// units are skipped by every scheduler).
    bool instance_runnable(std::size_t instance) const;

    /// The instance's report as of preparation (final for non-runnable
    /// instances, partial otherwise — finalize() completes it).
    const FuzzReport& prepared_report(std::size_t instance) const;

    /// Executes every unit in [unit_begin, unit_end) with the configured
    /// worker pool, recording outcomes into the per-instance trial slots.
    /// Failures early-stop later trials of the same instance (including
    /// across subsequent run_range calls); slots past a failure may stay
    /// NotRun — the merge never reads them.
    void run_range(std::int64_t unit_begin, std::int64_t unit_end);

    /// Trial slots of instance `i` (empty for non-runnable instances).
    const std::vector<TrialRecord>& records(std::size_t instance) const;

    /// Injects a record produced elsewhere (a shard merger) at flat unit
    /// index `unit`.  Ignored for units of non-runnable instances, whose
    /// reports are final from preparation.  A guided instance's corpus scan
    /// takes the record's coverage instead of re-executing the trial.
    void set_record(std::int64_t unit, TrialRecord record);

    /// Canonical-order merge of every instance's slots into its FuzzReport
    /// (core::merge_trial_records), saving reproducer artifacts when the
    /// prepare-time config set `artifact_dir`.  Call once, after all
    /// execution/injection.
    std::vector<FuzzReport> finalize();

    /// Scheduler counters accumulated over every run_range() call.
    const SchedulerStats& stats() const;

    /// The audit's merged corpus: every instance's feedback corpus entries
    /// concatenated in canonical (instance, trial) order.  Empty unless the
    /// prepare-time config enabled `feedback`; call after finalize() (which
    /// completes each instance's corpus derivation).  A pure function of the
    /// prepared job — byte-identical across shard/thread counts.
    std::vector<feedback::CorpusEntry> corpus() const;

private:
    friend class Fuzzer;
    struct Impl;
    std::unique_ptr<Impl> impl_;  ///< Prepared jobs + worker testers.
};

/// Differential fuzzer: tests transformation instances (Sec. 5) and audits
/// whole pass pipelines (Sec. 6.3) over the audit-wide scheduler.
class Fuzzer {
public:
    /// Fuzzer with the given configuration.
    explicit Fuzzer(FuzzConfig config = {}) : config_(config) {}

    /// Current configuration (read-only).
    const FuzzConfig& config() const { return config_; }
    /// Current configuration (mutable; applies to subsequent calls).
    FuzzConfig& config() { return config_; }

    /// Tests one transformation instance on program `p` (p is not mutated;
    /// the transformation is applied to the extracted cutout).  Runs the
    /// same scheduler as audit(), over a single instance's trials.
    FuzzReport test_instance(const ir::SDFG& p, const xform::Transformation& transformation,
                             const xform::Match& match);

    /// Tests every instance of every pass; the Sec. 6.3 audit loop.  All
    /// instances are prepared first (cutout, min-cut, transformation,
    /// constraints — sequential, deterministic order), then one worker pool
    /// drains every (instance, trial) unit.  Reports come back in instance
    /// order and are byte-identical at any num_threads.
    std::vector<FuzzReport> audit(const ir::SDFG& p,
                                  const std::vector<xform::TransformationPtr>& passes);

    /// Runs only the prepare phase of audit() and hands back the prepared
    /// instances for ranged unit execution (see PreparedAudit) — the
    /// cross-process sharding entry point.  The returned audit captures the
    /// current config; later config changes do not affect it.
    PreparedAudit prepare(const ir::SDFG& p,
                          const std::vector<xform::TransformationPtr>& passes);

    /// Scheduler counters of the last audit()/test_instance() call.
    const SchedulerStats& last_stats() const { return stats_; }

private:
    FuzzConfig config_;    ///< Active configuration.
    SchedulerStats stats_;  ///< Counters of the last run.
};

}  // namespace ff::core
