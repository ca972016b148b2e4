// The traced run of the audit benchmark: per-layer metrics.
//
// 1. One untraced repeat, then one repeat with a span around every call into
//    a layer's public functions (their wall ratio is the tracing overhead).
// 2. Served workloads: the in-process runs of the same jobs (coordinator
//    overhead) and the shard path as `ffaudit plan/run-shard/merge` drive it.
// 3. A rebuild of every instance from the public pipeline functions
//    (find_matches .. run_trial), timing each step and each interpreter
//    side, one job per thread.  It must reproduce the canonical report's cutout_nodes,
//    input_volume and per-side points, which proves it traced the same work.
#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>

#include "bench.h"
#include "core/constraints.h"
#include "core/cutout.h"
#include "core/diff_test.h"
#include "core/guided.h"
#include "core/mincut.h"
#include "core/sampler.h"
#include "shard/merger.h"
#include "shard/runner.h"

namespace ffbench {

using namespace ff;

namespace {

/// Sums of one side's interpreter runs.
struct SideCost {
    std::int64_t points = 0, instructions = 0, transitions = 0;
};

/// Replays one instance through the public pipeline functions and checks it
/// against `want` (the audit's report of the same instance).  Returns the
/// mismatches found.
std::vector<std::string> rebuild_instance(const ir::SDFG& program,
                                          const xform::Transformation& pass,
                                          const xform::Match& match,
                                          const core::FuzzConfig& config, std::size_t index,
                                          const core::FuzzReport& want, Trace& tr) {
    std::vector<std::string> problems;
    const auto expect = [&](const char* what, std::int64_t got, std::int64_t expected) {
        if (got != expected)
            problems.push_back(want.transformation + " '" + want.match_description + "': " + what +
                               " " + std::to_string(got) + " != report " +
                               std::to_string(expected));
    };

    xform::ChangeSet delta;
    core::Cutout cutout;
    {
        Span span(&tr, "core.cutout_s");
        delta = pass.affected_nodes(program, match);
        cutout = core::extract_cutout(program, delta, config.cutout);
    }
    std::int64_t volume_before = cutout.concrete_input_volume(config.cutout.defaults);
    if (config.use_mincut && !cutout.whole_program) {
        Span span(&tr, "core.mincut_s");
        core::MinCutResult mc = core::minimize_input_configuration(program, delta, cutout,
                                                                   config.cutout);
        cutout = std::move(mc.cutout);
    }
    const std::int64_t volume = cutout.concrete_input_volume(config.cutout.defaults);
    if (volume_before == 0) volume_before = volume;
    const std::size_t nodes = count_dataflow_nodes(cutout.program);
    expect("cutout_nodes", static_cast<std::int64_t>(nodes), static_cast<std::int64_t>(want.cutout_nodes));
    expect("input_volume", volume, want.input_volume);
    tr.add("core.cutout_nodes", static_cast<double>(nodes));
    tr.add("core.program_nodes", static_cast<double>(count_dataflow_nodes(program)));
    tr.add("core.volume_after", static_cast<double>(volume));
    tr.add("core.volume_before", static_cast<double>(volume_before));

    ir::SDFG transformed = cutout.program;
    bool applied = true;
    {
        Span span(&tr, "transforms.apply_s");
        try {
            pass.apply(transformed, cutout.remap_match(match));
        } catch (const std::exception&) {
            applied = false;
        }
    }
    if (!applied) {
        expect("trials (apply failed)", 0, want.trials);
        return problems;
    }
    const core::Constraints constraints = [&] {
        Span span(&tr, "core.constraints_s");
        return core::derive_constraints(program, cutout.program);
    }();

    const core::InputSampler sampler(config.sampler);
    core::DifferentialTester tester(cutout.program, transformed, cutout.system_state, config.diff);
    std::unique_ptr<core::InstanceFeedback> feedback;
    if (config.feedback)
        feedback = std::make_unique<core::InstanceFeedback>(
            cutout.program, cutout.input_config, constraints, sampler, config.diff.exec,
            config.generation_size, static_cast<std::int64_t>(index));
    interp::ExecConfig side_exec = config.diff.exec;
    side_exec.coverage = false;  // the sides are timed without the bitmap
    interp::Interpreter original_side(side_exec), transformed_side(side_exec);

    SideCost orig, trans;  // from the separately timed side runs
    std::int64_t outcome_orig_points = 0, outcome_trans_points = 0;
    int trials = 0, uninteresting = 0;
    core::Verdict verdict = core::Verdict::Pass;
    double sides_s = 0.0;
    const double trial_before = tr.get("core.trial_s");
    for (int t = 0; t < config.max_trials; ++t) {
        interp::Context inputs;
        bool sampled = true;
        {
            Span span(&tr, "core.sample_s");
            try {
                inputs = feedback ? feedback->sample_trial(t)
                                  : sampler.sample(cutout.program, cutout.input_config,
                                                   constraints, static_cast<std::uint64_t>(t));
            } catch (const std::exception&) {
                sampled = false;
            }
        }
        if (!sampled) {
            if (feedback) feedback->note_trial(t, {});
            ++uninteresting;
            continue;
        }
        if (tester.transformed_valid()) {
            const auto t0 = Clock::now();
            interp::Context ctx = inputs;
            const interp::ExecResult r1 = original_side.run(cutout.program, ctx);
            const double s1 = seconds_since(t0);
            tr.add("interp.original_s", s1);
            orig.transitions += r1.state_transitions;
            if (r1.ok()) {
                orig.points += r1.points;
                orig.instructions += r1.instructions;
                const auto t1 = Clock::now();
                interp::Context ctx2 = inputs;
                const interp::ExecResult r2 = transformed_side.run(transformed, ctx2);
                const double s2 = seconds_since(t1);
                tr.add("interp.transformed_s", s2);
                sides_s += s2;
                trans.transitions += r2.state_transitions;
                if (r2.ok()) {
                    trans.points += r2.points;
                    trans.instructions += r2.instructions;
                }
            }
            sides_s += s1;
        }
        const core::TrialOutcome outcome = [&] {
            Span span(&tr, "core.trial_s");
            return tester.run_trial(inputs);
        }();
        if (feedback) feedback->note_trial(t, outcome.coverage);
        outcome_orig_points += outcome.original_points;
        outcome_trans_points += outcome.transformed_points;
        if (outcome.verdict == core::Verdict::Uninteresting) {
            ++uninteresting;
            continue;
        }
        ++trials;
        if (outcome.verdict != core::Verdict::Pass) {
            verdict = outcome.verdict;
            break;
        }
    }
    tr.add("core.compare_s", std::max(0.0, tr.get("core.trial_s") - trial_before - sides_s));
    tr.add("interp.original_points", static_cast<double>(orig.points));
    tr.add("interp.original_instructions", static_cast<double>(orig.instructions));
    tr.add("interp.original_transitions", static_cast<double>(orig.transitions));
    tr.add("interp.transformed_points", static_cast<double>(trans.points));
    tr.add("interp.transformed_instructions", static_cast<double>(trans.instructions));
    tr.add("interp.transformed_transitions", static_cast<double>(trans.transitions));

    expect("trials", trials, want.trials);
    expect("uninteresting", uninteresting, want.uninteresting);
    if (verdict != want.verdict)
        problems.push_back(want.transformation + " '" + want.match_description + "': verdict " +
                           core::verdict_name(verdict) + " != report " +
                           core::verdict_name(want.verdict));
    expect("original points (run_trial)", outcome_orig_points, want.original_points);
    expect("transformed points (run_trial)", outcome_trans_points, want.transformed_points);
    if (tester.transformed_valid()) {
        expect("original points (side runs)", orig.points, want.original_points);
        expect("transformed points (side runs)", trans.points, want.transformed_points);
    }
    return problems;
}

/// Rebuilds every instance of one job in canonical order.
std::vector<std::string> rebuild_job(const shard::JobSpec& job,
                                     const std::vector<core::FuzzReport>& reports, Trace& tr) {
    const ir::SDFG program = shard::load_job_program(job);
    const auto passes = shard::job_passes(job);
    core::FuzzConfig config = shard::job_fuzz_config(job);
    // The fuzzer's implication chain: feedback => coverage => instrumented
    // trial interpreters.
    if (config.feedback) config.coverage = true;
    if (config.coverage) config.diff.exec.coverage = true;

    std::vector<std::string> problems;
    std::size_t index = 0;
    for (const auto& pass : passes) {
        const std::vector<xform::Match> matches = [&] {
            Span span(&tr, "transforms.match_s");
            return pass->find_matches(program);
        }();
        tr.add("transforms.matches", static_cast<double>(matches.size()));
        for (const xform::Match& match : matches) {
            if (index >= reports.size()) {
                problems.push_back(job.workload + ": more matches than report instances");
                return problems;
            }
            auto p = rebuild_instance(program, *pass, match, config, index, reports[index], tr);
            problems.insert(problems.end(), p.begin(), p.end());
            ++index;
        }
    }
    if (index != reports.size())
        problems.push_back(job.workload + ": " + std::to_string(index) + " matches vs " +
                           std::to_string(reports.size()) + " report instances");
    return problems;
}

/// The shard layer as `ffaudit plan`, `run-shard` and `merge` drive it, on
/// one job; the merged bytes must equal the in-process bytes.
std::vector<std::string> shard_path(const shard::JobSpec& job, const std::string& reference,
                                    const std::string& dir, Trace& tr) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const ir::SDFG program = shard::load_job_program(job);
    const std::vector<shard::ShardManifest> manifests = [&] {
        Span span(&tr, "shard.plan_s");
        return shard::plan_shards(job, program, kShards);
    }();
    std::vector<std::string> paths;
    shard::RunShardOptions run_options;
    run_options.num_threads = kThreads;
    for (const shard::ShardManifest& m : manifests) {
        paths.push_back(dir + "/records-" + std::to_string(m.shard_index) + ".jsonl");
        Span span(&tr, "shard.run_shard_s");
        shard::run_shard(m, paths.back(), run_options);
    }
    for (const std::string& p : paths)
        tr.add("shard.record_bytes", static_cast<double>(std::filesystem::file_size(p)));
    shard::MergeOptions merge_options;
    merge_options.num_threads = kThreads;
    shard::MergeResult merged = [&] {
        Span span(&tr, "shard.merge_s");
        return shard::merge_shards(paths, merge_options);
    }();
    std::filesystem::remove_all(dir);
    const std::string bytes = shard::canonical_report_document(merged.reports).dump(2) + "\n";
    if (bytes != reference) return {job.workload + ": merged shard report differs from in-process"};
    return {};
}

double percentile(std::vector<double> v, double p) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = p * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

std::map<std::string, double> traced_run(const Workload& workload, const Options& options,
                                         std::int64_t& attempted, std::int64_t& failed,
                                         bool& correct) {
    Trace tr;
    std::vector<std::string> problems;
    const auto fail_all = [&](const std::vector<std::string>& p, std::int64_t ops) {
        if (p.empty()) return;
        failed += ops;
        problems.insert(problems.end(), p.begin(), p.end());
    };

    // In-process runs of a served workload's jobs: the byte-identity
    // reference and the in-process wall the coordinator overhead is taken
    // against.
    Trace inprocess_trace;
    std::vector<JobRun> inprocess;
    std::vector<std::string> reference;
    for (const shard::JobSpec& job : workload.jobs) {
        if (!workload.served) break;
        inprocess.push_back(run_inprocess(job, &inprocess_trace));
        reference.push_back(inprocess.back().canonical);
    }

    const Repeat untraced = run_repeat(workload, options, 0, reference, nullptr);
    const Repeat traced = run_repeat(workload, options, 1, reference, &tr);
    for (const Repeat* rep : {&untraced, &traced}) {
        attempted += rep->attempted;
        failed += rep->failed;
        problems.insert(problems.end(), rep->problems.begin(), rep->problems.end());
    }
    if (untraced.counts.fingerprint() != traced.counts.fingerprint()) {
        correct = false;
        problems.push_back("count fingerprint differs between the untraced and traced repeat");
    }
    std::printf("counts: %s (fingerprint %016" PRIx64 ")\n", traced.counts.describe().c_str(),
                traced.counts.fingerprint());

    // In-process layers: the traced repeat itself, or the in-process runs
    // of the same jobs for a served workload.
    const std::vector<JobRun>& pool_runs = workload.served ? inprocess : traced.jobs;
    const Trace& pool_trace = workload.served ? inprocess_trace : tr;
    std::map<std::string, double> m;
    for (const char* k : {"fuzzer.run_range_s", "fuzzer.finalize_s"}) m[k] = pool_trace.get(k);
    m["workloads.build_s"] = pool_trace.get("workloads.build_s");
    m["report.canonical_s"] = tr.get("report.canonical_s");
    m["bench.trace_overhead_frac"] = ratio(traced.wall_s, untraced.wall_s) - 1.0;

    std::int64_t units = 0, executed = 0, built = 0, rebinds = 0;
    interp::SpecStats spec;
    std::vector<double> instance_ms;
    double hang_s = 0.0, all_s = 0.0;
    std::int64_t pairs_total = 0, pairs_hit = 0, corpus = 0, unint = 0;
    for (const JobRun& run : pool_runs) {
        units += run.stats.units;
        built += run.stats.contexts_built;
        rebinds += run.stats.context_rebinds;
        spec += run.stats.spec;
        for (const core::FuzzReport& r : run.reports) {
            executed += r.trials + r.uninteresting;
            unint += r.uninteresting;
            instance_ms.push_back(r.seconds * 1e3);
            all_s += r.seconds;
            if (r.verdict == core::Verdict::TransformedHang) hang_s += r.seconds;
            pairs_total += r.pairs_total;
            pairs_hit += r.pairs_hit;
            corpus += r.corpus_size;
        }
    }
    m["fuzzer.contexts_built"] = static_cast<double>(built);
    m["fuzzer.context_rebinds"] = static_cast<double>(rebinds);
    m["fuzzer.units_past_verdict_frac"] =
        ratio(static_cast<double>(units - executed), static_cast<double>(units));
    m["fuzzer.hang_share"] = ratio(hang_s, all_s);
    m["fuzzer.instance_p50_ms"] = percentile(instance_ms, 0.50);
    m["fuzzer.instance_p95_ms"] = percentile(instance_ms, 0.95);
    m["fuzzer.instance_n"] = static_cast<double>(instance_ms.size());
    m["core.uninteresting_frac"] = ratio(static_cast<double>(unint), static_cast<double>(executed));
    m["interp.specialized_scope_frac"] = ratio(static_cast<double>(spec.scopes_specialized),
                                               static_cast<double>(spec.scopes_planned));
    m["interp.segment_launch_frac"] = ratio(static_cast<double>(spec.segment_launches),
                                            static_cast<double>(spec.kernel_launches));
    m["interp.kernel_fallbacks"] = static_cast<double>(spec.kernel_fallbacks);
    m["feedback.pairs_total"] = static_cast<double>(pairs_total);
    m["feedback.pairs_hit"] = static_cast<double>(pairs_hit);
    m["feedback.corpus_size"] = static_cast<double>(corpus);

    // Coordinator layer (served workloads; zero on the in-process suites).
    std::int64_t served_units = 0;
    coord::CoordStats cs;
    for (const JobRun& run : traced.jobs) {
        served_units += run.unit_count;
        cs.queue.granted += run.coord.queue.granted;
        cs.queue.hedges += run.coord.queue.hedges;
        cs.queue.duplicate_completions += run.coord.queue.duplicate_completions;
        cs.queue.expirations += run.coord.queue.expirations;
        cs.workers_spawned += run.coord.workers_spawned;
    }
    double inprocess_wall = 0.0;
    for (std::size_t j = 0; j < inprocess.size(); ++j) {
        inprocess_wall += inprocess[j].wall_s;
        std::printf("job %s: served %.3f s (untraced %.3f s), in-process %.3f s\n",
                    workload.jobs[j].workload.c_str(), traced.jobs[j].wall_s,
                    untraced.jobs[j].wall_s, inprocess[j].wall_s);
    }
    m["coord.serve_s"] = tr.get("coord.serve_s");
    m["coord.overhead_s"] = workload.served ? traced.wall_s - inprocess_wall : 0.0;
    m["coord.overhead_per_unit_us"] =
        workload.served ? ratio(m["coord.overhead_s"] * 1e6, static_cast<double>(served_units)) : 0.0;
    m["coord.leases_granted"] = static_cast<double>(cs.queue.granted);
    m["coord.hedges"] = static_cast<double>(cs.queue.hedges);
    m["coord.duplicate_completions"] = static_cast<double>(cs.queue.duplicate_completions);
    m["coord.expirations"] = static_cast<double>(cs.queue.expirations);
    m["coord.workers_spawned"] = static_cast<double>(cs.workers_spawned);

    // Shard layer (served workloads): plan / run_shard / merge in-process.
    if (workload.served) {
        for (std::size_t j = 0; j < workload.jobs.size(); ++j)
            fail_all(shard_path(workload.jobs[j], reference[j],
                                options.work_dir + "/shard" + std::to_string(j), tr),
                     static_cast<std::int64_t>(inprocess[j].reports.size()));
    }
    for (const char* k : {"shard.plan_s", "shard.run_shard_s", "shard.merge_s", "shard.record_bytes"})
        m[k] = tr.get(k);

    // Rebuild every instance from the pipeline's public functions, one job
    // per thread of a kThreads pool (the audit's own width).
    const auto rebuild_t0 = Clock::now();
    const std::size_t n_jobs = workload.jobs.size();
    std::vector<Trace> job_traces(n_jobs);
    std::vector<std::vector<std::string>> job_problems(n_jobs);
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t)
        pool.emplace_back([&] {
            std::size_t j = 0;
            while ((j = next.fetch_add(1)) < n_jobs) {
                try {
                    job_problems[j] = rebuild_job(workload.jobs[j], traced.jobs[j].reports,
                                                  job_traces[j]);
                } catch (const std::exception& e) {
                    job_problems[j] = {workload.jobs[j].workload + ": rebuild threw: " + e.what()};
                }
            }
        });
    for (std::thread& t : pool) t.join();
    Trace rb;
    for (std::size_t j = 0; j < n_jobs; ++j) {
        for (const auto& [k, v] : job_traces[j].values) rb.add(k, v);
        fail_all(job_problems[j], static_cast<std::int64_t>(traced.jobs[j].reports.size()));
    }
    m["bench.rebuild_s"] = seconds_since(rebuild_t0);
    for (const char* k :
         {"transforms.match_s", "transforms.matches", "transforms.apply_s", "core.cutout_s",
          "core.mincut_s", "core.constraints_s", "core.sample_s", "core.trial_s", "core.compare_s",
          "interp.original_s", "interp.transformed_s", "interp.original_points",
          "interp.original_instructions", "interp.original_transitions",
          "interp.transformed_points", "interp.transformed_instructions",
          "interp.transformed_transitions"})
        m[k] = rb.get(k);
    m["core.cutout_node_frac"] = ratio(rb.get("core.cutout_nodes"), rb.get("core.program_nodes"));
    m["core.mincut_volume_frac"] = ratio(rb.get("core.volume_after"), rb.get("core.volume_before"));

    for (const std::string& p : problems) std::printf("FAILED: %s\n", p.c_str());
    if (!problems.empty()) correct = false;
    return m;
}

}  // namespace ffbench
