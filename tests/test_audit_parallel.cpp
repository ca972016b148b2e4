// Audit-wide scheduler: one worker pool over every (instance, trial) unit.
//
// The contract under test (docs/ARCHITECTURE.md "Determinism contract"):
// a full audit produces byte-identical reports — verdicts, trial counts,
// failure details, reproducer artifacts, instance order — at any worker
// count and any trial chunking, because trial inputs are a pure function of
// (seed, trial index) and per-instance records are merged in canonical
// instance x trial order.  This file also checks the scheduler's context
// reuse (one tester per worker, one plan cache per instance) and doubles as
// a TSan target alongside test_parallel (see the FF_SANITIZE=thread CI job).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/fuzzer.h"
#include "core/report.h"
#include "helpers.h"
#include "interp/plan_cache.h"
#include "transforms/map_tiling.h"
#include "transforms/registry.h"
#include "workloads/matchain.h"

namespace ff {
namespace {

using ff::testing::make_scale_sdfg;

/// Chain of `k` elementwise maps x -> t1 -> ... -> y: `k` independent
/// MapTiling matches, i.e. a k-instance audit.
ir::SDFG make_k_map_chain(int k) {
    ir::SDFG p("kchain");
    p.add_symbol("N");
    const sym::ExprPtr n = sym::symb("N");
    p.add_array("x", ir::DType::F64, {n});
    for (int i = 1; i < k; ++i)
        p.add_array("t" + std::to_string(i), ir::DType::F64, {n}, /*transient=*/true);
    p.add_array("y", ir::DType::F64, {n});
    ir::State& st = p.state(p.add_state("main", true));
    ir::NodeId cur = st.add_access("x");
    for (int i = 1; i < k; ++i)
        cur = workloads::ew_unary(p, st, cur, "t" + std::to_string(i), "o = i + 1.0");
    workloads::ew_unary(p, st, cur, "y", "o = i * 3.0");
    p.validate();
    return p;
}

core::FuzzConfig quick_config(std::int64_t default_n = 8) {
    core::FuzzConfig config;
    config.max_trials = 20;
    config.sampler.size_max = 8;
    config.cutout.defaults = {{"N", default_n}};
    return config;
}

std::string read_file(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    if (!f) return "";
    std::string text;
    char buf[4096];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, got);
    std::fclose(f);
    return text;
}

/// Everything that must be identical across scheduler configurations.
void expect_reports_identical(const core::FuzzReport& a, const core::FuzzReport& b,
                              const std::string& what) {
    EXPECT_EQ(a.transformation, b.transformation) << what;
    EXPECT_EQ(a.match_description, b.match_description) << what;
    EXPECT_EQ(a.verdict, b.verdict) << what;
    EXPECT_EQ(a.trials, b.trials) << what;
    EXPECT_EQ(a.uninteresting, b.uninteresting) << what;
    EXPECT_EQ(a.detail, b.detail) << what;
    EXPECT_EQ(a.cutout_nodes, b.cutout_nodes) << what;
    EXPECT_EQ(a.input_volume, b.input_volume) << what;
}

/// An audit's deterministic outputs: reports plus reproducer artifact bytes
/// (read immediately, before another run can overwrite the shared dir).
struct AuditSnapshot {
    std::vector<core::FuzzReport> reports;
    std::vector<std::string> artifacts;  // empty string for passing instances
};

AuditSnapshot run_audit_snapshot(const ir::SDFG& p,
                                 const std::vector<xform::TransformationPtr>& passes,
                                 core::FuzzConfig config) {
    config.artifact_dir = ::testing::TempDir();
    core::Fuzzer fuzzer(config);
    AuditSnapshot snap;
    snap.reports = fuzzer.audit(p, passes);
    for (const core::FuzzReport& r : snap.reports)
        snap.artifacts.push_back(r.artifact_path.empty() ? "" : read_file(r.artifact_path));
    return snap;
}

void expect_snapshots_identical(const AuditSnapshot& a, const AuditSnapshot& b,
                                const std::string& what) {
    ASSERT_EQ(a.reports.size(), b.reports.size()) << what;
    for (std::size_t i = 0; i < a.reports.size(); ++i) {
        expect_reports_identical(a.reports[i], b.reports[i],
                                 what + " instance " + std::to_string(i));
        EXPECT_EQ(a.artifacts[i], b.artifacts[i]) << what << " artifact " << i;
    }
}

// --- Cross-instance determinism of the audit-wide pool -----------------------

TEST(AuditParallel, FullAuditByteIdenticalAt1_2_8Workers) {
    const ir::SDFG p = workloads::build_matrix_chain();
    const auto passes = xform::builtin_transformations();

    core::FuzzConfig config = quick_config(6);
    config.sampler.size_max = 6;
    config.max_trials = 10;

    config.num_threads = 1;
    const AuditSnapshot one = run_audit_snapshot(p, passes, config);
    ASSERT_FALSE(one.reports.empty());
    // The builtin registry carries buggy variants: some instance must fail,
    // or the artifact comparison below compares nothing.
    bool any_failed = false;
    for (const auto& r : one.reports) any_failed |= r.failed();
    EXPECT_TRUE(any_failed);

    config.num_threads = 2;
    expect_snapshots_identical(one, run_audit_snapshot(p, passes, config), "1 vs 2 workers");
    config.num_threads = 8;
    expect_snapshots_identical(one, run_audit_snapshot(p, passes, config), "1 vs 8 workers");
}

TEST(AuditParallel, TrialChunkingPreservesReports) {
    const ir::SDFG p = workloads::build_matrix_chain();
    const auto passes = xform::builtin_transformations();

    core::FuzzConfig config = quick_config(6);
    config.sampler.size_max = 6;
    config.max_trials = 10;
    config.num_threads = 4;

    config.trial_chunk = 1;
    const AuditSnapshot baseline = run_audit_snapshot(p, passes, config);
    config.trial_chunk = 7;
    expect_snapshots_identical(baseline, run_audit_snapshot(p, passes, config),
                               "chunk 1 vs chunk 7");
    config.trial_chunk = 1000;  // clamps to one whole instance per claim
    expect_snapshots_identical(baseline, run_audit_snapshot(p, passes, config),
                               "chunk 1 vs chunk 1000");
}

TEST(AuditParallel, SchedulerStatsCountUnitsAndClaims) {
    const ir::SDFG p = make_scale_sdfg();
    xform::MapTiling tiling(4, xform::MapTiling::Variant::Correct);
    const auto matches = tiling.find_matches(p);
    ASSERT_EQ(matches.size(), 1u);

    core::FuzzConfig config = quick_config();
    config.max_trials = 20;
    config.trial_chunk = 4;
    config.num_threads = 1;
    core::Fuzzer fuzzer(config);
    const core::FuzzReport report = fuzzer.test_instance(p, tiling, matches[0]);
    EXPECT_EQ(report.verdict, core::Verdict::Pass) << report.detail;
    EXPECT_EQ(report.threads, 1);

    const core::SchedulerStats& stats = fuzzer.last_stats();
    EXPECT_EQ(stats.workers, 1);
    EXPECT_EQ(stats.units, 20);       // every trial of the passing instance ran
    EXPECT_EQ(stats.claims, 5);       // ceil(20 / chunk 4)
    EXPECT_EQ(stats.contexts_built, 1);
    EXPECT_EQ(stats.context_rebinds, 0);
}

TEST(AuditParallel, OneTesterPerWorkerOnePlanCachePerInstance) {
    const ir::SDFG p = make_k_map_chain(6);
    std::vector<xform::TransformationPtr> passes;
    passes.push_back(std::make_unique<xform::MapTiling>(4, xform::MapTiling::Variant::Correct));

    // One worker claims the instances in order: its tester is built once
    // and rebound at each of the five instance switches.
    core::FuzzConfig config = quick_config();
    config.num_threads = 1;
    core::Fuzzer fuzzer(config);
    const auto reports = fuzzer.audit(p, passes);
    ASSERT_EQ(reports.size(), 6u);
    for (const auto& r : reports) EXPECT_EQ(r.verdict, core::Verdict::Pass) << r.detail;
    const core::SchedulerStats one = fuzzer.last_stats();
    EXPECT_EQ(one.contexts_built, 1);
    EXPECT_EQ(one.context_rebinds, 5);
    EXPECT_EQ(one.units, 6 * config.max_trials);

    // A range split in the middle of one instance (a shard checkpoint
    // chunk) resumes on the same warm tester: no second build, no rebind.
    core::PreparedAudit split = fuzzer.prepare(p, passes);
    const int mt = split.max_trials();
    split.run_range(0, mt / 2);
    split.run_range(mt / 2, mt);
    EXPECT_EQ(split.stats().contexts_built, 1);
    EXPECT_EQ(split.stats().context_rebinds, 0);
    EXPECT_EQ(split.stats().units, mt);

    // Each instance builds its plans once into its own cache, so the
    // plan-time counters do not depend on the worker count.
    config.num_threads = 8;
    core::Fuzzer eight(config);
    eight.audit(p, passes);
    const interp::SpecStats& a = one.spec;
    const interp::SpecStats& b = eight.last_stats().spec;
    EXPECT_GT(a.scopes_planned, 0);
    EXPECT_EQ(a.scopes_planned, b.scopes_planned);
    EXPECT_EQ(a.scopes_specialized, b.scopes_specialized);
    EXPECT_EQ(a.scopes_segmented, b.scopes_segmented);
    EXPECT_EQ(a.tasklets_planned, b.tasklets_planned);
    EXPECT_EQ(a.tasklets_f64, b.tasklets_f64);
    EXPECT_EQ(a.tasklets_i64, b.tasklets_i64);
}

}  // namespace
}  // namespace ff
