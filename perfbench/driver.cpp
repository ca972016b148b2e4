// ffbench — the audit benchmark driver.
//
//   ffbench --workload <suite_table2|suite_correct|fleet_feedback>
//           --seed <n> --seconds <s> --trace <0|1> --ffaudit <path>
//           --work-dir <dir> [--sampler-seed <n>]
//
// --trace 0 repeats the workload for --seconds (at least 3 times) and prints
// the end-to-end metrics; --trace 1 makes one untraced and one traced pass
// plus a traced rebuild of every instance and prints the per-layer metrics.
// The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// perfbench/run.py builds this binary and is the entry point to use.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "bench.h"
#include "common/error.h"
#include "shard/merger.h"
#include "workloads/npbench.h"

namespace ffbench {

using namespace ff;

namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed, std::uint64_t sampler_seed) {
    Workload w;
    w.name = name;
    std::vector<std::string> kernels = workloads::npbench_kernel_names();
    shard::JobSpec base;
    base.seed = sampler_seed;
    base.defaults = workloads::npbench_defaults();
    if (name == "suite_table2") {
        // `ffaudit run` defaults: 100 trials, size_max 16.
        base.passes = "table2";
        w.table2_gate = true;
    } else if (name == "suite_correct") {
        base.passes = "correct";
        base.max_trials = 200;
        base.size_max = 32;
    } else if (name == "fleet_feedback") {
        // The four kernels with the most trial work in suite_correct.
        kernels = {"doitgen", "heat_3d", "3mm", "mlp"};
        base.passes = "correct";
        base.max_trials = 200;
        base.size_max = 32;
        base.feedback = base.coverage = true;
        w.served = true;
    } else {
        throw common::Error("unknown workload " + name +
                            " (expected suite_table2, suite_correct or fleet_feedback)");
    }
    // The benchmark seed fixes the order the jobs run in (Fisher-Yates).
    std::uint64_t state = seed;
    for (std::size_t i = kernels.size(); i > 1; --i)
        std::swap(kernels[i - 1], kernels[splitmix64(state) % i]);
    for (const std::string& kernel : kernels) {
        shard::JobSpec job = base;
        job.workload = kernel;
        w.jobs.push_back(job);
    }
    return w;
}

std::size_t count_dataflow_nodes(const ir::SDFG& sdfg) {
    std::size_t n = 0;
    for (ir::StateId sid : sdfg.states()) n += sdfg.state(sid).graph().node_count();
    return n;
}

namespace {

core::FuzzConfig pool_config(const shard::JobSpec& job) {
    core::FuzzConfig config = shard::job_fuzz_config(job);
    config.num_threads = kThreads;
    return config;
}

std::string canonical_bytes(const std::vector<core::FuzzReport>& reports, Trace* trace) {
    Span span(trace, "report.canonical_s");
    return shard::canonical_report_document(reports).dump(2) + "\n";
}

}  // namespace

JobRun run_inprocess(const shard::JobSpec& job, Trace* trace) {
    JobRun out;
    const auto t0 = Clock::now();
    const ir::SDFG program = [&] {
        Span span(trace, "workloads.build_s");
        return shard::load_job_program(job);
    }();
    const auto passes = shard::job_passes(job);
    core::Fuzzer fuzzer(pool_config(job));
    core::PreparedAudit audit = fuzzer.prepare(program, passes);
    out.setup_s = seconds_since(t0);
    out.unit_count = audit.unit_count();
    {
        Span span(trace, "fuzzer.run_range_s");
        audit.run_range(0, audit.unit_count());
    }
    {
        Span span(trace, "fuzzer.finalize_s");
        out.reports = audit.finalize();
    }
    out.stats = audit.stats();
    out.canonical = canonical_bytes(out.reports, trace);
    out.wall_s = seconds_since(t0);
    return out;
}

JobRun run_served(const shard::JobSpec& job, const Options& options, const std::string& dir,
                  Trace* trace) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    coord::CoordConfig config;
    config.job = job;
    config.shard_count = kShards;
    config.records_dir = dir;
    config.socket_path = dir + "/coord.sock";
    config.spawn_workers = kWorkers;
    config.worker_threads = kWorkerThreads;
    config.prepare_threads = kThreads;
    config.ffaudit_path = options.ffaudit;

    JobRun out;
    const auto t0 = Clock::now();
    coord::ServeResult result = [&] {
        Span span(trace, "coord.serve_s");
        return coord::serve(config);
    }();
    out.reports = std::move(result.reports);
    out.coord = result.stats;
    out.canonical = canonical_bytes(out.reports, trace);
    out.wall_s = seconds_since(t0);
    out.unit_count = static_cast<std::int64_t>(out.reports.size()) * job.max_trials;
    std::filesystem::remove_all(dir);
    return out;
}

double measure_setup(const shard::JobSpec& job) {
    const auto t0 = Clock::now();
    const ir::SDFG program = shard::load_job_program(job);
    const auto passes = shard::job_passes(job);
    core::Fuzzer fuzzer(pool_config(job));
    core::PreparedAudit audit = fuzzer.prepare(program, passes);
    return seconds_since(t0);
}

void Counts::add(const core::FuzzReport& r) {
    ++instances;
    executed_trials += r.trials + r.uninteresting;
    ++verdicts[core::verdict_name(r.verdict)];
    original_points += r.original_points;
    original_instructions += r.original_instructions;
    transformed_points += r.transformed_points;
    transformed_instructions += r.transformed_instructions;
    pairs_hit += r.pairs_hit;
    corpus_size += r.corpus_size;
}

std::string Counts::describe() const {
    std::string s = "instances=" + std::to_string(instances) +
                    " executed_trials=" + std::to_string(executed_trials) + " verdicts={";
    bool first = true;
    for (const auto& [name, n] : verdicts) {
        s += (first ? "" : ",") + name + ":" + std::to_string(n);
        first = false;
    }
    s += "} original_points=" + std::to_string(original_points) +
         " original_instructions=" + std::to_string(original_instructions) +
         " transformed_points=" + std::to_string(transformed_points) +
         " transformed_instructions=" + std::to_string(transformed_instructions) +
         " pairs_hit=" + std::to_string(pairs_hit) + " corpus_size=" + std::to_string(corpus_size);
    return s;
}

std::uint64_t Counts::fingerprint() const {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : describe()) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

const Inventory& table2_inventory() {
    static const Inventory inventory = {
        {"BufferTiling", true},          {"MapExpansion", true},
        {"MapReduceFusion", true},       {"StateAssignElimination", true},
        {"SymbolAliasPromotion", true},  {"TaskletFusion", true},
        {"Vectorization", true},         {"LoopUnrolling", false},
        {"MapFusion", false},            {"MapTiling", false},
        {"WriteElimination", false},
    };
    return inventory;
}

GateResult check_inventory(const std::vector<core::FuzzReport>& reports,
                           const Inventory& expected) {
    std::map<std::string, std::int64_t> instances, failures;
    for (const core::FuzzReport& r : reports) {
        const std::string base = r.transformation.substr(0, r.transformation.find('['));
        ++instances[base];
        if (r.failed()) ++failures[base];
    }
    GateResult gate;
    for (const auto& [name, flagged] : expected) {
        const std::int64_t n = instances[name];
        const std::int64_t f = failures[name];
        if (n == 0) {
            // A transformation the inventory names must be exercised at all.
            ++gate.failed;
            gate.problems.push_back(name + ": no instances");
        } else if (flagged != (f > 0)) {
            gate.failed += n;
            gate.problems.push_back(name + (flagged ? ": expected flagged, 0 of " : ": expected clean, ") +
                                    (flagged ? std::to_string(n) + " instances failed"
                                             : std::to_string(f) + " of " + std::to_string(n) +
                                                   " instances failed"));
        }
    }
    return gate;
}

GateResult check_same_bytes(const std::string& served, const std::string& inprocess,
                            std::int64_t instances, const std::string& job) {
    GateResult gate;
    if (served != inprocess) {
        gate.failed = std::max<std::int64_t>(instances, 1);
        gate.problems.push_back(job + ": served canonical report differs from in-process (" +
                                std::to_string(served.size()) + " vs " +
                                std::to_string(inprocess.size()) + " bytes)");
    }
    return gate;
}

Summary summarize(std::vector<double> values) {
    Summary s;
    s.n = values.size();
    if (values.empty()) return s;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    s.median = n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
    if (n == 1) {
        s.q1 = s.q3 = values[0];
        return s;
    }
    // statistics.quantiles(values, n=4), method='exclusive'.
    const auto cut = [&](int i) {
        const std::size_t m = n + 1;
        const std::size_t j = std::max<std::size_t>(1, std::min(n - 1, i * m / 4));
        const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
        return (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
    };
    s.q1 = cut(1);
    s.q3 = cut(3);
    return s;
}

double peak_rss_mb() {
    rusage self{}, children{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &children);
    return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) / 1024.0;
}

Repeat run_repeat(const Workload& workload, const Options& options, int index,
                  const std::vector<std::string>& reference, Trace* trace) {
    Repeat rep;
    std::vector<core::FuzzReport> all;
    const auto t0 = Clock::now();
    for (std::size_t j = 0; j < workload.jobs.size(); ++j) {
        const shard::JobSpec& job = workload.jobs[j];
        JobRun run;
        try {
            if (workload.served) {
                // serve() repeats these calls before it leases anything;
                // they are measured beside it, not inside audit_wall_s.
                rep.setup_s += measure_setup(job);
                run = run_served(job, options,
                                 options.work_dir + "/r" + std::to_string(index) + "j" +
                                     std::to_string(j),
                                 trace);
                rep.wall_s += run.wall_s;
                const GateResult gate =
                    check_same_bytes(run.canonical, reference.at(j),
                                     static_cast<std::int64_t>(run.reports.size()), job.workload);
                rep.failed += gate.failed;
                rep.problems.insert(rep.problems.end(), gate.problems.begin(),
                                    gate.problems.end());
            } else {
                run = run_inprocess(job, trace);
                rep.setup_s += run.setup_s;
            }
        } catch (const std::exception& e) {
            // The job's instances are unknown; it counts as one failed op.
            ++rep.attempted;
            ++rep.failed;
            rep.problems.push_back(job.workload + ": " + e.what());
        }
        rep.attempted += static_cast<std::int64_t>(run.reports.size());
        for (const core::FuzzReport& r : run.reports) {
            rep.counts.add(r);
            all.push_back(r);
        }
        rep.jobs.push_back(std::move(run));
    }
    if (!workload.served) rep.wall_s = seconds_since(t0);
    if (workload.table2_gate) {
        const GateResult gate = check_inventory(all, table2_inventory());
        rep.failed += gate.failed;
        rep.problems.insert(rep.problems.end(), gate.problems.begin(), gate.problems.end());
    }
    return rep;
}

namespace {

/// Reference canonical bytes per job of a served workload: the in-process
/// run of the same job (the byte-identity gate's right-hand side).
std::vector<std::string> inprocess_reference(const Workload& workload) {
    std::vector<std::string> reference;
    if (!workload.served) return reference;
    for (const shard::JobSpec& job : workload.jobs)
        reference.push_back(run_inprocess(job, nullptr).canonical);
    return reference;
}

/// Self-checks of the gates: a broken expectation must come out as failed
/// ops.  Returns false (and says why) when a gate would pass it silently.
bool gates_catch_broken_expectations(const Workload& workload, const Repeat& rep,
                                     const std::vector<std::string>& reference) {
    if (workload.table2_gate) {
        std::vector<core::FuzzReport> all;
        for (const JobRun& run : rep.jobs) all.insert(all.end(), run.reports.begin(), run.reports.end());
        Inventory broken = table2_inventory();
        broken["MapTiling"] = true;  // a clean pass wrongly expected to be flagged
        broken["TaskletFusion"] = false;  // a buggy pass wrongly expected to be clean
        const GateResult gate = check_inventory(all, broken);
        if (gate.failed == 0 || gate.problems.size() != 2) {
            std::fprintf(stderr, "self-check: broken Table 2 inventory passed the gate\n");
            return false;
        }
        std::printf("self-check: broken inventory -> %" PRId64 " failed ops (%s; %s)\n",
                    gate.failed, gate.problems[0].c_str(), gate.problems[1].c_str());
    }
    if (workload.served && !reference.empty() && !rep.jobs.empty()) {
        std::string flipped = rep.jobs[0].canonical;
        if (!flipped.empty()) flipped[flipped.size() / 2] ^= 0x01;
        const GateResult gate = check_same_bytes(flipped, reference[0],
                                                 static_cast<std::int64_t>(rep.jobs[0].reports.size()),
                                                 workload.jobs[0].workload);
        if (gate.failed == 0) {
            std::fprintf(stderr, "self-check: a flipped report byte passed the gate\n");
            return false;
        }
        std::printf("self-check: one flipped byte -> %" PRId64 " failed ops\n", gate.failed);
    }
    return true;
}

struct Metric {
    std::string name, unit;
    double value;
};

void print_result(bool correct, std::int64_t attempted, std::int64_t failed,
                  const std::vector<Metric>& metrics) {
    std::string line = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char value[64];
        std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
        line += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value +
                ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
}

int untraced_run(const Workload& workload, const Options& options) {
    const std::vector<std::string> reference = inprocess_reference(workload);

    // Repeats of the whole workload for --seconds, at least kMinRepeats so
    // the median has company and the count fingerprint is compared.
    constexpr std::size_t kMinRepeats = 3;
    std::vector<Repeat> repeats;
    const auto t0 = Clock::now();
    while (repeats.size() < kMinRepeats || seconds_since(t0) < options.seconds)
        repeats.push_back(run_repeat(workload, options, static_cast<int>(repeats.size()),
                                     reference, nullptr));

    // Set-up is measured several times: every repeat's, plus set-up-only
    // passes up to kSetupSamples.
    constexpr std::size_t kSetupSamples = 31;
    std::vector<double> wall, setup, rate;
    for (const Repeat& rep : repeats) {
        wall.push_back(rep.wall_s);
        setup.push_back(rep.setup_s);
        rate.push_back(static_cast<double>(rep.counts.executed_trials) / (rep.wall_s - rep.setup_s));
    }
    while (setup.size() < kSetupSamples) {
        double s = 0.0;
        for (const shard::JobSpec& job : workload.jobs) s += measure_setup(job);
        setup.push_back(s);
    }

    bool correct = true;
    std::int64_t attempted = 0, failed = 0;
    const std::uint64_t fp = repeats.front().counts.fingerprint();
    for (std::size_t i = 0; i < repeats.size(); ++i) {
        const Repeat& rep = repeats[i];
        attempted += rep.attempted;
        failed += rep.failed;
        for (const std::string& p : rep.problems) std::printf("FAILED op (repeat %zu): %s\n", i, p.c_str());
        std::printf("repeat %zu: wall %.3f s, setup %.3f s, fingerprint %016" PRIx64 "\n", i,
                    rep.wall_s, rep.setup_s, rep.counts.fingerprint());
        if (rep.counts.fingerprint() != fp) {
            correct = false;
            std::printf("count fingerprint differs from repeat 0: %s\n", rep.counts.describe().c_str());
        }
    }
    std::printf("counts: %s\n", repeats.front().counts.describe().c_str());
    if (!gates_catch_broken_expectations(workload, repeats.front(), reference)) correct = false;
    if (failed > 0) correct = false;

    struct Row {
        const char* name;
        const char* unit;
        Summary summary;
    };
    const Row rows[] = {
        {"audit_wall_s", "s", summarize(wall)},
        {"setup_s", "s", summarize(setup)},
        {"trials_per_s", "1/s", summarize(rate)},
        {"peak_rss_mb", "MB", summarize({peak_rss_mb()})},
        {"failed_frac", "frac",
         summarize({attempted ? static_cast<double>(failed) / static_cast<double>(attempted) : 1.0})},
    };
    std::printf("%-14s %-5s %3s %14s %14s %14s\n", "metric", "unit", "n", "median", "q1", "q3");
    std::vector<Metric> metrics;
    for (const Row& row : rows) {
        const Summary& s = row.summary;
        std::printf("%-14s %-5s %3zu %14.6g %14.6g %14.6g\n", row.name, row.unit, s.n, s.median,
                    s.q1, s.q3);
        // failed_frac is reported through "attempted"/"failed" (it is 0 on
        // a healthy run, which a relative bound cannot compare).
        if (std::string(row.name) != "failed_frac") metrics.push_back({row.name, row.unit, s.median});
    }
    print_result(correct, attempted, failed, metrics);
    return 0;
}

int traced(const Workload& workload, const Options& options) {
    std::int64_t attempted = 0, failed = 0;
    bool correct = true;
    const std::map<std::string, double> layer =
        traced_run(workload, options, attempted, failed, correct);
    std::vector<Metric> metrics;
    for (const auto& [name, value] : layer) {
        const std::size_t dot = name.rfind('_');
        std::string unit = "count";
        const std::string suffix = dot == std::string::npos ? "" : name.substr(dot + 1);
        if (suffix == "s" || suffix == "ms" || suffix == "us") unit = suffix;
        else if (suffix == "frac" || suffix == "share") unit = "frac";
        else if (suffix == "bytes") unit = "bytes";
        std::printf("%-36s %-6s %.6g\n", name.c_str(), unit.c_str(), value);
        metrics.push_back({name, unit, value});
    }
    print_result(correct && failed == 0, attempted, failed, metrics);
    return 0;
}

std::string flag(int argc, char** argv, int& i) {
    if (i + 1 >= argc) throw common::Error(std::string("missing value for ") + argv[i]);
    return argv[++i];
}

}  // namespace
}  // namespace ffbench

int main(int argc, char** argv) {
    using namespace ffbench;
    Options options;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string a = argv[i];
            if (a == "--workload") options.workload = flag(argc, argv, i);
            else if (a == "--seed") options.seed = std::stoull(flag(argc, argv, i), nullptr, 0);
            else if (a == "--sampler-seed")
                options.sampler_seed = std::stoull(flag(argc, argv, i), nullptr, 0);
            else if (a == "--seconds") options.seconds = std::stod(flag(argc, argv, i));
            else if (a == "--trace") options.trace = flag(argc, argv, i) != "0";
            else if (a == "--ffaudit") options.ffaudit = flag(argc, argv, i);
            else if (a == "--work-dir") options.work_dir = flag(argc, argv, i);
            else throw ff::common::Error("unknown option " + a);
        }
        if (options.workload.empty() || options.work_dir.empty())
            throw ff::common::Error("--workload and --work-dir are required");
        const Workload workload = make_workload(options.workload, options.seed, options.sampler_seed);
        std::filesystem::create_directories(options.work_dir);
        std::printf("workload %s: %zu job(s), seed %" PRIu64 ", sampler seed %#" PRIx64 ", %s\n",
                    workload.name.c_str(), workload.jobs.size(), options.seed, options.sampler_seed,
                    options.trace ? "traced" : "untraced");
        std::fflush(stdout);
        const int rc = options.trace ? traced(workload, options) : untraced_run(workload, options);
        std::filesystem::remove_all(options.work_dir);
        return rc;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "ffbench: %s\n", e.what());
        if (!options.work_dir.empty()) std::filesystem::remove_all(options.work_dir);
        return 1;
    }
}
