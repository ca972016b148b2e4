// Interpreter hot-path microbenchmark: tasklet executions per second.
//
// The inner loop of every fuzzing trial is one tasklet execution per map
// point, on both sides of the differential test.  This bench measures that
// loop head-to-head on the three tiers:
//
//  * reference   — recursive AST walker, per-point ConnectorEnv (std::map)
//    construction and fresh gather/scatter vectors;
//  * generic     — bytecode VM over precomputed memlet access plans and a
//    reusable flat scratch arena (ExecConfig::specialize = false);
//  * specialized — flat-stride map kernels + the untagged VM on top of the
//    generic path: width 1 per point, or the whole inner extent per
//    instruction for segment-eligible launches (the default; see
//    docs/ARCHITECTURE.md "Specialization tiers").
//
// The workload is tasklet-dense on purpose (chained elementwise maps with
// arithmetic, a matmul-style accumulation nest, and a branchy activation —
// the shapes that dominate the MHA and CLOUDSC workloads); every container
// is constant-extent f64, so the specialization tiers fully apply.  The
// acceptance bars: compiled >= 3x the reference engine, and specialized
// >= 1.5x the generic compiled path (both on one thread).
//
// A second, flat-stride section measures column-width segments against
// width 1 on the same straight-line chain and the same points, per dtype
// (f64, f32, i64): shape {1, N} runs one N-point segment per map, shape
// {N, 1} moves the extent to the outer level so every segment is one point.
// Acceptance bar: batched >= 2x width 1 on the f64 section.  A sweep over
// the inner extent L of shape {N/L, L} then prints the crossover: batching
// ties with width 1 at L = 1 and wins from L = 2.
//
// A third section measures the kernel tier against the generic path on the
// scope shapes it covers through kernel levels, window lanes and perfect
// nests: a MapTiling'd reduction nest (one launch per tile; bar >= 1.5x), a
// 3-D 27-point stencil (one window input per point; bar >= 5x) and
// doitgen's accumulation nest (one launch per run; bar >= 4x).
//
// Lines prefixed BENCH_KV are machine-readable; scripts/bench_hotpath_json.py
// folds them into a BENCH_hotpath.json baseline artifact (CI uploads it).
#include "bench_common.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <iterator>
#include <thread>

#include "transforms/map_tiling.h"
#include "workloads/builders.h"

namespace {

using namespace ff;

constexpr std::int64_t kN = 96;
constexpr std::int64_t kM = 96;
constexpr std::int64_t kK = 24;

/// Chain of elementwise maps plus an accumulation nest; returns the number
/// of tasklet executions one run() performs.
ir::SDFG build_hotpath() {
    ir::SDFG p("hotpath");
    p.add_symbol("N");
    p.add_symbol("M");
    p.add_symbol("K");
    const sym::ExprPtr n = sym::symb("N"), m = sym::symb("M"), k = sym::symb("K");
    p.add_array("x", ir::DType::F64, {n, m});
    p.add_array("w", ir::DType::F64, {n, m});
    p.add_array("t1", ir::DType::F64, {n, m}, /*transient=*/true);
    p.add_array("t2", ir::DType::F64, {n, m}, /*transient=*/true);
    p.add_array("y", ir::DType::F64, {n, m});
    p.add_array("a", ir::DType::F64, {n, k});
    p.add_array("b", ir::DType::F64, {k, m});
    p.add_array("c", ir::DType::F64, {n, m});

    ir::State& st = p.state(p.add_state("main", true));
    const ir::NodeId x = st.add_access("x");
    const ir::NodeId w = st.add_access("w");
    // Branchy activation + arithmetic: exercises constant folding, jumps
    // and the full binary-op dispatch.
    const ir::NodeId t1 = workloads::ew_binary(p, st, x, w, "t1",
                                               "o = a > 0.0 ? a * b + 1.0 : -a * b - 1.0");
    const ir::NodeId t2 = workloads::ew_unary(p, st, t1, "t2",
                                              "s = i * 0.5; o = s * s + i * 0.25");
    workloads::ew_unary(p, st, t2, "y", "o = max(i, 0.0) + min(i, 0.0) * 0.125");

    const ir::NodeId a = st.add_access("a");
    const ir::NodeId b = st.add_access("b");
    const ir::NodeId c0 = workloads::zero_init(p, st, "c");
    workloads::matmul_nest(p, st, a, b, c0, n, k, m, "acc");
    return p;
}

std::int64_t tasklet_executions_per_run() {
    // Three elementwise maps (N*M each), the zero-init map (N*M), and the
    // matmul accumulation nest (N*M*K).
    return 4 * kN * kM + kN * kM * kK;
}

sym::Bindings bindings() { return {{"N", kN}, {"M", kM}, {"K", kK}}; }

/// Executions/second on one engine; runs `reps` full program executions
/// against a warm interpreter (plan + tasklet caches populated).  `spec`
/// optionally receives the plan cache's specialization counters.
double measure(bool compiled, bool specialize, int reps, interp::SpecStats* spec = nullptr) {
    ir::SDFG p = build_hotpath();
    interp::ExecConfig cfg;
    cfg.use_compiled_tasklets = compiled;
    cfg.specialize = specialize;
    interp::Interpreter interp(cfg);

    interp::Context warm = bench::random_inputs(p, bindings());
    if (!interp.run(p, warm).ok()) throw common::Error("hotpath warmup failed");

    // Pre-sample the input configurations so the timed region measures the
    // execution engines only, not the input generator.
    std::vector<interp::Context> contexts;
    contexts.reserve(static_cast<std::size_t>(reps));
    for (int r = 0; r < reps; ++r)
        contexts.push_back(bench::random_inputs(p, bindings(), 4242 + static_cast<unsigned>(r)));

    const auto t0 = std::chrono::steady_clock::now();
    for (interp::Context& ctx : contexts)
        if (!interp.run(p, ctx).ok()) throw common::Error("hotpath run failed");
    const double secs = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                            .count();
    if (spec) *spec = interp.plan_cache()->spec_stats();
    return static_cast<double>(tasklet_executions_per_run()) * reps / secs;
}

// --- Flat-stride segments vs width 1, per dtype ------------------------------

constexpr std::int64_t kFlatN = 1 << 15;

/// Two chained straight-line elementwise maps over R x C `dtype` containers:
/// the shape segments exist for.  Every launch is R segments of C
/// contiguous points.
ir::SDFG build_flat(ir::DType dtype) {
    ir::SDFG p("flat");
    p.add_symbol("R");
    p.add_symbol("C");
    const std::vector<sym::ExprPtr> shape{sym::symb("R"), sym::symb("C")};
    p.add_array("x", dtype, shape);
    p.add_array("t", dtype, shape, /*transient=*/true);
    p.add_array("y", dtype, shape);
    ir::State& st = p.state(p.add_state("main", true));
    const bool is_float = ir::dtype_is_float(dtype);
    const ir::NodeId t = workloads::ew_unary(
        p, st, st.add_access("x"), "t",
        is_float ? "o = i * 0.5 + 1.0" : "o = i * 3 + 1");
    workloads::ew_unary(p, st, t, "y",
                        is_float ? "o = i * i - i * 0.25" : "o = i * i - i");
    return p;
}

/// Map points/second of `p` under `binds` on the kernel tier (`specialize`)
/// or the generic compiled path, over `reps` pre-sampled input contexts.
double points_per_s(const ir::SDFG& p, const sym::Bindings& binds, bool specialize, int reps,
                    interp::SpecStats* spec = nullptr) {
    interp::ExecConfig cfg;
    cfg.specialize = specialize;
    interp::Interpreter interp(cfg);

    interp::Context warm = bench::random_inputs(p, binds);
    const interp::ExecResult first = interp.run(p, warm);
    if (!first.ok()) throw common::Error(p.name() + " warmup failed: " + first.message);

    std::vector<interp::Context> contexts;
    contexts.reserve(static_cast<std::size_t>(reps));
    for (int r = 0; r < reps; ++r)
        contexts.push_back(bench::random_inputs(p, binds, 777 + static_cast<unsigned>(r)));

    const auto t0 = std::chrono::steady_clock::now();
    for (interp::Context& ctx : contexts)
        if (!interp.run(p, ctx).ok()) throw common::Error(p.name() + " run failed");
    const double secs = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                            .count();
    if (spec) *spec = interp.plan_cache()->spec_stats();
    return static_cast<double>(first.points) * reps / secs;
}

/// Map points/second on the flat chain for one dtype with inner extent
/// `inner` (kFlatN points per map either way).
double measure_flat(ir::DType dtype, std::int64_t inner, int reps,
                    interp::SpecStats* spec = nullptr) {
    return points_per_s(build_flat(dtype), {{"R", kFlatN / inner}, {"C", inner}},
                        /*specialize=*/true, reps, spec);
}

// --- Kernel levels and window lanes: kernel tier vs generic -------------------

constexpr std::int64_t kTiledN = 48;
constexpr std::int64_t kStencilN = 24;
constexpr std::int64_t kNestN = 24;
constexpr int kNestReps = 6;

/// Tiled reduction: C[i, j] += A[i, k] * B[k, j] with the k map tiled by
/// MapTiling(8), so its range reads k__tile and the kernel covers the
/// point level below it — one launch per tile.
ir::SDFG build_tiled() {
    ir::SDFG p("tiled");
    p.add_symbol("N");
    const sym::ExprPtr n = sym::symb("N");
    p.add_array("A", ir::DType::F64, {n, n});
    p.add_array("B", ir::DType::F64, {n, n});
    p.add_array("C", ir::DType::F64, {n, n});
    ir::State& st = p.state(p.add_state("main", true));
    const ir::NodeId c0 = workloads::zero_init(p, st, "C");
    workloads::matmul_nest(p, st, st.add_access("A"), st.add_access("B"), c0, n, n, n, "mm");
    xform::MapTiling tiling(8);
    for (const xform::Match& m : tiling.find_matches(p))
        if (m.description.find("'mm_k'") != std::string::npos) {
            tiling.apply(p, m);
            return p;
        }
    throw common::Error("tiled bench: no match for the mm_k map");
}

/// heat_3d's 27-point stencil: B[i, j, k] from the window
/// A[i-1:i+1, j-1:j+1, k-1:k+1], one window input per point.
ir::SDFG build_stencil() {
    ir::SDFG p("stencil");
    p.add_symbol("N");
    const sym::ExprPtr n = sym::symb("N");
    p.add_array("A", ir::DType::F64, {n, n, n});
    p.add_array("B", ir::DType::F64, {n, n, n});
    ir::State& st = p.state(p.add_state("main", true));
    const sym::ExprPtr i = sym::symb("i"), j = sym::symb("j"), k = sym::symb("k");
    const ir::Range interior = ir::Range::span(sym::cst(1), n - 2);
    auto [entry, exit] = st.add_map("heat", {"i", "j", "k"}, {interior, interior, interior});
    const ir::NodeId t = st.add_tasklet(
        "heat", "o = a[13] + 0.125 * (a[4] + a[22] - 2.0 * a[13]) + 0.125 * (a[10] + a[16] - "
                "2.0 * a[13]) + 0.125 * (a[12] + a[14] - 2.0 * a[13])");
    const ir::Subset full3 = ir::Subset::full({n, n, n});
    st.add_edge(st.add_access("A"), "", entry, "", ir::Memlet("A", full3));
    st.add_edge(entry, "", t, "a",
                ir::Memlet("A", ir::Subset{{ir::Range::span(i - 1, i + 1),
                                            ir::Range::span(j - 1, j + 1),
                                            ir::Range::span(k - 1, k + 1)}}));
    st.add_edge(t, "o", exit, "",
                ir::Memlet("B", ir::Subset{{ir::Range::index(i), ir::Range::index(j),
                                            ir::Range::index(k)}}));
    st.add_edge(exit, "", st.add_access("B"), "", ir::Memlet("B", full3));
    return p;
}

/// doitgen's accumulation nest without its zero init: Aout[i, j, k] +=
/// A[i, j, l] * C4[l, k], a parallel (i, j, k) map whose only child is the
/// sequential l map.  One kernel spans both scopes, so a run launches once
/// where the l scope alone would launch N * N * M times.
ir::SDFG build_nest() {
    ir::SDFG p("nest");
    p.add_symbol("N");
    p.add_symbol("M");
    const sym::ExprPtr n = sym::symb("N"), m = sym::symb("M");
    p.add_array("A", ir::DType::F64, {n, n, m});
    p.add_array("C4", ir::DType::F64, {m, m});
    p.add_array("Aout", ir::DType::F64, {n, n, m});
    ir::State& st = p.state(p.add_state("main", true));
    const sym::ExprPtr i = sym::symb("i"), j = sym::symb("j"), k = sym::symb("k"),
                       l = sym::symb("l");
    auto [outer, outer_exit] =
        st.add_map("doitgen", {"i", "j", "k"},
                   {ir::Range::full(n), ir::Range::full(n), ir::Range::full(m)},
                   ir::Schedule::Parallel);
    auto [red, red_exit] =
        st.add_map("doitgen_red", {"l"}, {ir::Range::full(m)}, ir::Schedule::Sequential);
    const ir::NodeId t = st.add_tasklet("doitgen_acc", "cout = cin + a * c");
    const ir::Subset out{{ir::Range::index(i), ir::Range::index(j), ir::Range::index(k)}};
    for (const char* name : {"A", "C4", "Aout"}) {
        const ir::Subset full = ir::Subset::full(p.container(name).shape);
        st.add_edge(st.add_access(name), "", outer, "", ir::Memlet(name, full));
        st.add_edge(outer, "", red, "", ir::Memlet(name, full));
    }
    st.add_edge(red, "", t, "a",
                ir::Memlet("A", ir::Subset{{ir::Range::index(i), ir::Range::index(j),
                                            ir::Range::index(l)}}));
    st.add_edge(red, "", t, "c",
                ir::Memlet("C4", ir::Subset{{ir::Range::index(l), ir::Range::index(k)}}));
    st.add_edge(red, "", t, "cin", ir::Memlet("Aout", out));
    st.add_edge(t, "cout", red_exit, "", ir::Memlet("Aout", out));
    st.add_edge(red_exit, "", outer_exit, "", ir::Memlet("Aout", out));
    st.add_edge(outer_exit, "", st.add_access("Aout"), "",
                ir::Memlet("Aout", ir::Subset::full(p.container("Aout").shape)));
    return p;
}

void BM_HotpathReference(benchmark::State& state) {
    ir::SDFG p = build_hotpath();
    interp::ExecConfig cfg;
    cfg.use_compiled_tasklets = false;
    interp::Interpreter interp(cfg);
    for (auto _ : state) {
        interp::Context ctx = bench::random_inputs(p, bindings());
        interp.run(p, ctx);
    }
    state.SetItemsProcessed(state.iterations() * tasklet_executions_per_run());
}
BENCHMARK(BM_HotpathReference)->Unit(benchmark::kMillisecond);

void BM_HotpathCompiled(benchmark::State& state) {
    ir::SDFG p = build_hotpath();
    interp::ExecConfig cfg;
    cfg.use_compiled_tasklets = true;
    interp::Interpreter interp(cfg);
    for (auto _ : state) {
        interp::Context ctx = bench::random_inputs(p, bindings());
        interp.run(p, ctx);
    }
    state.SetItemsProcessed(state.iterations() * tasklet_executions_per_run());
}
BENCHMARK(BM_HotpathCompiled)->Unit(benchmark::kMillisecond);

/// Aggregate executions/second with `threads` interpreters running the same
/// immutable SDFG concurrently over one shared PlanCache — the execution
/// shape of the parallel fuzzer (per-thread scratch, shared plans).
double measure_parallel(int threads, int reps_per_thread) {
    ir::SDFG p = build_hotpath();
    interp::ExecConfig cfg;
    cfg.use_compiled_tasklets = true;
    auto cache = std::make_shared<interp::PlanCache>();

    // Pre-sample every context so the timed region is pure execution.
    std::vector<std::vector<interp::Context>> contexts(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t)
        for (int r = 0; r < reps_per_thread; ++r)
            contexts[static_cast<std::size_t>(t)].push_back(bench::random_inputs(
                p, bindings(), 4242 + static_cast<unsigned>(t * reps_per_thread + r)));

    // Warm the shared cache once so the timed region measures steady state.
    {
        interp::Interpreter warm_interp(cfg, cache);
        interp::Context warm = bench::random_inputs(p, bindings());
        if (!warm_interp.run(p, warm).ok()) throw common::Error("hotpath warmup failed");
    }

    const auto t0 = std::chrono::steady_clock::now();
    std::atomic<bool> failed{false};
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            interp::Interpreter interp(cfg, cache);
            for (interp::Context& ctx : contexts[static_cast<std::size_t>(t)])
                if (!interp.run(p, ctx).ok()) failed.store(true);
        });
    }
    for (std::thread& th : pool) th.join();
    if (failed.load()) throw common::Error("hotpath parallel run failed");
    const double secs = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                            .count();
    return static_cast<double>(tasklet_executions_per_run()) * threads * reps_per_thread / secs;
}

void print_report() {
    const int reps = 6;
    const double ref = measure(/*compiled=*/false, /*specialize=*/false, reps);
    const double generic = measure(/*compiled=*/true, /*specialize=*/false, reps);
    interp::SpecStats spec_stats;
    const double specialized = measure(/*compiled=*/true, /*specialize=*/true, reps, &spec_stats);
    // The 3x bar gates the *generic* compiled path (the pre-specialization
    // guarantee — still a supported mode and the kernel fallback target);
    // the 1.5x bar gates specialization on top of it.
    const double compiled_speedup = generic / ref;
    const double spec_speedup = specialized / generic;
    const double total_speedup = specialized / ref;

    bench::banner("Interpreter hot path - tasklet executions per second (N=" +
                  std::to_string(kN) + ", M=" + std::to_string(kM) + ", K=" +
                  std::to_string(kK) + ", constant-extent f64)");
    std::printf("  reference   (AST walker + ConnectorEnv): %12.0f exec/s\n", ref);
    std::printf("  generic     (bytecode VM, no kernels)  : %12.0f exec/s\n", generic);
    std::printf("  specialized (kernels + untagged VM)    : %12.0f exec/s\n", specialized);
    std::printf("  generic compiled speedup: %.2fx vs reference (acceptance bar: >= 3x)  -> %s\n",
                compiled_speedup, compiled_speedup >= 3.0 ? "PASS" : "FAIL");
    std::printf("  specialization speedup: %.2fx vs generic (acceptance bar: >= 1.5x)  -> %s\n",
                spec_speedup, spec_speedup >= 1.5 ? "PASS" : "FAIL");
    std::printf("  total: %.2fx vs reference\n", total_speedup);

    bench::banner("Specialization hit rates (plan classification + launches)");
    std::printf("  scopes: %lld/%lld flat-stride (%lld segment-eligible), "
                "tasklets: %lld f64 + %lld i64 of %lld untagged\n",
                static_cast<long long>(spec_stats.scopes_specialized),
                static_cast<long long>(spec_stats.scopes_planned),
                static_cast<long long>(spec_stats.scopes_segmented),
                static_cast<long long>(spec_stats.tasklets_f64),
                static_cast<long long>(spec_stats.tasklets_i64),
                static_cast<long long>(spec_stats.tasklets_planned));
    std::printf("  kernel launches: %lld committed, %lld fell back to the odometer, "
                "%lld ran column-width segments\n",
                static_cast<long long>(spec_stats.kernel_launches),
                static_cast<long long>(spec_stats.kernel_fallbacks),
                static_cast<long long>(spec_stats.segment_launches));

    // Flat-stride straight-line chains, per dtype: the segments' home turf.
    // Width 1 runs the same chain with its extent on the outer level.  The
    // f64 section carries the acceptance bar.
    struct FlatRow {
        const char* name;
        ir::DType dtype;
        double perpoint, batched;
        std::int64_t segments;
    };
    FlatRow flats[] = {{"f64", ir::DType::F64, 0, 0, 0},
                       {"f32", ir::DType::F32, 0, 0, 0},
                       {"i64", ir::DType::I64, 0, 0, 0}};
    bench::banner("Column-width segments vs width 1 - flat-stride map points per second (" +
                  std::to_string(kFlatN) + " points, 2 straight-line maps)");
    for (FlatRow& row : flats) {
        interp::SpecStats fs;
        row.perpoint = measure_flat(row.dtype, /*inner=*/1, 20);
        row.batched = measure_flat(row.dtype, /*inner=*/kFlatN, 20, &fs);
        row.segments = fs.segment_launches;
        const double speedup = row.batched / row.perpoint;
        std::printf("  %s: width 1 %12.0f pts/s, batched %12.0f pts/s -> %.2fx%s\n", row.name,
                    row.perpoint, row.batched, speedup,
                    row.dtype == ir::DType::F64
                        ? (speedup >= 2.0 ? "  (acceptance bar: >= 2x) PASS"
                                          : "  (acceptance bar: >= 2x) FAIL")
                        : "");
    }

    // Scope shapes the kernel tier covers through kernel levels (a tiled
    // reduction: one launch per tile, width 1 on the stride-0 accumulator),
    // window lanes (a 3-D stencil: 27 lanes per point, segments) and
    // perfect nests (doitgen: one launch per run, width 1).
    const ir::SDFG tiled = build_tiled();
    const sym::Bindings tiled_binds{{"N", kTiledN}};
    const double tiled_generic = points_per_s(tiled, tiled_binds, false, 6);
    const double tiled_kernel = points_per_s(tiled, tiled_binds, true, 6);
    const double tiled_speedup = tiled_kernel / tiled_generic;
    const ir::SDFG stencil = build_stencil();
    const sym::Bindings stencil_binds{{"N", kStencilN}};
    const double stencil_generic = points_per_s(stencil, stencil_binds, false, 6);
    const double stencil_kernel = points_per_s(stencil, stencil_binds, true, 6);
    const double stencil_speedup = stencil_kernel / stencil_generic;
    const ir::SDFG nest = build_nest();
    const sym::Bindings nest_binds{{"N", kNestN}, {"M", kNestN}};
    const double nest_generic = points_per_s(nest, nest_binds, false, kNestReps);
    interp::SpecStats nest_spec;
    const double nest_kernel = points_per_s(nest, nest_binds, true, kNestReps, &nest_spec);
    const double nest_speedup = nest_kernel / nest_generic;
    // points_per_s runs once to warm up, then kNestReps timed runs.
    const double nest_launches =
        static_cast<double>(nest_spec.kernel_launches) / static_cast<double>(kNestReps + 1);
    bench::banner("Kernel levels, window lanes and perfect nests - map points per second, "
                  "kernel vs generic");
    std::printf("  tiled reduction (N=%lld, tile 8): generic %12.0f pts/s, kernel %12.0f pts/s "
                "-> %.2fx (acceptance bar: >= 1.5x) %s\n",
                static_cast<long long>(kTiledN), tiled_generic, tiled_kernel, tiled_speedup,
                tiled_speedup >= 1.5 ? "PASS" : "FAIL");
    std::printf("  3-D stencil (N=%lld, 27-point window): generic %12.0f pts/s, kernel %12.0f "
                "pts/s -> %.2fx (acceptance bar: >= 5x) %s\n",
                static_cast<long long>(kStencilN), stencil_generic, stencil_kernel,
                stencil_speedup, stencil_speedup >= 5.0 ? "PASS" : "FAIL");
    std::printf("  accumulation nest (doitgen, N=M=%lld): generic %12.0f pts/s, kernel %12.0f "
                "pts/s -> %.2fx, %.2f launches/run (acceptance bar: >= 4x, 1 launch/run) %s\n",
                static_cast<long long>(kNestN), nest_generic, nest_kernel, nest_speedup,
                nest_launches, nest_speedup >= 4.0 && nest_launches == 1.0 ? "PASS" : "FAIL");

    // Crossover evidence: the same chain and points with inner extent L,
    // relative to L = 1.  Segments run whenever L > 1.
    constexpr std::int64_t kSweep[] = {2, 4, 16, 64, 256};
    struct SweepRow {
        const char* name;
        ir::DType dtype;
        double ratio[std::size(kSweep)];
    };
    SweepRow sweeps[] = {{"f64", ir::DType::F64, {}}, {"i64", ir::DType::I64, {}}};
    bench::banner("Crossover - points/s at inner extent L relative to L = 1 (same points)");
    for (SweepRow& row : sweeps) {
        const double base = measure_flat(row.dtype, 1, 20);
        std::printf("  %s: L=1 1.00x", row.name);
        for (std::size_t i = 0; i < std::size(kSweep); ++i) {
            row.ratio[i] = measure_flat(row.dtype, kSweep[i], 20) / base;
            std::printf("  L=%lld %.2fx", static_cast<long long>(kSweep[i]), row.ratio[i]);
        }
        std::printf("\n");
    }

    // Thread scaling over the shared plan cache.  FF_BENCH_THREADS overrides
    // the thread count (CI runs 1 and N and prints the ratio).
    const int threads = bench::env_threads();
    const unsigned hw = std::thread::hardware_concurrency();
    bench::banner("Parallel interpreters over a shared plan cache");
    const double one = measure_parallel(1, 4);
    const double many = threads > 1 ? measure_parallel(threads, 4) : one;
    std::printf("  1 thread : %12.0f exec/s\n", one);
    std::printf("  %d threads: %12.0f exec/s (hardware_concurrency=%u)\n", threads, many, hw);
    std::printf("  scaling ratio: %.2fx\n", many / one);

    // Machine-readable baseline (scripts/bench_hotpath_json.py).
    std::printf("BENCH_KV workload=hotpath_const_extent_f64\n");
    std::printf("BENCH_KV n=%lld m=%lld k=%lld\n", static_cast<long long>(kN),
                static_cast<long long>(kM), static_cast<long long>(kK));
    std::printf("BENCH_KV reference_exec_per_s=%.0f\n", ref);
    std::printf("BENCH_KV generic_exec_per_s=%.0f\n", generic);
    std::printf("BENCH_KV specialized_exec_per_s=%.0f\n", specialized);
    std::printf("BENCH_KV compiled_speedup=%.3f\n", compiled_speedup);
    std::printf("BENCH_KV specialization_speedup=%.3f\n", spec_speedup);
    std::printf("BENCH_KV total_speedup=%.3f\n", total_speedup);
    std::printf("BENCH_KV scopes_specialized=%lld scopes_planned=%lld scopes_segmented=%lld\n",
                static_cast<long long>(spec_stats.scopes_specialized),
                static_cast<long long>(spec_stats.scopes_planned),
                static_cast<long long>(spec_stats.scopes_segmented));
    std::printf("BENCH_KV tasklets_f64=%lld tasklets_i64=%lld tasklets_planned=%lld\n",
                static_cast<long long>(spec_stats.tasklets_f64),
                static_cast<long long>(spec_stats.tasklets_i64),
                static_cast<long long>(spec_stats.tasklets_planned));
    std::printf("BENCH_KV kernel_launches=%lld kernel_fallbacks=%lld segment_launches=%lld\n",
                static_cast<long long>(spec_stats.kernel_launches),
                static_cast<long long>(spec_stats.kernel_fallbacks),
                static_cast<long long>(spec_stats.segment_launches));
    std::printf("BENCH_KV flat_n=%lld\n", static_cast<long long>(kFlatN));
    for (const FlatRow& row : flats) {
        std::printf("BENCH_KV flat_%s_perpoint_pts_per_s=%.0f\n", row.name, row.perpoint);
        std::printf("BENCH_KV flat_%s_batched_pts_per_s=%.0f\n", row.name, row.batched);
        std::printf("BENCH_KV flat_%s_batch_speedup=%.3f\n", row.name,
                    row.batched / row.perpoint);
        std::printf("BENCH_KV flat_%s_segment_launches=%lld\n", row.name,
                    static_cast<long long>(row.segments));
    }
    for (const SweepRow& row : sweeps)
        for (std::size_t i = 0; i < std::size(kSweep); ++i)
            std::printf("BENCH_KV crossover_%s_l%lld=%.3f\n", row.name,
                        static_cast<long long>(kSweep[i]), row.ratio[i]);
    std::printf("BENCH_KV tiled_generic_pts_per_s=%.0f tiled_kernel_pts_per_s=%.0f\n",
                tiled_generic, tiled_kernel);
    std::printf("BENCH_KV tiled_speedup=%.3f\n", tiled_speedup);
    std::printf("BENCH_KV stencil_generic_pts_per_s=%.0f stencil_kernel_pts_per_s=%.0f\n",
                stencil_generic, stencil_kernel);
    std::printf("BENCH_KV stencil_speedup=%.3f\n", stencil_speedup);
    std::printf("BENCH_KV nest_generic_pts_per_s=%.0f nest_kernel_pts_per_s=%.0f\n",
                nest_generic, nest_kernel);
    std::printf("BENCH_KV nest_speedup=%.3f\n", nest_speedup);
    std::printf("BENCH_KV nest_launches_per_run=%.3f\n", nest_launches);
    std::printf("BENCH_KV parallel_1t_exec_per_s=%.0f\n", one);
    std::printf("BENCH_KV parallel_nt_exec_per_s=%.0f parallel_threads=%d\n", many, threads);
}

}  // namespace

int main(int argc, char** argv) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    print_report();
    return 0;
}
