// Specialization tiers: flat-stride map kernels + the untagged f64 VM.
//
// The contract under test: specialization is a pure execution-strategy
// choice.  For any program — any dtype mix, strided/offset/reversed subsets,
// non-affine indices, non-constant (triangular) ranges, out-of-bounds
// accesses — the specialized path (ExecConfig::specialize = true) produces
// results byte-identical to the generic compiled path and to the reference
// AST engine: same buffers bit for bit, same symbols, same crash messages.
// A fuzzing audit must therefore report byte-identical verdicts, counts and
// reproducer artifacts with specialization on or off, at any thread count
// (this file is also a TSan target: the toggle test runs 8-worker audits
// over shared plan caches carrying kernel classifications).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/cutout.h"
#include "core/fuzzer.h"
#include "core/report.h"
#include "feedback/coverage.h"
#include "helpers.h"
#include "interp/interpreter.h"
#include "interp/plan_cache.h"
#include "ir/subset.h"
#include "transforms/map_expansion.h"
#include "transforms/map_tiling.h"
#include "transforms/registry.h"
#include "workloads/matchain.h"
#include "workloads/npbench.h"

namespace ff {
namespace {

using ff::testing::expect_all_tiers_agree;
using ff::testing::make_scale_sdfg;
using ff::testing::run_cfg;
using ff::testing::TierOut;

// --- Affine analysis ---------------------------------------------------------

std::vector<const std::string*> param_ptrs(const std::vector<std::string>& names) {
    std::vector<const std::string*> out;
    for (const std::string& n : names) out.push_back(&n);
    return out;
}

TEST(AffineCoefficients, ExtractsConstantStrides) {
    using sym::cst;
    using sym::symb;
    const std::vector<std::string> params{"i", "j"};
    const auto p = param_ptrs(params);

    auto coeffs = ir::affine_coefficients(symb("i"), p);
    ASSERT_TRUE(coeffs);
    EXPECT_EQ(*coeffs, (std::vector<std::int64_t>{1, 0}));

    coeffs = ir::affine_coefficients(symb("i") * 3 + symb("j") * -2 + 7, p);
    ASSERT_TRUE(coeffs);
    EXPECT_EQ(*coeffs, (std::vector<std::int64_t>{3, -2}));

    // i appearing twice accumulates; free symbols land in the base.
    coeffs = ir::affine_coefficients(symb("i") + symb("i") + symb("N"), p);
    ASSERT_TRUE(coeffs);
    EXPECT_EQ(*coeffs, (std::vector<std::int64_t>{2, 0}));

    // A wholly param-free non-affine subtree is part of the base.
    coeffs = ir::affine_coefficients(symb("i") + sym::floordiv(symb("N"), cst(2)), p);
    ASSERT_TRUE(coeffs);
    EXPECT_EQ(*coeffs, (std::vector<std::int64_t>{1, 0}));
}

TEST(AffineCoefficients, RejectsNonAffineUses) {
    using sym::cst;
    using sym::symb;
    const std::vector<std::string> params{"i", "j"};
    const auto p = param_ptrs(params);

    EXPECT_FALSE(ir::affine_coefficients(symb("i") * symb("j"), p));       // bilinear
    EXPECT_FALSE(ir::affine_coefficients(symb("i") * symb("N"), p));       // symbolic stride
    EXPECT_FALSE(ir::affine_coefficients(sym::floordiv(symb("i"), cst(2)), p));
    EXPECT_FALSE(ir::affine_coefficients(sym::mod(symb("j"), cst(3)), p));
    EXPECT_FALSE(ir::affine_coefficients(sym::min(symb("i"), cst(5)), p));
    EXPECT_FALSE(ir::affine_coefficients(symb("i") * (std::int64_t{1} << 30), p));  // bound
}

// --- f64 feasibility of tasklet programs -------------------------------------

TEST(F64Variant, FloatOnlyProgramsQualify) {
    EXPECT_TRUE(interp::TaskletProgram::parse("o = a * 2.0 + 1.0")->has_f64_variant());
    EXPECT_TRUE(interp::TaskletProgram::parse("o = a > 0.0 ? a : -a")->has_f64_variant());
    EXPECT_TRUE(interp::TaskletProgram::parse("t = a * b; o = sqrt(t) + min(a, b)")
                    ->has_f64_variant());
    // Small-integer booleans/constants are exactly representable as doubles;
    // the tagged VM compares and promotes through as_double anyway.
    EXPECT_TRUE(interp::TaskletProgram::parse("o = (a > 0.5) + (b > 0.5) * 3")
                    ->has_f64_variant());
    // Float division is representation-identical.
    EXPECT_TRUE(interp::TaskletProgram::parse("o = a / 2.0")->has_f64_variant());
}

TEST(F64Variant, IntSemanticsForceTheTaggedVM) {
    // Both operands can be integers at runtime: floor division / modulo
    // (and the int-div-by-zero crash) only exist in the tagged VM.  (A fully
    // constant `7 / 2` folds at compile time and stays eligible.)
    EXPECT_TRUE(interp::TaskletProgram::parse("o = 7 / 2 + a * 0.0")->has_f64_variant());
    EXPECT_FALSE(interp::TaskletProgram::parse("o = (a > 1.0) / 2 + a * 0.0")->has_f64_variant());
    EXPECT_FALSE(
        interp::TaskletProgram::parse("o = (a > 0) / (b > 0) + a")->has_f64_variant());
    EXPECT_FALSE(interp::TaskletProgram::parse("o = (a > 0) % 2 + a")->has_f64_variant());
    // Integer magnitudes beyond 2^50 could round in double representation.
    EXPECT_FALSE(interp::TaskletProgram::parse("o = (a > 0) * 1125899906842625 + a")
                     ->has_f64_variant());
    // a / 2 is fine when a is a float input (inputs arrive as doubles).
    EXPECT_TRUE(interp::TaskletProgram::parse("o = a / 2")->has_f64_variant());
}

// --- Classification + counters on a known program ----------------------------

TEST(Specialization, ScaleMapClassifiesAndLaunches) {
    const ir::SDFG p = make_scale_sdfg();  // y[i] = x[i] * 2, f64, affine
    interp::Interpreter interp;            // specialize = true by default
    interp::Context ctx;
    ctx.symbols["N"] = 16;
    ctx.buffers.emplace("x", ff::testing::make_buffer(std::vector<double>(16, 1.5)));
    ASSERT_TRUE(interp.run(p, ctx).ok());

    const interp::SpecStats stats = interp.plan_cache()->spec_stats();
    EXPECT_EQ(stats.scopes_planned, 1);
    EXPECT_EQ(stats.scopes_specialized, 1);
    EXPECT_EQ(stats.scopes_segmented, 1);  // straight-line f64: segment-eligible
    EXPECT_EQ(stats.tasklets_planned, 1);
    EXPECT_EQ(stats.tasklets_f64, 1);
    EXPECT_EQ(stats.tasklets_i64, 0);
    EXPECT_EQ(stats.kernel_launches, 1);
    EXPECT_EQ(stats.kernel_fallbacks, 0);
    EXPECT_EQ(stats.segment_launches, 1);  // inner extent 16 > 1: one segment
    EXPECT_EQ(ctx.buffers.at("y").load_double(7), 3.0);
}

TEST(Specialization, OutOfBoundsFootprintFallsBackAndCrashesIdentically) {
    // y[i] = x[i + 60] over i in 0:15 with |x| = 64: points 0..3 succeed,
    // point 4 faults.  The kernel must refuse the launch (footprint) and the
    // generic path must reproduce the exact partial effects + error.
    ir::SDFG p("oob");
    p.add_array("x", ir::DType::F64, {sym::cst(64)});
    p.add_array("y", ir::DType::F64, {sym::cst(16)});
    ir::State& st = p.state(p.add_state("main", true));
    const ir::NodeId x = st.add_access("x");
    auto [entry, exit] = st.add_map("m", {"i"}, {ir::Range::full(sym::cst(16))});
    const ir::NodeId t = st.add_tasklet("t", "o = i * 2.0");
    const ir::NodeId y = st.add_access("y");
    st.add_edge(x, "", entry, "", ir::Memlet("x", ir::Subset::full({sym::cst(64)})));
    st.add_edge(entry, "", t, "i",
                ir::Memlet("x", ir::Subset{{ir::Range::index(sym::symb("i") + 60)}}));
    st.add_edge(t, "o", exit, "", ir::Memlet("y", ir::Subset{{ir::Range::index(sym::symb("i"))}}));
    st.add_edge(exit, "", y, "", ir::Memlet("y", ir::Subset::full({sym::cst(16)})));

    auto run_with = [&](bool specialize) {
        interp::ExecConfig cfg;
        cfg.specialize = specialize;
        interp::Interpreter interp(cfg);
        interp::Context ctx;
        std::vector<double> xv(64);
        for (int i = 0; i < 64; ++i) xv[static_cast<std::size_t>(i)] = i;
        ctx.buffers.emplace("x", ff::testing::make_buffer(xv));
        const interp::ExecResult r = interp.run(p, ctx);
        return std::make_pair(r, std::move(ctx));
    };
    auto [r_spec, ctx_spec] = run_with(true);
    auto [r_gen, ctx_gen] = run_with(false);
    EXPECT_EQ(r_spec.status, interp::ExecStatus::Crash);
    EXPECT_EQ(r_spec.status, r_gen.status);
    EXPECT_EQ(r_spec.message, r_gen.message);
    ASSERT_TRUE(ctx_spec.has_buffer("y"));
    EXPECT_TRUE(ctx_spec.buffers.at("y").bitwise_equal(ctx_gen.buffers.at("y")))
        << "partial effects before the crash must match";
}

TEST(Specialization, ThrowingTaskletNeverKernelizes) {
    // An I64 map whose tasklet divides by a runtime-zero value: the VM
    // throws at the first point.  The scope must not classify as a
    // flat-stride kernel (its pre-pass would allocate the output buffer the
    // generic path never reaches), so crashed contexts stay identical.
    ir::SDFG p("divzero");
    p.add_array("x", ir::DType::I64, {sym::cst(8)});
    p.add_array("y", ir::DType::I64, {sym::cst(8)});
    ir::State& st = p.state(p.add_state("main", true));
    const ir::NodeId x = st.add_access("x");
    auto [entry, exit] = st.add_map("m", {"i"}, {ir::Range::full(sym::cst(8))});
    const ir::NodeId t = st.add_tasklet("t", "o = i % (i - i)");
    const ir::NodeId y = st.add_access("y");
    st.add_edge(x, "", entry, "", ir::Memlet("x", ir::Subset::full({sym::cst(8)})));
    st.add_edge(entry, "", t, "i",
                ir::Memlet("x", ir::Subset{{ir::Range::index(sym::symb("i"))}}));
    st.add_edge(t, "o", exit, "", ir::Memlet("y", ir::Subset{{ir::Range::index(sym::symb("i"))}}));
    st.add_edge(exit, "", y, "", ir::Memlet("y", ir::Subset::full({sym::cst(8)})));

    auto run_with = [&](bool specialize) {
        interp::ExecConfig cfg;
        cfg.specialize = specialize;
        interp::Interpreter interp(cfg);
        interp::Context ctx;
        interp::Buffer xv(ir::DType::I64, {8});
        for (int i = 0; i < 8; ++i) xv.store(i, interp::Value::from_int(i + 1));
        ctx.buffers.emplace("x", std::move(xv));
        const interp::ExecResult r = interp.run(p, ctx);
        const interp::SpecStats stats = interp.plan_cache()->spec_stats();
        return std::make_tuple(r, std::move(ctx), stats);
    };
    auto [r_spec, ctx_spec, stats_spec] = run_with(true);
    auto [r_gen, ctx_gen, stats_gen] = run_with(false);
    EXPECT_EQ(r_spec.status, interp::ExecStatus::Crash);
    EXPECT_EQ(r_spec.status, r_gen.status);
    EXPECT_EQ(r_spec.message, r_gen.message);
    EXPECT_EQ(stats_spec.scopes_specialized, 0);  // throw-capable: not kernelized
    ASSERT_EQ(ctx_spec.buffers.size(), ctx_gen.buffers.size())
        << "crashed contexts must hold the same buffer set";
}

TEST(Specialization, MultiOutputOobLeavesLaterOutputsUnallocated) {
    // All-F64 two-output tasklet whose first output index is out of bounds:
    // the tagged path ensures each output's buffer lazily at its own
    // scatter, so the crash leaves the second output unallocated.  The f64
    // path must not pre-allocate it — crashed contexts hold the same buffer
    // set with specialization on or off.
    ir::SDFG p("multioob");
    p.add_array("x", ir::DType::F64, {sym::cst(8)});
    p.add_array("y", ir::DType::F64, {sym::cst(8)});
    p.add_array("z", ir::DType::F64, {sym::cst(8)});
    ir::State& st = p.state(p.add_state("main", true));
    const ir::NodeId x = st.add_access("x");
    auto [entry, exit] = st.add_map("m", {"i"}, {ir::Range::full(sym::cst(8))});
    const ir::NodeId t = st.add_tasklet("t", "o1 = i * 2.0; o2 = i + 1.0");
    const ir::NodeId y = st.add_access("y");
    const ir::NodeId z = st.add_access("z");
    const auto idx = [](sym::ExprPtr e) { return ir::Subset{{ir::Range::index(e)}}; };
    st.add_edge(x, "", entry, "", ir::Memlet("x", ir::Subset::full({sym::cst(8)})));
    st.add_edge(entry, "", t, "i", ir::Memlet("x", idx(sym::symb("i"))));
    st.add_edge(t, "o1", exit, "", ir::Memlet("y", idx(sym::symb("i") + 40)));  // OOB
    st.add_edge(t, "o2", exit, "", ir::Memlet("z", idx(sym::symb("i"))));
    st.add_edge(exit, "", y, "", ir::Memlet("y", ir::Subset::full({sym::cst(8)})));
    st.add_edge(exit, "", z, "", ir::Memlet("z", ir::Subset::full({sym::cst(8)})));

    auto run_with = [&](bool specialize) {
        interp::ExecConfig cfg;
        cfg.specialize = specialize;
        interp::Interpreter interp(cfg);
        interp::Context ctx;
        ctx.buffers.emplace("x", ff::testing::make_buffer(std::vector<double>(8, 1.0)));
        const interp::ExecResult r = interp.run(p, ctx);
        return std::make_pair(r, std::move(ctx));
    };
    auto [r_spec, ctx_spec] = run_with(true);
    auto [r_gen, ctx_gen] = run_with(false);
    EXPECT_EQ(r_spec.status, interp::ExecStatus::Crash);
    EXPECT_EQ(r_spec.status, r_gen.status);
    EXPECT_EQ(r_spec.message, r_gen.message);
    EXPECT_FALSE(ctx_gen.has_buffer("z")) << "tagged path must not allocate past the crash";
    EXPECT_EQ(ctx_spec.buffers.size(), ctx_gen.buffers.size())
        << "crashed contexts must hold the same buffer set";
}

TEST(Specialization, ThrowingSiblingLaneFallsBackToGenericReplay) {
    // Two tasklets in one map scope; T2's index contains an unbound symbol
    // (affine in the params, so the scope still classifies).  The generic
    // path executes T1 at the first point *before* throwing at T2's gather;
    // the kernel pre-pass must not shortcut that — it catches the throw,
    // falls back, and the generic replay reproduces both the partial
    // effects and the error.
    ir::SDFG p("sibling");
    p.add_symbol("Q");  // never bound at runtime
    p.add_array("x", ir::DType::F64, {sym::cst(8)});
    p.add_array("y", ir::DType::F64, {sym::cst(8)});
    p.add_array("z", ir::DType::F64, {sym::cst(8)});
    ir::State& st = p.state(p.add_state("main", true));
    const ir::NodeId x = st.add_access("x");
    auto [entry, exit] = st.add_map("m", {"i"}, {ir::Range::full(sym::cst(8))});
    const ir::NodeId t1 = st.add_tasklet("t1", "o = i + 1.0");
    const ir::NodeId t2 = st.add_tasklet("t2", "o = i * 2.0");
    const ir::NodeId y = st.add_access("y");
    const ir::NodeId z = st.add_access("z");
    const auto idx = [](sym::ExprPtr e) { return ir::Subset{{ir::Range::index(e)}}; };
    st.add_edge(x, "", entry, "", ir::Memlet("x", ir::Subset::full({sym::cst(8)})));
    st.add_edge(entry, "", t1, "i", ir::Memlet("x", idx(sym::symb("i"))));
    st.add_edge(t1, "o", exit, "", ir::Memlet("y", idx(sym::symb("i"))));
    st.add_edge(entry, "", t2, "i", ir::Memlet("x", idx(sym::symb("i") + sym::symb("Q"))));
    st.add_edge(t2, "o", exit, "", ir::Memlet("z", idx(sym::symb("i"))));
    st.add_edge(exit, "", y, "", ir::Memlet("y", ir::Subset::full({sym::cst(8)})));
    st.add_edge(exit, "", z, "", ir::Memlet("z", ir::Subset::full({sym::cst(8)})));

    auto run_with = [&](bool specialize) {
        interp::ExecConfig cfg;
        cfg.specialize = specialize;
        interp::Interpreter interp(cfg);
        interp::Context ctx;
        ctx.buffers.emplace("x", ff::testing::make_buffer(
                                     std::vector<double>{0, 1, 2, 3, 4, 5, 6, 7}));
        const interp::ExecResult r = interp.run(p, ctx);
        const interp::SpecStats stats = interp.plan_cache()->spec_stats();
        return std::make_tuple(r, std::move(ctx), stats);
    };
    auto [r_spec, ctx_spec, stats_spec] = run_with(true);
    auto [r_gen, ctx_gen, stats_gen] = run_with(false);
    EXPECT_EQ(r_spec.status, interp::ExecStatus::Crash);
    EXPECT_EQ(r_spec.status, r_gen.status);
    EXPECT_EQ(r_spec.message, r_gen.message);
    // The scope classified — and with two straight-line f64 tasklets it is
    // even segment-eligible — yet the launch fell back (no commit, no
    // segment): a misclassification the per-launch validation catches must
    // reach the generic replay, never the column VM.
    EXPECT_EQ(stats_spec.scopes_specialized, 1);
    EXPECT_EQ(stats_spec.scopes_segmented, 1);
    EXPECT_EQ(stats_spec.kernel_fallbacks, 1);
    EXPECT_EQ(stats_spec.kernel_launches, 0);
    EXPECT_EQ(stats_spec.segment_launches, 0);
    // T1's first-point effect must be present on both paths.
    ASSERT_TRUE(ctx_spec.has_buffer("y"));
    ASSERT_TRUE(ctx_gen.has_buffer("y"));
    EXPECT_EQ(ctx_spec.buffers.at("y").load_double(0), 1.0);
    EXPECT_TRUE(ctx_spec.buffers.at("y").bitwise_equal(ctx_gen.buffers.at("y")));
}

// --- Differential property test ----------------------------------------------
//
// 420 random programs spanning dtypes, ranks 1-3, strided/offset/reversed
// subsets, non-affine indices, triangular (non-constant, sometimes empty)
// ranges, tiled nests with remainder tiles, perfect nests of 2-3 scopes,
// window inputs and occasional out-of-bounds offsets.  Reference AST engine,
// generic compiled path and specialized path must agree bit for bit —
// results and crash messages.

struct RandomProgram {
    ir::SDFG p{"prop"};
    interp::Context inputs;
    bool windows = false;  ///< Some stage reads a window input.
    bool tiles = false;    ///< Some stage iterates a tiled nest.
    bool nests = false;    ///< Some stage splits its levels into a perfect nest.
};

ir::DType pick_dtype(common::Rng& rng) {
    switch (rng.uniform_int(0, 3)) {
        case 0: return ir::DType::F64;
        case 1: return ir::DType::F32;
        case 2: return ir::DType::I64;
        default: return ir::DType::I32;
    }
}

interp::Buffer random_buffer(common::Rng& rng, ir::DType dtype,
                             const std::vector<std::int64_t>& shape) {
    interp::Buffer buf(dtype, shape);
    for (std::int64_t i = 0; i < buf.size(); ++i) {
        if (ir::dtype_is_float(dtype))
            buf.store(i, interp::Value::from_double(rng.uniform_double(-8.0, 8.0)));
        else
            buf.store(i, interp::Value::from_int(rng.uniform_int(-9, 9)));
    }
    return buf;
}

/// One random elementwise map stage reading `in_name` and writing a fresh
/// container; returns the output access node.  Some stages read a window
/// input (a stencil-style span per dimension) and some iterate a tiled
/// nest: tile parameters first, then points in [tile, min(tile + T - 1,
/// end)] with a remainder tile whenever T does not divide the extent.
ir::NodeId random_stage(common::Rng& rng, RandomProgram& rp, ir::State& st, ir::NodeId in_access,
                        int stage) {
    ir::SDFG& p = rp.p;
    const std::string in_name = st.graph().node(in_access).data;
    const std::vector<sym::ExprPtr>& in_shape = p.container(in_name).shape;
    const std::size_t rank = in_shape.size();

    // Output container (occasionally a different dtype than the input), and
    // sometimes a second output — multi-output tasklets exercise the lazy
    // per-scatter allocation order when an earlier output faults.
    const std::string out_name = "s" + std::to_string(stage);
    const ir::DType out_dtype = pick_dtype(rng);
    std::vector<sym::ExprPtr> out_shape = in_shape;
    p.add_array(out_name, out_dtype, out_shape, /*transient=*/false);
    const bool window = rng.chance(0.3);
    const bool two_outputs = !window && rng.chance(0.25);
    const std::string out2_name = out_name + "b";
    if (two_outputs) p.add_array(out2_name, pick_dtype(rng), out_shape, /*transient=*/false);

    // Iteration space: smaller than the containers so strides/offsets fit.
    const bool tiled = rng.chance(0.25);
    rp.tiles |= tiled;
    rp.windows |= window;
    std::vector<std::string> params, tile_params;
    std::vector<ir::Range> ranges, tile_ranges;
    std::vector<sym::ExprPtr> in_idx, out_idx, out2_idx;
    for (std::size_t d = 0; d < rank; ++d) {
        const std::string param = "p" + std::to_string(stage) + "_" + std::to_string(d);
        params.push_back(param);
        const std::int64_t extent = rng.uniform_int(2, 4);
        if (tiled) {
            const std::int64_t tiled_extent = rng.uniform_int(3, 5);
            const std::int64_t tile = rng.uniform_int(2, 3);
            tile_params.push_back(param + "__tile");
            tile_ranges.push_back(
                ir::Range{sym::cst(0), sym::cst(tiled_extent - 1), sym::cst(tile)});
            const sym::ExprPtr pt = sym::symb(tile_params.back());
            ranges.push_back(ir::Range{pt, sym::min(pt + (tile - 1), sym::cst(tiled_extent - 1)),
                                       sym::cst(1)});
        } else switch (rng.uniform_int(0, 4)) {
            case 0:  // plain 0 .. extent-1
                ranges.push_back(ir::Range::full(sym::cst(extent)));
                break;
            case 1:  // reversed: extent-1 .. 0 step -1
                ranges.push_back(ir::Range{sym::cst(extent - 1), sym::cst(0), sym::cst(-1)});
                break;
            case 2:  // offset window
                ranges.push_back(
                    ir::Range{sym::cst(1), sym::cst(extent), sym::cst(1)});
                break;
            case 3:  // strided iteration
                ranges.push_back(
                    ir::Range{sym::cst(0), sym::cst(2 * (extent - 1)), sym::cst(2)});
                break;
            default:  // triangular against the previous param: the kernel
                      // covers the levels below it (kernel levels); from 1,
                      // the level is empty wherever the previous one is 0
                if (d > 0 && rng.chance(0.8))
                    ranges.push_back(ir::Range{sym::cst(rng.uniform_int(0, 1)),
                                               sym::symb(params[d - 1]), sym::cst(1)});
                else
                    ranges.push_back(ir::Range::full(sym::cst(extent)));
                break;
        }
        const sym::ExprPtr pv = sym::symb(param);
        // Index expressions: identity / offset / strided / reversed /
        // non-affine (floordiv) / occasionally deliberately out of bounds.
        auto pick_index = [&](bool allow_oob) -> sym::ExprPtr {
            switch (rng.uniform_int(0, allow_oob ? 5 : 4)) {
                case 0: return pv;
                case 1: return pv + rng.uniform_int(0, 2);
                case 2: return pv * rng.uniform_int(1, 2);
                case 3: return pv * 2 + 1;
                case 4: return sym::floordiv(pv + 3, sym::cst(2));  // non-affine
                default: return pv + 40;  // far out of bounds: crash path
            }
        };
        in_idx.push_back(pick_index(rng.chance(0.06)));
        out_idx.push_back(pick_index(rng.chance(0.05)));
        out2_idx.push_back(pick_index(rng.chance(0.05)));
    }

    // Tasklet code: a mix of f64-friendly, int-heavy and branchy programs.
    static const char* kCodes[] = {
        "o = i * 2.0 + 1.0",
        "o = i > 0.0 ? i : -i",
        "t = i * i; o = t > 4.0 ? sqrt(t) : t * 0.5",
        "o = min(i, 3.0) + max(i, -3.0) * 0.25",
        "o = (i > 0.5) + (i > 2.5) * 3",
        "o = i / 2",
        "o = i % 3 + i",
        "o = floor(i) + select(i > 1.0, i, -i)",
        "o = exp(min(i, 2.0)) - tanh(i)",
        "o = 7 / 2 + i * 1",
        "o = i % (i - i)",  // int dtypes: mod-by-zero crash at every point
    };
    static const char* kTwoOutCodes[] = {
        "o = i * 2.0 + 1.0; q = i - 0.5",
        "o = i > 0.0 ? i : -i; q = o * 2.0",
        "o = min(i, 2.0); q = (i > 1.0) + (i > 3.0)",
    };
    // Window stages read connector `w` over a forward span per dimension;
    // codes declaring more lanes than the window holds crash with a
    // missing input connector on every tier.
    static const char* kWindowCodes[] = {
        "o = w[0] * 2.0 + 1.0",
        "o = w[0] - w[1] * 0.5",
        "o = w[0] + w[1] - w[2]",
        "o = max(w[0], w[3]) * 2",
        "o = w[0] * 3 + w[7] - w[5]",
    };
    const std::string code = window        ? kWindowCodes[rng.uniform_int(0, 4)]
                             : two_outputs ? kTwoOutCodes[rng.uniform_int(0, 2)]
                                           : kCodes[rng.uniform_int(0, 10)];

    tile_params.insert(tile_params.end(), params.begin(), params.end());
    tile_ranges.insert(tile_ranges.end(), ranges.begin(), ranges.end());

    // Some stages split their levels into a perfect nest of 2-3 scopes, so
    // triangular and tiled ranges also land across scopes: a chain range
    // reading an owner level moves the kernel's first level (to the owner's
    // parameter count when it reads the owner's last), one reading a chain
    // level keeps the nest unfused.
    const std::size_t nlevels = tile_params.size();
    std::vector<std::size_t> cuts;
    if (nlevels >= 2 && rng.chance(0.35)) {
        rp.nests = true;
        const std::size_t splits =
            std::min<std::size_t>(nlevels - 1, static_cast<std::size_t>(rng.uniform_int(1, 2)));
        while (cuts.size() < splits) {
            const auto c = static_cast<std::size_t>(
                rng.uniform_int(1, static_cast<std::int64_t>(nlevels) - 1));
            if (std::find(cuts.begin(), cuts.end(), c) == cuts.end()) cuts.push_back(c);
        }
        std::sort(cuts.begin(), cuts.end());
    }
    cuts.insert(cuts.begin(), 0);
    cuts.push_back(nlevels);
    std::vector<std::pair<ir::NodeId, ir::NodeId>> maps;
    for (std::size_t s = 0; s + 1 < cuts.size(); ++s) {
        const auto lo = static_cast<std::ptrdiff_t>(cuts[s]);
        const auto hi = static_cast<std::ptrdiff_t>(cuts[s + 1]);
        maps.push_back(st.add_map(
            "m" + std::to_string(stage) + (s > 0 ? "_" + std::to_string(s) : ""),
            {tile_params.begin() + lo, tile_params.begin() + hi},
            {tile_ranges.begin() + lo, tile_ranges.begin() + hi}));
    }
    // Scope-boundary edges carry whole containers; the tasklet connects to
    // the innermost scope.
    const ir::NodeId entry = maps.back().first, exit = maps.back().second;
    for (std::size_t s = 0; s + 1 < maps.size(); ++s) {
        st.add_edge(maps[s].first, "", maps[s + 1].first, "",
                    ir::Memlet(in_name, ir::Subset::full(in_shape)));
        st.add_edge(maps[s + 1].second, "", maps[s].second, "",
                    ir::Memlet(out_name, ir::Subset::full(out_shape)));
        if (two_outputs)
            st.add_edge(maps[s + 1].second, "", maps[s].second, "",
                        ir::Memlet(out2_name, ir::Subset::full(out_shape)));
    }

    const ir::NodeId t = st.add_tasklet("t" + std::to_string(stage), code);
    const ir::NodeId out_acc = st.add_access(out_name);
    st.add_edge(in_access, "", maps.front().first, "",
                ir::Memlet(in_name, ir::Subset::full(in_shape)));
    ir::Subset in_point, in_window, out_point;
    for (std::size_t d = 0; d < rank; ++d) {
        in_point.ranges.push_back(ir::Range::index(in_idx[d]));
        in_window.ranges.push_back(ir::Range::span(in_idx[d], in_idx[d] + rng.uniform_int(0, 2)));
        out_point.ranges.push_back(ir::Range::index(out_idx[d]));
    }
    st.add_edge(entry, "", t, window ? "w" : "i",
                ir::Memlet(in_name, window ? in_window : in_point));
    // A side-effect-only window: bound, bounds-checked, never read.
    if (window && rng.chance(0.25)) st.add_edge(entry, "", t, "u", ir::Memlet(in_name, in_window));
    st.add_edge(t, "o", exit, "", ir::Memlet(out_name, out_point));
    if (two_outputs) {
        ir::Subset out2_point;
        for (std::size_t d = 0; d < rank; ++d)
            out2_point.ranges.push_back(ir::Range::index(out2_idx[d]));
        const ir::NodeId out2_acc = st.add_access(out2_name);
        st.add_edge(t, "q", exit, "", ir::Memlet(out2_name, out2_point));
        st.add_edge(maps.front().second, "", out2_acc, "",
                    ir::Memlet(out2_name, ir::Subset::full(out_shape)));
    }
    st.add_edge(maps.front().second, "", out_acc, "",
                ir::Memlet(out_name, ir::Subset::full(out_shape)));
    return out_acc;
}

RandomProgram make_random_program(std::uint64_t seed) {
    common::Rng rng(seed);
    RandomProgram rp;
    const std::size_t rank = static_cast<std::size_t>(rng.uniform_int(1, 3));
    std::vector<sym::ExprPtr> shape;
    std::vector<std::int64_t> concrete;
    for (std::size_t d = 0; d < rank; ++d) {
        // Room for stride-2 + offset indexing of a 2..4 extent space.
        const std::int64_t extent = rng.uniform_int(10, 14);
        shape.push_back(sym::cst(extent));
        concrete.push_back(extent);
    }
    const ir::DType in_dtype = pick_dtype(rng);
    rp.p.add_array("a0", in_dtype, shape);
    ir::State& st = rp.p.state(rp.p.add_state("main", true));
    ir::NodeId cur = st.add_access("a0");
    const int stages = static_cast<int>(rng.uniform_int(1, 2));
    for (int s = 0; s < stages; ++s) cur = random_stage(rng, rp, st, cur, s);
    rp.inputs.buffers.emplace("a0", random_buffer(rng, in_dtype, concrete));
    return rp;
}

/// Bitwise equality, except that any two NaNs match when `nan_equiv`.
/// Cross-engine comparisons need that looseness: which NaN payload `a + b`
/// propagates is unspecified in C++, so the reference AST walker and the
/// bytecode VM (different translation units, different instruction
/// selection) can legally differ in NaN sign/payload bits.  The
/// specialize-on/off comparison stays strictly bitwise — both run the same
/// VM code, and byte-identical reports are this PR's contract.
bool buffers_equal(const interp::Buffer& a, const interp::Buffer& b, bool nan_equiv) {
    if (!nan_equiv) return a.bitwise_equal(b);
    if (a.dtype() != b.dtype() || a.shape() != b.shape()) return false;
    for (std::int64_t i = 0; i < a.size(); ++i) {
        const double x = a.load_double(i);
        const double y = b.load_double(i);
        if (std::isnan(x) && std::isnan(y)) continue;
        if (std::memcmp(&x, &y, sizeof(double)) != 0) return false;
    }
    return true;
}

void expect_context_equal(const interp::Context& a, const interp::Context& b,
                          const std::string& what, bool nan_equiv = false) {
    EXPECT_EQ(a.symbols, b.symbols) << what;
    ASSERT_EQ(a.buffers.size(), b.buffers.size()) << what;
    auto ita = a.buffers.begin();
    auto itb = b.buffers.begin();
    for (; ita != a.buffers.end(); ++ita, ++itb) {
        EXPECT_EQ(ita->first, itb->first) << what;
        EXPECT_TRUE(buffers_equal(ita->second, itb->second, nan_equiv))
            << what << ": buffer '" << ita->first << "' differs";
    }
}

/// The plan `plans` holds for `state` of `p`, built by an earlier run.
std::shared_ptr<const interp::StatePlan> built_plan(const interp::PlanCachePtr& plans,
                                                    const ir::SDFG& p, const ir::State& state) {
    return plans->get_or_build(interp::PlanKey{p.plan_uid(), p.mutation_epoch(), &state},
                               []() -> interp::StatePlan {
                                   throw std::logic_error("state never planned");
                               });
}

/// Whether some scope of `p`'s states carries a kernel spanning a nest.
bool fuses_a_nest(const interp::PlanCachePtr& plans, const ir::SDFG& p) {
    for (const ir::StateId sid : p.states())
        for (const interp::ScopeKernel& k : built_plan(plans, p, p.state(sid))->kernels)
            if (!k.chain.empty()) return true;
    return false;
}

TEST(SpecializationProperty, AllTiersAgreeOn420Programs) {
    int crashes = 0, kernels = 0, f64s = 0, i64s = 0, segments = 0;
    int window_kernels = 0, tiled_kernels = 0, nest_kernels = 0;
    for (std::uint64_t seed = 0; seed < 420; ++seed) {
        const RandomProgram rp = make_random_program(0xC0FFEE00ULL + seed);

        const TierOut spec = run_cfg(rp.p, rp.inputs, true, true);
        const TierOut generic = run_cfg(rp.p, rp.inputs, true, false);
        const TierOut reference = run_cfg(rp.p, rp.inputs, false, false);

        const std::string what = "seed " + std::to_string(seed);
        EXPECT_EQ(spec.res.status, generic.res.status) << what;
        EXPECT_EQ(spec.res.message, generic.res.message) << what;
        EXPECT_EQ(spec.res.status, reference.res.status) << what;
        EXPECT_EQ(spec.res.message, reference.res.message) << what;
        expect_context_equal(spec.ctx, generic.ctx, what + " (spec vs generic)");
        if (spec.res.ok())
            expect_context_equal(spec.ctx, reference.ctx, what + " (spec vs reference)",
                                 /*nan_equiv=*/true);

        crashes += spec.res.ok() ? 0 : 1;
        kernels += static_cast<int>(spec.stats.kernel_launches);
        f64s += static_cast<int>(spec.stats.tasklets_f64);
        i64s += static_cast<int>(spec.stats.tasklets_i64);
        segments += static_cast<int>(spec.stats.segment_launches);
        window_kernels += rp.windows && spec.stats.kernel_launches > 0 ? 1 : 0;
        tiled_kernels += rp.tiles && spec.stats.kernel_launches > 0 ? 1 : 0;
        nest_kernels +=
            rp.nests && spec.stats.kernel_launches > 0 && fuses_a_nest(spec.plans, rp.p) ? 1 : 0;
    }
    // The generator must actually exercise every tier.
    EXPECT_GT(kernels, 50) << "flat-stride kernels barely exercised";
    EXPECT_GT(f64s, 20) << "untagged double VM barely exercised";
    EXPECT_GT(i64s, 10) << "untagged int64 VM barely exercised";
    EXPECT_GT(segments, 20) << "column-width untagged VM barely exercised";
    EXPECT_GT(window_kernels, 20) << "window lanes barely exercised";
    EXPECT_GT(tiled_kernels, 20) << "kernel levels under tile parameters barely exercised";
    EXPECT_GT(nest_kernels, 20) << "kernels spanning perfect nests barely exercised";
    EXPECT_GT(crashes, 5) << "crash paths barely exercised";
    EXPECT_LT(crashes, 300) << "generator crashes too often to test value paths";
}

// --- Pinned kernel-level and window fixtures ----------------------------------
//
// Each fixture runs the reference, generic and specialized tiers and
// requires the same status, message and buffers; classification is a plan
// property, so every tier reports the same scopes_specialized.

/// y[i] = code(inputs) over i in [1, 8] with |x| = |y| = 10, where each
/// input connector reads the window x[i + lo : i + hi].
struct WindowInput {
    std::string conn;
    std::int64_t lo, hi;
};
ir::SDFG make_window_sdfg(const std::string& code, const std::vector<WindowInput>& ins) {
    ir::SDFG p("window");
    p.add_array("x", ir::DType::F64, {sym::cst(10)});
    p.add_array("y", ir::DType::F64, {sym::cst(10)});
    ir::State& st = p.state(p.add_state("main", true));
    const ir::NodeId x = st.add_access("x");
    auto [entry, exit] = st.add_map("m", {"i"}, {ir::Range::span(sym::cst(1), sym::cst(8))});
    const ir::NodeId t = st.add_tasklet("t", code);
    const sym::ExprPtr i = sym::symb("i");
    st.add_edge(x, "", entry, "", ir::Memlet("x", ir::Subset::full({sym::cst(10)})));
    for (const WindowInput& in : ins)
        st.add_edge(entry, "", t, in.conn,
                    ir::Memlet("x", ir::Subset{{ir::Range::span(i + in.lo, i + in.hi)}}));
    st.add_edge(t, "o", exit, "", ir::Memlet("y", ir::Subset{{ir::Range::index(i)}}));
    st.add_edge(exit, "", st.add_access("y"), "",
                ir::Memlet("y", ir::Subset::full({sym::cst(10)})));
    return p;
}

interp::Context window_inputs() {
    interp::Context ctx;
    ctx.buffers.emplace("x", ff::testing::make_buffer(
                                 std::vector<double>{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}));
    return ctx;
}

TEST(KernelFixtures, WindowLanesRunTheStencil) {
    const ir::SDFG p = make_window_sdfg("o = w[0] - 2.0 * w[1] + w[2]", {{"w", -1, 1}});
    const TierOut spec = expect_all_tiers_agree(p, window_inputs(), "3-point stencil");
    ASSERT_TRUE(spec.res.ok()) << spec.res.message;
    EXPECT_EQ(spec.stats.scopes_specialized, 1);
    EXPECT_EQ(spec.stats.tasklets_f64, 1);  // window inputs admit the untagged VM
    EXPECT_EQ(spec.stats.kernel_launches, 1);
    EXPECT_EQ(spec.stats.segment_launches, 1);
    EXPECT_EQ(spec.ctx.buffers.at("y").load_double(1), 3.0 - 2.0 * 1.0 + 4.0);
}

TEST(KernelFixtures, WindowCrossingTheBufferEdgeFallsBackToTheSameCrash) {
    // x[i - 1 : i + 2] reaches x[10] at i = 8: points 1..7 commit on the
    // generic path, then it crashes; the kernel must refuse the launch.
    const ir::SDFG p = make_window_sdfg("o = w[0] + w[3]", {{"w", -1, 2}});
    const TierOut spec = expect_all_tiers_agree(p, window_inputs(), "edge-crossing window");
    EXPECT_EQ(spec.res.status, interp::ExecStatus::Crash);
    EXPECT_EQ(spec.stats.scopes_specialized, 1);
    EXPECT_EQ(spec.stats.kernel_fallbacks, 1);
    EXPECT_EQ(spec.stats.kernel_launches, 0);
    EXPECT_EQ(spec.ctx.buffers.at("y").load_double(7), 2.0 + 3.0) << "partial effects kept";
}

TEST(KernelFixtures, DeclaredWidthBeyondTheWindowVolumeRaisesMissingInput) {
    const ir::SDFG p = make_window_sdfg("o = w[0] + w[2]", {{"w", 0, 1}});
    const TierOut spec = expect_all_tiers_agree(p, window_inputs(), "width 3, volume 2");
    EXPECT_EQ(spec.res.status, interp::ExecStatus::Crash);
    EXPECT_NE(spec.res.message.find("missing input connector 'w'"), std::string::npos)
        << spec.res.message;
    EXPECT_EQ(spec.stats.scopes_specialized, 1);
    EXPECT_EQ(spec.stats.kernel_fallbacks, 1);
}

TEST(KernelFixtures, SideEffectOnlyWindowIsValidatedWithoutLanes) {
    const ir::SDFG ok = make_window_sdfg("o = w[0] * 0.5", {{"w", 0, 0}, {"u", -1, 1}});
    const TierOut spec = expect_all_tiers_agree(ok, window_inputs(), "unread window in bounds");
    ASSERT_TRUE(spec.res.ok()) << spec.res.message;
    EXPECT_EQ(spec.stats.scopes_specialized, 1);
    EXPECT_EQ(spec.stats.kernel_launches, 1);

    // The unread window still bounds-checks every point: x[10] at i = 8.
    const ir::SDFG oob = make_window_sdfg("o = w[0] * 0.5", {{"w", 0, 0}, {"u", 0, 2}});
    const TierOut crash =
        expect_all_tiers_agree(oob, window_inputs(), "unread window off the edge");
    EXPECT_EQ(crash.res.status, interp::ExecStatus::Crash);
    EXPECT_EQ(crash.stats.kernel_fallbacks, 1);
}

TEST(KernelFixtures, RangesReadingTheirOwnOrALaterParameterStayGeneric) {
    // Map 1: (i, j, k) with j in [0, k] reads k's binding from outside the
    // scope on the first pass and k's last value afterwards.  Map 2: i in
    // [0, i] reads the outer i.  Both stale reads are program semantics the
    // kernel cannot reproduce.
    ir::SDFG p("stale");
    p.add_symbol("k");
    p.add_symbol("i");
    p.add_array("y", ir::DType::F64, {sym::cst(4), sym::cst(4), sym::cst(4)});
    p.add_array("z", ir::DType::F64, {sym::cst(8)});
    ir::State& st = p.state(p.add_state("main", true));
    const sym::ExprPtr i = sym::symb("i"), j = sym::symb("j"), k = sym::symb("k");
    {
        auto [entry, exit] = st.add_map(
            "later", {"i", "j", "k"},
            {ir::Range::full(sym::cst(3)), ir::Range{sym::cst(0), k, sym::cst(1)},
             ir::Range::full(sym::cst(3))});
        const ir::NodeId t = st.add_tasklet("t", "o = 1.0");
        const ir::Memlet point("y", ir::Subset{{ir::Range::index(i), ir::Range::index(j),
                                                ir::Range::index(k)}});
        st.add_edge(entry, "", t, "", point);
        st.add_edge(t, "o", exit, "", point);
        st.add_edge(exit, "", st.add_access("y"), "",
                    ir::Memlet("y", ir::Subset::full(p.container("y").shape)));
    }
    {
        auto [entry, exit] =
            st.add_map("own", {"i"}, {ir::Range{sym::cst(0), i, sym::cst(1)}});
        const ir::NodeId t = st.add_tasklet("t2", "o = 2.0");
        const ir::Memlet point("z", ir::Subset{{ir::Range::index(i)}});
        st.add_edge(entry, "", t, "", point);
        st.add_edge(t, "o", exit, "", point);
        st.add_edge(exit, "", st.add_access("z"), "",
                    ir::Memlet("z", ir::Subset::full({sym::cst(8)})));
    }
    interp::Context inputs;
    inputs.symbols["k"] = 1;
    inputs.symbols["i"] = 5;
    const TierOut spec = expect_all_tiers_agree(p, inputs, "stale range bindings");
    ASSERT_TRUE(spec.res.ok()) << spec.res.message;
    EXPECT_EQ(spec.stats.scopes_planned, 2);
    EXPECT_EQ(spec.stats.scopes_specialized, 0);
    EXPECT_EQ(spec.ctx.buffers.at("y").load_double(2 * 16 + 2 * 4 + 0), 1.0);  // j reached 2
    EXPECT_EQ(spec.ctx.buffers.at("y").load_double(0 * 16 + 2 * 4 + 0), 0.0);  // not at i = 0
    EXPECT_EQ(spec.ctx.buffers.at("z").load_double(5), 2.0);
}

TEST(KernelFixtures, TiledNestLaunchesPerTileAndChargesFuelPerTile) {
    // MapTiling(4) over N = 10: tiles of 4, 4 and a remainder of 2.  The
    // kernel covers the point level under the tile parameter.
    ir::SDFG p = make_scale_sdfg("o = i * 2.0 + 1.0");
    xform::MapTiling tiling(4);
    tiling.apply(p, tiling.find_matches(p).at(0));
    interp::Context inputs;
    inputs.symbols["N"] = 10;
    std::vector<double> xv(10);
    for (int v = 0; v < 10; ++v) xv[static_cast<std::size_t>(v)] = 0.5 * v - 1.0;
    inputs.buffers.emplace("x", ff::testing::make_buffer(xv));

    const TierOut spec = expect_all_tiers_agree(p, inputs, "tiled nest");
    ASSERT_TRUE(spec.res.ok()) << spec.res.message;
    EXPECT_EQ(spec.res.points, 10);
    EXPECT_EQ(spec.stats.scopes_specialized, 1);
    EXPECT_EQ(spec.stats.kernel_launches, 3);  // one sub-launch per tile
    EXPECT_EQ(spec.stats.segment_launches, 3);
    EXPECT_EQ(spec.ctx.buffers.at("y").load_double(9), 2.0 * 3.5 + 1.0);

    // The budget runs out inside the second tile.  The kernel pre-charges
    // each tile, so it refuses tile 2 whole where the odometer runs two of
    // its points first (coarser partial effects by design, see ExecResult),
    // but every tier blames the same limit.
    const TierOut starved = run_cfg(p, inputs, true, true, /*max_points=*/6);
    EXPECT_EQ(starved.res.status, interp::ExecStatus::Resource);
    EXPECT_EQ(starved.stats.kernel_launches, 1);
    for (const bool compiled : {true, false}) {
        const TierOut other = run_cfg(p, inputs, compiled, false, 6);
        EXPECT_EQ(other.res.status, starved.res.status);
        EXPECT_EQ(other.res.message, starved.res.message);
    }
    // Exactly at the boundary the budget is unobservable.
    const TierOut exact = expect_all_tiers_agree(p, inputs, "budget exact", /*max_points=*/10);
    ASSERT_TRUE(exact.res.ok()) << exact.res.message;
    ff::testing::expect_same(exact, spec, "budget-at-limit vs unbudgeted");
}

// --- Perfect-nest fixtures -----------------------------------------------------
//
// A pure scope whose only child is another map scope, recursively, carries
// one kernel over the whole nest: it launches once per point of the owner's
// levels above `first`, charges every scope's points itself, and the chain
// scopes keep their own kernels for launches that fall back.

/// Random inputs for every non-transient container of `p` at `symbols`.
interp::Context random_inputs(const ir::SDFG& p, const sym::Bindings& symbols,
                              std::uint64_t seed) {
    common::Rng rng(seed);
    interp::Context ctx;
    ctx.symbols = symbols;
    for (const auto& [name, desc] : p.containers())
        if (!desc.transient)
            ctx.buffers.emplace(name,
                                random_buffer(rng, desc.dtype, desc.concrete_shape(symbols)));
    return ctx;
}

/// The npbench kernel `name`, with MapExpansion applied to its map
/// labelled `expand` unless that is empty.
ir::SDFG npbench_program(const std::string& name, const std::string& expand = "") {
    ir::SDFG p = workloads::build_npbench_kernel(name);
    if (expand.empty()) return p;
    xform::MapExpansion expansion;
    for (const xform::Match& m : expansion.find_matches(p))
        if (m.description.find("'" + expand + "'") != std::string::npos) {
            expansion.apply(p, m);
            return p;
        }
    ADD_FAILURE() << "no MapExpansion of '" << expand << "' in " << name;
    return p;
}

/// The kernel of the scope labelled `label` in the first state of `p`
/// (nullptr when that scope stays generic).
const interp::ScopeKernel* kernel_of(const TierOut& run, const ir::SDFG& p,
                                     const std::string& label) {
    const auto plan = built_plan(run.plans, p, p.state(p.start_state()));
    for (const interp::ScopePlan& sp : plan->scope_plans)
        if (sp.label == label)
            return sp.kernel < 0 ? nullptr : &plan->kernels[static_cast<std::size_t>(sp.kernel)];
    ADD_FAILURE() << "no scope '" << label << "'";
    return nullptr;
}

/// One scope of a synthetic nest.
struct NestScope {
    std::vector<std::string> params;
    std::vector<ir::Range> ranges;
};

/// y[out] = y[out] + 0.5 * x[in] over a perfect nest of `scopes`, outermost
/// first (labels m0, m1, ...), wired like the npbench accumulation nests;
/// x and y are 8 x 8 f64.
ir::SDFG make_nest_sdfg(const std::vector<NestScope>& scopes, const ir::Subset& in,
                        const ir::Subset& out, const std::vector<std::string>& symbols = {}) {
    ir::SDFG p("nest");
    for (const std::string& s : symbols) p.add_symbol(s);
    const std::vector<sym::ExprPtr> shape{sym::cst(8), sym::cst(8)};
    const ir::Subset full = ir::Subset::full(shape);
    p.add_array("x", ir::DType::F64, shape);
    p.add_array("y", ir::DType::F64, shape);
    ir::State& st = p.state(p.add_state("main", true));
    ir::NodeId x = st.add_access("x"), y = st.add_access("y");
    std::vector<std::pair<ir::NodeId, ir::NodeId>> maps;
    for (std::size_t s = 0; s < scopes.size(); ++s)
        maps.push_back(st.add_map("m" + std::to_string(s), scopes[s].params, scopes[s].ranges));
    for (const auto& [entry, exit] : maps) {
        st.add_edge(x, "", entry, "", ir::Memlet("x", full));
        st.add_edge(y, "", entry, "", ir::Memlet("y", full));
        x = y = entry;
    }
    const ir::NodeId t = st.add_tasklet("t", "cout = cin + a * 0.5");
    st.add_edge(x, "", t, "a", ir::Memlet("x", in));
    st.add_edge(y, "", t, "cin", ir::Memlet("y", out));
    st.add_edge(t, "cout", maps.back().second, "", ir::Memlet("y", out));
    for (std::size_t s = maps.size() - 1; s > 0; --s)
        st.add_edge(maps[s].second, "", maps[s - 1].second, "", ir::Memlet("y", full));
    st.add_edge(maps.front().second, "", st.add_access("y"), "", ir::Memlet("y", full));
    return p;
}

interp::Context nest_inputs(const sym::Bindings& symbols = {}) {
    common::Rng rng(0x5eed);
    interp::Context ctx;
    ctx.symbols = symbols;
    ctx.buffers.emplace("x", random_buffer(rng, ir::DType::F64, {8, 8}));
    ctx.buffers.emplace("y", random_buffer(rng, ir::DType::F64, {8, 8}));
    return ctx;
}

/// x[i, l] into y[i, 0] over (i in [0, 3]) around (l in `red`).
ir::SDFG make_row_sum_sdfg(const ir::Range& red, const std::vector<std::string>& symbols = {}) {
    const sym::ExprPtr i = sym::symb("i"), l = sym::symb("l");
    return make_nest_sdfg({{{"i"}, {ir::Range::full(sym::cst(4))}}, {{"l"}, {red}}},
                          ir::Subset{{ir::Range::index(i), ir::Range::index(l)}},
                          ir::Subset{{ir::Range::index(i), ir::Range::index(sym::cst(0))}},
                          symbols);
}

TEST(NestFixtures, DoitgenNestLaunchesOnce) {
    // Parallel (i, j, k) around the sequential l reduction: one launch spans
    // all four levels, where the reduction scope alone would launch once per
    // (i, j, k).
    const ir::SDFG p = npbench_program("doitgen");
    const TierOut spec =
        expect_all_tiers_agree(p, random_inputs(p, {{"N", 5}, {"M", 4}}, 1), "doitgen");
    ASSERT_TRUE(spec.res.ok()) << spec.res.message;
    const interp::ScopeKernel* k = kernel_of(spec, p, "doitgen");
    ASSERT_NE(k, nullptr);
    EXPECT_EQ(k->first, 0u);
    EXPECT_EQ(k->chain.size(), 1u);
    EXPECT_EQ(spec.stats.scopes_planned, 3);
    EXPECT_EQ(spec.stats.scopes_specialized, 3);  // zero init, nest owner, chain
    EXPECT_EQ(spec.stats.kernel_launches, 2);     // zero init + the nest
    EXPECT_EQ(spec.stats.kernel_fallbacks, 0);
    EXPECT_EQ(spec.res.points, 100 + 100 + 400);  // zero init, owner, chain
}

TEST(NestFixtures, MapExpansionChainOfThreeLaunchesOnce) {
    // (i) around (j, k) around (l): the owner's kernel spans both chain
    // scopes, and the middle scope owns a nest of its own.
    const ir::SDFG p = npbench_program("doitgen", "doitgen");
    const TierOut spec =
        expect_all_tiers_agree(p, random_inputs(p, {{"N", 5}, {"M", 4}}, 2), "doitgen chain");
    ASSERT_TRUE(spec.res.ok()) << spec.res.message;
    const interp::ScopeKernel* k = kernel_of(spec, p, "doitgen_outer");
    ASSERT_NE(k, nullptr);
    EXPECT_EQ(k->first, 0u);
    EXPECT_EQ(k->chain.size(), 2u);
    EXPECT_EQ(spec.stats.scopes_specialized, 4);
    EXPECT_EQ(spec.stats.kernel_launches, 2);
    EXPECT_EQ(spec.stats.kernel_fallbacks, 0);
    EXPECT_EQ(spec.res.points, 100 + 5 + 100 + 400);
}

TEST(NestFixtures, TriangularChainRangeMovesFirst) {
    // trmm: (i, j) around k in [i, N - 1].  The chain range reads i, so the
    // kernel covers (j, k) and launches once per i.
    const ir::SDFG p = npbench_program("trmm");
    const TierOut spec = expect_all_tiers_agree(p, random_inputs(p, {{"N", 6}}, 3), "trmm");
    ASSERT_TRUE(spec.res.ok()) << spec.res.message;
    const interp::ScopeKernel* k = kernel_of(spec, p, "trmm");
    ASSERT_NE(k, nullptr);
    EXPECT_EQ(k->first, 1u);
    EXPECT_EQ(k->chain.size(), 1u);
    EXPECT_EQ(spec.stats.kernel_launches, 1 + 6);  // zero init + one per i
    EXPECT_EQ(spec.stats.kernel_fallbacks, 0);
    EXPECT_EQ(spec.res.points, 36 + 36 + 6 * 21);  // chain: N * sum of (N - i)
}

TEST(NestFixtures, ChainReadingTheOwnersLastParameterChargesTheOwnersPoint) {
    // MapExpansion of trmm: (i) around (j) around k in [i, N - 1].  The chain
    // reads the owner's only parameter, so first equals the owner's
    // parameter count: the launch stands where the odometer would charge
    // the owner's point, and must charge it itself.
    const ir::SDFG p = npbench_program("trmm", "trmm");
    const TierOut spec =
        expect_all_tiers_agree(p, random_inputs(p, {{"N", 6}}, 4), "trmm chain");
    ASSERT_TRUE(spec.res.ok()) << spec.res.message;
    const interp::ScopeKernel* k = kernel_of(spec, p, "trmm_outer");
    ASSERT_NE(k, nullptr);
    EXPECT_EQ(k->first, 1u);
    EXPECT_EQ(k->chain.size(), 2u);
    EXPECT_EQ(spec.stats.kernel_launches, 1 + 6);
    EXPECT_EQ(spec.stats.kernel_fallbacks, 0);
    EXPECT_EQ(spec.res.points, 36 + 6 + 36 + 6 * 21);

    // The same shape with the owner's last of two parameters read.
    const sym::ExprPtr i = sym::symb("i"), j = sym::symb("j"), l = sym::symb("l");
    const ir::SDFG q = make_nest_sdfg(
        {{{"i", "j"}, {ir::Range::full(sym::cst(3)), ir::Range::full(sym::cst(4))}},
         {{"l"}, {ir::Range{sym::cst(0), j, sym::cst(1)}}}},
        ir::Subset{{ir::Range::index(i + l), ir::Range::index(j)}},
        ir::Subset{{ir::Range::index(i), ir::Range::index(j)}});
    const TierOut nest = expect_all_tiers_agree(q, nest_inputs(), "l in [0, j]");
    ASSERT_TRUE(nest.res.ok()) << nest.res.message;
    ASSERT_NE(kernel_of(nest, q, "m0"), nullptr);
    EXPECT_EQ(kernel_of(nest, q, "m0")->first, 2u);
    EXPECT_EQ(nest.stats.kernel_launches, 12);       // one per (i, j)
    EXPECT_EQ(nest.res.points, 12 + 3 * (1 + 2 + 3 + 4));
}

TEST(NestFixtures, EmptyChainLevelFallsBackToTheOdometer) {
    // l in [1, i] is empty at i = 0: that launch falls back (the odometer
    // charges the owner's point and runs the chain scope's own, empty,
    // kernel) and the three others commit.
    const ir::SDFG p = make_row_sum_sdfg(ir::Range{sym::cst(1), sym::symb("i"), sym::cst(1)});
    const TierOut spec = expect_all_tiers_agree(p, nest_inputs(), "l in [1, i]");
    ASSERT_TRUE(spec.res.ok()) << spec.res.message;
    EXPECT_EQ(spec.stats.kernel_fallbacks, 1);
    EXPECT_EQ(spec.stats.kernel_launches, 3 + 1);
    EXPECT_EQ(spec.res.points, 4 + 0 + 1 + 2 + 3);

    // Empty at every owner point: the one nest launch falls back.
    const ir::SDFG q =
        make_row_sum_sdfg(ir::Range::full(sym::symb("E")), std::vector<std::string>{"E"});
    const TierOut empty = expect_all_tiers_agree(q, nest_inputs({{"E", 0}}), "l in [0, E - 1]");
    ASSERT_TRUE(empty.res.ok()) << empty.res.message;
    EXPECT_EQ(empty.stats.kernel_fallbacks, 1);
    EXPECT_EQ(empty.stats.kernel_launches, 4);  // the chain's own, one per i
    EXPECT_EQ(empty.res.points, 4);
}

TEST(NestFixtures, StepZeroChainLevelRaisesTheOdometersError) {
    const ir::SDFG p = make_row_sum_sdfg(
        ir::Range{sym::cst(0), sym::cst(3), sym::symb("S")}, std::vector<std::string>{"S"});
    const TierOut spec = expect_all_tiers_agree(p, nest_inputs({{"S", 0}}), "step 0 chain");
    EXPECT_EQ(spec.res.status, interp::ExecStatus::Crash);
    EXPECT_EQ(spec.res.message, "map 'm1' has step 0");
    EXPECT_EQ(spec.stats.kernel_fallbacks, 1);
    EXPECT_EQ(spec.stats.kernel_launches, 0);
}

TEST(NestFixtures, ChainParametersAreRestoredAfterTheLaunch) {
    // A later map reads the free symbol l, which the nest's chain scope
    // shadows: once the nest is done it must see the outer binding again.
    ir::SDFG p = make_row_sum_sdfg(ir::Range::full(sym::cst(4)), std::vector<std::string>{"l"});
    ir::State& st = p.state(p.start_state());
    ir::NodeId y = graph::kInvalidNode;
    for (const ir::NodeId n : st.graph().nodes())
        if (st.graph().node(n).kind == ir::NodeKind::Access && st.graph().node(n).data == "y" &&
            !st.graph().in_edges(n).empty())
            y = n;
    p.add_array("z", ir::DType::F64, {sym::cst(8)});
    auto [entry, exit] = st.add_map("after", {"i"}, {ir::Range::full(sym::cst(4))});
    const ir::NodeId t = st.add_tasklet("t2", "o = v * 2.0");
    st.add_edge(y, "", entry, "", ir::Memlet("y", ir::Subset::full({sym::cst(8), sym::cst(8)})));
    st.add_edge(entry, "", t, "v",
                ir::Memlet("y", ir::Subset{{ir::Range::index(sym::symb("l")),
                                            ir::Range::index(sym::symb("i"))}}));
    st.add_edge(t, "o", exit, "", ir::Memlet("z", ir::Subset{{ir::Range::index(sym::symb("i"))}}));
    st.add_edge(exit, "", st.add_access("z"), "", ir::Memlet("z", ir::Subset::full({sym::cst(8)})));
    const TierOut spec = expect_all_tiers_agree(p, nest_inputs({{"l", 5}}), "shadowed l");
    ASSERT_TRUE(spec.res.ok()) << spec.res.message;
    EXPECT_EQ(spec.stats.kernel_launches, 2);  // the nest, then "after"
    EXPECT_EQ(spec.ctx.buffers.at("z").load_double(1),
              2.0 * spec.ctx.buffers.at("y").load_double(5 * 8 + 1));
}

TEST(NestFixtures, BudgetExhaustedMidNestBlamesTheSameLimit) {
    // doitgen at N = 5, M = 4 charges 100 (zero init) + 500 (the nest)
    // points.  Under 350 the zero init commits and the nest launch, which
    // pre-charges its 500, is refused whole, where the odometer tiers run
    // into the limit mid-nest (coarser partial effects by design, see
    // ExecResult); every tier blames the same limit.
    const ir::SDFG p = npbench_program("doitgen");
    const interp::Context inputs = random_inputs(p, {{"N", 5}, {"M", 4}}, 5);
    const TierOut starved = run_cfg(p, inputs, true, true, /*max_points=*/350);
    EXPECT_EQ(starved.res.status, interp::ExecStatus::Resource);
    EXPECT_EQ(starved.stats.kernel_launches, 1);
    EXPECT_EQ(starved.stats.kernel_fallbacks, 0);
    for (const bool compiled : {true, false}) {
        const TierOut other = run_cfg(p, inputs, compiled, false, 350);
        EXPECT_EQ(other.res.status, starved.res.status);
        EXPECT_EQ(other.res.message, starved.res.message);
    }
    // Exactly at the boundary the budget is unobservable, bytes included.
    const TierOut exact = expect_all_tiers_agree(p, inputs, "budget exact", /*max_points=*/600);
    ASSERT_TRUE(exact.res.ok()) << exact.res.message;
    ff::testing::expect_same(exact, run_cfg(p, inputs, true, true),
                             "budget-at-limit vs unbudgeted");
}

/// The def-use coverage bitmap of one run on one tier.
std::vector<std::uint64_t> coverage_bitmap(const ir::SDFG& p, const interp::Context& inputs,
                                           bool compiled, bool specialize) {
    interp::ExecConfig cfg;
    cfg.use_compiled_tasklets = compiled;
    cfg.specialize = specialize;
    cfg.coverage = true;
    interp::Interpreter interp(cfg);
    feedback::CoverageMap map;
    map.reset(interp.plan_cache()->atlas_for(p)->pair_count());
    interp.set_coverage(&map);
    interp::Context ctx = inputs;
    const interp::ExecResult r = interp.run(p, ctx);
    EXPECT_TRUE(r.ok()) << r.message;
    return map.words();
}

TEST(NestFixtures, CoverageBitmapsAreByteIdenticalAcrossTiers) {
    // Nest launches mark each chain scope's region class per launch; the
    // classes vary per launch in trmm (k spans N - i points) and include the
    // empty class where a chain level is empty.
    const ir::SDFG doitgen = npbench_program("doitgen", "doitgen");
    const ir::SDFG trmm = npbench_program("trmm", "trmm");
    const ir::SDFG rows = make_row_sum_sdfg(ir::Range{sym::cst(1), sym::symb("i"), sym::cst(1)});
    const std::pair<const ir::SDFG*, interp::Context> cases[] = {
        {&doitgen, random_inputs(doitgen, {{"N", 5}, {"M", 4}}, 6)},
        {&trmm, random_inputs(trmm, {{"N", 20}}, 7)},
        {&rows, nest_inputs()},
    };
    for (const auto& [p, inputs] : cases) {
        const auto spec = coverage_bitmap(*p, inputs, true, true);
        EXPECT_EQ(spec, coverage_bitmap(*p, inputs, true, false)) << p->name();
        EXPECT_EQ(spec, coverage_bitmap(*p, inputs, false, false)) << p->name();
        feedback::CoverageMap map;
        map.reset(static_cast<std::uint32_t>(spec.size() * 64));
        EXPECT_TRUE(map.absorb(spec)) << p->name() << ": nothing marked";
    }
}

// --- Classification guard on the real suite ----------------------------------
//
// Accumulation nests, tiled reductions and stencil windows are most of
// suite_correct's trial time.  If their cutouts silently fell back to the
// generic odometer, or to one launch per outer point, every test above would
// still pass and audits would slow down by a quarter or more.  In each
// cutout below, every top-level scope tree must carry one kernel from its
// outermost scope (the nest owner) down to its leaf, every launch must
// commit, and the run must launch exactly once per point of the levels
// above each kernel.

struct GuardCase {
    const char* kernel;
    const char* transformation;
    const char* map;          ///< Label of the matched map.
    bool transformed = true;  ///< false: the instance's original cutout.
    /// The matched map is a tiled reduction: its range reads its own tile
    /// parameter, which would put `first` inside the chain, so the nest's
    /// kernel starts at the matched map instead of the tree's root.
    bool tiled_chain = false;
};

/// Points of `levels` [0, n) (each a parameter and its range, outermost
/// first) under `symbols`, enumerated like the odometer.
std::int64_t count_points(const std::vector<std::pair<std::string, ir::Range>>& levels,
                          std::size_t n, sym::Bindings symbols, std::size_t level = 0) {
    if (level == n) return 1;
    const auto& [name, r] = levels[level];
    const std::int64_t begin = r.begin->evaluate(symbols);
    const std::int64_t end = r.end->evaluate(symbols);
    const std::int64_t step = r.step->evaluate(symbols);
    std::int64_t total = 0;
    for (std::int64_t v = begin; step > 0 ? v <= end : v >= end; v += step) {
        symbols[name] = v;
        total += count_points(levels, n, symbols, level + 1);
    }
    return total;
}

void expect_nests_kernelized(const GuardCase& gc) {
    const std::string what = std::string(gc.kernel) + " " + gc.transformation + " '" + gc.map +
                             "'" + (gc.transformed ? "" : " (original)");
    const ir::SDFG p = workloads::build_npbench_kernel(gc.kernel);
    for (const auto& t : xform::builtin_transformations({.table2_bugs = false})) {
        if (t->name() != gc.transformation) continue;
        for (const xform::Match& m : t->find_matches(p)) {
            if (m.description.find(std::string("'") + gc.map + "'") == std::string::npos) continue;
            core::CutoutOptions opts;
            opts.defaults = workloads::npbench_defaults();
            const core::Cutout cutout = core::extract_cutout(p, t->affected_nodes(p, m), opts);
            ir::SDFG program = cutout.program;
            if (gc.transformed) t->apply(program, cutout.remap_match(m));

            interp::Interpreter interp;
            interp::Context ctx;
            ctx.symbols = opts.defaults;
            const interp::ExecResult r = interp.run(program, ctx);
            ASSERT_TRUE(r.ok()) << what << ": " << r.message;
            ASSERT_EQ(program.states().size(), 1u) << what;
            const ir::State& st = program.state(program.start_state());
            const auto plan = built_plan(interp.plan_cache(), program, st);

            std::int64_t trees = 0, launches = 0;
            for (const ir::NodeId root : plan->top_level) {
                if (st.graph().node(root).kind != ir::NodeKind::MapEntry) continue;
                ++trees;
                // The tree's perfect-nest chain, outermost first, and the
                // scope whose kernel should span it.
                std::vector<ir::NodeId> chain{root};
                std::size_t owner = 0;
                for (;;) {
                    const interp::ScopePlan& sp = plan->scope_of(chain.back());
                    if (gc.tiled_chain && sp.label == gc.map) owner = chain.size() - 1;
                    if (sp.children.size() != 1 ||
                        st.graph().node(sp.children[0]).kind != ir::NodeKind::MapEntry)
                        break;
                    chain.push_back(sp.children[0]);
                }
                for (std::size_t c = 0; c < owner; ++c)
                    EXPECT_LT(plan->scope_of(chain[c]).kernel, 0)
                        << what << ": '" << plan->scope_of(chain[c]).label
                        << "' cannot span a tiled chain";
                const interp::ScopePlan& sp = plan->scope_of(chain[owner]);
                ASSERT_GE(sp.kernel, 0) << what << ": no kernel on '" << sp.label << "'";
                const interp::ScopeKernel& k = plan->kernels[static_cast<std::size_t>(sp.kernel)];
                EXPECT_EQ(k.chain.size(), chain.size() - owner - 1)
                    << what << ": the kernel of '" << sp.label << "' stops short of the leaf";
                std::vector<std::pair<std::string, ir::Range>> levels;
                for (std::size_t c = 0; c <= owner; ++c) {
                    const ir::DataflowNode& entry = st.graph().node(chain[c]);
                    for (std::size_t q = 0; q < entry.params.size(); ++q)
                        levels.emplace_back(entry.params[q], entry.map_ranges[q]);
                }
                launches += count_points(levels, levels.size() - sp.params.size() + k.first,
                                         ctx.symbols);
            }
            const interp::SpecStats stats = interp.plan_cache()->spec_stats();
            EXPECT_GT(trees, 0) << what;
            EXPECT_EQ(stats.kernel_launches, launches) << what;
            EXPECT_EQ(stats.kernel_fallbacks, 0) << what;
            return;
        }
    }
    ADD_FAILURE() << what << ": no such instance";
}

TEST(ClassificationGuard, AccumulationNestsLaunchOncePerPointAboveFirst) {
    // Original cutouts, MapExpansion's chains and outer MapTiling (whose
    // tile levels stay above the kernel).
    for (const auto& [kernel, map] : {std::pair{"doitgen", "doitgen"}, std::pair{"3mm", "mm1"},
                                      std::pair{"mlp", "fc1"}, std::pair{"trmm", "trmm"}}) {
        expect_nests_kernelized(GuardCase{kernel, "MapExpansion", map, /*transformed=*/false});
        expect_nests_kernelized(GuardCase{kernel, "MapExpansion", map});
        expect_nests_kernelized(GuardCase{kernel, "MapTiling", map});
    }
}

TEST(ClassificationGuard, TiledReductionsAndStencilsCarryKernels) {
    for (const GuardCase& gc :
         {GuardCase{"doitgen", "MapTiling", "doitgen_red", true, /*tiled_chain=*/true},
          GuardCase{"3mm", "MapTiling", "mm3_k", true, /*tiled_chain=*/true},
          GuardCase{"heat_3d", "MapTiling", "heat3d"},
          GuardCase{"heat_3d", "MapExpansion", "heat3d"},
          GuardCase{"jacobi_2d", "MapTiling", "jacobi2d"},
          GuardCase{"hdiff", "MapTiling", "laplacian"},
          GuardCase{"hdiff", "MapTiling", "flux"}})
        expect_nests_kernelized(gc);
}

// --- Fuzzer-level toggle determinism ----------------------------------------

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

struct AuditSnapshot {
    std::vector<core::FuzzReport> reports;
    std::vector<std::string> artifacts;
};

AuditSnapshot snapshot_audit(const ir::SDFG& p,
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
        const core::FuzzReport& ra = a.reports[i];
        const core::FuzzReport& rb = b.reports[i];
        const std::string where = what + " instance " + std::to_string(i);
        EXPECT_EQ(ra.transformation, rb.transformation) << where;
        EXPECT_EQ(ra.match_description, rb.match_description) << where;
        EXPECT_EQ(ra.verdict, rb.verdict) << where;
        EXPECT_EQ(ra.trials, rb.trials) << where;
        EXPECT_EQ(ra.uninteresting, rb.uninteresting) << where;
        EXPECT_EQ(ra.detail, rb.detail) << where;
        EXPECT_EQ(a.artifacts[i], b.artifacts[i]) << where << " artifact";
    }
}

TEST(SpecializationToggle, AuditByteIdenticalOnOffAt1And8Threads) {
    const ir::SDFG p = workloads::build_matrix_chain();
    const auto passes = xform::builtin_transformations();

    core::FuzzConfig config;
    config.max_trials = 10;
    config.sampler.size_max = 6;
    config.cutout.defaults = {{"N", 6}};

    config.num_threads = 1;
    config.diff.exec.specialize = true;
    const AuditSnapshot spec1 = snapshot_audit(p, passes, config);
    ASSERT_FALSE(spec1.reports.empty());
    bool any_failed = false;
    for (const auto& r : spec1.reports) any_failed |= r.failed();
    EXPECT_TRUE(any_failed) << "registry must include buggy variants for artifact coverage";

    config.diff.exec.specialize = false;
    expect_snapshots_identical(spec1, snapshot_audit(p, passes, config),
                               "specialize on vs off, 1 thread");

    config.num_threads = 8;
    expect_snapshots_identical(spec1, snapshot_audit(p, passes, config),
                               "1 thread spec-on vs 8 threads spec-off");
    config.diff.exec.specialize = true;
    expect_snapshots_identical(spec1, snapshot_audit(p, passes, config),
                               "1 thread vs 8 threads, spec on");
}

TEST(SpecializationToggle, SchedulerStatsExposePrepareAndSpecCounters) {
    const ir::SDFG p = make_scale_sdfg();
    const auto passes = xform::builtin_transformations();

    core::FuzzConfig config;
    config.max_trials = 5;
    config.sampler.size_max = 6;
    config.cutout.defaults = {{"N", 6}};
    config.num_threads = 4;

    core::Fuzzer fuzzer(config);
    const auto reports = fuzzer.audit(p, passes);
    ASSERT_FALSE(reports.empty());
    const core::SchedulerStats& stats = fuzzer.last_stats();
    EXPECT_GT(stats.prepare_seconds, 0.0);
    EXPECT_GT(stats.spec.scopes_planned, 0);
    EXPECT_GT(stats.spec.scopes_specialized, 0);
    EXPECT_GT(stats.spec.tasklets_f64, 0);
    EXPECT_GT(stats.spec.kernel_launches, 0);

    // Turning specialization off must zero the launch counters but keep the
    // classification (plans always carry it).
    config.diff.exec.specialize = false;
    core::Fuzzer off(config);
    (void)off.audit(p, passes);
    EXPECT_GT(off.last_stats().spec.scopes_specialized, 0);
    EXPECT_EQ(off.last_stats().spec.kernel_launches, 0);
    EXPECT_EQ(off.last_stats().spec.kernel_fallbacks, 0);
}

}  // namespace
}  // namespace ff
