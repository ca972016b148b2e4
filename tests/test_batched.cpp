// Segment execution: adversarial shapes for the column-width untagged VM.
//
// The contract under test: a committed kernel launch runs its innermost
// extent as segments of length L — the whole extent when the kernel is
// segment-eligible, the extent exceeds 1 and the lane windows are
// alias-safe, otherwise L = 1 — and the choice is a pure execution
// strategy.  For any program the specialized tier must produce results
// byte-identical to the generic compiled VM and the reference AST engine —
// same buffers bit for bit, same error/resource messages, same cost
// counters.  This file pins the L = 1 / L > 1 crossover and attacks the
// segment machinery where it could plausibly diverge: degenerate and empty
// extents, non-unit outer strides, tails that do not fill a tile, resource
// budgets that a segment would cross, IEEE special payloads, and in-place
// aliasing that makes column execution illegal (the alias check must run
// those launches at width 1, not produce reordered stores).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/error.h"
#include "helpers.h"
#include "interp/interpreter.h"
#include "interp/plan_cache.h"
#include "ir/subset.h"

namespace ff {
namespace {

using ff::testing::expect_all_tiers_agree;
using ff::testing::expect_same;
using ff::testing::make_buffer;
using ff::testing::make_chain_sdfg;
using ff::testing::make_scale_sdfg;
using ff::testing::run_cfg;
using ff::testing::TierOut;

interp::Context scale_inputs(std::int64_t n) {
    interp::Context ctx;
    ctx.symbols["N"] = n;
    std::vector<double> xv(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i)
        xv[static_cast<std::size_t>(i)] = 0.25 * static_cast<double>(i) - 3.0;
    ctx.buffers.emplace("x", make_buffer(xv));
    return ctx;
}

// --- Segment shapes -----------------------------------------------------------

TEST(Batched, FlatScaleRunsOneSegmentLaunch) {
    const ir::SDFG p = make_scale_sdfg("o = i * 2.0 + 1.0");
    const TierOut spec = expect_all_tiers_agree(p, scale_inputs(1000), "scale N=1000");
    EXPECT_EQ(spec.stats.scopes_specialized, 1);
    EXPECT_EQ(spec.stats.scopes_segmented, 1);
    EXPECT_EQ(spec.stats.kernel_launches, 1);
    EXPECT_EQ(spec.stats.segment_launches, 1);
}

TEST(Batched, EmptyExtentExecutesNoPoints) {
    const ir::SDFG p = make_scale_sdfg("o = i * 2.0 + 1.0");
    const TierOut spec = expect_all_tiers_agree(p, scale_inputs(0), "scale N=0");
    EXPECT_TRUE(spec.res.ok());
    EXPECT_EQ(spec.res.points, 0);
    EXPECT_EQ(spec.stats.segment_launches, 0);
}

TEST(Batched, UnalignedTailsAndTileBoundaries) {
    // The tile size of the column VM is 256: exercise below, exactly at,
    // one-past, and well-past the boundary, plus a prime straddle.
    const ir::SDFG p = make_scale_sdfg("t = i * i; o = sqrt(t + 1.0) - i * 0.5");
    for (const std::int64_t n : {7ll, 255ll, 256ll, 257ll, 509ll, 768ll}) {
        const TierOut spec =
            expect_all_tiers_agree(p, scale_inputs(n), "tail N=" + std::to_string(n));
        EXPECT_EQ(spec.stats.segment_launches, 1) << n;
    }
}

TEST(Batched, BranchyTaskletNeverSegments) {
    // A ternary compiles to conditional jumps, which only the width-1 VM
    // follows, so the scope must run point by point (and still match every
    // tier bitwise).
    const ir::SDFG p = make_scale_sdfg("t = i * i; o = t > 4.0 ? sqrt(t) : t * 0.5");
    const TierOut spec = expect_all_tiers_agree(p, scale_inputs(600), "branchy");
    EXPECT_EQ(spec.stats.scopes_specialized, 1);
    EXPECT_EQ(spec.stats.scopes_segmented, 0);
    EXPECT_EQ(spec.stats.segment_launches, 0);
    EXPECT_EQ(spec.stats.kernel_launches, 1);
}

/// y[i, j] = f(x[i, j]) over rows 0, row_step, 2 * row_step, ... of a
/// rows x cols array: one 2-D map whose inner extent is `cols`.
ir::SDFG make_rows_sdfg(ir::DType dtype, std::int64_t rows, std::int64_t row_step,
                        std::int64_t cols, const std::string& code) {
    ir::SDFG p("rows");
    const std::vector<sym::ExprPtr> shape{sym::cst(rows), sym::cst(cols)};
    p.add_array("x", dtype, shape);
    p.add_array("y", dtype, shape);
    ir::State& st = p.state(p.add_state("main", true));
    const ir::NodeId x = st.add_access("x");
    auto [entry, exit] = st.add_map(
        "m", {"i", "j"},
        {ir::Range{sym::cst(0), sym::cst(rows - 1), sym::cst(row_step)},
         ir::Range::full(sym::cst(cols))});
    const ir::NodeId t = st.add_tasklet("t", code);
    const ir::NodeId y = st.add_access("y");
    const ir::Subset point{{ir::Range::index(sym::symb("i")), ir::Range::index(sym::symb("j"))}};
    st.add_edge(x, "", entry, "", ir::Memlet("x", ir::Subset::full(shape)));
    st.add_edge(entry, "", t, "i", ir::Memlet("x", point));
    st.add_edge(t, "o", exit, "", ir::Memlet("y", point));
    st.add_edge(exit, "", y, "", ir::Memlet("y", ir::Subset::full(shape)));
    return p;
}

interp::Context rows_inputs(ir::DType dtype, std::int64_t rows, std::int64_t cols) {
    interp::Context inputs;
    interp::Buffer xv(dtype, {rows, cols});
    for (std::int64_t i = 0; i < xv.size(); ++i)
        xv.store(i, ir::dtype_is_float(dtype)
                        ? interp::Value::from_double(0.125 * static_cast<double>(i % 97) - 2.0)
                        : interp::Value::from_int(i % 97 - 48));
    inputs.buffers.emplace("x", std::move(xv));
    return inputs;
}

TEST(Batched, InnerExtentSweepPinsTheCrossover) {
    // Column execution ties with width 1 at inner extent 1 and wins from 2
    // on, so a segment-eligible launch batches exactly when the extent
    // exceeds 1: no segment launch at L = 1, one per run at L >= 2 (tile
    // boundary and one-past included), and output bytes equal the generic
    // compiled tier's either way.
    for (const ir::DType dtype : {ir::DType::F64, ir::DType::I64}) {
        const bool is_float = dtype == ir::DType::F64;
        for (const std::int64_t len : {1ll, 2ll, 3ll, 256ll, 257ll}) {
            const std::string what =
                std::string(ir::dtype_name(dtype)) + " L=" + std::to_string(len);
            const ir::SDFG p = make_rows_sdfg(dtype, 3, 1, len,
                                              is_float ? "o = i * 2.0 + 1.0" : "o = i * 3 + 1");
            const TierOut spec = expect_all_tiers_agree(p, rows_inputs(dtype, 3, len), what);
            EXPECT_EQ(spec.stats.kernel_launches, 1) << what;
            EXPECT_EQ(spec.stats.segment_launches, len >= 2 ? 1 : 0) << what;
            EXPECT_EQ(spec.stats.tasklets_f64 + spec.stats.tasklets_i64, 1) << what;
            EXPECT_EQ(spec.res.points, 3 * len) << what;
        }
    }
}

TEST(Batched, NonUnitOuterStrideAdvancesSegmentsCorrectly) {
    // Outer param walks rows 0,2,4,6 of an 8x300 array (stride-2 iteration),
    // inner param is the contiguous 300-wide segment.  The outer odometer
    // advance must land each segment on the right row.
    const ir::SDFG p = make_rows_sdfg(ir::DType::F64, 8, 2, 300, "o = i * 1.5 + 1.0");
    const TierOut spec =
        expect_all_tiers_agree(p, rows_inputs(ir::DType::F64, 8, 300), "strided rows");
    EXPECT_EQ(spec.stats.segment_launches, 1);
    EXPECT_EQ(spec.res.points, 4 * 300);
}

// --- Dtype coverage of the column VM -------------------------------------------

TEST(Batched, IntSegmentsUseTheI64VM) {
    ir::SDFG p = make_scale_sdfg("o = i * 2 + 1");
    p.container("x").dtype = ir::DType::I64;
    p.container("y").dtype = ir::DType::I64;
    p.bump_mutation_epoch();

    interp::Context inputs;
    inputs.symbols["N"] = 700;
    interp::Buffer xv(ir::DType::I64, {700});
    for (std::int64_t i = 0; i < 700; ++i) xv.store(i, interp::Value::from_int(i - 350));
    inputs.buffers.emplace("x", std::move(xv));

    const TierOut spec = expect_all_tiers_agree(p, inputs, "i64 scale");
    EXPECT_EQ(spec.stats.tasklets_i64, 1);
    EXPECT_EQ(spec.stats.tasklets_f64, 0);
    EXPECT_EQ(spec.stats.segment_launches, 1);
    EXPECT_EQ(spec.ctx.buffers.at("y").load_double(0), -699.0);
}

TEST(Batched, MixedDtypeSegmentsConvertLikeTheTaggedVM) {
    // F32 input, I32 output under the f64 signature: the segment gather
    // promotes float->double and the scatter narrows through the exact
    // Buffer::store casts.  Every tier must agree bitwise.
    ir::SDFG p = make_scale_sdfg("o = i * 2.0 + 0.25");
    p.container("x").dtype = ir::DType::F32;
    p.container("y").dtype = ir::DType::I32;
    p.bump_mutation_epoch();

    interp::Context inputs;
    inputs.symbols["N"] = 600;
    interp::Buffer xv(ir::DType::F32, {600});
    for (std::int64_t i = 0; i < 600; ++i)
        xv.store(i, interp::Value::from_double(0.3 * static_cast<double>(i - 300)));
    inputs.buffers.emplace("x", std::move(xv));

    const TierOut spec = expect_all_tiers_agree(p, inputs, "f32->i32 scale");
    EXPECT_EQ(spec.stats.tasklets_f64, 1);
    EXPECT_EQ(spec.stats.segment_launches, 1);
    EXPECT_EQ(spec.ctx.buffers.at("y").dtype(), ir::DType::I32);
}

// --- Resource budgets ---------------------------------------------------------

TEST(Batched, BudgetCrossingASegmentBlamesTheSameLimit) {
    // Two 300-point maps under a 450-point budget: the first launch charges
    // 300, the second trips the budget mid-extent.  Kernel launches
    // pre-charge the whole launch, so a segment must blame exactly the limit
    // the generic odometer blames: same status, same limit-naming message.
    // The odometer detects the exhaustion per point — coarser partial
    // effects by documented design (interpreter.h ExecResult), but the same
    // blame.
    const ir::SDFG p = make_chain_sdfg("o = i + 1.0", "o = i * 3.0");
    const TierOut spec = run_cfg(p, scale_inputs(300), true, true, /*max_points=*/450);
    const TierOut generic = run_cfg(p, scale_inputs(300), true, false, 450);
    const TierOut reference = run_cfg(p, scale_inputs(300), false, false, 450);
    EXPECT_EQ(spec.res.status, interp::ExecStatus::Resource);
    EXPECT_EQ(spec.res.message, generic.res.message);
    EXPECT_EQ(spec.res.message, reference.res.message);
    EXPECT_EQ(generic.res.status, interp::ExecStatus::Resource);
    EXPECT_EQ(reference.res.status, interp::ExecStatus::Resource);
    // The first map committed (one segment launch) before exhaustion.
    EXPECT_EQ(spec.stats.segment_launches, 1);
    ASSERT_TRUE(spec.ctx.has_buffer("T"));
    EXPECT_EQ(spec.ctx.buffers.at("T").load_double(0), -2.0);  // x[0]=-3 -> +1
    // The per-launch pre-charge refused the second map wholesale: its output
    // was ensured (zero-filled) by lane setup but no point of it ever ran.
    // The generic odometer instead burned the remaining 150 points one at a
    // time before exhausting, so its prefix of y holds committed values.
    ASSERT_TRUE(spec.ctx.has_buffer("y"));
    EXPECT_EQ(spec.ctx.buffers.at("y").load_double(0), 0.0);
    ASSERT_TRUE(generic.ctx.has_buffer("y"));
    EXPECT_EQ(generic.ctx.buffers.at("y").load_double(0), -6.0);  // (x[0]+1)*3
    EXPECT_EQ(generic.ctx.buffers.at("y").load_double(150), 0.0);

    // Exactly at the boundary the budget is unobservable (budget purity).
    const TierOut exact =
        expect_all_tiers_agree(p, scale_inputs(300), "budget exact", /*max_points=*/600);
    EXPECT_TRUE(exact.res.ok());
    EXPECT_EQ(exact.res.points, 600);
    const TierOut unbudgeted = run_cfg(p, scale_inputs(300), true, true);
    expect_same(exact, unbudgeted, "budget-at-limit vs unbudgeted");
}

// --- IEEE special payloads ----------------------------------------------------

TEST(Batched, SpecialPayloadsSurviveBatchingBitwise) {
    const ir::SDFG p = make_scale_sdfg("o = i * 2.0 + 1.0");
    interp::Context inputs;
    const double qnan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const double denorm = std::numeric_limits<double>::denorm_min();
    const std::vector<double> payloads = {qnan,   -qnan,        inf,  -inf,
                                          denorm, -denorm * 3,  0.0,  -0.0,
                                          std::numeric_limits<double>::min() / 4, 1.0};
    std::vector<double> xv;
    for (int rep = 0; rep < 40; ++rep)
        xv.insert(xv.end(), payloads.begin(), payloads.end());
    inputs.symbols["N"] = static_cast<std::int64_t>(xv.size());
    inputs.buffers.emplace("x", make_buffer(xv));
    const TierOut spec = expect_all_tiers_agree(p, inputs, "special payloads");
    EXPECT_EQ(spec.stats.segment_launches, 1);
    // Spot-check semantics: NaN propagates, inf saturates, -0 * 2 + 1 == 1.
    EXPECT_TRUE(std::isnan(spec.ctx.buffers.at("y").load_double(0)));
    EXPECT_EQ(spec.ctx.buffers.at("y").load_double(2), inf);
    EXPECT_EQ(spec.ctx.buffers.at("y").load_double(7), 1.0);
}

// --- Aliasing: column execution must refuse reordering ----------------------

TEST(Batched, ShiftedSelfAliasRunsAtWidthOne) {
    // y[i+1] = y[i] * 2 is a loop-carried dependency: column execution
    // would read stale values.  The per-launch alias check must run the
    // launch at width 1 (still a committed kernel launch), and the result
    // must equal the sequential recurrence on every tier.
    ir::SDFG p("shift_alias");
    p.add_array("y", ir::DType::F64, {sym::cst(512)});
    ir::State& st = p.state(p.add_state("main", true));
    const ir::NodeId yin = st.add_access("y");
    auto [entry, exit] = st.add_map("m", {"i"}, {ir::Range::full(sym::cst(511))});
    const ir::NodeId t = st.add_tasklet("t", "o = i * 2.0");
    const ir::NodeId yout = st.add_access("y");
    const auto idx = [](sym::ExprPtr e) { return ir::Subset{{ir::Range::index(e)}}; };
    st.add_edge(yin, "", entry, "", ir::Memlet("y", ir::Subset::full({sym::cst(512)})));
    st.add_edge(entry, "", t, "i", ir::Memlet("y", idx(sym::symb("i"))));
    st.add_edge(t, "o", exit, "", ir::Memlet("y", idx(sym::symb("i") + 1)));
    st.add_edge(exit, "", yout, "", ir::Memlet("y", ir::Subset::full({sym::cst(512)})));

    interp::Context inputs;
    std::vector<double> yv(512, 0.0);
    yv[0] = 1.0;
    inputs.buffers.emplace("y", make_buffer(yv));

    const TierOut spec = expect_all_tiers_agree(p, inputs, "shifted self-alias");
    EXPECT_EQ(spec.stats.kernel_launches, 1);
    EXPECT_EQ(spec.stats.segment_launches, 0) << "alias check must refuse batching";
    // The recurrence doubled 1.0 down the array: y[k] == 2^k (until overflow
    // to inf, which is fine — we check an early element).
    EXPECT_EQ(spec.ctx.buffers.at("y").load_double(10), 1024.0);
}

TEST(Batched, StrideZeroBroadcastWriteRunsAtWidthOne) {
    // x[0] = x[0] + 1 over 400 points: the write lane has inner stride 0, so
    // column execution would collapse 400 sequential increments into one.
    // The alias check must refuse; the committed width-1 launch then
    // accumulates exactly like the generic odometer.
    ir::SDFG p("bcast_alias");
    p.add_array("x", ir::DType::F64, {sym::cst(4)});
    ir::State& st = p.state(p.add_state("main", true));
    const ir::NodeId xin = st.add_access("x");
    auto [entry, exit] = st.add_map("m", {"i"}, {ir::Range::full(sym::cst(400))});
    const ir::NodeId t = st.add_tasklet("t", "o = v + 1.0");
    const ir::NodeId xout = st.add_access("x");
    const auto idx = [](sym::ExprPtr e) { return ir::Subset{{ir::Range::index(e)}}; };
    st.add_edge(xin, "", entry, "", ir::Memlet("x", ir::Subset::full({sym::cst(4)})));
    st.add_edge(entry, "", t, "v", ir::Memlet("x", idx(sym::cst(0))));
    st.add_edge(t, "o", exit, "", ir::Memlet("x", idx(sym::cst(0))));
    st.add_edge(exit, "", xout, "", ir::Memlet("x", ir::Subset::full({sym::cst(4)})));

    interp::Context inputs;
    inputs.buffers.emplace("x", make_buffer({0.5, 0, 0, 0}));
    const TierOut spec = expect_all_tiers_agree(p, inputs, "stride-0 broadcast");
    EXPECT_EQ(spec.stats.segment_launches, 0) << "stride-0 write must not batch";
    EXPECT_EQ(spec.ctx.buffers.at("x").load_double(0), 400.5);
}

// --- DType name round-trip (exhaustive) ---------------------------------------

TEST(DTypeNames, RoundTripAllEnumerators) {
    // Mirrors the verdict round-trip test: every enumerator must survive
    // name -> parse, and kDTypeCount pins that new dtypes extend this test.
    for (int t = 0; t < ir::kDTypeCount; ++t) {
        const ir::DType dt = static_cast<ir::DType>(t);
        const char* name = ir::dtype_name(dt);
        ASSERT_NE(name, nullptr);
        EXPECT_GT(std::strlen(name), 0u);
        EXPECT_EQ(ir::dtype_from_name(name), dt) << name;
    }
    EXPECT_THROW(ir::dtype_from_name("float16"), common::ParseError);
    EXPECT_THROW(ir::dtype_from_name(""), common::ParseError);
    EXPECT_THROW(ir::dtype_from_name("float64 "), common::ParseError);
}

}  // namespace
}  // namespace ff
