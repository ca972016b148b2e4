// Shared fixtures and mini-program builders for the test suite.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "interp/interpreter.h"
#include "interp/plan_cache.h"
#include "ir/sdfg.h"
#include "workloads/builders.h"

namespace ff::testing {

/// y[i] = x[i] * 2 over a 1-D array of symbolic size N.
inline ir::SDFG make_scale_sdfg(const std::string& code = "o = i * 2.0") {
    ir::SDFG sdfg("scale");
    sdfg.add_symbol("N");
    const sym::ExprPtr n = sym::symb("N");
    sdfg.add_array("x", ir::DType::F64, {n}, /*transient=*/false);
    sdfg.add_array("y", ir::DType::F64, {n}, /*transient=*/false);
    ir::State& st = sdfg.state(sdfg.add_state("main", true));
    workloads::ew_unary(sdfg, st, st.add_access("x"), "y", code);
    return sdfg;
}

/// Chain x -> T (transient) -> y with two elementwise maps.
inline ir::SDFG make_chain_sdfg(const std::string& code1 = "o = i + 1.0",
                                const std::string& code2 = "o = i * 3.0") {
    ir::SDFG sdfg("chain");
    sdfg.add_symbol("N");
    const sym::ExprPtr n = sym::symb("N");
    sdfg.add_array("x", ir::DType::F64, {n}, /*transient=*/false);
    sdfg.add_array("T", ir::DType::F64, {n}, /*transient=*/true);
    sdfg.add_array("y", ir::DType::F64, {n}, /*transient=*/false);
    ir::State& st = sdfg.state(sdfg.add_state("main", true));
    const ir::NodeId t = workloads::ew_unary(sdfg, st, st.add_access("x"), "T", code1);
    workloads::ew_unary(sdfg, st, t, "y", code2);
    return sdfg;
}

/// Executes and requires success; returns the context.
inline interp::Context run_ok(const ir::SDFG& sdfg, interp::Context ctx) {
    interp::Interpreter interp;
    const interp::ExecResult result = interp.run(sdfg, ctx);
    EXPECT_TRUE(result.ok()) << result.message;
    return ctx;
}

/// 1-D f64 buffer from values.
inline interp::Buffer make_buffer(std::vector<double> values) {
    interp::Buffer buf(ir::DType::F64, {static_cast<std::int64_t>(values.size())});
    for (std::size_t i = 0; i < values.size(); ++i)
        buf.store(static_cast<std::int64_t>(i), interp::Value::from_double(values[i]));
    return buf;
}

inline std::vector<double> to_vector(const interp::Buffer& buf) {
    std::vector<double> out;
    for (std::int64_t i = 0; i < buf.size(); ++i) out.push_back(buf.load_double(i));
    return out;
}

/// One execution of a program on one tier: result, final context, the
/// plan cache's specialization counters and the cache itself (its plans
/// carry the classification).
struct TierOut {
    interp::ExecResult res;
    interp::Context ctx;
    interp::SpecStats stats;
    interp::PlanCachePtr plans;
};

inline TierOut run_cfg(const ir::SDFG& p, const interp::Context& inputs, bool compiled,
                       bool specialize, std::int64_t max_points = 0) {
    interp::ExecConfig cfg;
    cfg.use_compiled_tasklets = compiled;
    cfg.specialize = specialize;
    if (max_points > 0) {
        cfg.max_points = max_points;
        cfg.max_alloc_bytes = 1ll << 30;
    }
    interp::Interpreter interp(cfg);
    TierOut out{interp::ExecResult{}, inputs, interp::SpecStats{}};
    out.res = interp.run(p, out.ctx);
    out.stats = interp.plan_cache()->spec_stats();
    out.plans = interp.plan_cache();
    return out;
}

/// Bitwise context equality (same buffer names, dtypes, shapes, bytes) plus
/// identical status/message.  `nan_equiv` loosens only NaN payload bits —
/// needed against the reference AST engine, whose instruction selection may
/// legally propagate a different NaN than the bytecode VM.
inline void expect_same(const TierOut& a, const TierOut& b, const std::string& what,
                        bool nan_equiv = false) {
    EXPECT_EQ(a.res.status, b.res.status) << what;
    EXPECT_EQ(a.res.message, b.res.message) << what;
    if (a.res.ok() && b.res.ok()) {
        EXPECT_EQ(a.res.points, b.res.points) << what;
        EXPECT_EQ(a.res.instructions, b.res.instructions) << what;
    }
    ASSERT_EQ(a.ctx.buffers.size(), b.ctx.buffers.size()) << what;
    auto ita = a.ctx.buffers.begin();
    auto itb = b.ctx.buffers.begin();
    for (; ita != a.ctx.buffers.end(); ++ita, ++itb) {
        ASSERT_EQ(ita->first, itb->first) << what;
        if (!nan_equiv) {
            EXPECT_TRUE(ita->second.bitwise_equal(itb->second))
                << what << ": buffer '" << ita->first << "' differs";
            continue;
        }
        ASSERT_EQ(ita->second.dtype(), itb->second.dtype()) << what;
        ASSERT_EQ(ita->second.shape(), itb->second.shape()) << what;
        for (std::int64_t i = 0; i < ita->second.size(); ++i) {
            const double x = ita->second.load_double(i);
            const double y = itb->second.load_double(i);
            if (std::isnan(x) && std::isnan(y)) continue;
            EXPECT_EQ(std::memcmp(&x, &y, sizeof(double)), 0)
                << what << ": '" << ita->first << "' differs at " << i;
        }
    }
}

/// Runs all three tiers on the same inputs and requires specialized ==
/// generic bitwise, and == reference modulo NaN payloads.  Returns the
/// specialized run for extra assertions.
inline TierOut expect_all_tiers_agree(const ir::SDFG& p, const interp::Context& inputs,
                                      const std::string& what, std::int64_t max_points = 0) {
    const TierOut specialized = run_cfg(p, inputs, true, true, max_points);
    const TierOut generic = run_cfg(p, inputs, true, false, max_points);
    const TierOut reference = run_cfg(p, inputs, false, false, max_points);
    expect_same(specialized, generic, what + " (specialized vs generic)");
    expect_same(specialized, reference, what + " (specialized vs reference)",
                /*nan_equiv=*/true);
    return specialized;
}

}  // namespace ff::testing
