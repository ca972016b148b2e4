#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "interp/tasklet_lang.h"

namespace ff::interp {
namespace {

Value run_scalar(const std::string& code, ConnectorEnv env, const std::string& out = "o") {
    const auto prog = TaskletProgram::parse(code);
    prog->execute(env);
    return env.at(out).at(0);
}

ConnectorEnv env1(const std::string& name, double v) {
    return ConnectorEnv{{name, {Value::from_double(v)}}};
}

TEST(Tasklet, Arithmetic) {
    EXPECT_DOUBLE_EQ(run_scalar("o = a * 2.0 + 1.0", env1("a", 3)).as_double(), 7.0);
    EXPECT_DOUBLE_EQ(run_scalar("o = a - 10.0", env1("a", 3)).as_double(), -7.0);
    EXPECT_DOUBLE_EQ(run_scalar("o = -a", env1("a", 3)).as_double(), -3.0);
    EXPECT_DOUBLE_EQ(run_scalar("o = a / 4.0", env1("a", 3)).as_double(), 0.75);
}

TEST(Tasklet, IntegerSemantics) {
    // int / int is floor division; int + int stays integer.
    ConnectorEnv env{{"a", {Value::from_int(-7)}}};
    const Value v = run_scalar("o = a / 2", env);
    EXPECT_FALSE(v.is_float);
    EXPECT_EQ(v.i, -4);
    const Value m = run_scalar("o = a % 3", env);
    EXPECT_EQ(m.i, 2);
}

TEST(Tasklet, MixedPromotesToDouble) {
    ConnectorEnv env{{"a", {Value::from_int(3)}}};
    const Value v = run_scalar("o = a / 2.0", env);
    EXPECT_TRUE(v.is_float);
    EXPECT_DOUBLE_EQ(v.f, 1.5);
}

TEST(Tasklet, ComparisonAndTernary) {
    EXPECT_DOUBLE_EQ(run_scalar("o = a > 0 ? a : 0", env1("a", 5)).as_double(), 5.0);
    EXPECT_DOUBLE_EQ(run_scalar("o = a > 0 ? a : 0", env1("a", -5)).as_double(), 0.0);
    EXPECT_EQ(run_scalar("o = a <= 3.0", env1("a", 3)).as_int(), 1);
    EXPECT_EQ(run_scalar("o = a != 3.0", env1("a", 3)).as_int(), 0);
}

TEST(Tasklet, LogicalShortCircuit) {
    // Division by zero in the unevaluated branch must not fire.
    ConnectorEnv env{{"a", {Value::from_double(0)}}};
    EXPECT_EQ(run_scalar("o = a != 0.0 && 1.0 / a > 0.0", env).as_int(), 0);
    EXPECT_EQ(run_scalar("o = a == 0.0 || 1.0 / a > 0.0", env).as_int(), 1);
}

TEST(Tasklet, Functions) {
    EXPECT_DOUBLE_EQ(run_scalar("o = min(a, 2.0)", env1("a", 5)).as_double(), 2.0);
    EXPECT_DOUBLE_EQ(run_scalar("o = max(a, 2.0)", env1("a", 5)).as_double(), 5.0);
    EXPECT_DOUBLE_EQ(run_scalar("o = abs(a)", env1("a", -3)).as_double(), 3.0);
    EXPECT_DOUBLE_EQ(run_scalar("o = sqrt(a)", env1("a", 16)).as_double(), 4.0);
    EXPECT_DOUBLE_EQ(run_scalar("o = exp(a)", env1("a", 0)).as_double(), 1.0);
    EXPECT_DOUBLE_EQ(run_scalar("o = pow(a, 3.0)", env1("a", 2)).as_double(), 8.0);
    EXPECT_DOUBLE_EQ(run_scalar("o = floor(a)", env1("a", 2.7)).as_double(), 2.0);
    EXPECT_DOUBLE_EQ(run_scalar("o = ceil(a)", env1("a", 2.1)).as_double(), 3.0);
    EXPECT_DOUBLE_EQ(run_scalar("o = select(a > 1.0, 10.0, 20.0)", env1("a", 2)).as_double(),
                     10.0);
    EXPECT_NEAR(run_scalar("o = tanh(a)", env1("a", 0.5)).as_double(), std::tanh(0.5), 1e-15);
}

TEST(Tasklet, MultiStatementAndLocals) {
    // `t` is assigned before use: a local, not an input connector.
    const auto prog = TaskletProgram::parse("t = a * 2.0; o = t + a");
    EXPECT_EQ(prog->reads().size(), 1u);
    EXPECT_TRUE(prog->reads().count("a"));
    EXPECT_TRUE(prog->writes().count("t"));
    EXPECT_TRUE(prog->writes().count("o"));
    ConnectorEnv env = env1("a", 3);
    prog->execute(env);
    EXPECT_DOUBLE_EQ(env.at("o").at(0).as_double(), 9.0);
}

TEST(Tasklet, VectorLanes) {
    const auto prog = TaskletProgram::parse("o[0] = a[0] * s; o[1] = a[1] * s");
    EXPECT_EQ(prog->reads().at("a"), 2);
    EXPECT_EQ(prog->reads().at("s"), 1);
    EXPECT_EQ(prog->writes().at("o"), 2);
    ConnectorEnv env{{"a", {Value::from_double(1), Value::from_double(2)}},
                     {"s", {Value::from_double(10)}}};
    prog->execute(env);
    EXPECT_DOUBLE_EQ(env.at("o").at(0).as_double(), 10.0);
    EXPECT_DOUBLE_EQ(env.at("o").at(1).as_double(), 20.0);
}

TEST(Tasklet, ReadAfterOwnWrite) {
    ConnectorEnv env = env1("a", 4);
    const auto prog = TaskletProgram::parse("o = a; o = o * o");
    prog->execute(env);
    EXPECT_DOUBLE_EQ(env.at("o").at(0).as_double(), 16.0);
}

TEST(Tasklet, MissingInputThrows) {
    const auto prog = TaskletProgram::parse("o = a + b");
    ConnectorEnv env = env1("a", 1);
    EXPECT_THROW(prog->execute(env), common::Error);
}

TEST(Tasklet, ParseErrors) {
    EXPECT_THROW(TaskletProgram::parse(""), common::ParseError);
    EXPECT_THROW(TaskletProgram::parse("o ="), common::ParseError);
    EXPECT_THROW(TaskletProgram::parse("= a"), common::ParseError);
    EXPECT_THROW(TaskletProgram::parse("o = frobnicate(a)"), common::ParseError);
    EXPECT_THROW(TaskletProgram::parse("o = a +* b"), common::ParseError);
    EXPECT_THROW(TaskletProgram::parse("o = a[b]"), common::ParseError);  // non-const lane
}

TEST(Tasklet, ScientificNotation) {
    EXPECT_DOUBLE_EQ(run_scalar("o = a * 1e-5", env1("a", 2)).as_double(), 2e-5);
    EXPECT_DOUBLE_EQ(run_scalar("o = a + 1.5e2", env1("a", 0)).as_double(), 150.0);
}

/// Parameterized sweep: relu behaves like max(0, x) across signs.
class ReluProperty : public ::testing::TestWithParam<double> {};

TEST_P(ReluProperty, TernaryMatchesMax) {
    const double x = GetParam();
    const double relu = run_scalar("o = a > 0 ? a : 0", env1("a", x)).as_double();
    const double via_max = run_scalar("o = max(a, 0.0)", env1("a", x)).as_double();
    EXPECT_DOUBLE_EQ(relu, via_max);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ReluProperty,
                         ::testing::Values(-10.0, -0.5, 0.0, 0.25, 3.0, 1e9, -1e9));

// --- Compiled engine (bytecode VM) -----------------------------------------

Value run_compiled(const std::string& code, ConnectorEnv env, const std::string& out = "o") {
    const auto prog = TaskletProgram::parse(code);
    prog->execute_compiled(env);
    return env.at(out).at(0);
}

TEST(TaskletCompiled, MatchesHandPickedCases) {
    EXPECT_DOUBLE_EQ(run_compiled("o = a * 2.0 + 1.0", env1("a", 3)).as_double(), 7.0);
    EXPECT_DOUBLE_EQ(run_compiled("o = a > 0 ? a : 0", env1("a", -5)).as_double(), 0.0);
    EXPECT_DOUBLE_EQ(run_compiled("t = a * 2.0; o = t + a", env1("a", 3)).as_double(), 9.0);
    // Integer floor semantics survive compilation.
    ConnectorEnv env{{"a", {Value::from_int(-7)}}};
    const Value v = run_compiled("o = a / 2", env);
    EXPECT_FALSE(v.is_float);
    EXPECT_EQ(v.i, -4);
}

TEST(TaskletCompiled, ShortCircuitViaJumps) {
    ConnectorEnv env{{"a", {Value::from_double(0)}}};
    EXPECT_EQ(run_compiled("o = a != 0.0 && 1.0 / a > 0.0", env).as_int(), 0);
    EXPECT_EQ(run_compiled("o = a == 0.0 || 1.0 / a > 0.0", env).as_int(), 1);
    // An int division by zero in the untaken branch must not fire.
    ConnectorEnv kenv{{"k", {Value::from_int(0)}}};
    EXPECT_EQ(run_compiled("o = k != 0 && 5 / k > 0", kenv).as_int(), 0);
}

TEST(TaskletCompiled, ConstantFoldingPreservesCrashes) {
    // 5 / 0 (int) throws at runtime in the reference engine; folding must
    // not turn it into a compile-time error or a silent value.
    const auto prog = TaskletProgram::parse("o = a + 5 / 0");
    ConnectorEnv env = env1("a", 1);
    EXPECT_THROW(prog->execute(env), common::Error);
    ConnectorEnv env2 = env1("a", 1);
    EXPECT_THROW(prog->execute_compiled(env2), common::Error);
}

TEST(TaskletCompiled, UnboundLocalLaneTraps) {
    // t[1] is never assigned and t is not an input: both engines throw the
    // same unbound-connector error.
    const auto prog = TaskletProgram::parse("t[0] = a; o = t[1]");
    ConnectorEnv env1_ = env1("a", 1);
    EXPECT_THROW(prog->execute(env1_), common::Error);
    ConnectorEnv env2 = env1("a", 1);
    EXPECT_THROW(prog->execute_compiled(env2), common::Error);
    EXPECT_EQ(prog->trap_connectors().size(), 1u);
    EXPECT_EQ(prog->trap_connectors()[0], "t");
}

TEST(TaskletCompiled, MissingInputThrows) {
    const auto prog = TaskletProgram::parse("o = a + b");
    ConnectorEnv env = env1("a", 1);
    EXPECT_THROW(prog->execute_compiled(env), common::Error);
}

// --- Differential property test: bytecode VM vs reference AST evaluator ----
//
// Randomly generated programs over mixed int/float connectors must agree
// between the two engines on every output lane — including int/float
// promotion, floor division/modulo edge cases, NaNs and crashes.

struct ProgramGen {
    common::Rng rng;
    std::vector<std::string> readable;  // expressions valid as loads

    explicit ProgramGen(std::uint64_t seed) : rng(seed) {}

    std::string constant() {
        switch (rng.uniform_int(0, 5)) {
            case 0: return std::to_string(rng.uniform_int(0, 7));          // small int
            case 1: return std::to_string(rng.uniform_int(0, 2));          // 0/1/2: div/mod edges
            case 2: return "2.0";
            case 3: return "0.5";
            case 4: return "0.0";
            default: return std::to_string(rng.uniform_int(1, 9)) + ".25";
        }
    }

    std::string leaf() {
        if (!readable.empty() && rng.chance(0.6))
            return readable[static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(readable.size()) - 1))];
        return constant();
    }

    std::string expr(int depth) {
        if (depth <= 0 || rng.chance(0.25)) return leaf();
        switch (rng.uniform_int(0, 11)) {
            case 0: return "(" + expr(depth - 1) + " + " + expr(depth - 1) + ")";
            case 1: return "(" + expr(depth - 1) + " - " + expr(depth - 1) + ")";
            case 2: return "(" + expr(depth - 1) + " * " + expr(depth - 1) + ")";
            case 3: return "(" + expr(depth - 1) + " / " + expr(depth - 1) + ")";
            case 4: return "(" + expr(depth - 1) + " % " + expr(depth - 1) + ")";
            case 5: return "(-" + leaf() + ")";
            case 6: return "(" + expr(depth - 1) + " < " + expr(depth - 1) + ")";
            case 7: return "(" + expr(depth - 1) + " ? " + expr(depth - 1) + " : " +
                           expr(depth - 1) + ")";
            case 8: return "(" + expr(depth - 1) + " && " + expr(depth - 1) + ")";
            case 9: return "min(" + expr(depth - 1) + ", " + expr(depth - 1) + ")";
            case 10: return "abs(" + expr(depth - 1) + ")";
            default: return "floor(" + expr(depth - 1) + ")";
        }
    }

    /// Returns tasklet code; fills `env` with the input connectors.
    std::string generate(ConnectorEnv& env) {
        readable = {"a", "b", "k", "m", "v[0]", "v[1]"};
        env["a"] = {Value::from_double(rng.uniform_double(-4, 4))};
        env["b"] = {rng.chance(0.2) ? Value::from_double(0.0)
                                    : Value::from_double(rng.uniform_double(-4, 4))};
        env["k"] = {Value::from_int(rng.uniform_int(-5, 5))};
        env["m"] = {rng.chance(0.3) ? Value::from_int(0) : Value::from_int(rng.uniform_int(-3, 3))};
        env["v"] = {Value::from_double(rng.uniform_double(-2, 2)),
                    Value::from_double(rng.uniform_double(-2, 2))};

        std::string code;
        const int stmts = static_cast<int>(rng.uniform_int(1, 3));
        for (int s = 0; s < stmts; ++s) {
            const std::string local = "t" + std::to_string(s);
            code += local + " = " + expr(3) + "; ";
            readable.push_back(local);
        }
        code += "o = " + expr(3);
        if (rng.chance(0.3)) code += "; w[0] = " + expr(2) + "; w[1] = " + expr(2);
        return code;
    }
};

bool values_equal(const Value& x, const Value& y) {
    if (x.is_float != y.is_float) return false;
    if (x.is_float) {
        if (std::isnan(x.f) && std::isnan(y.f)) return true;
        return std::memcmp(&x.f, &y.f, sizeof(double)) == 0;
    }
    return x.i == y.i;
}

TEST(TaskletDifferential, RandomProgramsAgreeAcrossEngines) {
    int crashes = 0;
    for (std::uint64_t seed = 0; seed < 400; ++seed) {
        ProgramGen gen(0xFACADE + seed);
        ConnectorEnv inputs;
        const std::string code = gen.generate(inputs);
        SCOPED_TRACE("seed=" + std::to_string(seed) + " code: " + code);

        const auto prog = TaskletProgram::parse(code);

        ConnectorEnv ref_env = inputs;
        ConnectorEnv vm_env = inputs;
        bool ref_threw = false, vm_threw = false;
        std::string ref_msg, vm_msg;
        try {
            prog->execute(ref_env);
        } catch (const common::Error& e) {
            ref_threw = true;
            ref_msg = e.what();
        }
        try {
            prog->execute_compiled(vm_env);
        } catch (const common::Error& e) {
            vm_threw = true;
            vm_msg = e.what();
        }

        ASSERT_EQ(ref_threw, vm_threw) << "ref: " << ref_msg << " vm: " << vm_msg;
        if (ref_threw) {
            ++crashes;
            EXPECT_EQ(ref_msg, vm_msg);
            continue;
        }
        for (const auto& [name, width] : prog->writes()) {
            ASSERT_TRUE(vm_env.count(name)) << "missing output " << name;
            const auto& rv = ref_env.at(name);
            const auto& vv = vm_env.at(name);
            ASSERT_GE(vv.size(), static_cast<std::size_t>(width));
            for (int lane = 0; lane < width; ++lane)
                EXPECT_TRUE(values_equal(rv[static_cast<std::size_t>(lane)],
                                         vv[static_cast<std::size_t>(lane)]))
                    << name << "[" << lane << "]: ref=" << rv[static_cast<std::size_t>(lane)]
                           .as_double()
                    << " vm=" << vv[static_cast<std::size_t>(lane)].as_double();
        }
    }
    // The generator intentionally produces some int-div-by-zero crashes;
    // they must not dominate (the value-comparison path is the point).
    EXPECT_LT(crashes, 200);
}

// --- int64 overflow: two's-complement wraparound in every engine ------------
//
// Signed overflow is undefined behaviour in C++, and replayed test cases or
// caller buffers can carry any int64.  The language defines integer
// add/sub/mul/neg/abs as wraparound (and floor division by -1 as negation),
// so the reference walker, the constant folder, the tagged VM and the
// untagged VM at both widths must agree bit for bit on extreme operands.
// The sanitizer CI job runs this test under UBSan.

TEST(TaskletOverflow, Int64WraparoundAgreesAcrossEngines) {
    constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    const std::vector<std::int64_t> operands = {kMin, kMin + 1, -1, 0, 1, kMax / 2, kMax};
    const char* programs[] = {
        "o = i * 3 + 1",
        "o = i + j",
        "o = i - j",
        "o = i * j",
        "o = -i",
        "o = abs(i) - j",
        "o = min(i, j) * max(i, j)",
        "o = i / (j * 2 + 1) + i % (j * 2 + 1)",  // divisor is odd, so never 0
        "o = 4611686018427387904 * 4 + i",         // folds to 0 + i
    };
    const std::size_t n = operands.size() * operands.size();
    for (const char* code : programs) {
        SCOPED_TRACE(code);
        const auto prog = TaskletProgram::parse(code);
        ASSERT_TRUE(prog->has_i64_variant());
        ASSERT_TRUE(prog->is_straightline());
        const auto base_of = [&](const std::string& name) {
            for (const SlotDesc& sd : prog->slot_table())
                if (sd.name == name) return sd.base;
            return -1;
        };
        const auto slots = static_cast<std::size_t>(prog->slot_count());
        const auto regs = static_cast<std::size_t>(prog->reg_count());
        // Column width n: lane k holds operand pair k.
        std::vector<std::int64_t> cols(slots * n, 0), col_regs(regs * n, 0);
        for (std::size_t k = 0; k < n; ++k) {
            for (const auto& [name, v] : {std::pair{"i", operands[k / operands.size()]},
                                          std::pair{"j", operands[k % operands.size()]}})
                if (base_of(name) >= 0) cols[static_cast<std::size_t>(base_of(name)) * n + k] = v;
        }
        prog->execute_untagged<std::int64_t, TaskletProgram::kColumns>(
            cols.data(), col_regs.data(), static_cast<std::int64_t>(n));

        for (std::size_t k = 0; k < n; ++k) {
            const std::int64_t i = operands[k / operands.size()];
            const std::int64_t j = operands[k % operands.size()];
            SCOPED_TRACE("i=" + std::to_string(i) + " j=" + std::to_string(j));
            ConnectorEnv env{{"i", {Value::from_int(i)}}, {"j", {Value::from_int(j)}}};
            ConnectorEnv vm_env = env;
            prog->execute(env);
            prog->execute_compiled(vm_env);
            std::vector<std::int64_t> one(slots, 0), one_regs(regs, 0);
            if (base_of("i") >= 0) one[static_cast<std::size_t>(base_of("i"))] = i;
            if (base_of("j") >= 0) one[static_cast<std::size_t>(base_of("j"))] = j;
            prog->execute_untagged<std::int64_t, 1>(one.data(), one_regs.data());

            const Value ref = env.at("o").at(0);
            ASSERT_FALSE(ref.is_float);
            EXPECT_TRUE(values_equal(ref, vm_env.at("o").at(0)));
            const auto o = static_cast<std::size_t>(base_of("o"));
            EXPECT_EQ(one[o], ref.i);
            EXPECT_EQ(cols[o * n + k], ref.i);
        }
    }
    // One pinned value: (2^62 - 1) * 3 + 1 wraps to -2^62 - 2.
    ConnectorEnv env{{"i", {Value::from_int(kMax / 2)}}};
    TaskletProgram::parse("o = i * 3 + 1")->execute(env);
    EXPECT_EQ(env.at("o").at(0).i, -(std::int64_t{1} << 62) - 2);
}

}  // namespace
}  // namespace ff::interp
