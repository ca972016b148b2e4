#include "interp/interpreter.h"

#include <algorithm>
#include <limits>
#include <set>
#include <type_traits>

#include "common/error.h"
#include "common/rng.h"
#include "feedback/coverage.h"
#include "interp/library_nodes.h"

namespace ff::interp {

using ir::DataflowNode;
using ir::NodeId;
using ir::NodeKind;

namespace {

// Indices into the interpreter's scratch_values() pool.  Library nodes use
// low indices (see library_nodes.cpp); the interpreter's own helpers use the
// high ones so nested data movement never aliases.
constexpr std::size_t kCopyScratch = 6;
constexpr std::size_t kPassthroughBase = 8;  // + per-tasklet passthrough pool index

/// Precomputes subset shape facts that do not depend on symbol values.
void analyze_subset(AccessPlan& ap) {
    ap.single_point = true;
    ap.const_volume = 1;
    bool volume_known = true;
    for (const ir::Range& r : ap.memlet->subset.ranges) {
        const bool step_const_nonzero = r.step->is_constant() && r.step->constant_value() != 0;
        if (step_const_nonzero && r.begin->equals(*r.end)) continue;  // one index
        ap.single_point = false;
        if (step_const_nonzero && r.begin->is_constant() && r.end->is_constant()) {
            ap.const_volume *= ir::concrete_range_size(ir::ConcreteRange{
                r.begin->constant_value(), r.end->constant_value(), r.step->constant_value()});
        } else {
            volume_known = false;
        }
    }
    if (!volume_known) ap.const_volume = -1;
}

/// Lowers one symbolic range triple to interned programs.
RangePlan lower_range(const ir::Range& r, sym::SymbolTable& tab,
                      std::vector<sym::SymId>& used) {
    RangePlan rp;
    rp.begin = sym::CompiledExpr::lower(r.begin, tab, &used);
    rp.end = sym::CompiledExpr::lower(r.end, tab, &used);
    rp.step = sym::CompiledExpr::lower(r.step, tab, &used);
    return rp;
}

/// Saturating counter add: hostile iteration footprints (a kernel launch's
/// point product can exceed int64) must clamp, never wrap into a fresh
/// budget.
std::int64_t saturating_add(std::int64_t counter, __int128 amount) {
    const __int128 sum = static_cast<__int128>(counter) + amount;
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    return sum > kMax ? kMax : static_cast<std::int64_t>(sum);
}

/// Saturating product of two point counts in [0, 2^63]: clamps at the
/// int64 maximum, so products of nest extents never overflow __int128.
__int128 saturating_mul(__int128 a, __int128 b) {
    const __int128 product = a * b;
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    return product > kMax ? kMax : product;
}

// --- Untagged lane movers -----------------------------------------------------
//
// The untagged VM runs on T = double (float-family signature) or int64
// (int-family signature).  These helpers move values between raw Buffer
// storage and T arenas with exactly the expressions Buffer::load /
// Buffer::store apply on the tagged path, so every tier stays
// byte-identical for any container dtype:
//  * loads promote within the signature's family (F32 -> double mirrors the
//    tagged load; I32 -> int64 likewise);
//  * stores convert the untagged result like Buffer::store converts the
//    tagged Value — including int64 -> float *via double* (Buffer::store
//    casts as_double(), which double-rounds; a direct int64 -> float cast
//    can differ in the last bit).
// Each moves the lanes at flat offsets base, base + d, base + 2d, ... to or
// from a contiguous column of `n` elements.  At W == 1 the count is the
// compile-time constant 1 (`n` and `d` are ignored), so that instantiation
// is the scalar single-element move.

/// Raw storage base of `buf`'s runtime dtype (never null for a constructed
/// buffer).
void* raw_data_of(Buffer& buf) {
    switch (buf.dtype()) {
        case ir::DType::F64: return buf.f64_data();
        case ir::DType::F32: return buf.f32_data();
        case ir::DType::I64: return buf.i64_data();
        case ir::DType::I32: return buf.i32_data();
    }
    return nullptr;
}

/// Buffer::store's conversion of an untagged T to storage type S.
template <typename S, typename T>
S store_cast(T v) {
    if constexpr (std::is_same_v<S, float>) return static_cast<float>(static_cast<double>(v));
    else if constexpr (std::is_same_v<S, std::int32_t>)
        return static_cast<std::int32_t>(static_cast<std::int64_t>(v));
    else return static_cast<S>(v);
}

template <typename T, std::int64_t W, typename S>
void load_strided(T* col, const void* raw, std::int64_t base, std::int64_t d, std::int64_t n) {
    const S* src = static_cast<const S*>(raw) + base;
    for (std::int64_t j = 0; j < (W == 1 ? 1 : n); ++j) col[j] = static_cast<T>(src[j * d]);
}

template <typename T, std::int64_t W, typename S>
void store_strided(void* raw, std::int64_t base, std::int64_t d, const T* col, std::int64_t n) {
    S* dst = static_cast<S*>(raw) + base;
    for (std::int64_t j = 0; j < (W == 1 ? 1 : n); ++j) dst[j * d] = store_cast<S>(col[j]);
}

/// Loads lanes of a buffer in T's dtype family (checked by the caller).
template <typename T, std::int64_t W>
void load_lanes(T* col, const void* raw, ir::DType dt, std::int64_t base, std::int64_t d,
                std::int64_t n) {
    using Narrow = std::conditional_t<std::is_same_v<T, double>, float, std::int32_t>;
    const ir::DType wide = std::is_same_v<T, double> ? ir::DType::F64 : ir::DType::I64;
    if (dt == wide) load_strided<T, W, T>(col, raw, base, d, n);
    else load_strided<T, W, Narrow>(col, raw, base, d, n);
}

/// Stores lanes into a buffer of any dtype.
template <typename T, std::int64_t W>
void store_lanes(void* raw, ir::DType dt, std::int64_t base, std::int64_t d, const T* col,
                 std::int64_t n) {
    switch (dt) {
        case ir::DType::F64: return store_strided<T, W, double>(raw, base, d, col, n);
        case ir::DType::F32: return store_strided<T, W, float>(raw, base, d, col, n);
        case ir::DType::I64: return store_strided<T, W, std::int64_t>(raw, base, d, col, n);
        case ir::DType::I32: return store_strided<T, W, std::int32_t>(raw, base, d, col, n);
    }
}

}  // namespace

StatePlan Interpreter::build_plan(const ir::SDFG& sdfg, const ir::State& state) {
    const auto topo = state.graph().topological_order();
    if (!topo) throw common::ValidationError("state '" + state.name() + "' has a dataflow cycle");

    // parent[n] = innermost enclosing MapEntry (kInvalidNode at top level).
    std::map<NodeId, NodeId> parent;
    for (NodeId n : *topo) parent[n] = graph::kInvalidNode;
    struct ScopeInfo {
        NodeId entry;
        std::set<NodeId> inside;
    };
    std::vector<ScopeInfo> scopes;
    for (NodeId n : *topo) {
        if (state.graph().node(n).kind == NodeKind::MapEntry)
            scopes.push_back(ScopeInfo{n, state.scope_nodes(n)});
    }
    for (NodeId n : *topo) {
        NodeId best = graph::kInvalidNode;
        std::size_t best_size = 0;
        for (const ScopeInfo& s : scopes) {
            if (!s.inside.count(n)) continue;
            if (best == graph::kInvalidNode || s.inside.size() < best_size) {
                best = s.entry;
                best_size = s.inside.size();
            }
        }
        parent[n] = best;
    }

    StatePlan plan;
    NodeId max_id = -1;
    std::map<NodeId, std::vector<NodeId>> scope_children;
    for (NodeId n : *topo) {
        max_id = std::max(max_id, n);
        const NodeKind k = state.graph().node(n).kind;
        if (k == NodeKind::MapExit) continue;  // executed with its entry
        const NodeId p = parent[n];
        if (p == graph::kInvalidNode) plan.top_level.push_back(n);
        else scope_children[p].push_back(n);
    }

    // Per-tasklet memlet access plans and per-scope iteration plans.  Both
    // are engine-independent (the reference path simply ignores the tasklet
    // plans), so one shared plan serves interpreters of either config.
    sym::SymbolTable& tab = plans_->symbols();
    std::vector<sym::SymId> used;

    plan.node_to_plan.assign(static_cast<std::size_t>(max_id + 1), -1);
    plan.node_to_scope.assign(static_cast<std::size_t>(max_id + 1), -1);
    int cache_counter = 0;
    for (NodeId n : *topo) {
        const DataflowNode& node = state.graph().node(n);
        if (node.kind == NodeKind::Tasklet) {
            TaskletPlan tp;
            build_tasklet_plan(sdfg, state, n, tp, cache_counter, used);
            plan.node_to_plan[static_cast<std::size_t>(n)] =
                static_cast<int>(plan.tasklet_plans.size());
            plan.tasklet_plans.push_back(std::move(tp));
        } else if (node.kind == NodeKind::MapEntry) {
            ScopePlan sp;
            sp.label = node.label;
            for (std::size_t i = 0; i < node.params.size(); ++i) {
                const sym::SymId id = tab.intern(node.params[i]);
                sp.params.push_back(id);
                sp.param_names.push_back(&node.params[i]);
                // Referenced so a same-named free symbol (shadowing) is
                // mirrored; the scope save/restore handles the rest.
                if (std::find(used.begin(), used.end(), id) == used.end())
                    used.push_back(id);
                sp.ranges.push_back(lower_range(node.map_ranges[i], tab, used));
            }
            sp.children = std::move(scope_children[n]);
            plan.node_to_scope[static_cast<std::size_t>(n)] =
                static_cast<int>(plan.scope_plans.size());
            plan.scope_plans.push_back(std::move(sp));
        }
    }
    plan.cache_slots = cache_counter;

    // Scope purity, innermost-first (reverse topological order guarantees a
    // nested entry is classified before its parent).
    for (auto it = topo->rbegin(); it != topo->rend(); ++it) {
        const NodeId n = *it;
        if (state.graph().node(n).kind != NodeKind::MapEntry) continue;
        ScopePlan& sp = plan.scope_plans[static_cast<std::size_t>(
            plan.node_to_scope[static_cast<std::size_t>(n)])];
        bool pure = true;
        for (NodeId c : sp.children) {
            const NodeKind k = state.graph().node(c).kind;
            if (k == NodeKind::Tasklet) {
                const TaskletPlan* tp = plan.plan_of(c);
                pure = pure && tp && !tp->use_reference;
            } else if (k == NodeKind::MapEntry) {
                pure = pure && plan.scope_of(c).pure;
            } else {
                // Access copies, library and comm nodes read ctx.symbols.
                pure = false;
            }
        }
        sp.pure = pure;
    }

    // Specialization tier: flat-stride kernels for qualifying scopes.
    std::int64_t f64_count = 0, i64_count = 0;
    for (const TaskletPlan& tp : plan.tasklet_plans) {
        f64_count += tp.sig == VMSig::F64 ? 1 : 0;
        i64_count += tp.sig == VMSig::I64 ? 1 : 0;
    }
    std::int64_t specialized = 0, segmented = 0;
    for (ScopePlan& sp : plan.scope_plans) {
        classify_scope_kernel(sdfg, state, plan, sp);
        specialized += sp.kernel >= 0 ? 1 : 0;
        if (sp.kernel >= 0 && plan.kernels[static_cast<std::size_t>(sp.kernel)].segment_ok)
            ++segmented;
    }
    plans_->note_classification(static_cast<std::int64_t>(plan.scope_plans.size()), specialized,
                                segmented, static_cast<std::int64_t>(plan.tasklet_plans.size()),
                                f64_count, i64_count);

    // Def-use pair id bases (feedback/coverage.h).  The atlas enumerates the
    // same accesses in the same order as the tasklet plans above, so each
    // plan's j-th access takes base + j * kNumClasses.  Plans are shared
    // between coverage-on and coverage-off interpreters; ExecConfig::coverage
    // gates marking, not planning.
    {
        ir::StateId sid = graph::kInvalidNode;
        for (const ir::StateId s : sdfg.states())
            if (&sdfg.state(s) == &state) {
                sid = s;
                break;
            }
        const auto atlas = plans_->atlas_for(sdfg);
        for (NodeId n : *topo) {
            const int pi = static_cast<std::size_t>(n) < plan.node_to_plan.size()
                               ? plan.node_to_plan[static_cast<std::size_t>(n)]
                               : -1;
            if (pi < 0) continue;
            TaskletPlan& tp = plan.tasklet_plans[static_cast<std::size_t>(pi)];
            const std::int64_t base = atlas->base_of(sid, n);
            if (base < 0) continue;  // unconnected tasklet: not enumerated
            const std::size_t accesses = tp.inputs.size() + tp.outputs.size();
            tp.cov_bases.reserve(accesses);
            for (std::size_t j = 0; j < accesses; ++j)
                tp.cov_bases.push_back(static_cast<std::uint32_t>(base) +
                                       static_cast<std::uint32_t>(j) * feedback::kNumClasses);
        }
        for (ScopePlan& sp : plan.scope_plans) {
            for (NodeId c : sp.children) {
                const TaskletPlan* tp = plan.plan_of(c);
                if (!tp) continue;
                sp.cov_bases.insert(sp.cov_bases.end(), tp->cov_bases.begin(),
                                    tp->cov_bases.end());
            }
        }
    }

    plan.referenced.reserve(used.size());
    for (const sym::SymId id : used) plan.referenced.emplace_back(id, tab.name(id));
    plan.symtab_size = tab.size();
    return plan;
}

void Interpreter::classify_scope_kernel(const ir::SDFG& sdfg, const ir::State& state,
                                        StatePlan& plan, ScopePlan& sp) {
    const std::size_t nparams = sp.params.size();
    if (!sp.pure || nparams == 0) return;

    // A perfect nest — a scope whose only child is another map scope,
    // recursively — spans its chain's levels too (purity is inherited).
    ScopeKernel kern;
    const ScopePlan* leaf = &sp;
    std::vector<const RangePlan*> ranges;
    std::vector<sym::SymId> params;
    std::vector<const std::string*> names;
    for (;;) {
        for (std::size_t p = 0; p < leaf->params.size(); ++p) {
            if (std::find(params.begin(), params.end(), leaf->params[p]) != params.end())
                return;  // a repeated parameter shadows: the nest stays unfused
            ranges.push_back(&leaf->ranges[p]);
            params.push_back(leaf->params[p]);
            names.push_back(leaf->param_names[p]);
        }
        if (leaf->children.size() != 1 ||
            state.graph().node(leaf->children[0]).kind != NodeKind::MapEntry)
            break;
        const int c = plan.node_to_scope[static_cast<std::size_t>(leaf->children[0])];
        kern.chain.push_back(c);
        leaf = &plan.scope_plans[static_cast<std::size_t>(c)];
    }

    // Kernel levels: a range may reference an earlier level's parameter,
    // which the generic odometer then binds above the kernel; a reference to
    // its own or a later level's parameter would read a stale binding.  In a
    // nest, `first` must stay within the owner's levels.
    for (std::size_t k = 0; k < params.size(); ++k) {
        const RangePlan& r = *ranges[k];
        for (std::size_t j = 0; j < params.size(); ++j) {
            if (!r.begin.uses_any(&params[j], 1) && !r.end.uses_any(&params[j], 1) &&
                !r.step.uses_any(&params[j], 1))
                continue;
            if (j >= k) return;
            kern.first = std::max(kern.first, j + 1);
        }
    }
    if (kern.first > nparams) return;
    const std::vector<const std::string*> kparams(
        names.begin() + static_cast<std::ptrdiff_t>(kern.first), names.end());

    for (const ir::NodeId c : leaf->children) {
        if (state.graph().node(c).kind != NodeKind::Tasklet) return;  // imperfect nest etc.
        const TaskletPlan* tp = plan.plan_of(c);
        if (!tp || tp->use_reference) return;
        // A declared input bound by no edge throws at every point — leave
        // that to the generic path.  Declared widths are checked against
        // window volumes per launch (KernelAccess::declared).
        for (const TaskletPlan::InputCheck& check : tp->input_checks)
            if (check.input_index < 0) return;
        // The committed point loop must be throw-free: lane buffers are
        // pre-allocated at launch, so a tasklet throwing mid-loop would
        // leave different partial allocations than the lazily-allocating
        // generic path.  Trap instructions always throw when reached;
        // integer division/modulo can throw on a zero divisor — allowed
        // only when the f64 feasibility proof (all inputs arrive as
        // doubles, so the int division path is unreachable) applies, i.e.
        // the program is feasible and every input container is float.
        if (!tp->prog->trap_connectors().empty()) return;
        if (tp->prog->has_div_mod()) {
            bool floats_only = tp->prog->has_f64_variant();
            for (const AccessPlan& ap : tp->inputs)
                floats_only = floats_only && sdfg.has_container(ap.memlet->data) &&
                              ir::dtype_is_float(sdfg.container(ap.memlet->data).dtype);
            if (!floats_only) return;
        }
        const int tindex = static_cast<int>(kern.tasklets.size());
        auto classify_access = [&](const AccessPlan& ap, bool output, int index) {
            if (ap.invalid || ap.passthrough_pool >= 0) return false;
            if (output && (ap.slot_base < 0 || !ap.single_point)) return false;
            if (!sdfg.has_container(ap.memlet->data)) return false;
            const ir::DataDesc& desc = sdfg.container(ap.memlet->data);
            // Rank mismatches raise inside the loop on the generic path.
            if (desc.dims() != ap.dims.size()) return false;
            KernelAccess ka;
            ka.tasklet = tindex;
            ka.output = output;
            ka.index = index;
            ka.coeffs.reserve(ap.dims.size() * kparams.size());
            for (const ir::Range& r : ap.memlet->subset.ranges) {
                // One index (begin == end structurally, any nonzero step),
                // or a step-1 window whose extent is launch-constant.
                if (!r.step->is_constant()) return false;
                const auto coeffs = ir::affine_coefficients(r.begin, kparams);
                if (!coeffs) return false;
                if (r.begin->equals(*r.end)) {
                    if (r.step->constant_value() == 0) return false;
                } else {
                    if (r.step->constant_value() != 1) return false;
                    if (ir::affine_coefficients(r.end, kparams) != coeffs) return false;
                    ka.window = true;
                }
                ka.coeffs.insert(ka.coeffs.end(), coeffs->begin(), coeffs->end());
            }
            kern.accesses.push_back(std::move(ka));
            return true;
        };
        for (std::size_t i = 0; i < tp->inputs.size(); ++i)
            if (!classify_access(tp->inputs[i], false, static_cast<int>(i))) return;
        for (std::size_t i = 0; i < tp->outputs.size(); ++i)
            if (!classify_access(tp->outputs[i], true, static_cast<int>(i))) return;
        // A single point satisfies a declared width of at most 1; wider
        // declarations need a window (checked per launch).
        const std::size_t a0 = kern.accesses.size() - tp->inputs.size() - tp->outputs.size();
        for (const TaskletPlan::InputCheck& check : tp->input_checks) {
            KernelAccess& ka = kern.accesses[a0 + static_cast<std::size_t>(check.input_index)];
            if (check.width > 1 && !ka.window) return;
            ka.declared = std::max(ka.declared, check.width);
        }
        kern.tasklets.push_back(plan.node_to_plan[static_cast<std::size_t>(c)]);
    }

    // Segment eligibility: every tasklet runs the untagged VM (so lanes move
    // through raw storage) and is straight-line (so it can run at column
    // width).  Tagged-sig tasklets are excluded — batching them would
    // re-introduce per-element tag dispatch for no gain.  Note integer
    // Div/Mod can never reach here: the throw-free gate above only admits
    // div/mod under the f64 feasibility proof.
    kern.segment_ok = !kern.tasklets.empty();
    for (const int t : kern.tasklets) {
        const TaskletPlan& tp = plan.tasklet_plans[static_cast<std::size_t>(t)];
        kern.segment_ok =
            kern.segment_ok && tp.sig != VMSig::Tagged && tp.prog->is_straightline();
    }

    sp.kernel = static_cast<int>(plan.kernels.size());
    plan.kernels.push_back(std::move(kern));
}

void Interpreter::build_tasklet_plan(const ir::SDFG& sdfg, const ir::State& state, NodeId nid,
                                     TaskletPlan& tp, int& cache_counter,
                                     std::vector<sym::SymId>& used) {
    const DataflowNode& node = state.graph().node(nid);
    tp.prog = program_for(node.code);
    tp.label = node.label;
    const TaskletProgram& prog = *tp.prog;
    sym::SymbolTable& tab = plans_->symbols();

    auto lower_dims = [&](AccessPlan& ap) {
        ap.dims.reserve(ap.memlet->subset.ranges.size());
        for (const ir::Range& r : ap.memlet->subset.ranges)
            ap.dims.push_back(lower_range(r, tab, used));
    };

    std::set<std::string> bound;
    for (graph::EdgeId eid : state.graph().in_edges(nid)) {
        const auto& edge = state.graph().edge(eid).data;
        if (edge.dst_conn.empty()) continue;  // ordering-only dependency edge
        AccessPlan ap;
        ap.memlet = &edge.memlet;
        ap.conn = edge.dst_conn;
        for (const SlotDesc& sd : prog.slot_table()) {
            if (sd.name == edge.dst_conn) {
                ap.slot_base = sd.base;
                ap.width = sd.width;
                break;
            }
        }
        analyze_subset(ap);
        lower_dims(ap);
        ap.cache_index = cache_counter++;
        bound.insert(edge.dst_conn);
        for (const std::string& t : prog.trap_connectors())
            if (t == edge.dst_conn) tp.use_reference = true;
        tp.inputs.push_back(std::move(ap));
    }

    // reads() name order = the reference engine's check order.  Multiple
    // edges binding one connector: the last gather wins in both engines, so
    // validate against the last matching input.
    for (const auto& [name, width] : prog.reads()) {
        TaskletPlan::InputCheck check;
        check.conn = name;
        check.width = width;
        for (std::size_t i = 0; i < tp.inputs.size(); ++i)
            if (tp.inputs[i].conn == name) check.input_index = static_cast<int>(i);
        tp.input_checks.push_back(std::move(check));
    }

    int next_pool = 0;
    for (graph::EdgeId eid : state.graph().out_edges(nid)) {
        const auto& edge = state.graph().edge(eid).data;
        AccessPlan ap;
        ap.memlet = &edge.memlet;
        ap.conn = edge.src_conn;
        for (const SlotDesc& sd : prog.slot_table()) {
            if (sd.name == edge.src_conn) {
                ap.slot_base = sd.base;
                ap.width = sd.width;
                break;
            }
        }
        if (ap.slot_base < 0) {
            if (bound.count(edge.src_conn)) {
                // The program never mentions this connector: the edge
                // forwards the gathered input values unchanged.  Stage the
                // pre-execution snapshot in a passthrough pool so an earlier
                // output writing the same container cannot alter it.
                for (AccessPlan& in : tp.inputs)
                    if (in.conn == edge.src_conn) {
                        if (in.passthrough_pool < 0) in.passthrough_pool = next_pool++;
                        ap.passthrough_pool = in.passthrough_pool;
                        break;
                    }
            } else {
                ap.invalid = true;  // raised when this edge executes
            }
        } else {
            // Connector used by the program *and* bound as an input: the
            // reference engine scatters the full gathered vector, which can
            // exceed the compiled slot width when the input memlet is larger
            // than the referenced lanes — only then do the engines diverge,
            // so run such nodes on the reference engine.
            for (const AccessPlan& in : tp.inputs)
                if (in.conn == edge.src_conn &&
                    (in.const_volume < 0 || in.const_volume > ap.width))
                    tp.use_reference = true;
        }
        analyze_subset(ap);
        lower_dims(ap);
        ap.cache_index = cache_counter++;
        tp.outputs.push_back(std::move(ap));
    }

    // Dtype-signature selection (see VMSig): program-side feasibility
    // (proved at parse time under the all-inputs-arrive-as-the-family
    // assumption) plus graph-side facts.  Every *input* must bind a
    // matching-family container — F32 inputs work on the f64 engine because
    // the tagged VM already promotes F32 loads to double (Buffer::load), so
    // computing in double is what the tagged path does anyway.  Multi-point
    // inputs qualify too: kernels feed them as window lanes, and outside
    // kernels such a tasklet runs tagged (execute_tasklet_untagged).
    // *Outputs* bind a single-point subset of any dtype: the untagged
    // scatter conversions mirror Buffer::store's casts on the tagged result
    // exactly (including int64 -> float via double).  No passthrough
    // staging or invalid outputs on either side.
    auto untagged_ok = [&](bool float_family) {
        auto shape_ok = [&](const AccessPlan& ap) {
            return !ap.invalid && ap.passthrough_pool < 0 && sdfg.has_container(ap.memlet->data);
        };
        for (const AccessPlan& ap : tp.inputs) {
            if (!shape_ok(ap)) return false;
            if (ir::dtype_is_float(sdfg.container(ap.memlet->data).dtype) != float_family)
                return false;
        }
        for (const AccessPlan& ap : tp.outputs)
            if (!shape_ok(ap) || !ap.single_point) return false;
        return true;
    };
    for (const AccessPlan& ap : tp.inputs) tp.window_inputs |= !ap.single_point;
    if (!tp.use_reference) {
        if (prog.has_f64_variant() && untagged_ok(/*float_family=*/true))
            tp.sig = VMSig::F64;
        else if (prog.has_i64_variant() && untagged_ok(/*float_family=*/false))
            tp.sig = VMSig::I64;
    }
}

const StatePlan& Interpreter::plan_for(const ir::SDFG& sdfg, const ir::State& state) {
    const PlanKey key{sdfg.plan_uid(), sdfg.mutation_epoch(), &state};
    auto it = plan_memo_.find(key);
    if (it == plan_memo_.end()) {
        // Drop memo entries of this SDFG from older mutation epochs: they
        // can never hit again (epochs only grow), and a warm interpreter
        // reused across many transformations must not accumulate them.
        const auto first = plan_memo_.lower_bound(PlanKey{sdfg.plan_uid(), 0, nullptr});
        const auto last =
            plan_memo_.lower_bound(PlanKey{sdfg.plan_uid(), sdfg.mutation_epoch(), nullptr});
        plan_memo_.erase(first, last);
        auto plan = plans_->get_or_build(key, [&] { return build_plan(sdfg, state); });
        it = plan_memo_.emplace(key, std::move(plan)).first;
    }
    return *it->second;
}

void Interpreter::sync_flat_bindings(const StatePlan& plan, const Context& ctx) {
    Scratch& s = scratch_;
    s.flat.reset(plan.symtab_size);
    s.eval_stack.clear();
    s.param_stack.clear();
    s.active_params.clear();
    for (const auto& [id, name] : plan.referenced) {
        auto it = ctx.symbols.find(name);
        if (it != ctx.symbols.end()) s.flat.bind(id, it->second);
    }
}

void Interpreter::invalidate_execution_cache() {
    scratch_.cache_plan = nullptr;
    scratch_.cache_ctx = nullptr;
}

void Interpreter::rebind_plan_cache(PlanCachePtr plans) {
    flush_launch_stats();  // pending counts belong to the previous cache
    plans_ = plans ? std::move(plans) : std::make_shared<PlanCache>();
    // The memo holds shared_ptrs into the *previous* cache; plans compiled
    // against a different cache's symbol table must never be mixed, so the
    // memo goes with it.  Scratch stays: its vectors are sized per state on
    // entry and reusing their capacity is the point of rebinding.
    plan_memo_.clear();
    invalidate_execution_cache();
}

ExecResult Interpreter::run(const ir::SDFG& sdfg, Context& ctx) {
    ExecResult result;
    invalidate_execution_cache();
    points_used_ = 0;
    instructions_used_ = 0;
    alloc_used_ = 0;
    try {
        ir::StateId current = sdfg.start_state();
        while (true) {
            execute_state(sdfg, sdfg.state(current), ctx);

            // Pick the first matching transition, in edge insertion order.
            ir::StateId next = graph::kInvalidNode;
            const ir::InterstateEdge* taken = nullptr;
            for (graph::EdgeId eid : sdfg.cfg().out_edges(current)) {
                const auto& e = sdfg.cfg().edge(eid);
                if (!e.data.condition || e.data.condition->evaluate(ctx.symbols)) {
                    next = e.dst;
                    taken = &e.data;
                    break;
                }
            }
            if (next == graph::kInvalidNode) break;  // terminate

            // Simultaneous assignment: evaluate all RHS under old bindings.
            std::vector<std::pair<std::string, std::int64_t>> updates;
            updates.reserve(taken->assignments.size());
            for (const auto& [symbol, expr] : taken->assignments)
                updates.emplace_back(symbol, expr->evaluate(ctx.symbols));
            for (const auto& [symbol, value] : updates) ctx.symbols[symbol] = value;

            if (++result.state_transitions > config_.max_state_transitions)
                throw common::HangError(config_.max_state_transitions);

            current = next;
        }
    } catch (const common::HangError& e) {
        result.status = ExecStatus::Hang;
        result.message = e.what();
    } catch (const common::ResourceError& e) {
        result.status = ExecStatus::Resource;
        result.message = e.what();
    } catch (const std::exception& e) {
        result.status = ExecStatus::Crash;
        result.message = e.what();
    }
    flush_launch_stats();
    // Cost counters are byte-identical across execution tiers only for Ok
    // results (see ExecResult); they are still reported on error paths for
    // diagnostics.
    result.points = points_used_;
    result.instructions = instructions_used_;
    return result;
}

void Interpreter::execute_state(const ir::SDFG& sdfg, const ir::State& state, Context& ctx) {
    const StatePlan& plan = plan_for(sdfg, state);
    invalidate_execution_cache();
    sync_flat_bindings(plan, ctx);
    for (NodeId nid : plan.top_level) {
        execute_node_planned(sdfg, state, plan, nid, ctx);
        if (cov_map_) {
            // A top-level tasklet executes exactly once: its accesses hit
            // region class 1 (one point).  Scope-enclosed tasklets are
            // marked at launch granularity by execute_scope instead.
            if (const TaskletPlan* tp = plan.plan_of(nid))
                for (const std::uint32_t base : tp->cov_bases) cov_map_->mark(base + 1);
        }
    }
    flush_launch_stats();
}

void Interpreter::execute_node(const ir::SDFG& sdfg, const ir::State& state, NodeId nid,
                               Context& ctx) {
    const StatePlan& plan = plan_for(sdfg, state);
    sync_flat_bindings(plan, ctx);
    execute_node_planned(sdfg, state, plan, nid, ctx);
}

void Interpreter::execute_node_planned(const ir::SDFG& sdfg, const ir::State& state,
                                       const StatePlan& plan, NodeId nid, Context& ctx) {
    const DataflowNode& node = state.graph().node(nid);
    switch (node.kind) {
        case NodeKind::Access:
            ensure_buffer(sdfg, ctx, node.data);
            execute_access_copies(sdfg, state, nid, ctx);
            break;
        case NodeKind::Tasklet: {
            const TaskletPlan* tp = config_.use_compiled_tasklets ? plan.plan_of(nid) : nullptr;
            if (tp && !tp->use_reference) execute_tasklet_planned(sdfg, state, plan, *tp, ctx);
            else execute_tasklet(sdfg, state, nid, ctx);
            break;
        }
        case NodeKind::Library: execute_library(*this, sdfg, state, nid, ctx); break;
        case NodeKind::Comm: execute_comm_single_rank(sdfg, state, nid, ctx); break;
        case NodeKind::MapEntry: execute_scope(sdfg, state, plan, nid, ctx); break;
        case NodeKind::MapExit: break;
    }
}

void Interpreter::execute_scope(const ir::SDFG& sdfg, const ir::State& state,
                                const StatePlan& plan, NodeId entry, Context& ctx) {
    const ScopePlan& sp = plan.scope_of(entry);
    const std::size_t nparams = sp.params.size();
    Scratch& s = scratch_;
    // Pure scopes iterate entirely in the flat bindings: parameter binding
    // is an array store.  Impure scopes (library/comm/access/reference-
    // engine nodes inside) additionally maintain the string-keyed Context
    // bindings those nodes read, exactly like the legacy engine.
    const bool interned_only = config_.use_compiled_tasklets && sp.pure;

    // Save shadowed bindings (stack discipline on reusable scratch vectors:
    // nested scopes push above their parent, no steady-state allocation).
    const std::size_t pbase = s.param_stack.size();
    const std::size_t abase = s.active_params.size();
    for (std::size_t i = 0; i < nparams; ++i) {
        Scratch::SavedParam sv;
        sv.id = sp.params[i];
        sv.flat_bound = s.flat.is_bound(sv.id);
        sv.flat_value = sv.flat_bound ? s.flat.value(sv.id) : 0;
        sv.str_bound = false;
        sv.str_value = 0;
        if (!interned_only) {
            auto it = ctx.symbols.find(*sp.param_names[i]);
            if (it != ctx.symbols.end()) {
                sv.str_bound = true;
                sv.str_value = it->second;
            }
        }
        s.param_stack.push_back(sv);
        s.active_params.push_back(Scratch::ActiveParam{sp.param_names[i], 0});
    }

    // Coverage is charged per launch from the launch's point-fuel delta:
    // the kernel tier pre-charges the same total the generic odometer
    // accumulates (contract clause 8), so the region class — and with it the
    // bitmap — is byte-identical across tiers.
    const std::int64_t cov_snapshot = points_used_;

    // Flat-stride kernel: when the scope classified at plan time, the
    // odometer below hands the kernel levels — [first, n) and, for a
    // perfect nest, every chain level — to execute_scope_kernel at every
    // point of the levels above them (at level n itself when first == n,
    // before that point is charged).  A launch whose validation fails runs
    // those levels on the odometer (and the chain scopes' own kernels),
    // which reproduces the unspecialized path's exact effects and errors.
    const ScopeKernel* kern = interned_only && config_.specialize && sp.kernel >= 0
                                  ? &plan.kernels[static_cast<std::size_t>(sp.kernel)]
                                  : nullptr;

    // Iterate the cartesian product of ranges.  Bounds are evaluated per
    // level because they may reference parameters of enclosing scopes.
    auto iterate = [&](auto&& self, std::size_t level) -> void {
        if (kern && level == kern->first) {
            if (execute_scope_kernel(sdfg, plan, sp, *kern, ctx)) {
                ++launches_;
                return;
            }
            ++fallbacks_;
        }
        if (level == nparams) {
            // One map point.  The fuel check fires *before* the point's
            // children execute, so the kernel path's launch-entry pre-charge
            // (execute_scope_kernel) detects exhaustion of the same budget
            // with the same message — byte-identical results either way.
            points_used_ = saturating_add(points_used_, 1);
            if (config_.max_points > 0 && points_used_ > config_.max_points)
                throw common::ResourceError::points(config_.max_points);
            for (NodeId child : sp.children)
                execute_node_planned(sdfg, state, plan, child, ctx);
            return;
        }
        const RangePlan& r = sp.ranges[level];
        const std::int64_t begin = r.begin.eval(s.flat, s.eval_stack);
        const std::int64_t end = r.end.eval(s.flat, s.eval_stack);
        const std::int64_t step = r.step.eval(s.flat, s.eval_stack);
        if (step == 0) throw common::Error("map '" + sp.label + "' has step 0");
        const sym::SymId id = sp.params[level];
        for (std::int64_t v = begin; step > 0 ? v <= end : v >= end; v += step) {
            s.flat.bind(id, v);
            s.active_params[abase + level].value = v;
            if (!interned_only) ctx.symbols[*sp.param_names[level]] = v;
            self(self, level + 1);
        }
    };
    iterate(iterate, 0);

    if (cov_map_ && !sp.cov_bases.empty()) {
        const std::uint32_t cls =
            static_cast<std::uint32_t>(feedback::region_class(points_used_ - cov_snapshot));
        for (const std::uint32_t base : sp.cov_bases) cov_map_->mark(base + cls);
    }

    // Restore bindings.
    for (std::size_t i = 0; i < nparams; ++i) {
        const Scratch::SavedParam& sv = s.param_stack[pbase + i];
        if (sv.flat_bound) s.flat.bind(sv.id, sv.flat_value);
        else s.flat.unbind(sv.id);
        if (!interned_only) {
            if (sv.str_bound) ctx.symbols[*sp.param_names[i]] = sv.str_value;
            else ctx.symbols.erase(*sp.param_names[i]);
        }
    }
    s.param_stack.resize(pbase);
    s.active_params.resize(abase);
}

bool Interpreter::execute_scope_kernel(const ir::SDFG& sdfg, const StatePlan& plan,
                                       const ScopePlan& sp, const ScopeKernel& kern,
                                       Context& ctx) {
    Scratch& s = scratch_;
    const std::size_t first = kern.first;
    const auto scope = [&](int c) -> const ScopePlan& {
        return plan.scope_plans[static_cast<std::size_t>(c)];
    };
    const std::size_t own = sp.params.size() - first;  // the owner's kernel levels
    std::size_t levels = own;
    for (const int c : kern.chain) levels += scope(c).params.size();
    // Caller (execute_scope) pushed the owner's active_params block.
    const std::size_t abase = s.active_params.size() - own;

    // The kernel bypasses execute_tasklet_planned, so it owns the Buffer*
    // cache guard its per-point loop relies on.
    if (s.cache_plan != &plan || s.cache_ctx != &ctx) {
        s.buffer_cache.assign(static_cast<std::size_t>(plan.cache_slots), nullptr);
        s.cache_plan = &plan;
        s.cache_ctx = &ctx;
    }

    // 1. Ranges, level by level: an empty level returns before a deeper
    // level's step-0 / unbound-symbol error fires, exactly like the generic
    // path (whose inner levels are never evaluated under an empty outer one).
    // Returns the level's point count, or -1 past 2^31 points (no
    // throughput difference either way; keeps the footprint arithmetic
    // comfortably inside __int128).
    s.kbegin.resize(levels);
    s.kstep.resize(levels);
    s.kcount.resize(levels);
    const auto eval_level = [&](std::size_t k, const RangePlan& r) {
        const std::int64_t begin = r.begin.eval(s.flat, s.eval_stack);
        const std::int64_t end = r.end.eval(s.flat, s.eval_stack);
        const std::int64_t step = r.step.eval(s.flat, s.eval_stack);
        if (step == 0) throw common::Error("map '" + sp.label + "' has step 0");
        const std::int64_t count =
            ir::concrete_range_size(ir::ConcreteRange{begin, end, step});
        if (count > (std::int64_t{1} << 31)) return std::int64_t{-1};
        s.kbegin[k] = begin;
        s.kstep[k] = step;
        s.kcount[k] = count;
        return count;
    };
    for (std::size_t k = 0; k < own; ++k) {
        const std::int64_t count = eval_level(k, sp.ranges[first + k]);
        if (count == 0) return true;  // empty nest: nothing executes, committed
        if (count < 0) return false;
    }
    // The generic path evaluates a chain scope's ranges only after charging
    // the owner's point, so an empty chain level, a step of 0 or a throw
    // falls back: the odometer then charges and raises exactly as always.
    try {
        std::size_t k = own;
        for (const int c : kern.chain)
            for (const RangePlan& r : scope(c).ranges)
                if (eval_level(k++, r) <= 0) return false;
    } catch (...) {
        return false;
    }

    // 2. Bind every level's parameter to the begin point, so base-index
    // evaluation and any lazy buffer-shape resolution see exactly what the
    // generic path's first iteration would.  Chain parameters are saved and
    // pushed above the owner's block, as their execute_scope would.
    const std::size_t pbase = s.param_stack.size();
    const std::size_t cbase = s.active_params.size();
    for (std::size_t k = 0; k < own; ++k) {
        s.flat.bind(sp.params[first + k], s.kbegin[k]);
        s.active_params[abase + k].value = s.kbegin[k];
    }
    for (std::size_t k = own; const int c : kern.chain) {
        const ScopePlan& cs = scope(c);
        for (std::size_t p = 0; p < cs.params.size(); ++p, ++k) {
            const sym::SymId id = cs.params[p];
            const bool bound = s.flat.is_bound(id);
            s.param_stack.push_back(
                Scratch::SavedParam{id, bound, bound ? s.flat.value(id) : 0, false, 0});
            s.active_params.push_back(Scratch::ActiveParam{cs.param_names[p], s.kbegin[k]});
            s.flat.bind(id, s.kbegin[k]);
        }
    }
    const auto restore_chain = [&] {
        for (std::size_t i = pbase; i < s.param_stack.size(); ++i) {
            const Scratch::SavedParam& sv = s.param_stack[i];
            if (sv.flat_bound) s.flat.bind(sv.id, sv.flat_value);
            else s.flat.unbind(sv.id);
        }
        s.param_stack.resize(pbase);
        s.active_params.resize(cbase);
    };

    // 3. Per access, in the generic path's first-point order: ensure the
    // buffer, evaluate the begin corner (and a window's extents), validate
    // rank and the whole iteration footprint from the begin corner to the
    // end corner, fold the affine coefficients into flat-offset deltas, and
    // emit the access's lanes.  Any validation failure — *including*
    // anything thrown (shape resolution, unbound index symbol) — falls
    // back: the generic odometer owns error semantics outright, re-raising
    // from the exact point the unspecialized run would (with earlier
    // sibling tasklets' first-point effects in place, which this pre-pass
    // must not shortcut).  Everything attempted here is idempotent
    // (allocation, pure evaluation), so the replay is byte-identical.
    std::size_t nlanes = 0;  // lanes and lane_delta only grow: no per-launch reallocation
    s.kinputs.assign(kern.tasklets.size(), 0);
    const auto setup_access = [&](const KernelAccess& ka) {
        const TaskletPlan& tp =
            plan.tasklet_plans[static_cast<std::size_t>(kern.tasklets[ka.tasklet])];
        const AccessPlan& ap =
            ka.output ? tp.outputs[static_cast<std::size_t>(ka.index)]
                      : tp.inputs[static_cast<std::size_t>(ka.index)];
        Buffer& buf = plan_buffer(sdfg, ctx, plan, ap);
        const std::size_t dims = ap.dims.size();
        if (buf.dims() != dims) return false;  // generic raises rank mismatch
        void* raw = nullptr;
        if (tp.sig != VMSig::Tagged) {
            // Input dtype drift outside the signature's family: the generic
            // tagged path handles any dtype.  Outputs convert on store, so
            // only their raw pointer matters.
            if (!ka.output && ir::dtype_is_float(buf.dtype()) != (tp.sig == VMSig::F64))
                return false;
            raw = raw_data_of(buf);
            if (!raw) return false;  // defensive
        }
        const auto& shape = buf.shape();
        const auto& strides = buf.strides();
        if (ka.window) s.kextent.resize(dims);
        __int128 flat0 = 0, volume = 1;
        for (std::size_t d = 0; d < dims; ++d) {
            const std::int64_t base = ap.dims[d].begin.eval(s.flat, s.eval_stack);
            __int128 lo = base, hi = base;
            if (ka.window) {
                const __int128 extent =
                    static_cast<__int128>(ap.dims[d].end.eval(s.flat, s.eval_stack)) - base + 1;
                if (extent < 1) return false;  // empty window: generic gathers nothing
                hi += extent - 1;
                volume *= extent;
                s.kextent[d] = static_cast<std::int64_t>(extent);
            }
            for (std::size_t k = 0; k < levels; ++k) {
                const __int128 travel = static_cast<__int128>(ka.coeffs[d * levels + k]) *
                                        (s.kcount[k] - 1) * s.kstep[k];
                (travel < 0 ? lo : hi) += travel;
            }
            if (lo < 0 || hi >= shape[d]) return false;  // could fault: generic raises
            flat0 += static_cast<__int128>(base) * strides[d];
        }
        if (volume < ka.declared) return false;  // generic raises missing input
        // Lanes: one per output; per input, one per connector slot the
        // gather fills (none for a side-effect-only input).
        const int nl = ka.output           ? 1
                       : ap.slot_base < 0 ? 0
                                          : static_cast<int>(std::min<__int128>(volume, ap.width));
        if (nl == 0) return true;
        if (!ka.output) s.kinputs[static_cast<std::size_t>(ka.tasklet)] += nl;
        const std::size_t l0 = nlanes;
        nlanes += static_cast<std::size_t>(nl);
        if (s.lanes.size() < nlanes) s.lanes.resize(nlanes);
        if (s.lane_delta.size() < nlanes * levels) s.lane_delta.resize(nlanes * levels);
        // Every point's offset is now proven in [0, size), so every delta —
        // a difference of reachable offsets — fits an int64.
        std::int64_t* delta = &s.lane_delta[l0 * levels];
        std::int64_t suffix = 0;  // full traversal of the levels below k
        for (std::size_t k = levels; k-- > 0;) {
            std::int64_t adv = 0;
            if (s.kcount[k] > 1)
                for (std::size_t d = 0; d < dims; ++d)
                    adv += ka.coeffs[d * levels + k] * s.kstep[k] * strides[d];
            delta[k] = adv - suffix;
            suffix += adv * (s.kcount[k] - 1);
        }
        // A window's lanes walk it row-major from the begin corner and
        // share the access's deltas.
        auto offset = static_cast<std::int64_t>(flat0);
        if (nl > 1) s.idx.assign(dims, 0);
        for (int e = 0; e < nl; ++e) {
            if (e > 0) {
                std::copy_n(delta, levels, delta + static_cast<std::size_t>(e) * levels);
                for (std::size_t d = dims; d-- > 0;) {
                    if (++s.idx[d] < s.kextent[d]) {
                        offset += strides[d];
                        break;
                    }
                    offset -= (s.kextent[d] - 1) * strides[d];
                    s.idx[d] = 0;
                }
            }
            s.lanes[l0 + static_cast<std::size_t>(e)] =
                Scratch::KernelLane{&buf, raw, buf.dtype(), offset, ap.slot_base + e, ka.output};
        }
        return true;
    };
    bool ok = true;
    try {
        for (const KernelAccess& ka : kern.accesses)
            if (!(ok = setup_access(ka))) break;
    } catch (...) {
        ok = false;  // generic replay re-raises from the right point
    }
    if (!ok) {
        restore_chain();
        return false;
    }

    // 3.5. Resource accounting, whole launch at once: the committed loop
    // below cannot raise (footprint proven in bounds, throw-free tasklet
    // programs by classification), so the generic path run on the same
    // launch either completes every point or hits the same fuel exhaustion
    // — charging up front is observationally identical and keeps the loop
    // check-free.  Charged after lane setup so a fallback never
    // double-counts.  Every scope of the nest charges what its odometer
    // would: one per point of the levels through it — for the owner, its
    // kernel levels (the empty product, its own point, when first == n:
    // the launch then stands where the odometer charges that point).
    {
        __int128 total = 0, through = 1;
        std::size_t k = 0;
        const auto charge = [&](std::size_t n) {
            for (; n > 0; --n, ++k) through = saturating_mul(through, s.kcount[k]);
            total += through;
        };
        charge(own);
        for (const int c : kern.chain) charge(scope(c).params.size());
        if (config_.max_points > 0 &&
            static_cast<__int128>(points_used_) + total > config_.max_points)
            throw common::ResourceError::points(config_.max_points);
        points_used_ = saturating_add(points_used_, total);
        instructions_used_ = saturating_add(
            instructions_used_, through * static_cast<__int128>(kern.tasklets.size()));
    }

    // 4. The launch loop.  The innermost level runs as segments of length
    // L: its whole extent when the kernel is segment-eligible and this
    // launch's concrete lane windows are alias-safe, otherwise L = 1 and
    // the odometer covers every level.  Segments run in tiles (scratch stays
    // cache-resident), and within a tile each tasklet in child order:
    // gather -> untagged VM -> scatter per lane.  Tile-outer /
    // tasklet-inner order preserves per-point semantics for the
    // pointwise-aligned cross-tasklet dependencies the alias check admits.
    // Width-1 segments run the scalar VM instantiation.
    const std::size_t inner = levels - 1;
    const bool batch = kern.segment_ok && s.kcount[inner] > 1 &&
                       segment_alias_safe(nlanes, levels, s.kcount[inner]);
    const std::int64_t seg_len = batch ? s.kcount[inner] : 1;
    const std::size_t outer = batch ? inner : levels;  // odometer levels
    if (batch) {
        ++segment_launches_;
        // With segments, a level-k advance also skips the inner traversal
        // the segment covered.
        for (std::size_t l = 0; l < nlanes; ++l)
            for (std::size_t k = 0; k < inner; ++k)
                s.lane_delta[l * levels + k] += s.lane_delta[l * levels + inner] * (seg_len - 1);
    }
    constexpr std::int64_t kTile = 256;
    const auto width = static_cast<std::size_t>(std::min(seg_len, kTile));
    const auto grow = [](auto& arena, std::size_t size) {
        if (arena.size() < size) arena.resize(size);
    };
    for (const int t : kern.tasklets) {
        const TaskletPlan& tp = plan.tasklet_plans[static_cast<std::size_t>(t)];
        const auto nslots = static_cast<std::size_t>(tp.prog->slot_count());
        const auto nregs = static_cast<std::size_t>(tp.prog->reg_count());
        if (tp.sig == VMSig::F64) grow(s.arena<double>(), (nslots + nregs) * width);
        else if (tp.sig == VMSig::I64) grow(s.arena<std::int64_t>(), (nslots + nregs) * width);
        else {
            grow(s.slots, nslots);
            grow(s.regs, nregs);
        }
    }

    s.kiter.assign(levels, 0);
    for (;;) {
        for (std::int64_t j0 = 0; j0 < seg_len; j0 += kTile) {
            const std::int64_t tn = std::min(kTile, seg_len - j0);
            std::size_t a = 0;  // first lane of the current tasklet
            for (std::size_t ti = 0; ti < kern.tasklets.size(); ++ti) {
                const TaskletPlan& tp =
                    plan.tasklet_plans[static_cast<std::size_t>(kern.tasklets[ti])];
                const std::size_t nin = s.kinputs[ti];
                constexpr std::int64_t kCols = TaskletProgram::kColumns;
                switch (tp.sig) {
                    case VMSig::F64:
                        if (batch) run_kernel_tasklet<double, kCols>(tp, a, nin, levels, j0, tn);
                        else run_kernel_tasklet<double, 1>(tp, a, nin, levels, 0, 1);
                        break;
                    case VMSig::I64:
                        if (batch)
                            run_kernel_tasklet<std::int64_t, kCols>(tp, a, nin, levels, j0, tn);
                        else run_kernel_tasklet<std::int64_t, 1>(tp, a, nin, levels, 0, 1);
                        break;
                    case VMSig::Tagged:  // never segment-eligible: always one point
                        run_kernel_tagged(tp, a, nin);
                        break;
                }
                a += nin + tp.outputs.size();
            }
        }
        // Odometer over the outer levels: find the deepest level that
        // advances; the precomputed delta folds that advance plus every
        // deeper level's reset into one add per lane.
        std::size_t k = outer;
        while (k > 0 && ++s.kiter[k - 1] == s.kcount[k - 1]) s.kiter[--k] = 0;
        if (k == 0) break;  // every level wrapped: done
        for (std::size_t l = 0; l < nlanes; ++l)
            s.lanes[l].offset += s.lane_delta[l * levels + k - 1];
    }

    // Coverage of the chain scopes, which the launch stands in for: each
    // iterates the same points at every execution of this launch (their
    // ranges are launch constants), so one mark per scope and launch gives
    // the generic path's bitmap.  The owner's marks stay execute_scope's.
    if (cov_map_) {
        __int128 per_exec = 0;  // points of one execution of the scope below
        std::size_t k = levels;
        for (auto it = kern.chain.rbegin(); it != kern.chain.rend(); ++it) {
            const ScopePlan& cs = scope(*it);
            __int128 points = 1;
            for (std::size_t p = 0; p < cs.params.size(); ++p)
                points = saturating_mul(points, s.kcount[--k]);
            per_exec = saturating_mul(points, 1 + per_exec);
            const auto cls = static_cast<std::uint32_t>(
                feedback::region_class(static_cast<std::int64_t>(per_exec)));
            for (const std::uint32_t base : cs.cov_bases) cov_map_->mark(base + cls);
        }
    }
    restore_chain();
    return true;
}

template <typename T, std::int64_t W>
void Interpreter::run_kernel_tasklet(const TaskletPlan& tp, std::size_t a, std::size_t nin,
                                     std::size_t levels, std::int64_t j0, std::int64_t n) {
    Scratch& s = scratch_;
    const std::int64_t w = W == 1 ? 1 : n;
    const std::int64_t nslots = tp.prog->slot_count();
    T* cols = s.arena<T>().data();
    std::fill_n(cols, nslots * w, T{0});
    // Lane offsets stay at the segment's start point; lane addresses inside
    // a segment are offset + j * inner-stride.  Width 1 touches the offsets
    // themselves.
    const auto stride = [&](std::size_t lane) {
        return W == 1 ? 0 : s.lane_delta[lane * levels + levels - 1];
    };
    for (std::size_t l = a; l < a + nin; ++l) {
        const Scratch::KernelLane& lane = s.lanes[l];
        const std::int64_t d = stride(l);
        load_lanes<T, W>(cols + lane.slot * w, lane.raw, lane.dt, lane.offset + j0 * d, d, w);
    }
    tp.prog->execute_untagged<T, W>(cols, cols + nslots * w, w);
    for (std::size_t l = a + nin; l < a + nin + tp.outputs.size(); ++l) {
        const Scratch::KernelLane& lane = s.lanes[l];
        const std::int64_t d = stride(l);
        store_lanes<T, W>(lane.raw, lane.dt, lane.offset + j0 * d, d, cols + lane.slot * w, w);
    }
}

void Interpreter::run_kernel_tagged(const TaskletPlan& tp, std::size_t a, std::size_t nin) {
    Scratch& s = scratch_;
    std::fill_n(s.slots.begin(), tp.prog->slot_count(), Value{});
    for (std::size_t l = a; l < a + nin; ++l) {
        const Scratch::KernelLane& lane = s.lanes[l];
        s.slots[static_cast<std::size_t>(lane.slot)] = lane.buf->load(lane.offset);
    }
    tp.prog->execute_compiled(s.slots.data(), s.regs.data());
    for (std::size_t l = a + nin; l < a + nin + tp.outputs.size(); ++l) {
        const Scratch::KernelLane& lane = s.lanes[l];
        lane.buf->store(lane.offset, s.slots[static_cast<std::size_t>(lane.slot)]);
    }
}

bool Interpreter::segment_alias_safe(std::size_t nlanes, std::size_t levels,
                                     std::int64_t seg_len) const {
    const Scratch& s = scratch_;
    const std::size_t inner = levels - 1;
    for (std::size_t w = 0; w < nlanes; ++w) {
        if (!s.lanes[w].output) continue;
        const std::int64_t wd = s.lane_delta[w * levels + inner];
        const std::int64_t wo = s.lanes[w].offset;
        for (std::size_t l = 0; l < nlanes; ++l) {
            if (l == w || s.lanes[l].buf != s.lanes[w].buf) continue;
            const std::int64_t ld = s.lane_delta[l * levels + inner];
            const std::int64_t lo = s.lanes[l].offset;
            // Pointwise-aligned: the pair touches each address only at the
            // same inner position, so relative order per address is
            // preserved.  Stride 0 over a multi-point segment is a repeated
            // same-address access — a sequential dependency, not aligned.
            if (wo == lo && wd == ld && wd != 0) continue;
            // Otherwise the windows must be disjoint.  Offsets are proven
            // inside [0, buffer size) by lane setup, so the interval
            // arithmetic cannot overflow.
            const std::int64_t wlo = wd < 0 ? wo + wd * (seg_len - 1) : wo;
            const std::int64_t whi = wd < 0 ? wo : wo + wd * (seg_len - 1);
            const std::int64_t llo = ld < 0 ? lo + ld * (seg_len - 1) : lo;
            const std::int64_t lhi = ld < 0 ? lo : lo + ld * (seg_len - 1);
            if (whi < llo || lhi < wlo) continue;
            return false;
        }
    }
    return true;
}

void Interpreter::flush_launch_stats() {
    if (launches_ == 0 && fallbacks_ == 0) return;
    plans_->note_kernel_launches(launches_, fallbacks_, segment_launches_);
    launches_ = fallbacks_ = segment_launches_ = 0;
}

Buffer& Interpreter::ensure_buffer(const ir::SDFG& sdfg, Context& ctx, const std::string& name) {
    auto it = ctx.buffers.find(name);
    if (it != ctx.buffers.end()) return it->second;

    const ir::DataDesc& desc = sdfg.container(name);
    std::vector<std::int64_t> shape;
    if (scratch_.active_params.empty()) {
        shape = desc.concrete_shape(ctx.symbols);
    } else {
        // Allocating inside a map scope: the legacy engine resolved shapes
        // with the scope parameters bound (they were written into
        // ctx.symbols per iteration).  Interned scopes keep parameters in
        // the flat bindings only, so overlay the active parameters —
        // innermost last, shadowing any same-named outer symbol — to
        // preserve those semantics.  Cold path: runs once per container
        // per trial.
        sym::Bindings merged = ctx.symbols;
        for (const auto& ap : scratch_.active_params) merged[*ap.name] = ap.value;
        shape = desc.concrete_shape(merged);
    }
    // Allocation budget, charged before construction: a rejected allocation
    // leaves the context untouched, so a kernel-setup fallback replays this
    // exact check at the exact generic program point without double-charging
    // (buffers that did allocate early-return above).  Degenerate shapes
    // skip the check and fault in the Buffer constructor as before.
    if (std::all_of(shape.begin(), shape.end(), [](std::int64_t d) { return d >= 0; })) {
        __int128 bytes = static_cast<__int128>(ir::dtype_size(desc.dtype));
        for (std::int64_t d : shape) bytes *= d;
        if (config_.max_alloc_bytes > 0 &&
            static_cast<__int128>(alloc_used_) + bytes > config_.max_alloc_bytes)
            throw common::ResourceError::alloc(config_.max_alloc_bytes);
        alloc_used_ = saturating_add(alloc_used_, bytes);
    }
    Buffer buf(desc.dtype, std::move(shape));
    if (desc.storage == ir::Storage::Device) {
        // Deterministic garbage, stable per container name.
        std::uint64_t h = config_.device_garbage_seed;
        for (char c : name) h = common::splitmix64(h ^ static_cast<std::uint64_t>(c));
        buf.fill_garbage(h);
    }
    // Host buffers are zero-initialized by construction.
    auto [pos, inserted] = ctx.buffers.emplace(name, std::move(buf));
    (void)inserted;
    return pos->second;
}

std::vector<Value> Interpreter::gather(const ir::SDFG& sdfg, Context& ctx,
                                       const ir::Memlet& memlet) {
    std::vector<Value> out;
    gather_into(sdfg, ctx, memlet, out);
    return out;
}

const std::vector<ir::ConcreteRange>& Interpreter::concretize_into(const ir::Subset& subset,
                                                                   const Context& ctx) {
    auto& cr = scratch_.ranges;
    cr.resize(subset.ranges.size());
    for (std::size_t d = 0; d < subset.ranges.size(); ++d)
        cr[d] = ir::ConcreteRange{subset.ranges[d].begin->evaluate(ctx.symbols),
                                  subset.ranges[d].end->evaluate(ctx.symbols),
                                  subset.ranges[d].step->evaluate(ctx.symbols)};
    return cr;
}

const std::vector<ir::ConcreteRange>& Interpreter::concretize_plan(const AccessPlan& ap) {
    Scratch& s = scratch_;
    auto& cr = s.ranges;
    cr.resize(ap.dims.size());
    for (std::size_t d = 0; d < ap.dims.size(); ++d)
        cr[d] = ir::ConcreteRange{ap.dims[d].begin.eval(s.flat, s.eval_stack),
                                  ap.dims[d].end.eval(s.flat, s.eval_stack),
                                  ap.dims[d].step.eval(s.flat, s.eval_stack)};
    return cr;
}

void Interpreter::gather_into(const ir::SDFG& sdfg, Context& ctx, const ir::Memlet& memlet,
                              std::vector<Value>& out) {
    Buffer& buf = ensure_buffer(sdfg, ctx, memlet.data);
    out.clear();
    const auto& cr = concretize_into(memlet.subset, ctx);
    for_each_point_into(cr, scratch_.idx, [&](const std::vector<std::int64_t>& idx) {
        out.push_back(buf.load(buf.flat_index(idx, memlet.data)));
    });
}

void Interpreter::scatter(const ir::SDFG& sdfg, Context& ctx, const ir::Memlet& memlet,
                          const std::vector<Value>& values) {
    scatter_values(sdfg, ctx, memlet, values.data(), values.size());
}

void Interpreter::scatter_values(const ir::SDFG& sdfg, Context& ctx, const ir::Memlet& memlet,
                                 const Value* values, std::size_t count) {
    Buffer& buf = ensure_buffer(sdfg, ctx, memlet.data);
    const auto& cr = concretize_into(memlet.subset, ctx);
    std::size_t lane = 0;
    for_each_point_into(cr, scratch_.idx, [&](const std::vector<std::int64_t>& idx) {
        if (lane >= count)
            throw common::Error("scatter on '" + memlet.data + "': not enough values (" +
                                std::to_string(count) + ")");
        buf.store(buf.flat_index(idx, memlet.data), values[lane++]);
    });
}

std::vector<Value>& Interpreter::scratch_values(std::size_t which) {
    if (value_pool_.size() <= which) value_pool_.resize(which + 1);
    return value_pool_[which];
}

TaskletProgramPtr Interpreter::program_for(const std::string& code) {
    return plans_->program_for(code);
}

// --- Tasklet execution: reference path --------------------------------------

void Interpreter::execute_tasklet(const ir::SDFG& sdfg, const ir::State& state, NodeId nid,
                                  Context& ctx) {
    instructions_used_ = saturating_add(instructions_used_, 1);
    const DataflowNode& node = state.graph().node(nid);
    TaskletProgramPtr prog = program_for(node.code);

    ConnectorEnv env;
    for (graph::EdgeId eid : state.graph().in_edges(nid)) {
        const auto& edge = state.graph().edge(eid).data;
        if (edge.dst_conn.empty()) continue;  // ordering-only dependency edge
        env[edge.dst_conn] = gather(sdfg, ctx, edge.memlet);
    }
    prog->execute(env);
    for (graph::EdgeId eid : state.graph().out_edges(nid)) {
        const auto& edge = state.graph().edge(eid).data;
        auto it = env.find(edge.src_conn);
        if (it == env.end())
            throw common::Error("tasklet '" + node.label + "' did not produce connector '" +
                                edge.src_conn + "'");
        scatter(sdfg, ctx, edge.memlet, it->second);
    }
}

// --- Tasklet execution: compiled path ---------------------------------------

Buffer& Interpreter::plan_buffer(const ir::SDFG& sdfg, Context& ctx, const StatePlan& plan,
                                 const AccessPlan& ap) {
    (void)plan;
    Buffer*& cached = scratch_.buffer_cache[static_cast<std::size_t>(ap.cache_index)];
    if (!cached) cached = &ensure_buffer(sdfg, ctx, ap.memlet->data);
    return *cached;
}

std::int64_t Interpreter::plan_gather(const ir::SDFG& sdfg, Context& ctx, const StatePlan& plan,
                                      const AccessPlan& ap, Value* slots) {
    Buffer& buf = plan_buffer(sdfg, ctx, plan, ap);
    Scratch& s = scratch_;
    auto& idx = s.idx;
    if (ap.passthrough_pool >= 0) {
        // Snapshot the full subset before the program runs; forwarding
        // outputs scatter from this pool.
        auto& tmp =
            scratch_values(kPassthroughBase + static_cast<std::size_t>(ap.passthrough_pool));
        tmp.clear();
        const auto& cr = concretize_plan(ap);
        for_each_point_into(cr, idx, [&](const std::vector<std::int64_t>& ix) {
            tmp.push_back(buf.load(buf.flat_index(ix, ap.memlet->data)));
        });
        return static_cast<std::int64_t>(tmp.size());
    }
    if (ap.single_point) {
        // Hot path: a scalar element — evaluate each index program against
        // the flat bindings and load straight into the connector slot.
        idx.resize(ap.dims.size());
        for (std::size_t d = 0; d < ap.dims.size(); ++d)
            idx[d] = ap.dims[d].begin.eval(s.flat, s.eval_stack);
        const std::int64_t flat = buf.flat_index(idx, ap.memlet->data);
        if (ap.slot_base >= 0) slots[ap.slot_base] = buf.load(flat);
        return 1;
    }
    const auto& cr = concretize_plan(ap);
    std::int64_t lane = 0;
    for_each_point_into(cr, idx, [&](const std::vector<std::int64_t>& ix) {
        const std::int64_t flat = buf.flat_index(ix, ap.memlet->data);
        if (ap.slot_base >= 0 && lane < ap.width) slots[ap.slot_base + lane] = buf.load(flat);
        ++lane;
    });
    return lane;
}

void Interpreter::plan_scatter(const ir::SDFG& sdfg, Context& ctx, const StatePlan& plan,
                               const TaskletPlan& tp, const AccessPlan& ap, const Value* slots) {
    if (ap.invalid)
        throw common::Error("tasklet '" + tp.label + "' did not produce connector '" + ap.conn +
                            "'");
    Buffer& buf = plan_buffer(sdfg, ctx, plan, ap);
    Scratch& s = scratch_;
    auto& idx = s.idx;
    if (ap.passthrough_pool >= 0) {
        const auto& tmp =
            scratch_values(kPassthroughBase + static_cast<std::size_t>(ap.passthrough_pool));
        const auto& cr = concretize_plan(ap);
        std::size_t lane = 0;
        for_each_point_into(cr, idx, [&](const std::vector<std::int64_t>& ix) {
            if (lane >= tmp.size())
                throw common::Error("scatter on '" + ap.memlet->data + "': not enough values (" +
                                    std::to_string(tmp.size()) + ")");
            buf.store(buf.flat_index(ix, ap.memlet->data), tmp[lane++]);
        });
        return;
    }
    if (ap.single_point) {
        idx.resize(ap.dims.size());
        for (std::size_t d = 0; d < ap.dims.size(); ++d)
            idx[d] = ap.dims[d].begin.eval(s.flat, s.eval_stack);
        buf.store(buf.flat_index(idx, ap.memlet->data), slots[ap.slot_base]);
        return;
    }
    const auto& cr = concretize_plan(ap);
    std::int64_t lane = 0;
    for_each_point_into(cr, idx, [&](const std::vector<std::int64_t>& ix) {
        if (lane >= ap.width)
            throw common::Error("scatter on '" + ap.memlet->data + "': not enough values (" +
                                std::to_string(ap.width) + ")");
        buf.store(buf.flat_index(ix, ap.memlet->data), slots[ap.slot_base + lane]);
        ++lane;
    });
}

void Interpreter::execute_tasklet_planned(const ir::SDFG& sdfg, const ir::State& state,
                                          const StatePlan& plan, const TaskletPlan& tp,
                                          Context& ctx) {
    (void)state;
    // One dispatch regardless of which VM runs it (the untagged fallback
    // below re-runs on the tagged path without re-counting) — the cost
    // counters must be invariant across tiers.
    instructions_used_ = saturating_add(instructions_used_, 1);
    Scratch& s = scratch_;
    if (s.cache_plan != &plan || s.cache_ctx != &ctx) {
        s.buffer_cache.assign(static_cast<std::size_t>(plan.cache_slots), nullptr);
        s.cache_plan = &plan;
        s.cache_ctx = &ctx;
    }
    if (config_.specialize) {
        if (tp.sig == VMSig::F64 && execute_tasklet_untagged<double>(sdfg, plan, tp, ctx)) return;
        if (tp.sig == VMSig::I64 && execute_tasklet_untagged<std::int64_t>(sdfg, plan, tp, ctx))
            return;
    }

    const std::size_t nslots = static_cast<std::size_t>(tp.prog->slot_count());
    const std::size_t nregs = static_cast<std::size_t>(tp.prog->reg_count());
    if (s.slots.size() < nslots) s.slots.resize(nslots);
    std::fill_n(s.slots.begin(), nslots, Value{});
    if (s.regs.size() < nregs) s.regs.resize(nregs);

    // Gather every input first (lazy allocation and bounds checks fire in
    // edge order, like the reference path), then validate declared inputs
    // in the reference engine's order.
    s.input_counts.resize(tp.inputs.size());
    for (std::size_t i = 0; i < tp.inputs.size(); ++i)
        s.input_counts[i] = plan_gather(sdfg, ctx, plan, tp.inputs[i], s.slots.data());
    for (const TaskletPlan::InputCheck& check : tp.input_checks)
        if (check.input_index < 0 ||
            s.input_counts[static_cast<std::size_t>(check.input_index)] < check.width)
            throw common::Error("tasklet: missing input connector '" + check.conn + "'");

    tp.prog->execute_compiled(s.slots.data(), s.regs.data());

    for (const AccessPlan& ap : tp.outputs) plan_scatter(sdfg, ctx, plan, tp, ap, s.slots.data());
}

template <typename T>
bool Interpreter::execute_tasklet_untagged(const ir::SDFG& sdfg, const StatePlan& plan,
                                           const TaskletPlan& tp, Context& ctx) {
    // Twin of execute_tasklet_planned for tp.sig != Tagged nodes outside
    // flat-stride kernels: past the window check every access is a single
    // point (by classification), so gathers and scatters move raw values
    // between bounds-checked flat indices and the untagged slot array,
    // converting per the buffer's runtime dtype (the exact Buffer::load/
    // store expressions — see the lane movers).  Evaluation order — inputs in
    // edge order, declared-input checks, program, outputs in edge order —
    // matches the tagged path instruction for instruction, including lazy
    // output-buffer allocation at each scatter (an earlier output's bounds
    // error must leave later outputs unallocated, exactly like the tagged
    // path).  A caller-provided *input* buffer whose runtime dtype drifted
    // outside the signature's family hands the node back to the tagged path
    // (return false, before any store); output buffers convert from the
    // untagged result whatever their dtype, so they can never force a
    // fallback.
    if (tp.window_inputs) return false;  // window lanes exist only inside kernels
    Scratch& s = scratch_;
    const auto nslots = static_cast<std::size_t>(tp.prog->slot_count());
    std::vector<T>& arena = s.arena<T>();
    const std::size_t need = nslots + static_cast<std::size_t>(tp.prog->reg_count());
    if (arena.size() < need) arena.resize(need);
    T* slots = arena.data();
    std::fill_n(slots, nslots, T{0});

    auto& idx = s.idx;
    auto flat_of = [&](Buffer& buf, const AccessPlan& ap) {
        idx.resize(ap.dims.size());
        for (std::size_t d = 0; d < ap.dims.size(); ++d)
            idx[d] = ap.dims[d].begin.eval(s.flat, s.eval_stack);
        return buf.flat_index(idx, ap.memlet->data);
    };

    for (const AccessPlan& ap : tp.inputs) {
        Buffer& buf = plan_buffer(sdfg, ctx, plan, ap);
        if (ir::dtype_is_float(buf.dtype()) != std::is_same_v<T, double>)
            return false;  // input dtype drift: tagged path handles it
        const std::int64_t flat = flat_of(buf, ap);
        if (ap.slot_base >= 0)
            load_lanes<T, 1>(slots + ap.slot_base, raw_data_of(buf), buf.dtype(), flat, 0, 1);
    }
    // Every gather delivered exactly one lane.
    for (const TaskletPlan::InputCheck& check : tp.input_checks)
        if (check.input_index < 0 || check.width > 1)
            throw common::Error("tasklet: missing input connector '" + check.conn + "'");

    tp.prog->execute_untagged<T, 1>(slots, slots + nslots);

    for (const AccessPlan& ap : tp.outputs) {
        Buffer& buf = plan_buffer(sdfg, ctx, plan, ap);
        const std::int64_t flat = flat_of(buf, ap);
        store_lanes<T, 1>(raw_data_of(buf), buf.dtype(), flat, 0, slots + ap.slot_base, 1);
    }
    return true;
}

// --- Copies and collectives -------------------------------------------------

void Interpreter::execute_access_copies(const ir::SDFG& sdfg, const ir::State& state, NodeId nid,
                                        Context& ctx) {
    // An edge between two access nodes is a copy.  The memlet subset is
    // interpreted in the *source* container's coordinates and written to the
    // same coordinates of the destination.
    const DataflowNode& node = state.graph().node(nid);
    for (graph::EdgeId eid : state.graph().out_edges(nid)) {
        const auto& e = state.graph().edge(eid);
        const DataflowNode& dst = state.graph().node(e.dst);
        if (dst.kind != NodeKind::Access) continue;
        const ir::Memlet& m = e.data.memlet;
        ir::Memlet src_memlet(node.data, m.subset);
        ir::Memlet dst_memlet(dst.data, m.subset);
        auto& tmp = scratch_values(kCopyScratch);
        gather_into(sdfg, ctx, src_memlet, tmp);
        scatter_values(sdfg, ctx, dst_memlet, tmp.data(), tmp.size());
    }
}

void Interpreter::execute_comm_single_rank(const ir::SDFG& sdfg, const ir::State& state,
                                           NodeId nid, Context& ctx) {
    // With a single rank every collective degenerates to an identity copy
    // (sum over one rank, gather of one chunk, broadcast from self).
    const auto& g = state.graph();
    const ir::Memlet* in_memlet = nullptr;
    const ir::Memlet* out_memlet = nullptr;
    for (graph::EdgeId eid : g.in_edges(nid))
        if (g.edge(eid).data.dst_conn == "in") in_memlet = &g.edge(eid).data.memlet;
    for (graph::EdgeId eid : g.out_edges(nid))
        if (g.edge(eid).data.src_conn == "out") out_memlet = &g.edge(eid).data.memlet;
    if (!in_memlet || !out_memlet)
        throw common::ValidationError("comm node missing in/out connector");
    auto& tmp = scratch_values(kCopyScratch);
    gather_into(sdfg, ctx, *in_memlet, tmp);
    scatter_values(sdfg, ctx, *out_memlet, tmp.data(), tmp.size());
}

}  // namespace ff::interp
