#include "ir/serialize.h"

#include <algorithm>
#include <map>

#include "common/error.h"
#include "symbolic/parser.h"

namespace ff::ir {

using common::Json;
using common::JsonArray;
using common::JsonObject;

namespace {

Json expr_to_json(const sym::ExprPtr& e) { return Json(e->to_string()); }

sym::ExprPtr expr_from_json(const Json& j) { return sym::parse_expr(j.as_string()); }

Json range_to_json(const Range& r) {
    Json o = Json::object();
    o["begin"] = expr_to_json(r.begin);
    o["end"] = expr_to_json(r.end);
    o["step"] = expr_to_json(r.step);
    return o;
}

Range range_from_json(const Json& j) {
    return Range{expr_from_json(j.at("begin")), expr_from_json(j.at("end")),
                 expr_from_json(j.at("step"))};
}

Json node_to_json(graph::NodeId id, const DataflowNode& n) {
    Json o = Json::object();
    o["id"] = static_cast<std::int64_t>(id);
    o["kind"] = node_kind_name(n.kind);
    o["label"] = n.label;
    switch (n.kind) {
        case NodeKind::Access: o["data"] = n.data; break;
        case NodeKind::Tasklet: o["code"] = n.code; break;
        case NodeKind::MapEntry: {
            o["scope_id"] = static_cast<std::int64_t>(n.scope_id);
            o["schedule"] = schedule_name(n.schedule);
            Json params = Json::array();
            for (const auto& p : n.params) params.push_back(Json(p));
            o["params"] = std::move(params);
            Json ranges = Json::array();
            for (const auto& r : n.map_ranges) ranges.push_back(range_to_json(r));
            o["ranges"] = std::move(ranges);
            break;
        }
        case NodeKind::MapExit:
            o["scope_id"] = static_cast<std::int64_t>(n.scope_id);
            o["schedule"] = schedule_name(n.schedule);
            break;
        case NodeKind::Library: o["lib"] = library_kind_name(n.lib); break;
        case NodeKind::Comm:
            o["comm"] = comm_kind_name(n.comm);
            o["root"] = static_cast<std::int64_t>(n.comm_root);
            break;
    }
    if (!n.attrs.empty()) {
        Json attrs = Json::object();
        for (const auto& [k, v] : n.attrs) attrs[k] = v;
        o["attrs"] = std::move(attrs);
    }
    return o;
}

DataflowNode node_from_json(const Json& j) {
    DataflowNode n;
    const std::string kind = j.at("kind").as_string();
    n.label = j.at("label").as_string();
    if (kind == "access") {
        n.kind = NodeKind::Access;
        n.data = j.at("data").as_string();
    } else if (kind == "tasklet") {
        n.kind = NodeKind::Tasklet;
        n.code = j.at("code").as_string();
    } else if (kind == "map_entry") {
        n.kind = NodeKind::MapEntry;
        n.scope_id = static_cast<std::int32_t>(j.at("scope_id").as_int());
        n.schedule = schedule_from_name(j.at("schedule").as_string());
        for (const auto& p : j.at("params").as_array()) n.params.push_back(p.as_string());
        for (const auto& r : j.at("ranges").as_array()) n.map_ranges.push_back(range_from_json(r));
    } else if (kind == "map_exit") {
        n.kind = NodeKind::MapExit;
        n.scope_id = static_cast<std::int32_t>(j.at("scope_id").as_int());
        n.schedule = schedule_from_name(j.at("schedule").as_string());
    } else if (kind == "library") {
        n.kind = NodeKind::Library;
        n.lib = library_kind_from_name(j.at("lib").as_string());
    } else if (kind == "comm") {
        n.kind = NodeKind::Comm;
        n.comm = comm_kind_from_name(j.at("comm").as_string());
        n.comm_root = static_cast<std::int32_t>(j.at("root").as_int());
    } else {
        throw common::ParseError("unknown node kind: " + kind);
    }
    if (j.contains("attrs"))
        for (const auto& [k, v] : j.at("attrs").as_object()) n.attrs[k] = v.as_string();
    return n;
}

/// The remapped id a serialized reference at JSON path `path` names; a
/// dangling reference is a located parse error, not a bare map::at.
template <typename Id>
Id resolve_id(const std::map<std::int64_t, Id>& ids, std::int64_t id, const std::string& path,
              const char* kind) {
    const auto it = ids.find(id);
    if (it == ids.end())
        throw common::ParseError(path + ": no " + kind + " " + std::to_string(id));
    return it->second;
}

}  // namespace

Json subset_to_json(const Subset& subset) {
    Json arr = Json::array();
    for (const auto& r : subset.ranges) arr.push_back(range_to_json(r));
    return arr;
}

Subset subset_from_json(const Json& j) {
    Subset s;
    for (const auto& r : j.as_array()) s.ranges.push_back(range_from_json(r));
    return s;
}

Json to_json(const SDFG& sdfg) {
    Json root = Json::object();
    root["name"] = sdfg.name();

    Json symbols = Json::array();
    for (const auto& s : sdfg.symbols()) symbols.push_back(Json(s));
    root["symbols"] = std::move(symbols);

    Json containers = Json::array();
    for (const auto& [name, desc] : sdfg.containers()) {
        Json c = Json::object();
        c["name"] = name;
        c["dtype"] = dtype_name(desc.dtype);
        Json shape = Json::array();
        for (const auto& extent : desc.shape) shape.push_back(expr_to_json(extent));
        c["shape"] = std::move(shape);
        c["transient"] = desc.transient;
        c["storage"] = storage_name(desc.storage);
        containers.push_back(std::move(c));
    }
    root["containers"] = std::move(containers);

    root["start_state"] = static_cast<std::int64_t>(sdfg.start_state());

    Json states = Json::array();
    for (StateId sid : sdfg.states()) {
        const State& st = sdfg.state(sid);
        Json s = Json::object();
        s["id"] = static_cast<std::int64_t>(sid);
        s["name"] = st.name();
        Json nodes = Json::array();
        for (NodeId nid : st.graph().nodes()) nodes.push_back(node_to_json(nid, st.graph().node(nid)));
        s["nodes"] = std::move(nodes);
        Json edges = Json::array();
        for (EdgeId eid : st.graph().edges()) {
            const auto& e = st.graph().edge(eid);
            Json je = Json::object();
            je["src"] = static_cast<std::int64_t>(e.src);
            je["dst"] = static_cast<std::int64_t>(e.dst);
            je["data"] = e.data.memlet.data;
            je["subset"] = subset_to_json(e.data.memlet.subset);
            je["src_conn"] = e.data.src_conn;
            je["dst_conn"] = e.data.dst_conn;
            edges.push_back(std::move(je));
        }
        s["edges"] = std::move(edges);
        states.push_back(std::move(s));
    }
    root["states"] = std::move(states);

    Json isedges = Json::array();
    for (graph::EdgeId eid : sdfg.cfg().edges()) {
        const auto& e = sdfg.cfg().edge(eid);
        Json je = Json::object();
        je["src"] = static_cast<std::int64_t>(e.src);
        je["dst"] = static_cast<std::int64_t>(e.dst);
        if (e.data.condition) je["condition"] = e.data.condition->to_string();
        Json assigns = Json::array();
        for (const auto& [symbol, expr] : e.data.assignments) {
            Json pair = Json::array();
            pair.push_back(Json(symbol));
            pair.push_back(expr_to_json(expr));
            assigns.push_back(std::move(pair));
        }
        je["assignments"] = std::move(assigns);
        isedges.push_back(std::move(je));
    }
    root["interstate_edges"] = std::move(isedges);
    return root;
}

SDFG sdfg_from_json(const Json& j) {
    SDFG sdfg(j.at("name").as_string());
    for (const auto& s : j.at("symbols").as_array()) sdfg.add_symbol(s.as_string());

    for (const auto& c : j.at("containers").as_array()) {
        std::vector<sym::ExprPtr> shape;
        for (const auto& extent : c.at("shape").as_array()) shape.push_back(expr_from_json(extent));
        DataDesc& desc =
            sdfg.add_array(c.at("name").as_string(), dtype_from_name(c.at("dtype").as_string()),
                           std::move(shape), c.at("transient").as_bool(),
                           storage_from_name(c.at("storage").as_string()));
        (void)desc;
    }

    // States: serialized ids may be sparse; remap.
    std::map<std::int64_t, StateId> state_map;
    std::size_t state_index = 0;
    for (const auto& s : j.at("states").as_array()) {
        const std::string state_path = "states[" + std::to_string(state_index++) + "]";
        const StateId sid = sdfg.add_state(s.at("name").as_string());
        state_map[s.at("id").as_int()] = sid;
        State& st = sdfg.state(sid);
        std::map<std::int64_t, NodeId> node_map;
        std::int32_t max_scope = -1;
        for (const auto& nj : s.at("nodes").as_array()) {
            DataflowNode n = node_from_json(nj);
            max_scope = std::max(max_scope, n.scope_id);
            node_map[nj.at("id").as_int()] = st.graph().add_node(std::move(n));
        }
        // Advance the scope counter past deserialized scope ids.
        while (st.next_scope_id() <= max_scope) {
        }
        std::size_t edge_index = 0;
        for (const auto& ej : s.at("edges").as_array()) {
            const std::string edge_path =
                state_path + ".edges[" + std::to_string(edge_index++) + "]";
            MemletEdge me;
            me.memlet.data = ej.at("data").as_string();
            me.memlet.subset = subset_from_json(ej.at("subset"));
            me.src_conn = ej.at("src_conn").as_string();
            me.dst_conn = ej.at("dst_conn").as_string();
            st.graph().add_edge(
                resolve_id(node_map, ej.at("src").as_int(), edge_path + ".src", "node"),
                resolve_id(node_map, ej.at("dst").as_int(), edge_path + ".dst", "node"),
                std::move(me));
        }
    }

    sdfg.set_start_state(
        resolve_id(state_map, j.at("start_state").as_int(), "start_state", "state"));

    std::size_t interstate_index = 0;
    for (const auto& ej : j.at("interstate_edges").as_array()) {
        const std::string edge_path =
            "interstate_edges[" + std::to_string(interstate_index++) + "]";
        InterstateEdge e;
        if (ej.contains("condition")) e.condition = sym::parse_bool(ej.at("condition").as_string());
        for (const auto& pair : ej.at("assignments").as_array()) {
            e.assignments.emplace_back(pair.as_array()[0].as_string(),
                                       expr_from_json(pair.as_array()[1]));
        }
        sdfg.add_interstate_edge(
            resolve_id(state_map, ej.at("src").as_int(), edge_path + ".src", "state"),
            resolve_id(state_map, ej.at("dst").as_int(), edge_path + ".dst", "state"),
            std::move(e));
    }
    return sdfg;
}

}  // namespace ff::ir
