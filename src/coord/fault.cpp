#include "coord/fault.h"

#include <cerrno>
#include <cstdlib>
#include <sstream>
#include <type_traits>

#include "common/error.h"

namespace ff::coord {

namespace {

/// Parses all of `value` as one T; false on an empty, trailing-junk or
/// out-of-range value.
template <typename T>
bool parse_whole(const std::string& value, T& out) {
    char* end = nullptr;
    errno = 0;
    if constexpr (std::is_same_v<T, double>) {
        out = std::strtod(value.c_str(), &end);
    } else {
        out = std::strtoll(value.c_str(), &end, 10);
    }
    return !value.empty() && end == value.c_str() + value.size() && errno == 0;
}

}  // namespace

void parse_fault_spec(const std::string& what, const std::string& spec,
                      std::initializer_list<FaultKey> keys) {
    auto unknown = [&](const std::string& token) {
        std::string expected;
        for (const FaultKey& key : keys) {
            if (!expected.empty()) expected += &key == keys.end() - 1 ? " or " : ", ";
            expected += key.name;
            if (!std::holds_alternative<bool*>(key.field)) expected += "=N";
        }
        return common::Error(what + ": unknown token '" + token + "' (expected " + expected + ")");
    };
    std::istringstream tokens(spec);
    std::string token;
    while (std::getline(tokens, token, ',')) {
        if (token.empty()) continue;
        const std::size_t eq = token.find('=');
        const std::string name = token.substr(0, eq);
        const bool has_value = eq != std::string::npos;
        const std::string value = has_value ? token.substr(eq + 1) : "";
        const FaultKey* key = nullptr;
        for (const FaultKey& k : keys) {
            if (name == k.name) key = &k;
        }
        if (!key || has_value == std::holds_alternative<bool*>(key->field)) throw unknown(token);
        if (bool* const* flag = std::get_if<bool*>(&key->field)) {
            **flag = true;
        } else if (std::int64_t* const* n = std::get_if<std::int64_t*>(&key->field)) {
            if (!parse_whole(value, **n)) {
                throw common::Error(what + ": " + token + ": expected an integer");
            }
        } else if (!parse_whole(value, *std::get<double*>(key->field))) {
            throw common::Error(what + ": " + token + ": expected a number");
        }
    }
}

FaultPlan FaultPlan::parse(const std::string& spec) {
    FaultPlan plan;
    parse_fault_spec("fault plan", spec,
                     {{"kill-after-units", &plan.kill_after_units},
                      {"abandon-after-units", &plan.abandon_after_units},
                      {"spin-after-units", &plan.spin_after_units},
                      {"hog-memory-after-units", &plan.hog_memory_after_units},
                      {"disconnect-after-units", &plan.disconnect_after_units},
                      {"delay-lease-ms", &plan.delay_lease_ms},
                      {"drop-heartbeats", &plan.drop_heartbeats}});
    return plan;
}

}  // namespace ff::coord
