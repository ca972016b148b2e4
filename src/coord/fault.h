// Deterministic fault injection for the coordinator's workers.
//
// A FaultPlan is carried by a worker and fired at exact, reproducible
// points of its execution — kills land after a fixed number of units via
// the runner's interrupt_after_units hook (so the torn record tail is the
// same every run), stalls are fixed sleeps before the first leased shard.
// The same plans drive the in-process E2E tests (tests/test_coord.cpp,
// where "crash" means silently abandoning the lease, since a thread cannot
// SIGKILL itself without taking the test down) and the CI chaos job
// (scripts/coord_chaos.py, where kill-after-units raises a real SIGKILL
// mid-shard).
#pragma once

/// \file
/// FaultPlan: parseable, deterministic worker fault injection, and the
/// fault-spec grammar it shares with NetFaultPlan (coord/net_fault.h).

#include <cstdint>
#include <initializer_list>
#include <string>
#include <variant>

namespace ff::coord {

/// One key of a fault spec and the plan field it sets: an integer or a
/// number takes `key=value`, a flag (bool) is the bare `key`.
struct FaultKey {
    const char* name;
    std::variant<std::int64_t*, double*, bool*> field;
};

/// The grammar of every fault spec: comma-separated `key=value` and bare
/// `flag` tokens, empty tokens skipped.  Sets the fields named by `keys`;
/// throws common::Error prefixed with `what` ("fault plan") on an unknown
/// key or a malformed value.
void parse_fault_spec(const std::string& what, const std::string& spec,
                      std::initializer_list<FaultKey> keys);

/// What a worker sabotages, and when.  One-shot faults arm on the first
/// lease the worker receives and fire once; drop-heartbeats is persistent.
struct FaultPlan {
    /// SIGKILL the worker process after this many units of its first
    /// leased shard (torn write included, exactly like an OOM kill).
    /// < 0 = disabled.  Process workers only — see `abandon_after_units`
    /// for the in-process equivalent.
    std::int64_t kill_after_units = -1;

    /// Silently abandon the first leased shard after this many units: stop
    /// executing, close the socket without a word, send nothing further
    /// for that lease.  From the coordinator's seat this is
    /// indistinguishable from a crash (EOF + silence + a torn file).
    /// < 0 = disabled.
    std::int64_t abandon_after_units = -1;

    /// Spin forever (inside the runner's progress hook, so heartbeats keep
    /// flowing) after this many units of the first leased shard — a poison
    /// unit that stalls the worker without ever missing a heartbeat.  Only
    /// the wall-clock watchdog can catch it (worker exit code 113).
    /// < 0 = disabled.
    std::int64_t spin_after_units = -1;

    /// Allocate memory without bound after this many units of the first
    /// leased shard — a poison unit with a hostile footprint.  Under an
    /// --rlimit-as cap the allocation fails and the worker dies with exit
    /// code 114.  < 0 = disabled.
    std::int64_t hog_memory_after_units = -1;

    /// Close the coordinator connection after this many units of the first
    /// leased shard — but *keep executing*.  The worker's heartbeat path
    /// notices the dead socket, reconnects with the same session id and
    /// resumes beating the same attempt: the deterministic driver of the
    /// coordinator's session-resume machinery (the lease must be parked,
    /// not re-issued).  < 0 = disabled.
    std::int64_t disconnect_after_units = -1;

    /// Never send heartbeats, so every lease this worker holds expires
    /// even while it keeps (slowly, from the coordinator's view) working.
    bool drop_heartbeats = false;

    /// Sleep this long before starting the first leased shard — a
    /// straggler that outlives its lease.  0 = disabled.
    double delay_lease_ms = 0.0;

    /// True when no fault is configured.
    bool empty() const {
        return kill_after_units < 0 && abandon_after_units < 0 && spin_after_units < 0 &&
               hog_memory_after_units < 0 && disconnect_after_units < 0 &&
               !drop_heartbeats && delay_lease_ms <= 0.0;
    }

    /// Parses a comma-separated spec, e.g.
    /// "kill-after-units=3,drop-heartbeats" or "delay-lease-ms=500".
    /// Keys: kill-after-units, abandon-after-units, spin-after-units,
    /// hog-memory-after-units, disconnect-after-units, drop-heartbeats,
    /// delay-lease-ms.  Empty spec = no faults.  Throws common::Error on
    /// unknown keys or malformed values.
    static FaultPlan parse(const std::string& spec);
};

}  // namespace ff::coord
