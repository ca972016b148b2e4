// The coordinator's worker: lease, run, report, heartbeat, repeat.
//
// run_worker() dials the coordinator (unix socket or TCP, with jittered
// reconnect backoff — common/retry.h), then loops: request a lease, execute
// the granted shard with shard::run_shard (salvaging the checkpointed
// prefix of a prior attempt's record file when the coordinator names one),
// report completion, ask again.  A background thread heartbeats while a
// shard is executing so long prepare phases and slow chunks never look
// like death — and when the socket dies mid-shard, that thread reconnects
// with the worker's session id and resumes beating the same attempt, so a
// transport blip never forfeits a lease (the coordinator parks it for a
// grace window).  Faults (coord/fault.h) fire at their planned points;
// everything else — socket errors, coordinator restarts, rejected
// completions — is survived by reconnecting and re-requesting.
//
// Workers are deliberately stateless between leases: every fact they need
// is in the lease grant, so a worker can die at ANY instant and its
// replacement continues from the last durable checkpoint.
#pragma once

/// \file
/// run_worker(): the lease-execute-report loop of `ffaudit worker`.

#include <cstdint>
#include <string>

#include "common/retry.h"
#include "coord/fault.h"

namespace ff::coord {

/// Exit code of a worker killed by its own wall-clock watchdog: no
/// durable progress for watchdog_ms, even though heartbeats may still
/// have been flowing.  Distinct from any ffaudit exit code so the
/// coordinator's reaper can name the cause.
constexpr int kWorkerExitWatchdog = 113;

/// Exit code of a worker that failed an allocation under its RLIMIT_AS
/// cap — a hostile trial's footprint hit the process ceiling.
constexpr int kWorkerExitMemoryCap = 114;

/// One worker's knobs.
struct WorkerConfig {
    std::string socket_path;   ///< The coordinator's unix socket.
    /// TCP coordinator address ("host:port"); when set it replaces
    /// socket_path as the transport.
    std::string connect_address;
    std::string worker_id;     ///< Name in hello ("" = "pid<pid>").
    int num_threads = 1;       ///< Threads of each shard's trial pool.
    int trial_chunk = 1;       ///< Scheduler chunking (execution-only).
    FaultPlan fault;           ///< Injected sabotage (tests/chaos only).
    /// Reconnect schedule when the coordinator is unreachable; jitter
    /// spreads a worker fleet's reconnect stampede.
    common::BackoffPolicy reconnect{100.0, 2.0, 3000.0, 0.2};
    int max_connect_attempts = 20;  ///< Dial attempts before giving up.
    /// Patience for a reply frame; generous, the coordinator answers every
    /// request promptly unless it is gone.
    double reply_timeout_ms = 60000.0;
    /// Wall-clock containment: when > 0, a background watchdog kills the
    /// process with kWorkerExitWatchdog if no durable checkpoint lands for
    /// this long while a lease is executing.  Catches trials that spin
    /// forever INSIDE a unit — those keep heartbeating (the beat thread is
    /// independent), so only wall-clock progress exposes them.
    double watchdog_ms = 0.0;
    /// Address-space containment: when > 0, RLIMIT_AS is capped to this
    /// many bytes at startup and any failed allocation exits with
    /// kWorkerExitMemoryCap instead of unwinding into a nondeterministic
    /// in-process verdict.
    std::int64_t rlimit_as_bytes = 0;
    bool verbose = false;  ///< Log lease activity to stderr.
};

/// What one run_worker() lifetime did.
struct WorkerStats {
    int shards_completed = 0;  ///< Acked completions.
    int shards_failed = 0;     ///< Reported failures + rejected completions.
    int salvages = 0;          ///< Prior-attempt checkpoints resumed from.
    int reconnects = 0;        ///< Successful dials after the first.
    std::int64_t units_run = 0;  ///< Units executed across all leases.
    bool abandoned = false;    ///< An abandon fault fired (test crash stand-in).
};

/// Runs until the coordinator declares the audit done (normal return), an
/// abandon fault fires (returns with .abandoned), or the coordinator stays
/// unreachable past the reconnect budget (throws common::Error).  A
/// kill-after-units fault never returns: the process SIGKILLs itself
/// mid-shard, torn record tail and all.
WorkerStats run_worker(const WorkerConfig& config);

}  // namespace ff::coord
