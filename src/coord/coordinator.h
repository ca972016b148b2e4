// The audit coordinator: one process that owns the shard queue and drives
// N workers to a finished, byte-identical report under worker crashes,
// hangs and stragglers.
//
// serve() plans the job's shards, prepares the audit once (for the final
// canonical merge), then runs a single-threaded poll loop over its listen
// socket (unix-domain by default, TCP for multi-host audits — see
// CoordConfig::listen_address): granting leases (coord/queue.h), tracking
// heartbeats, expiring and re-issuing lost shards with backoff, and
// folding each completed shard's records into the prepared audit the
// moment they arrive.  Fault tolerance leans entirely on the determinism
// contract (docs/ARCHITECTURE.md): a re-executed shard reproduces its
// record stream byte for byte, so the coordinator re-issues work freely
// and *verifies* a zombie's late duplicate completion byte-for-byte
// instead of discarding it — every race the fault model creates becomes a
// free end-to-end check.
//
// Workers are external by design (they connect over the socket; `ffaudit
// worker`), but serve() can also spawn and babysit its own worker
// processes (spawn_workers > 0): children that die are reaped and
// restarted, which is what the CI chaos job exercises with SIGKILL.
#pragma once

/// \file
/// serve(): the fault-tolerant coordinator event loop.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "coord/net_fault.h"
#include "coord/queue.h"
#include "core/fuzzer.h"
#include "shard/manifest.h"

namespace ff::coord {

/// Everything one serve() run needs.
struct CoordConfig {
    shard::JobSpec job;           ///< The audit to run.
    int shard_count = 4;          ///< Shards to plan.
    int checkpoint_interval = 64; ///< Units per durable chunk (docs/TUNING.md).
    std::string socket_path;      ///< Unix socket the workers dial.
    /// TCP listen address ("host:port", port 0 = kernel-assigned).  When
    /// set it replaces the unix socket as the transport; spawned workers
    /// are handed the resolved address via --connect.
    std::string listen_address;
    /// Network fault spec (NetFaultPlan::parse syntax).  When set, serve()
    /// interposes a FrameProxy between itself and the workers it spawns —
    /// the chaos harness for the wire-integrity and session-resume
    /// machinery.  "" = no proxy.
    std::string net_fault;
    /// When a registered worker's connection drops while it holds leases,
    /// park those leases for this long instead of re-issuing them — a
    /// reconnect with the same session id resumes heartbeating the same
    /// attempt.  0 disables parking (drop = immediate worker_lost).
    double session_grace_ms = 3000.0;
    /// --reply-timeout-ms for spawned workers (0 = worker default); the
    /// chaos harness shrinks it so dropped frames re-request quickly.
    double worker_reply_timeout_ms = 0.0;
    std::string records_dir;      ///< Where per-attempt record streams live.
    std::string artifact_dir;     ///< Reproducer artifacts at finalize ("" = off).
    LeaseConfig lease;            ///< Lease/heartbeat/backoff knobs.
    double poll_ms = 100.0;       ///< Event-loop tick bound (housekeeping cadence).
    /// After the last shard completes, keep serving this long while
    /// zombies (holders of expired leases, still executing) finish: their
    /// completions byte-verify against the winners.  0 shuts down
    /// immediately.
    double linger_ms = 1000.0;
    int prepare_threads = 1;      ///< Pool width of the coordinator's own prepare.
    int spawn_workers = 0;        ///< Worker processes to fork+exec (0 = external only).
    int worker_threads = 1;       ///< --threads of spawned workers.
    /// Spawned workers that die are restarted (fault-free) up to this many
    /// times across the whole run.
    int max_respawns = 8;
    /// Fault specs (FaultPlan::parse syntax) by spawned-worker index — the
    /// chaos harness; respawned replacements are always clean.
    std::map<int, std::string> worker_faults;
    /// Binary to exec for spawned workers ("" = /proc/self/exe).
    std::string ffaudit_path;
    /// Wall-clock watchdog passed to spawned workers (--watchdog-ms); a
    /// worker that lands no durable checkpoint for this long exits with
    /// kWorkerExitWatchdog.  0 = off.
    double worker_watchdog_ms = 0.0;
    /// RLIMIT_AS cap passed to spawned workers (--rlimit-as); a worker
    /// whose allocations hit the cap exits with kWorkerExitMemoryCap.
    /// 0 = off.
    std::int64_t worker_rlimit_as = 0;
    /// Budget caps for the quarantine re-run of a blamed unit.  The re-run
    /// executes in the coordinator's own process, so it must terminate no
    /// matter how hostile the trial: the caps apply whenever the job's own
    /// budgets are unset or looser.
    std::int64_t quarantine_max_points = 16'000'000;
    std::int64_t quarantine_max_alloc_bytes = 256ll << 20;
    /// Log lease traffic to stderr; spawned workers get --quiet when off.
    bool verbose = false;
};

/// Counters of one serve() run.
struct CoordStats {
    LeaseQueueStats queue;             ///< Lease state-machine counters.
    std::int64_t records_merged = 0;   ///< Records folded into the audit.
    int shards_merged = 0;             ///< Winning completions folded.
    /// Losing duplicate completions whose record files were verified
    /// byte-identical to the winner's (a failed verification aborts serve).
    int duplicate_files_verified = 0;
    int workers_seen = 0;     ///< Hello handshakes accepted (fresh sessions).
    int workers_lost = 0;     ///< Connections that dropped.
    int workers_spawned = 0;  ///< Child processes forked (incl. respawns).
    int sessions_parked = 0;   ///< Disconnects that parked live leases.
    int sessions_resumed = 0;  ///< Reconnects spliced onto a live session.
    /// Parked sessions whose grace window lapsed (or whose process was
    /// reaped) before a resume — their leases went back to the queue.
    int sessions_expired = 0;
    /// What the interposed FrameProxy did (all zero without --net-fault).
    NetFaultStats net;
    /// Flat unit indices re-run in-process under tightened budgets after
    /// their shard permanently failed (poison-unit quarantine), in blame
    /// order.  Non-empty turns ffaudit serve's exit code into
    /// "completed with quarantined units".
    std::vector<std::int64_t> quarantined_units;
    int shards_quarantined = 0;  ///< Failed shards resolved by quarantine.
    int shards_split = 0;        ///< Fresh sub-shards re-issued from remainders.
};

/// What serve() produced.
struct ServeResult {
    std::vector<core::FuzzReport> reports;  ///< finalize() output, canonical order.
    CoordStats stats;
};

/// Runs the coordinator to completion and returns the finalized reports.
/// A shard that fails permanently (retry cap with no surviving attempt) is
/// quarantined rather than fatal: the best durable checkpoint is salvaged,
/// the first unfinished unit is blamed and re-run in-process under
/// tightened budgets, and the remainder is split into fresh sub-shards —
/// the audit finishes, with the blamed units listed in
/// CoordStats::quarantined_units.  Throws common::Error when a duplicate
/// completion is not byte-identical (a determinism violation — never
/// acceptable) or on socket/plan errors.
ServeResult serve(const CoordConfig& config);

}  // namespace ff::coord
