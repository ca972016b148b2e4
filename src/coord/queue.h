// The lease queue: the coordinator's fault-tolerance state machine.
//
// Every shard of the plan moves through Pending -> Leased -> Done (or
// Failed after too many losses).  A *lease* hands one shard to one worker
// for a bounded time; heartbeats extend the deadline, silence expires it
// and puts the shard back in the queue behind an exponential backoff.  A
// shard has at most one outstanding attempt.  The holder of an expired
// attempt may still be executing (a zombie): its late completion is
// accepted, and if the re-issued attempt got there first, the zombie's
// record file is byte-verified against the winner's — re-execution is
// safe *because* the record streams are deterministic (docs/ARCHITECTURE.md,
// contract clauses 6-7).
//
// The queue itself never reads a clock or sleeps: every method takes the
// caller's `now`, and next_event_ms() tells the caller how long it may
// sleep before something (a deadline or a backoff expiry) needs
// attention.  Unit tests drive it with a fake clock and assert the exact
// transition sequence; the coordinator's event loop feeds it
// std::chrono::steady_clock.
#pragma once

/// \file
/// LeaseQueue: leases with deadlines, heartbeat extension, backoff
/// re-issue and retry caps — with injected time.

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/retry.h"
#include "common/rng.h"
#include "shard/manifest.h"

namespace ff::coord {

using TimePoint = std::chrono::steady_clock::time_point;

/// Tuning knobs of the lease state machine (docs/TUNING.md "Coordinator").
struct LeaseConfig {
    /// Lease duration: a worker that neither heartbeats nor completes for
    /// this long forfeits the shard.
    double lease_ms = 10000.0;
    /// Heartbeat cadence advertised to workers; keep well under lease_ms
    /// (the default ratio is 4x) so one dropped beat is not an expiry.
    double heartbeat_ms = 2500.0;
    /// Failed/expired attempts a shard tolerates before it is declared
    /// permanently Failed and the audit aborts.
    int max_failures = 5;
    /// Delay schedule for re-issuing a lost shard: attempt k of the retry
    /// waits backoff.delay_ms(k-1) before the shard is grantable again.
    common::BackoffPolicy backoff{200.0, 2.0, 10000.0, 0.2};
    /// Seed of the backoff-jitter Rng; fixed seed = reproducible schedule.
    std::uint64_t seed = 0x5eedc0de;
};

/// Lifecycle of one shard in the queue.
enum class ShardState {
    Pending,  ///< Waiting to be (re-)granted.
    Leased,   ///< Its one attempt is out.
    Done,     ///< A completion was accepted; terminal.
    Failed,   ///< Retry cap exhausted; terminal unless a zombie completes.
};

/// One granted lease.
struct Lease {
    int shard = 0;    ///< Shard index into the plan.
    int attempt = 0;  ///< Unique per shard, monotonically increasing.
    shard::ShardManifest manifest;  ///< The work itself.
};

/// Monotonic counters of queue activity (surfaced in CoordStats).
struct LeaseQueueStats {
    std::int64_t granted = 0;       ///< Leases handed out.
    /// Always zero: the queue no longer duplicate-issues running leases.
    /// Kept only because perfbench/trace.cpp still reads it.
    std::int64_t hedges = 0;
    std::int64_t expirations = 0;   ///< Attempts lost to a missed deadline.
    std::int64_t worker_failures = 0;  ///< Attempts lost to a reported error.
    std::int64_t requeues = 0;      ///< Shard returns to Pending (with backoff).
    std::int64_t completions = 0;   ///< First completions accepted.
    std::int64_t duplicate_completions = 0;  ///< Zombie completions of a Done shard.
    int shards_failed = 0;          ///< Shards that hit the retry cap.
};

/// See the file comment.  Single-threaded; the coordinator's event loop is
/// the only caller.
class LeaseQueue {
public:
    LeaseQueue(std::vector<shard::ShardManifest> shards, const LeaseConfig& config);

    /// Grants the lowest-index Pending shard whose backoff has elapsed;
    /// nullopt when nothing is grantable right now.
    std::optional<Lease> acquire(const std::string& worker, TimePoint now);

    /// Extends the attempt's deadline.  Returns false (a no-op) for stale
    /// attempts — the worker may keep running; its completion can still
    /// win or byte-verify.
    bool heartbeat(int shard, int attempt, TimePoint now);

    /// Reports a completion.  Returns true for the first completion of the
    /// shard (caller folds the records) and false for duplicates (caller
    /// byte-verifies the file against the winner's).  A completion is
    /// accepted in ANY state — even Failed: a zombie worker finishing after
    /// the retry cap still rescues the shard.
    bool complete(int shard, int attempt);

    /// Reports a worker-side execution failure of an attempt; the shard is
    /// requeued behind backoff or declared Failed at the cap.
    void fail(int shard, int attempt, TimePoint now, const std::string& error);

    /// Resets every active attempt's deadline to now + lease_ms.  Called
    /// after the event loop was blocked (a quarantine re-run executes trials
    /// in the coordinator's own thread): workers kept heartbeating into an
    /// unread socket, so expiring their leases for the coordinator's own
    /// absence would be wrong — and at a tight max_failures it would cascade
    /// healthy shards into quarantine.
    void extend_active(TimePoint now);

    /// Appends a fresh Pending shard mid-run and returns its index — the
    /// coordinator's quarantine path re-issues the unfinished remainder of
    /// a permanently Failed shard as new (smaller) shards.  The new shard
    /// starts with a clean failure count and no backoff gate.
    int add_shard(const shard::ShardManifest& manifest);

    /// An attempt lost to expiry or disconnection.
    struct LostAttempt {
        int shard = 0;
        int attempt = 0;
        std::string worker;
    };

    /// Drops every attempt whose deadline has passed; call once per event-
    /// loop tick.  Returns what expired (for logging).
    std::vector<LostAttempt> expire(TimePoint now);

    /// Drops every attempt held by `worker` (its connection died).  The
    /// shards are requeued immediately — disconnection is a fact, not a
    /// timeout, so no need to wait out the lease.
    std::vector<LostAttempt> worker_lost(const std::string& worker, TimePoint now);

    /// Session resume, coordinator side: the worker's *connection* died but
    /// its session may come back, so instead of dropping its attempts,
    /// extend each one's deadline to at least `now + grace_ms`.  A
    /// reconnecting worker resumes heartbeating the same attempts; one that
    /// never returns loses them through the ordinary expire() path when the
    /// grace lapses.  Returns the parked attempts (empty = nothing was
    /// active, caller falls back to worker_lost bookkeeping).
    std::vector<LostAttempt> park_worker(const std::string& worker, TimePoint now,
                                         double grace_ms);

    bool all_done() const;  ///< Every shard Done.
    ShardState state(int shard) const;
    /// Last error/expiry note recorded for the shard ("" when none).
    const std::string& last_error(int shard) const;
    int shard_count() const { return static_cast<int>(shards_.size()); }
    /// Attempts issued for the shard so far (the next attempt id).
    int attempts_issued(int shard) const;
    /// Outstanding attempts across all shards (at most one per shard).
    int active_attempts() const;

    /// Milliseconds until the queue next needs attention (a deadline or a
    /// backoff expiry) — the caller's poll timeout.  nullopt when nothing
    /// is scheduled (queue fully idle, done, or failed).
    std::optional<double> next_event_ms(TimePoint now) const;

    const LeaseQueueStats& stats() const { return stats_; }

private:
    struct Attempt {
        int attempt = 0;
        std::string worker;
        TimePoint deadline;
    };
    struct ShardEntry {
        shard::ShardManifest manifest;
        ShardState state = ShardState::Pending;
        std::optional<Attempt> active;  ///< The outstanding attempt while Leased.
        int attempts_issued = 0;
        int failures = 0;         ///< Expiries + reported failures.
        TimePoint not_before{};   ///< Backoff gate while Pending.
        std::string last_error;
    };

    /// The shard's outstanding attempt if it is `attempt`, else nullptr.
    Attempt* find_active(int shard, int attempt);
    /// Drops a Leased shard's attempt as one failure noted as `error`:
    /// requeue behind backoff, or Failed at the cap.
    void drop_attempt(ShardEntry& entry, TimePoint now, std::string error);

    std::vector<ShardEntry> shards_;
    LeaseConfig config_;
    common::Rng rng_;  ///< Backoff jitter; seeded from config, deterministic.
    LeaseQueueStats stats_;
};

}  // namespace ff::coord
