// Deterministic network fault injection: an in-path frame proxy.
//
// FrameProxy sits between workers and the coordinator, speaking the raw
// frame layout of coord/protocol (it never needs to *decode* most frames,
// only to delimit them), and applies a NetFaultPlan to the worker ->
// coordinator direction: dropping, delaying, duplicating or corrupting
// whole frames, and severing every connection for a timed partition.  The
// coordinator and worker are never told they are talking through it — that
// is the point: the chaos script and the in-process tests prove the audit
// report stays byte-identical to a single-process run while the transport
// misbehaves in every way the frame CRC, the reconnect/backoff machinery
// and the session-resume grace window are supposed to absorb.
//
// Determinism: faults are counter-based per connection (the Nth frame of a
// connection is dropped/duplicated every time) or one-shot (corrupt the
// Nth relayed frame overall; partition once when a heartbeat first reports
// >= N units).  No randomness, no wall-clock sampling — the same worker
// behaviour yields the same fault sequence.
//
// Used in-process by tests/test_coord.cpp and by
// `ffaudit serve --net-fault <spec>` (scripts/coord_chaos.py --net), where
// serve interposes the proxy between its real endpoint and the workers it
// spawns.
#pragma once

/// \file
/// NetFaultPlan + FrameProxy: deterministic in-path frame-level network
/// fault injection for the coordinator transport.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "coord/protocol.h"

namespace ff::coord {

/// What the proxy sabotages, and when.  All counters are 1-based frame
/// ordinals on the worker -> coordinator direction.
struct NetFaultPlan {
    /// Drop every Nth frame of each connection (frames N, 2N, ...).
    /// 0 = disabled.  N == 1 would drop the hello and wedge the handshake
    /// forever, so parse() rejects it.
    std::int64_t drop_frame_every_n = 0;

    /// Hold each relayed frame this long before forwarding (both
    /// directions) — bounded latency, not loss.  0 = disabled.
    double delay_frame_ms = 0.0;

    /// Forward every Nth frame of each connection twice.  0 = disabled.
    std::int64_t duplicate_frame_every_n = 0;

    /// One-shot: flip one payload byte of the Nth worker->coordinator
    /// frame relayed overall (across connections).  The receiver's frame
    /// CRC must classify it as a disconnect.  0 = disabled.
    std::int64_t corrupt_frame_byte = 0;

    /// One-shot: when a relayed heartbeat first reports `units` >= this
    /// value, sever every connection and refuse new ones for `heal_ms`.
    /// < 0 = disabled.
    std::int64_t partition_after_units = -1;

    /// Partition duration before the proxy heals and accepts again.
    double heal_ms = 1000.0;

    /// True when no fault is configured.
    bool empty() const {
        return drop_frame_every_n == 0 && delay_frame_ms <= 0.0 &&
               duplicate_frame_every_n == 0 && corrupt_frame_byte == 0 &&
               partition_after_units < 0;
    }

    /// Parses a comma-separated spec, e.g.
    /// "drop-frame-every-n=7,delay-frame-ms=5,partition-after-units=4,heal-ms=1500".
    /// Keys: drop-frame-every-n, delay-frame-ms, duplicate-frame,
    /// corrupt-frame-byte, partition-after-units, heal-ms — the grammar of
    /// parse_fault_spec (coord/fault.h).  Empty spec = no faults.  Throws
    /// common::Error on unknown keys or malformed values.
    static NetFaultPlan parse(const std::string& spec);
};

/// Monotonic counters of what the proxy did (read anytime; exact after
/// stop()).
struct NetFaultStats {
    std::int64_t frames_forwarded = 0;  ///< worker->coord frames relayed.
    std::int64_t frames_dropped = 0;
    std::int64_t frames_duplicated = 0;
    std::int64_t frames_corrupted = 0;
    int partitions = 0;  ///< Partition events fired (0 or 1; the fault is one-shot).
};

/// The in-path proxy.  Listens on `listen`, dials `upstream` per client
/// connection, relays frames with faults applied.  Runs its own accept and
/// per-connection pump threads; stop() (or destruction) severs everything
/// and joins them.
class FrameProxy {
public:
    /// Binds and starts accepting immediately; throws common::Error when
    /// the listen endpoint cannot be bound.
    FrameProxy(Endpoint listen, Endpoint upstream, NetFaultPlan plan);
    ~FrameProxy();
    FrameProxy(const FrameProxy&) = delete;
    FrameProxy& operator=(const FrameProxy&) = delete;

    /// Severs all connections, stops accepting, joins all threads
    /// (idempotent).
    void stop();

    /// The address workers should dial: the listen endpoint with any
    /// kernel-assigned TCP port resolved.
    Endpoint listen_endpoint() const { return listen_; }

    NetFaultStats stats() const;

private:
    struct Conn;
    void accept_loop();
    void pump(std::shared_ptr<Conn> conn, bool upstream_direction);
    bool partitioned_now();
    void fire_partition();
    void sever_all();

    Endpoint listen_;
    Endpoint upstream_;
    NetFaultPlan plan_;
    int listen_fd_ = -1;
    std::atomic<bool> stopping_{false};

    std::mutex mu_;  ///< Guards conns_ and threads_.
    std::vector<std::shared_ptr<Conn>> conns_;
    std::vector<std::thread> threads_;
    std::thread accept_thread_;

    std::atomic<std::int64_t> forwarded_total_{0};  ///< One-shot corrupt ordinal.
    std::atomic<bool> corrupted_once_{false};
    std::atomic<bool> partition_armed_{true};
    std::atomic<std::int64_t> partition_until_ms_{0};  ///< steady-clock ms; 0 = none.

    mutable std::mutex stats_mu_;
    NetFaultStats stats_;
};

}  // namespace ff::coord
