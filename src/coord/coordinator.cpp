#include "coord/coordinator.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <utility>

#include "common/error.h"
#include "coord/net_fault.h"
#include "coord/protocol.h"
#include "coord/worker.h"
#include "shard/records.h"

namespace ff::coord {

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using common::Json;

double ms_since(TimePoint then, TimePoint now) {
    return std::chrono::duration<double, std::milli>(now - then).count();
}

/// SO_SNDTIMEO for worker connections: far above any healthy local-socket
/// send, far below wedging the audit (a timed-out peer is dropped and its
/// lease re-issued).
constexpr long kSendTimeoutMs = 2000;

/// One accepted worker connection.
struct Connection {
    int fd = -1;  ///< -1 = superseded by a session resume; swept next tick.
    FrameBuffer frames;
    /// Queue identity.  The worker's session id when its hello carries one
    /// ("w0/711.0" — stable across reconnects, so a resumed connection
    /// heartbeats the same leases), else unique per connection ("w0#3").
    std::string key;
    std::string name;  ///< As announced in hello (logging only).
    bool registered = false;
    int shard = -1;    ///< Current assignment; -1 when idle.
    int attempt = -1;
    bool done_sent = false;  ///< "done" already pushed to this peer.
};

/// One spawned worker process.
struct Child {
    pid_t pid = -1;
    int index = 0;  ///< Spawn slot (for the worker id and fault lookup).
};

std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw common::Error("cannot read " + path + ": " + std::strerror(errno));
    std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    return bytes;
}

/// Deep copy of a trial slot (TrialRecord is move-only because of the
/// retained inputs) — the quarantine path copies a record out of the
/// side audit's slots into the main audit.
core::TrialRecord clone_record(const core::TrialRecord& rec) {
    core::TrialRecord out;
    out.kind = rec.kind;
    out.verdict = rec.verdict;
    out.detail = rec.detail;
    out.original_points = rec.original_points;
    out.original_instructions = rec.original_instructions;
    out.transformed_points = rec.transformed_points;
    out.transformed_instructions = rec.transformed_instructions;
    if (rec.inputs) out.inputs = std::make_unique<interp::Context>(*rec.inputs);
    return out;
}

/// The whole serve() run as an object so the destructor can tear down
/// sockets and child processes on every exit path, including throws.
class Server {
public:
    explicit Server(const CoordConfig& config) : config_(config) {}

    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    ~Server() {
        // The proxy's pump threads dial and relay to listen_fd_; stop them
        // before the endpoint goes away.
        if (proxy_) proxy_->stop();
        for (Connection& conn : conns_) {
            if (conn.fd >= 0) ::close(conn.fd);
        }
        if (listen_fd_ >= 0) {
            ::close(listen_fd_);
            if (!listen_ep_.tcp && !listen_ep_.path.empty()) {
                ::unlink(listen_ep_.path.c_str());
            }
        }
        // Leftover children are expendable (zombies, stalled workers):
        // kill and reap so serve() never leaks processes.
        for (const Child& child : children_) {
            if (child.pid > 0) ::kill(child.pid, SIGKILL);
        }
        for (const Child& child : children_) {
            if (child.pid > 0) ::waitpid(child.pid, nullptr, 0);
        }
    }

    ServeResult run();

private:
    std::string records_path(int shard, int attempt) const {
        return config_.records_dir + "/lease-s" + std::to_string(shard) + "-a" +
               std::to_string(attempt) + ".jsonl";
    }

    void log(const std::string& line) const {
        if (config_.verbose) std::fprintf(stderr, "[coord] %s\n", line.c_str());
    }

    void spawn_worker(int index, const std::string& fault_spec);
    void reap_children();
    /// True when `session` belongs to a reaped child: it can never resume.
    bool reaped(const std::string& session) const;
    void accept_connections();
    void read_connection(std::size_t i);
    void drop_connection(std::size_t i, const std::string& why, TimePoint now);
    /// Returns false when the connection should be dropped.
    bool handle_frame(Connection& conn, const Json& msg, TimePoint now);
    void handle_lease_request(Connection& conn, TimePoint now);
    void handle_complete(Connection& conn, int shard, int attempt, TimePoint now);
    void fold_records(shard::ShardRecordFile& file);
    void announce_done(TimePoint now);
    /// Quarantines every Failed shard that has no surviving attempt
    /// anywhere (a zombie holder can still rescue it, so those wait).
    void handle_failed_shards(TimePoint now);
    /// Poison-unit quarantine of one permanently Failed shard: salvage the
    /// best durable checkpoint, blame the first unfinished unit, re-run it
    /// in-process under tightened budgets, and split the remainder into
    /// fresh sub-shards.
    void quarantine_shard(int shard, TimePoint now);
    /// The side audit the quarantine re-run executes in — same job, but
    /// with the tightened resource budgets; prepared lazily on the first
    /// quarantine (preparation is deterministic, so the blamed unit's
    /// record is exactly what any budgeted run would produce).
    core::PreparedAudit& quarantine_audit();

    const CoordConfig& config_;
    std::vector<shard::ShardManifest> manifests_;
    std::unique_ptr<core::Fuzzer> fuzzer_;
    std::unique_ptr<core::PreparedAudit> audit_;
    std::unique_ptr<core::Fuzzer> quarantine_fuzzer_;
    std::unique_ptr<core::PreparedAudit> quarantine_audit_;
    std::unique_ptr<LeaseQueue> queue_;
    int listen_fd_ = -1;
    Endpoint listen_ep_;  ///< What run() actually bound (TCP port resolved).
    Endpoint dial_ep_;    ///< What spawned workers dial (the proxy, if any).
    std::unique_ptr<FrameProxy> proxy_;
    std::vector<Connection> conns_;
    std::vector<Child> children_;
    /// Sessions whose connection dropped while holding leases: the leases
    /// stay issued (deadline pushed to the grace window) awaiting a resume.
    /// Keyed by session id; the value is when the session parked.
    std::map<std::string, TimePoint> parked_;
    /// Session prefixes ("w0/711.") of reaped children.  A reaped worker's
    /// EOF can arrive after the reap; its leases must not park then.
    std::set<std::string> reaped_prefixes_;
    int conn_seq_ = 0;
    int respawns_used_ = 0;
    bool done_ = false;
    TimePoint done_at_{};
    std::vector<std::string> winner_path_;  ///< Per shard, "" until merged.
    CoordStats stats_;
};

void Server::spawn_worker(int index, const std::string& fault_spec) {
    std::string binary = config_.ffaudit_path.empty() ? "/proc/self/exe" : config_.ffaudit_path;
    std::string id = "w" + std::to_string(index);
    std::vector<std::string> args = {binary, "worker"};
    if (dial_ep_.tcp) {
        args.push_back("--connect");
        args.push_back(dial_ep_.describe());
    } else {
        args.push_back("--socket");
        args.push_back(dial_ep_.path);
    }
    args.push_back("--id");
    args.push_back(id);
    args.push_back("--threads");
    args.push_back(std::to_string(config_.worker_threads));
    if (config_.worker_reply_timeout_ms > 0.0) {
        args.push_back("--reply-timeout-ms");
        args.push_back(std::to_string(config_.worker_reply_timeout_ms));
    }
    if (config_.worker_watchdog_ms > 0.0) {
        args.push_back("--watchdog-ms");
        args.push_back(std::to_string(config_.worker_watchdog_ms));
    }
    if (config_.worker_rlimit_as > 0) {
        args.push_back("--rlimit-as");
        args.push_back(std::to_string(config_.worker_rlimit_as));
    }
    if (!fault_spec.empty()) {
        args.push_back("--fault");
        args.push_back(fault_spec);
    }
    if (!config_.verbose) args.push_back("--quiet");
    pid_t pid = ::fork();
    if (pid < 0) throw common::Error(std::string("fork: ") + std::strerror(errno));
    if (pid == 0) {
        std::vector<char*> argv;
        argv.reserve(args.size() + 1);
        for (std::string& a : args) argv.push_back(a.data());
        argv.push_back(nullptr);
        ::execv(binary.c_str(), argv.data());
        std::fprintf(stderr, "[coord] execv %s: %s\n", binary.c_str(), std::strerror(errno));
        ::_exit(127);
    }
    children_.push_back({pid, index});
    ++stats_.workers_spawned;
    log("spawned worker " + id + " pid " + std::to_string(pid) +
        (fault_spec.empty() ? "" : " fault=" + fault_spec));
}

void Server::reap_children() {
    // Respawns are deferred past the loop: spawn_worker() appends to
    // children_, which would invalidate this iteration.
    std::vector<int> respawn;
    for (Child& child : children_) {
        if (child.pid <= 0) continue;
        int status = 0;
        pid_t r = ::waitpid(child.pid, &status, WNOHANG);
        if (r != child.pid) continue;
        int index = child.index;
        bool clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
        std::string how = WIFSIGNALED(status)
                              ? "signal " + std::to_string(WTERMSIG(status))
                              : "exit " + std::to_string(WEXITSTATUS(status));
        if (WIFEXITED(status) && WEXITSTATUS(status) == kWorkerExitWatchdog) {
            how += " — watchdog: stalled mid-unit";
        } else if (WIFEXITED(status) && WEXITSTATUS(status) == kWorkerExitMemoryCap) {
            how += " — address-space cap hit";
        }
        log("worker w" + std::to_string(index) + " pid " + std::to_string(child.pid) +
            " terminated (" + how + ")");
        // A reaped process can never resume its parked sessions: force the
        // grace window shut so its leases re-issue now, not at the lapse.
        // The pid scopes the prefix to this process, not the slot's
        // respawned replacement.
        const std::string prefix =
            "w" + std::to_string(index) + "/" + std::to_string(child.pid) + ".";
        reaped_prefixes_.insert(prefix);
        child.pid = -1;
        TimePoint now = Clock::now();
        for (auto it = parked_.begin(); it != parked_.end();) {
            if (it->first.compare(0, prefix.size(), prefix) != 0) {
                ++it;
                continue;
            }
            log("session " + it->first + " force-expired (its process was reaped)");
            for (const auto& lost : queue_->worker_lost(it->first, now)) {
                log("  lost lease shard " + std::to_string(lost.shard) + " attempt " +
                    std::to_string(lost.attempt));
            }
            ++stats_.sessions_expired;
            it = parked_.erase(it);
        }
        if (!clean && !done_ && respawns_used_ < config_.max_respawns) {
            ++respawns_used_;
            // The replacement is always fault-free: the fault is a plan,
            // not a property of the slot.
            respawn.push_back(index);
        }
    }
    for (int index : respawn) spawn_worker(index, "");
}

bool Server::reaped(const std::string& session) const {
    return std::any_of(reaped_prefixes_.begin(), reaped_prefixes_.end(),
                       [&](const std::string& prefix) {
                           return session.compare(0, prefix.size(), prefix) == 0;
                       });
}

void Server::accept_connections() {
    while (true) {
        int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
        if (fd < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK) return;
            if (errno == EINTR) continue;
            throw common::Error(std::string("accept: ") + std::strerror(errno));
        }
        // A worker that stops reading (stalled process, full socket
        // buffer) must not wedge the single-threaded event loop inside
        // write_frame's blocking send: bound every send and let the
        // timeout error drop the connection — lease expiry then re-issues
        // its shard as usual.
        timeval tv{};
        tv.tv_sec = static_cast<time_t>(kSendTimeoutMs / 1000);
        tv.tv_usec = static_cast<suseconds_t>(kSendTimeoutMs % 1000 * 1000);
        ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
        Connection conn;
        conn.fd = fd;
        conns_.push_back(std::move(conn));
    }
}

void Server::drop_connection(std::size_t i, const std::string& why, TimePoint now) {
    Connection& conn = conns_[i];
    log("connection " + (conn.registered ? conn.key : std::string("<anon>")) + " dropped (" +
        why + ")");
    if (conn.registered) {
        ++stats_.workers_lost;
        bool parked = false;
        if (config_.session_grace_ms > 0.0 && !reaped(conn.key)) {
            // Park instead of expiring: the worker may only have lost its
            // socket (network blip, partition) while the shard keeps
            // executing — a resume within the grace window continues
            // heartbeating the same attempt, so the lease is never
            // re-issued for a transport hiccup.
            auto held = queue_->park_worker(conn.key, now, config_.session_grace_ms);
            if (!held.empty()) {
                parked = true;
                parked_[conn.key] = now;
                ++stats_.sessions_parked;
                for (const auto& p : held) {
                    log("  parked lease shard " + std::to_string(p.shard) + " attempt " +
                        std::to_string(p.attempt) + " (grace " +
                        std::to_string(static_cast<long long>(config_.session_grace_ms)) +
                        " ms)");
                }
            }
        }
        if (!parked) {
            for (const auto& lost : queue_->worker_lost(conn.key, now)) {
                log("  lost lease shard " + std::to_string(lost.shard) + " attempt " +
                    std::to_string(lost.attempt));
            }
        }
    }
    if (conn.fd >= 0) ::close(conn.fd);
    conns_.erase(conns_.begin() + static_cast<std::ptrdiff_t>(i));
}

void Server::read_connection(std::size_t i) {
    Connection& conn = conns_[i];
    if (conn.fd < 0) return;  // superseded this tick; swept before the next poll
    char chunk[4096];
    ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), 0);
    TimePoint now = Clock::now();
    if (n < 0) {
        if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) return;
        drop_connection(i, std::strerror(errno), now);
        return;
    }
    if (n == 0) {
        drop_connection(i, "eof", now);
        return;
    }
    conn.frames.append(chunk, static_cast<std::size_t>(n));
    try {
        while (auto msg = conn.frames.next()) {
            if (!handle_frame(conn, *msg, now)) {
                drop_connection(i, "protocol error", now);
                return;
            }
        }
    } catch (const FrameError& e) {
        // Every malformed frame is a *classified* drop, never a crash.  A
        // peer speaking another protocol version gets a best-effort
        // readable refusal before the handshake drop; corruption
        // (checksum/length/payload) is treated exactly like a disconnect —
        // a registered holder's session parks as usual.
        if (e.kind() == FrameError::Kind::BadVersion && !conn.registered) {
            try {
                Json refuse = Json::object();
                refuse["type"] = "error";
                refuse["error"] = std::string("protocol version mismatch (coordinator speaks ") +
                                  std::to_string(kProtocolVersion) + ")";
                write_frame(conn.fd, refuse);
            } catch (const common::Error&) {
            }
            drop_connection(i, std::string("handshake: ") + e.what(), now);
        } else {
            drop_connection(i, e.what(), now);
        }
    } catch (const common::Error& e) {
        drop_connection(i, e.what(), now);
    }
}

bool Server::handle_frame(Connection& conn, const Json& msg, TimePoint now) {
    const std::string& type = common::json_string(msg, "type");
    if (!conn.registered) {
        if (type != "hello") {
            log("first frame was '" + type + "', expected hello");
            return false;
        }
        if (common::json_int(msg, "protocol") != kProtocolVersion) {
            write_frame(conn.fd, [&] {
                Json j = Json::object();
                j["type"] = "error";
                j["error"] = std::string("protocol version mismatch (coordinator speaks ") +
                             std::to_string(kProtocolVersion) + ")";
                return j;
            }());
            return false;
        }
        conn.name = common::json_string(msg, "worker");
        const std::string session =
            msg.contains("session") ? common::json_string(msg, "session") : std::string();
        bool resumed = false;
        if (!session.empty()) {
            conn.key = session;
            // A reconnect can beat the old socket's EOF here: supersede the
            // stale connection in place (close + fd = -1, swept before the
            // next poll) WITHOUT touching its leases — they belong to the
            // session, which is alive again on this connection.
            for (Connection& other : conns_) {
                if (&other == &conn || !other.registered || other.key != session) continue;
                log("session " + session + " superseded a stale connection");
                if (other.fd >= 0) ::close(other.fd);
                other.fd = -1;
                other.registered = false;
                resumed = true;
            }
            if (parked_.erase(session) > 0) resumed = true;
        } else {
            conn.key = conn.name + "#" + std::to_string(conn_seq_++);
        }
        conn.registered = true;
        if (resumed) {
            ++stats_.sessions_resumed;
            log("worker " + conn.key + " resumed its session");
        } else {
            ++stats_.workers_seen;
            log("worker " + conn.key + " connected");
        }
        Json welcome = Json::object();
        welcome["type"] = "welcome";
        welcome["protocol"] = kProtocolVersion;
        welcome["heartbeat_ms"] = config_.lease.heartbeat_ms;
        welcome["resumed"] = resumed;
        write_frame(conn.fd, welcome);
        return true;
    }
    if (type == "hello") {
        // A duplicated hello (network-level frame duplication) on an
        // already-registered connection: idempotent no-op — the first copy
        // did the work and its welcome is in flight.
        log("duplicate hello from " + conn.key + " ignored");
        return true;
    }
    if (type == "lease-request") {
        handle_lease_request(conn, now);
        return true;
    }
    if (type == "heartbeat") {
        // Track the beaten assignment on the connection too: a resumed
        // session's new connection must count as *holding* its shard (the
        // quarantine gate checks holders) even though its lease-grant
        // frame arrived on the dead predecessor.
        conn.shard = static_cast<int>(common::json_int(msg, "shard"));
        conn.attempt = static_cast<int>(common::json_int(msg, "attempt"));
        queue_->heartbeat(conn.shard, conn.attempt, now);
        return true;
    }
    if (type == "complete") {
        handle_complete(conn, static_cast<int>(common::json_int(msg, "shard")),
                        static_cast<int>(common::json_int(msg, "attempt")), now);
        return true;
    }
    if (type == "failed") {
        int shard = static_cast<int>(common::json_int(msg, "shard"));
        int attempt = static_cast<int>(common::json_int(msg, "attempt"));
        const std::string& error = common::json_string(msg, "error");
        log("worker " + conn.key + " failed shard " + std::to_string(shard) + " attempt " +
            std::to_string(attempt) + ": " + error);
        queue_->fail(shard, attempt, now, error);
        conn.shard = conn.attempt = -1;
        Json ack = Json::object();
        ack["type"] = "ack";
        ack["done"] = queue_->all_done();
        write_frame(conn.fd, ack);
        return true;
    }
    log("unknown frame type '" + type + "' from " + conn.key);
    return false;
}

void Server::handle_lease_request(Connection& conn, TimePoint now) {
    conn.shard = conn.attempt = -1;
    if (queue_->all_done()) {
        Json done = Json::object();
        done["type"] = "done";
        write_frame(conn.fd, done);
        conn.done_sent = true;
        return;
    }
    std::optional<Lease> lease = queue_->acquire(conn.key, now);
    if (!lease) {
        auto next = queue_->next_event_ms(now);
        Json wait = Json::object();
        wait["type"] = "wait";
        wait["retry_ms"] = std::clamp(next.value_or(config_.poll_ms), 20.0, 1000.0);
        write_frame(conn.fd, wait);
        return;
    }
    conn.shard = lease->shard;
    conn.attempt = lease->attempt;
    Json grant = Json::object();
    grant["type"] = "lease";
    grant["shard"] = lease->shard;
    grant["attempt"] = lease->attempt;
    grant["manifest"] = lease->manifest.to_json();
    grant["records_path"] = records_path(lease->shard, lease->attempt);
    Json candidates = Json::array();
    // Newest prior attempt first: the worker salvages the checkpointed
    // prefix of the first readable candidate.
    for (int a = lease->attempt - 1; a >= 0; --a) {
        candidates.push_back(records_path(lease->shard, a));
    }
    grant["resume_candidates"] = std::move(candidates);
    grant["lease_ms"] = config_.lease.lease_ms;
    grant["heartbeat_ms"] = config_.lease.heartbeat_ms;
    write_frame(conn.fd, grant);
    log("leased shard " + std::to_string(lease->shard) + " attempt " +
        std::to_string(lease->attempt) + " to " + conn.key);
}

void Server::handle_complete(Connection& conn, int shard, int attempt, TimePoint now) {
    conn.shard = conn.attempt = -1;
    if (shard < 0 || shard >= static_cast<int>(manifests_.size())) {
        // A malformed frame is a protocol error, not a coordinator abort:
        // without this check the out-of-range index would escape as
        // std::out_of_range past read_connection's common::Error net.
        std::string error = "complete: shard " + std::to_string(shard) + " out of range";
        log("rejected completion from " + conn.key + ": " + error);
        Json reject = Json::object();
        reject["type"] = "reject";
        reject["error"] = error;
        write_frame(conn.fd, reject);
        return;
    }
    std::string path = records_path(shard, attempt);
    shard::ShardRecordFile file;
    bool valid = true;
    std::string error;
    try {
        file = shard::read_record_file(path);
        if (file.manifest.to_json().dump() != manifests_.at(shard).to_json().dump()) {
            valid = false;
            error = path + ": manifest does not match the planned shard";
        } else if (!file.complete()) {
            valid = false;
            error = path + ": incomplete (checkpoint at " + std::to_string(file.checkpoint) +
                    " of " + std::to_string(file.manifest.unit_end) + ")";
        }
    } catch (const common::Error& e) {
        valid = false;
        error = e.what();
    }
    if (!valid) {
        log("rejected completion of shard " + std::to_string(shard) + " attempt " +
            std::to_string(attempt) + ": " + error);
        queue_->fail(shard, attempt, now, error);
        Json reject = Json::object();
        reject["type"] = "reject";
        reject["error"] = error;
        write_frame(conn.fd, reject);
        return;
    }
    bool first = queue_->complete(shard, attempt);
    if (first) {
        winner_path_[shard] = path;
        fold_records(file);
        ++stats_.shards_merged;
        log("shard " + std::to_string(shard) + " complete (attempt " +
            std::to_string(attempt) + " by " + conn.key + ")");
    } else if (winner_path_[shard].empty()) {
        // The shard was resolved by quarantine, not by a completed record
        // file: its prefix came from a salvaged checkpoint and the blamed
        // unit from the tightened in-process re-run.  There is no winner
        // file to verify against (and the blamed unit's record may
        // legitimately differ under the tightened budgets), so the zombie's
        // completion is acknowledged and its records are left unused.
        log("late completion of quarantined shard " + std::to_string(shard) + " attempt " +
            std::to_string(attempt) + " acknowledged (no byte-verify: quarantine resolved it)");
    } else {
        // The determinism contract's strongest field check: a re-executed
        // shard must reproduce the winner's record stream byte for byte.
        std::string winner = slurp(winner_path_[shard]);
        std::string loser = slurp(path);
        if (winner != loser) {
            throw common::Error(
                "determinism violation: duplicate completion of shard " +
                std::to_string(shard) + " (attempt " + std::to_string(attempt) + ", " + path +
                ") differs from the accepted file " + winner_path_[shard] +
                " — two executions of the same shard produced different records");
        }
        ++stats_.duplicate_files_verified;
        log("duplicate completion of shard " + std::to_string(shard) + " attempt " +
            std::to_string(attempt) + " verified byte-identical");
    }
    Json ack = Json::object();
    ack["type"] = "ack";
    ack["done"] = queue_->all_done();
    write_frame(conn.fd, ack);
}

void Server::fold_records(shard::ShardRecordFile& file) {
    for (auto& [unit, record] : file.records) {
        audit_->set_record(unit, std::move(record));
        ++stats_.records_merged;
    }
}

void Server::announce_done(TimePoint now) {
    done_ = true;
    done_at_ = now;
    for (Connection& conn : conns_) {
        // Idle workers are told proactively; assigned ones learn from the
        // ack of their in-flight attempt (or this push, if it lands first).
        if (conn.done_sent || !conn.registered) continue;
        try {
            Json done = Json::object();
            done["type"] = "done";
            write_frame(conn.fd, done);
            conn.done_sent = true;
        } catch (const common::Error&) {
            // The drop will surface via poll.
        }
    }
    log("all shards complete");
}

void Server::handle_failed_shards(TimePoint now) {
    bool quarantined = false;
    for (int shard = 0; shard < queue_->shard_count(); ++shard) {
        if (queue_->state(shard) != ShardState::Failed) continue;
        // A zombie attempt (expired lease, worker still executing) can
        // still rescue the shard; only quarantine once nobody holds it.
        bool held = false;
        for (const Connection& conn : conns_) held = held || conn.shard == shard;
        if (!held) {
            quarantine_shard(shard, now);
            quarantined = true;
        }
    }
    // The quarantine re-run blocked this thread for however long the blamed
    // unit took; healthy workers kept heartbeating into an unread socket the
    // whole time.  Push every active deadline past the blackout so the next
    // expire() doesn't fail their leases for the coordinator's own absence.
    if (quarantined) queue_->extend_active(Clock::now());
}

core::PreparedAudit& Server::quarantine_audit() {
    if (quarantine_audit_) return *quarantine_audit_;
    core::FuzzConfig qc = shard::job_fuzz_config(config_.job);
    qc.num_threads = 1;
    qc.artifact_dir = "";  // artifacts are saved by the main audit's finalize
    if (qc.diff.exec.max_points <= 0 || qc.diff.exec.max_points > config_.quarantine_max_points) {
        qc.diff.exec.max_points = config_.quarantine_max_points;
    }
    if (qc.diff.exec.max_alloc_bytes <= 0 ||
        qc.diff.exec.max_alloc_bytes > config_.quarantine_max_alloc_bytes) {
        qc.diff.exec.max_alloc_bytes = config_.quarantine_max_alloc_bytes;
    }
    log("preparing quarantine audit (max_points=" + std::to_string(qc.diff.exec.max_points) +
        ", max_alloc_bytes=" + std::to_string(qc.diff.exec.max_alloc_bytes) + ")");
    const ir::SDFG program = shard::load_job_program(config_.job);
    quarantine_fuzzer_ = std::make_unique<core::Fuzzer>(qc);
    quarantine_audit_ = std::make_unique<core::PreparedAudit>(
        quarantine_fuzzer_->prepare(program, shard::job_passes(config_.job)));
    return *quarantine_audit_;
}

void Server::quarantine_shard(int shard, TimePoint now) {
    // By value: the split loop below grows manifests_, which would leave a
    // reference dangling on reallocation.
    const shard::ShardManifest manifest = manifests_.at(static_cast<std::size_t>(shard));
    log("quarantining shard " + std::to_string(shard) + " after " +
        std::to_string(queue_->attempts_issued(shard)) +
        " attempts: " + queue_->last_error(shard));

    // Salvage the attempt file with the deepest durable checkpoint — every
    // record under it is a fact (fsync'd, pure function of the job).
    shard::ShardRecordFile best;
    std::string best_path;
    bool have = false;
    const std::string want = manifest.to_json().dump();
    for (int a = 0; a < queue_->attempts_issued(shard); ++a) {
        const std::string path = records_path(shard, a);
        try {
            shard::ShardRecordFile file = shard::read_record_file(path);
            if (file.manifest.to_json().dump() != want) continue;
            if (!have || file.checkpoint > best.checkpoint) {
                best = std::move(file);
                best_path = path;
                have = true;
            }
        } catch (const common::Error&) {
            continue;  // unreadable/foreign attempt file
        }
    }

    if (have && best.complete()) {
        // The shard actually finished — an attempt's file is complete on
        // disk even though no completion frame ever arrived (the worker
        // died between the last checkpoint and the report).
        queue_->complete(shard, 0);
        winner_path_[static_cast<std::size_t>(shard)] = best_path;
        fold_records(best);
        ++stats_.shards_merged;
        log("quarantine: shard " + std::to_string(shard) + " salvaged complete from " +
            best_path);
        return;
    }

    const std::int64_t salvaged_to = have ? best.checkpoint : manifest.unit_begin;
    if (have) fold_records(best);

    // Blame the first unfinished unit: every attempt died somewhere in
    // [salvaged_to, unit_end), and the deterministic scheduler reaches
    // salvaged_to first, so it is the prime suspect.  Re-run it here,
    // under budgets that guarantee the coordinator survives it, and record
    // whatever verdict that produces.
    const std::int64_t blamed = salvaged_to;
    if (blamed < manifest.unit_end) {
        core::PreparedAudit& side = quarantine_audit();
        side.run_range(blamed, blamed + 1);
        const std::size_t instance =
            static_cast<std::size_t>(blamed / std::max(side.max_trials(), 1));
        const int trial = static_cast<int>(blamed % std::max(side.max_trials(), 1));
        const auto& slots = side.records(instance);
        if (!slots.empty()) {
            const core::TrialRecord& rec = slots.at(static_cast<std::size_t>(trial));
            log("quarantine: unit " + std::to_string(blamed) + " re-ran in-process (" +
                (rec.kind == core::TrialRecord::Kind::Failed
                     ? std::string(core::verdict_name(rec.verdict))
                     : std::string("no failure")) +
                ")");
            audit_->set_record(blamed, clone_record(rec));
            ++stats_.records_merged;
        }
        stats_.quarantined_units.push_back(blamed);
    }

    // Close out the poisoned shard and re-issue the rest as fresh, smaller
    // shards — bisection: if another poison unit lurks in the remainder,
    // the next quarantine blames it from a tighter range.
    queue_->complete(shard, 0);
    ++stats_.shards_quarantined;
    const std::int64_t rest_begin = std::min(blamed + 1, manifest.unit_end);
    if (rest_begin < manifest.unit_end) {
        const std::int64_t mid = rest_begin + (manifest.unit_end - rest_begin) / 2;
        const std::pair<std::int64_t, std::int64_t> halves[2] = {
            {rest_begin, mid}, {mid, manifest.unit_end}};
        for (const auto& [begin, end] : halves) {
            if (begin >= end) continue;
            shard::ShardManifest sub = manifest;
            sub.shard_index = static_cast<int>(manifests_.size());
            sub.unit_begin = begin;
            sub.unit_end = end;
            manifests_.push_back(sub);
            winner_path_.emplace_back();
            const int index = queue_->add_shard(sub);
            ++stats_.shards_split;
            log("quarantine: re-issued [" + std::to_string(begin) + ", " + std::to_string(end) +
                ") as shard " + std::to_string(index));
        }
    }
    (void)now;
}

ServeResult Server::run() {
    const bool tcp = !config_.listen_address.empty();
    if (!tcp && config_.socket_path.empty()) {
        throw common::Error("serve: socket_path or listen_address is required");
    }
    if (config_.records_dir.empty()) throw common::Error("serve: records_dir is required");
    fs::create_directories(config_.records_dir);
    // The fuzzer reports (rather than fixes) a missing artifact directory,
    // so create it up front like the records directory.
    if (!config_.artifact_dir.empty()) fs::create_directories(config_.artifact_dir);

    // Plan and prepare once; completed shards fold into this audit as they
    // arrive and finalize() emits the canonical report at the end.
    const ir::SDFG program = shard::load_job_program(config_.job);
    manifests_ = shard::plan_shards(config_.job, program, config_.shard_count,
                                    config_.checkpoint_interval);
    core::FuzzConfig fuzz_config = shard::job_fuzz_config(config_.job);
    fuzz_config.num_threads = config_.prepare_threads;
    fuzz_config.artifact_dir = config_.artifact_dir;
    fuzzer_ = std::make_unique<core::Fuzzer>(fuzz_config);
    audit_ = std::make_unique<core::PreparedAudit>(
        fuzzer_->prepare(program, shard::job_passes(config_.job)));
    if (static_cast<std::int64_t>(audit_->instance_count()) != manifests_.front().instance_count) {
        throw common::Error("prepared " + std::to_string(audit_->instance_count()) +
                            " instances but planned " +
                            std::to_string(manifests_.front().instance_count));
    }
    winner_path_.assign(manifests_.size(), "");
    queue_ = std::make_unique<LeaseQueue>(manifests_, config_.lease);

    Endpoint ep = tcp ? Endpoint::parse_tcp(config_.listen_address)
                      : Endpoint::unix_path(config_.socket_path);
    int bound_port = 0;
    listen_fd_ = listen_endpoint(ep, 64, &bound_port);
    if (ep.tcp) ep.port = bound_port;  // resolve a kernel-assigned port 0
    listen_ep_ = ep;
    // Nonblocking accept: the event loop drains the backlog until EAGAIN.
    ::fcntl(listen_fd_, F_SETFL, ::fcntl(listen_fd_, F_GETFL) | O_NONBLOCK);

    // Where spawned workers dial: the bound endpoint (loopback when we
    // listened on a wildcard address), or the fault proxy interposed in
    // front of it.
    dial_ep_ = listen_ep_;
    if (dial_ep_.tcp &&
        (dial_ep_.host.empty() || dial_ep_.host == "0.0.0.0" || dial_ep_.host == "::")) {
        dial_ep_.host = "127.0.0.1";
    }
    NetFaultPlan net_plan = NetFaultPlan::parse(config_.net_fault);
    if (!net_plan.empty()) {
        Endpoint proxy_ep = listen_ep_.tcp ? Endpoint::parse_tcp("127.0.0.1:0")
                                           : Endpoint::unix_path(config_.socket_path + ".fault");
        proxy_ = std::make_unique<FrameProxy>(proxy_ep, dial_ep_, net_plan);
        dial_ep_ = proxy_->listen_endpoint();
        log("net-fault proxy [" + config_.net_fault + "] on " + dial_ep_.describe());
    }
    log("serving " + std::to_string(manifests_.size()) + " shards on " + listen_ep_.describe());

    for (int i = 0; i < config_.spawn_workers; ++i) {
        auto it = config_.worker_faults.find(i);
        spawn_worker(i, it == config_.worker_faults.end() ? "" : it->second);
    }

    while (true) {
        TimePoint now = Clock::now();

        if (queue_->all_done() && !done_) announce_done(now);
        if (done_) {
            // Serve until every worker has read its 'done' and closed, or
            // linger expires.  An idle worker sleeping on a wait retry must
            // find the socket alive for its next lease-request — tearing it
            // down the instant the last shard lands would burn that worker's
            // whole reconnect budget against a vanished socket.
            if (conns_.empty() || ms_since(done_at_, now) >= config_.linger_ms) break;
        }

        double timeout = config_.poll_ms;
        if (auto next = queue_->next_event_ms(now)) timeout = std::min(timeout, *next);
        timeout = std::clamp(timeout, 0.0, config_.poll_ms);

        // Sweep connections superseded by a session resume (fd already
        // closed, registered already cleared) before sizing pfds from
        // conns_ — handle_frame cannot erase mid-iteration, so it only
        // marks.
        conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                                    [](const Connection& c) { return c.fd < 0; }),
                     conns_.end());

        std::vector<pollfd> pfds;
        pfds.push_back({listen_fd_, POLLIN, 0});
        for (const Connection& conn : conns_) pfds.push_back({conn.fd, POLLIN, 0});
        int pr = ::poll(pfds.data(), pfds.size(), static_cast<int>(timeout) + 1);
        if (pr < 0 && errno != EINTR) {
            throw common::Error(std::string("poll: ") + std::strerror(errno));
        }

        if (pr > 0) {
            // Read before accepting: pfds was sized from the pre-poll
            // conns_, so accepting first would leave the loop indexing
            // past pfds' end.  Walk backwards: read_connection may erase
            // the entry.  Fresh connections get polled next tick.
            for (std::size_t i = conns_.size(); i-- > 0;) {
                short revents = pfds[i + 1].revents;
                if (revents & (POLLIN | POLLERR | POLLHUP)) read_connection(i);
            }
            if (pfds[0].revents & POLLIN) accept_connections();
        }

        now = Clock::now();
        std::set<std::string> grace_expired;
        for (const auto& lost : queue_->expire(now)) {
            if (parked_.erase(lost.worker) > 0) {
                grace_expired.insert(lost.worker);
                ++stats_.sessions_expired;
            }
            if (grace_expired.count(lost.worker) > 0) continue;  // logged once below
            log("lease expired: shard " + std::to_string(lost.shard) + " attempt " +
                std::to_string(lost.attempt) + " (worker " + lost.worker + ")");
            // The holder may still be executing (a zombie); clearing the
            // assignment is the worker's business — it learns on its next
            // completion/failure, which the queue handles as stale-but-
            // welcome.
        }
        // One line per session, not per parked attempt: the session spent
        // its whole grace window without resuming, so its leases just
        // went back to the queue.
        for (const std::string& session : grace_expired) {
            log("session " + session + " never resumed; grace window expired, leases re-issued");
        }
        reap_children();
        if (!done_) handle_failed_shards(now);
    }

    if (proxy_) {
        proxy_->stop();
        stats_.net = proxy_->stats();
        log("net-fault proxy: " + std::to_string(stats_.net.frames_forwarded) + " forwarded, " +
            std::to_string(stats_.net.frames_dropped) + " dropped, " +
            std::to_string(stats_.net.frames_duplicated) + " duplicated, " +
            std::to_string(stats_.net.frames_corrupted) + " corrupted, " +
            std::to_string(stats_.net.partitions) + " partition(s)");
    }

    ServeResult result;
    result.reports = audit_->finalize();
    stats_.queue = queue_->stats();
    result.stats = stats_;
    log("audit finalized: " + std::to_string(result.reports.size()) + " reports, " +
        std::to_string(stats_.records_merged) + " records merged, " +
        std::to_string(stats_.duplicate_files_verified) + " duplicates verified");
    return result;
}

}  // namespace

ServeResult serve(const CoordConfig& config) {
    ignore_sigpipe();
    Server server(config);
    return server.run();
}

}  // namespace ff::coord
