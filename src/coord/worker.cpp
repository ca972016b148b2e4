#include "coord/worker.h"

#include <signal.h>
#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <new>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "coord/protocol.h"
#include "shard/records.h"
#include "shard/runner.h"

namespace ff::coord {

namespace {

namespace fs = std::filesystem;
using common::Json;

void sleep_ms(double ms) {
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

/// FNV-1a of the worker id, seeding the reconnect-jitter Rng.  Not
/// std::hash: that is implementation-defined, and the jitter schedule must
/// be a pure function of the worker id so a fault-injection run replays
/// the same delay sequence on every build.
std::uint64_t fnv1a(const std::string& s) {
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

/// Session id: stable across every reconnect of this worker lifetime,
/// unique across processes and across run_worker() calls in one process
/// (in-process test clusters).  The coordinator splices a reconnect with a
/// known session id back onto its parked leases.
std::string make_session(const std::string& id) {
    static std::atomic<int> seq{0};
    return id + "/" + std::to_string(::getpid()) + "." + std::to_string(seq.fetch_add(1));
}

/// Unrecoverable conditions (protocol mismatch, reconnect budget spent) —
/// everything else an inner-loop error just triggers a reconnect.
struct FatalError : common::Error {
    using common::Error::Error;
};

/// Sends heartbeats for one lease while the main thread executes the
/// shard.  The first beat goes out immediately — a long prepare phase must
/// not look like death — then one per interval.  The beat callback owns
/// delivery (including reconnecting a dead socket); when it reports the
/// connection unrecoverable the thread ends silently and the main thread
/// notices on its next frame.
class HeartbeatThread {
public:
    /// The beat callback receives the thread's stop flag so a reconnect in
    /// progress can abandon its backoff sleeps the moment stop() is called
    /// — joining this thread must never stall the main thread for a whole
    /// backoff schedule.
    HeartbeatThread(std::function<bool(const std::atomic<bool>&)> beat, double interval_ms,
                    bool enabled) {
        if (!enabled) return;
        thread_ = std::thread([this, beat = std::move(beat), interval_ms] {
            while (!stop_.load(std::memory_order_relaxed)) {
                if (!beat(stop_)) return;
                double slept = 0.0;
                while (slept < interval_ms && !stop_.load(std::memory_order_relaxed)) {
                    sleep_ms(20.0);
                    slept += 20.0;
                }
            }
        });
    }

    HeartbeatThread(const HeartbeatThread&) = delete;
    HeartbeatThread& operator=(const HeartbeatThread&) = delete;
    ~HeartbeatThread() { stop(); }

    void stop() {
        stop_.store(true, std::memory_order_relaxed);
        if (thread_.joinable()) thread_.join();
    }

private:
    std::atomic<bool> stop_{false};
    std::thread thread_;
};

/// Per-lease wall-clock watchdog.  The main thread calls reset() from the
/// runner's progress hook (one durable checkpoint = one reset); when the
/// gap since the last reset exceeds the budget the whole process dies
/// with kWorkerExitWatchdog via _Exit — no unwinding, exactly like an
/// external kill, so the record file keeps whatever was durable.  A
/// poison unit that spins forever keeps heartbeating (HeartbeatThread is
/// a separate thread) but stops resetting; only this catches it.
class Watchdog {
public:
    Watchdog(double budget_ms, const std::string& worker_id) {
        if (budget_ms <= 0.0) return;
        last_ms_.store(now_ms(), std::memory_order_relaxed);
        thread_ = std::thread([this, budget_ms, worker_id] {
            while (!stop_.load(std::memory_order_relaxed)) {
                sleep_ms(20.0);
                const std::int64_t idle = now_ms() - last_ms_.load(std::memory_order_relaxed);
                if (static_cast<double>(idle) > budget_ms) {
                    std::fprintf(stderr,
                                 "[worker %s] watchdog: no progress in %lld ms; exiting %d\n",
                                 worker_id.c_str(), static_cast<long long>(idle),
                                 kWorkerExitWatchdog);
                    std::_Exit(kWorkerExitWatchdog);
                }
            }
        });
    }

    Watchdog(const Watchdog&) = delete;
    Watchdog& operator=(const Watchdog&) = delete;
    ~Watchdog() { disarm(); }

    void reset() { last_ms_.store(now_ms(), std::memory_order_relaxed); }

    /// Stops the timer for good — called once the shard result is in, so
    /// slow coordinator replies are never mistaken for a stalled trial.
    void disarm() {
        stop_.store(true, std::memory_order_relaxed);
        if (thread_.joinable()) thread_.join();
    }

private:
    static std::int64_t now_ms() {
        return std::chrono::duration_cast<std::chrono::milliseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
            .count();
    }

    std::atomic<std::int64_t> last_ms_{0};
    std::atomic<bool> stop_{false};
    std::thread thread_;
};

/// The hog-memory fault: allocate and touch blocks until the process
/// ceiling pushes back.  Meant to run under --rlimit-as, where either the
/// new-handler (installed by run_worker) or the bad_alloc below ends the
/// process with kWorkerExitMemoryCap; without a cap it runs until the OS
/// kills it, which the coordinator survives as an ordinary crash.
[[noreturn]] void hog_memory() {
    std::vector<std::unique_ptr<char[]>> hoard;
    try {
        for (;;) {
            constexpr std::size_t kBlock = std::size_t(16) << 20;
            auto block = std::make_unique<char[]>(kBlock);
            std::memset(block.get(), 0x5a, kBlock);  // touch: address space AND memory
            hoard.push_back(std::move(block));
        }
    } catch (const std::bad_alloc&) {
    }
    std::_Exit(kWorkerExitMemoryCap);
}

class Worker {
public:
    explicit Worker(const WorkerConfig& config)
        : config_(config),
          id_(config.worker_id.empty() ? "pid" + std::to_string(::getpid())
                                       : config.worker_id),
          session_(make_session(id_)),
          rng_(common::splitmix64(fnv1a(id_))),
          fault_armed_(!config.fault.empty()) {}

    WorkerStats run();

private:
    enum class Outcome { Continue, Done, Abandon, Reconnect };

    void log(const std::string& line) const {
        if (config_.verbose) {
            std::fprintf(stderr, "[worker %s] %s\n", id_.c_str(), line.c_str());
        }
    }

    Endpoint endpoint() const {
        return config_.connect_address.empty() ? Endpoint::unix_path(config_.socket_path)
                                               : Endpoint::parse_tcp(config_.connect_address);
    }

    /// One dial + hello exchange.  Returns false on anything recoverable
    /// (unreachable, dropped hello, dead stream) so the backoff loop
    /// retries; throws FatalError on an explicit protocol refusal.
    /// Callers serialize via conn_mu_ whenever a heartbeat thread is alive.
    bool connect_once();
    /// connect_once under the backoff schedule.  Same serialization rule.
    bool reconnect(int max_attempts);
    /// One heartbeat delivery, reconnecting the session on a dead socket
    /// (HeartbeatThread's beat callback; `stop` aborts backoff sleeps).
    /// False = unrecoverable.
    bool send_heartbeat(int shard, int attempt, const std::atomic<bool>& stop);
    Json make_beat(int shard, int attempt) const;

    Outcome serve_leases();  ///< The request loop on one connection.
    Outcome execute_lease(Json grant);
    /// The completion handshake, resending across reconnects: the records
    /// are durable and duplicate completions byte-verify, so a dead socket
    /// must not forfeit a finished shard.
    Outcome report_complete(int shard, int attempt, std::int64_t units_run);
    void salvage(const shard::ShardManifest& manifest, const std::string& records_path,
                 const Json& candidates);

    WorkerConfig config_;
    std::string id_;
    std::string session_;
    common::Rng rng_;
    /// Guards conn_'s identity (replacement on reconnect) and rng_.  The
    /// beat thread holds it across its reconnects; the runner's progress
    /// hook only try_locks (a skipped progress beat is harmless).
    std::mutex conn_mu_;
    FramedConn conn_;
    double heartbeat_ms_ = 2500.0;
    std::atomic<std::int64_t> units_done_{0};  ///< Carried in heartbeats.
    bool fault_armed_;  ///< One-shot faults not yet fired.
    WorkerStats stats_;
};

bool Worker::connect_once() {
    int fd = connect_endpoint(endpoint());
    if (fd < 0) return false;
    FramedConn fresh(fd);
    Json hello = Json::object();
    hello["type"] = "hello";
    hello["worker"] = id_;
    hello["session"] = session_;
    hello["protocol"] = kProtocolVersion;
    try {
        fresh.write(hello);
        while (true) {
            ReadResult r = fresh.read(static_cast<int>(config_.reply_timeout_ms));
            if (r.status != ReadStatus::Ok) return false;
            const std::string& type = common::json_string(r.message, "type");
            if (type == "error") {
                throw FatalError("coordinator refused hello: " +
                                 common::json_string(r.message, "error"));
            }
            if (type != "welcome") continue;  // a stray duplicated reply; keep reading
            heartbeat_ms_ = common::json_double(r.message, "heartbeat_ms");
            if (r.message.contains("resumed") && common::json_bool(r.message, "resumed")) {
                log("session " + session_ + " resumed");
            }
            break;
        }
    } catch (const FatalError&) {
        throw;
    } catch (const common::Error&) {
        return false;
    }
    conn_ = std::move(fresh);
    log("connected to " + endpoint().describe());
    return true;
}

bool Worker::reconnect(int max_attempts) {
    conn_.close();
    return common::retry_with_backoff(
        max_attempts, config_.reconnect, rng_, [&] { return connect_once(); },
        [](double ms) { sleep_ms(ms); });
}

Json Worker::make_beat(int shard, int attempt) const {
    Json beat = Json::object();
    beat["type"] = "heartbeat";
    beat["shard"] = shard;
    beat["attempt"] = attempt;
    beat["units"] = units_done_.load(std::memory_order_relaxed);
    return beat;
}

bool Worker::send_heartbeat(int shard, int attempt, const std::atomic<bool>& stop) {
    std::lock_guard<std::mutex> lock(conn_mu_);
    try {
        conn_.write(make_beat(shard, attempt));
        return true;
    } catch (const common::Error&) {
    }
    // The socket died mid-lease (partition, coordinator blip, injected
    // disconnect).  Reconnect with the same session id and resume beating
    // the same attempt: the coordinator parked the lease on the drop and
    // splices this session back onto it, so the shard in progress is never
    // re-issued for a transport hiccup.  The stop flag short-circuits both
    // the attempts and the sleeps — once the lease is over, nobody needs
    // this connection enough to wait out a backoff schedule for it.
    conn_.close();
    bool ok = false;
    try {
        ok = common::retry_with_backoff(
            config_.max_connect_attempts, config_.reconnect, rng_,
            [&] {
                if (stop.load(std::memory_order_relaxed)) return true;  // abandon quietly
                return connect_once();
            },
            [&](double ms) {
                double slept = 0.0;
                while (slept < ms && !stop.load(std::memory_order_relaxed)) {
                    sleep_ms(std::min(20.0, ms - slept));
                    slept += 20.0;
                }
            });
    } catch (const FatalError&) {
        return false;  // refusal surfaces on the main thread's next frame
    }
    if (!ok || stop.load(std::memory_order_relaxed)) return false;
    ++stats_.reconnects;
    log("heartbeat reconnected (session " + session_ + ", shard " + std::to_string(shard) + ")");
    try {
        conn_.write(make_beat(shard, attempt));
        return true;
    } catch (const common::Error&) {
        return false;
    }
}

Worker::Outcome Worker::serve_leases() {
    while (true) {
        try {
            Json request = Json::object();
            request["type"] = "lease-request";
            conn_.write(request);
            // Read replies until one settles this request: a lease run to
            // its end, or a wait whose retry_ms passed without a `done`.
            bool waiting = false;
            double timeout_ms = config_.reply_timeout_ms;
            while (true) {
                ReadResult r = conn_.read(static_cast<int>(timeout_ms));
                if (r.status == ReadStatus::Timeout) {
                    if (waiting) break;  // the wait is over: re-request
                    throw common::Error("no reply from the coordinator");
                }
                if (r.status == ReadStatus::Closed) return Outcome::Reconnect;
                const std::string& type = common::json_string(r.message, "type");
                if (type == "done") return Outcome::Done;
                if (type == "wait") {
                    // Wait on the socket, not in a sleep: the coordinator
                    // pushes `done` to idle workers the moment the last
                    // shard lands, and that must end the wait at once.
                    waiting = true;
                    timeout_ms = common::json_double(r.message, "retry_ms");
                } else if (type == "lease") {
                    Outcome out = execute_lease(std::move(r.message));
                    if (out != Outcome::Continue) return out;
                    break;
                } else if (type == "error") {
                    throw FatalError("coordinator: " + common::json_string(r.message, "error"));
                } else {
                    // A duplicated request's extra reply, or a stale ack
                    // from before a resume: skip, never desynchronize.
                    log("ignoring stray '" + type + "' frame");
                }
            }
        } catch (const FatalError&) {
            throw;
        } catch (const common::Error& e) {
            log(std::string("connection trouble: ") + e.what());
            return Outcome::Reconnect;
        }
    }
}

Worker::Outcome Worker::execute_lease(Json grant) {
    int shard = static_cast<int>(common::json_int(grant, "shard"));
    int attempt = static_cast<int>(common::json_int(grant, "attempt"));
    shard::ShardManifest manifest = shard::ShardManifest::from_json(grant["manifest"]);
    const std::string records_path = common::json_string(grant, "records_path");
    heartbeat_ms_ = common::json_double(grant, "heartbeat_ms");
    units_done_.store(0, std::memory_order_relaxed);
    log("leased shard " + std::to_string(shard) + " attempt " + std::to_string(attempt) +
        " [" + std::to_string(manifest.unit_begin) + ", " + std::to_string(manifest.unit_end) +
        ")");

    if (fault_armed_ && config_.fault.delay_lease_ms > 0.0) {
        log("fault: delaying " + std::to_string(config_.fault.delay_lease_ms) + " ms");
        sleep_ms(config_.fault.delay_lease_ms);
    }

    salvage(manifest, records_path, grant["resume_candidates"]);

    Watchdog watchdog(config_.watchdog_ms, id_);

    shard::RunShardOptions options;
    options.num_threads = config_.num_threads;
    options.trial_chunk = config_.trial_chunk;
    options.resume = true;
    if (fault_armed_ && config_.fault.kill_after_units >= 0) {
        options.interrupt_after_units = config_.fault.kill_after_units;
    } else if (fault_armed_ && config_.fault.abandon_after_units >= 0) {
        options.interrupt_after_units = config_.fault.abandon_after_units;
    }
    // Each durable checkpoint resets the watchdog and doubles as a
    // heartbeat alongside the timer thread's beats.  The progress beat
    // only try_locks: if the beat thread holds the connection (possibly
    // mid-reconnect), skipping one is harmless.  Heartbeat write errors
    // are swallowed — the records are durable and duplicate completions
    // byte-verify, so the shard is worth finishing even on a dead socket.
    options.on_progress = [this, &watchdog, shard, attempt](std::int64_t units_done) {
        watchdog.reset();
        units_done_.store(units_done, std::memory_order_relaxed);
        if (fault_armed_ && config_.fault.hog_memory_after_units >= 0 &&
            units_done > config_.fault.hog_memory_after_units) {
            fault_armed_ = false;
            log("fault: hogging memory after " + std::to_string(units_done) + " units");
            hog_memory();  // never returns
        }
        if (fault_armed_ && config_.fault.spin_after_units >= 0 &&
            units_done > config_.fault.spin_after_units) {
            fault_armed_ = false;
            log("fault: spinning after " + std::to_string(units_done) + " units");
            // The HeartbeatThread keeps beating — from the lease queue's
            // seat this worker looks perfectly healthy.  Only the
            // wall-clock watchdog (or an external kill) ends this.
            for (;;) sleep_ms(50.0);
        }
        if (fault_armed_ && config_.fault.disconnect_after_units >= 0 &&
            units_done > config_.fault.disconnect_after_units) {
            fault_armed_ = false;
            log("fault: dropping the connection after " + std::to_string(units_done) +
                " units (still executing)");
            // The deterministic driver of session resume: the coordinator
            // sees EOF and parks the lease; the beat thread's next write
            // fails, reconnects with the same session, and resumes it.
            std::lock_guard<std::mutex> lock(conn_mu_);
            conn_.close();
            return;
        }
        if (config_.fault.drop_heartbeats) return;
        std::unique_lock<std::mutex> lock(conn_mu_, std::try_to_lock);
        if (!lock.owns_lock()) return;
        try {
            conn_.write(make_beat(shard, attempt));
        } catch (const common::Error&) {
        }
    };

    shard::RunShardResult result;
    {
        HeartbeatThread heartbeats(
            [this, shard, attempt](const std::atomic<bool>& stop) {
                return send_heartbeat(shard, attempt, stop);
            },
            heartbeat_ms_, !config_.fault.drop_heartbeats);
        try {
            result = shard::run_shard(manifest, records_path, options);
        } catch (const common::Error& e) {
            heartbeats.stop();
            watchdog.disarm();
            log("shard " + std::to_string(shard) + " failed: " + e.what());
            ++stats_.shards_failed;
            Json failed = Json::object();
            failed["type"] = "failed";
            failed["shard"] = shard;
            failed["attempt"] = attempt;
            failed["error"] = std::string(e.what());
            conn_.write(failed);
            while (true) {
                ReadResult r = conn_.read(static_cast<int>(config_.reply_timeout_ms));
                if (r.status != ReadStatus::Ok) return Outcome::Reconnect;
                const std::string& type = common::json_string(r.message, "type");
                if (type == "done") return Outcome::Done;
                if (type == "ack") return Outcome::Continue;
                log("ignoring stray '" + type + "' frame");
            }
        }
    }
    watchdog.disarm();

    if (!result.completed) {
        // The interrupt hook only fires for an armed kill/abandon fault.
        fault_armed_ = false;
        if (config_.fault.kill_after_units >= 0) {
            // A real mid-shard crash: the record file keeps its torn tail.
            ::raise(SIGKILL);
        }
        log("fault: abandoning shard " + std::to_string(shard) + " after " +
            std::to_string(result.units_run) + " units");
        conn_.close();
        return Outcome::Abandon;
    }
    fault_armed_ = false;
    return report_complete(shard, attempt, result.units_run);
}

Worker::Outcome Worker::report_complete(int shard, int attempt, std::int64_t units_run) {
    Json complete = Json::object();
    complete["type"] = "complete";
    complete["shard"] = shard;
    complete["attempt"] = attempt;
    // Up to three socket lifetimes: resending a completion is always safe
    // (the coordinator byte-verifies duplicates), while giving up hands a
    // finished shard back to the queue for a pointless re-execution.
    for (int round = 0; round < 3; ++round) {
        if (round > 0) {
            try {
                if (!reconnect(config_.max_connect_attempts)) return Outcome::Reconnect;
            } catch (const FatalError&) {
                throw;
            }
            ++stats_.reconnects;
            log("reconnected to resend completion of shard " + std::to_string(shard));
        }
        try {
            conn_.write(complete);
            while (true) {
                ReadResult r = conn_.read(static_cast<int>(config_.reply_timeout_ms));
                if (r.status != ReadStatus::Ok) break;  // reconnect + resend
                const std::string& type = common::json_string(r.message, "type");
                if (type == "done") return Outcome::Done;
                if (type == "reject") {
                    log("completion rejected: " + common::json_string(r.message, "error"));
                    ++stats_.shards_failed;
                    return Outcome::Continue;
                }
                if (type == "ack") {
                    ++stats_.shards_completed;
                    stats_.units_run += units_run;
                    log("shard " + std::to_string(shard) + " complete (" +
                        std::to_string(units_run) + " units this attempt)");
                    return common::json_bool(r.message, "done") ? Outcome::Done
                                                                : Outcome::Continue;
                }
                log("ignoring stray '" + type + "' frame");  // stale wait/lease/welcome
            }
        } catch (const common::Error& e) {
            log(std::string("completion handshake failed: ") + e.what());
        }
    }
    return Outcome::Reconnect;
}

void Worker::salvage(const shard::ShardManifest& manifest, const std::string& records_path,
                     const Json& candidates) {
    if (!candidates.is_array() || fs::exists(records_path)) return;
    const std::string want = manifest.to_json().dump();
    for (const Json& candidate : candidates.as_array()) {
        if (!candidate.is_string()) continue;
        const std::string& path = candidate.as_string();
        try {
            shard::ShardRecordFile file = shard::read_record_file(path);
            if (file.manifest.to_json().dump() != want) continue;
            if (file.checkpoint <= manifest.unit_begin) continue;  // nothing durable
            // Copy the durable prefix — safe even while the prior attempt
            // is still writing, because resume_offset never exceeds the
            // bytes that were fsync'd under its last checkpoint.
            std::ifstream in(path, std::ios::binary);
            std::string bytes((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
            bytes.resize(static_cast<std::size_t>(file.resume_offset));
            std::ofstream out(records_path, std::ios::binary | std::ios::trunc);
            out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
            out.close();
            if (!out) throw common::Error("cannot write " + records_path);
            ++stats_.salvages;
            log("salvaged " + std::to_string(file.checkpoint - manifest.unit_begin) +
                " units from " + path);
            return;
        } catch (const common::Error&) {
            continue;  // unreadable/foreign candidate; try the next
        }
    }
}

WorkerStats Worker::run() {
    bool first = true;
    while (true) {
        if (!reconnect(config_.max_connect_attempts)) {
            throw common::Error("worker " + id_ + ": coordinator unreachable at " +
                                endpoint().describe() + " after " +
                                std::to_string(config_.max_connect_attempts) + " attempts");
        }
        if (!first) ++stats_.reconnects;
        first = false;
        switch (serve_leases()) {
            case Outcome::Done:
                log("audit done; exiting");
                return stats_;
            case Outcome::Abandon:
                stats_.abandoned = true;
                return stats_;
            case Outcome::Reconnect:
                conn_.close();
                break;
            case Outcome::Continue:
                break;  // unreachable
        }
    }
}

}  // namespace

WorkerStats run_worker(const WorkerConfig& config) {
    ignore_sigpipe();
    if (config.rlimit_as_bytes > 0) {
        struct rlimit lim;
        lim.rlim_cur = static_cast<rlim_t>(config.rlimit_as_bytes);
        lim.rlim_max = static_cast<rlim_t>(config.rlimit_as_bytes);
        if (::setrlimit(RLIMIT_AS, &lim) != 0) {
            throw common::Error("worker: setrlimit(RLIMIT_AS, " +
                                std::to_string(config.rlimit_as_bytes) +
                                ") failed: " + std::strerror(errno));
        }
        // Under the cap, a failed allocation must kill ONLY this worker
        // with a distinguishable code — never unwind into a Crash verdict
        // that other runs (under other caps) would not reproduce.
        std::set_new_handler([] { std::_Exit(kWorkerExitMemoryCap); });
    }
    Worker worker(config);
    return worker.run();
}

}  // namespace ff::coord
