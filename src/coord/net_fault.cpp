#include "coord/net_fault.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/error.h"
#include "common/json.h"
#include "coord/fault.h"

namespace ff::coord {

namespace {

using SteadyClock = std::chrono::steady_clock;

std::int64_t steady_now_ms() {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               SteadyClock::now().time_since_epoch())
        .count();
}

std::uint32_t get_u32_be(const char* in) {
    return (static_cast<std::uint32_t>(static_cast<unsigned char>(in[0])) << 24) |
           (static_cast<std::uint32_t>(static_cast<unsigned char>(in[1])) << 16) |
           (static_cast<std::uint32_t>(static_cast<unsigned char>(in[2])) << 8) |
           static_cast<std::uint32_t>(static_cast<unsigned char>(in[3]));
}

/// Reads whole raw frames (header + payload, undecoded) off a socket.
/// The proxy delimits frames without validating them — corrupt bytes must
/// pass through so the *receiver's* CRC check is what classifies them.
struct RawFrameReader {
    int fd;
    std::string buf;

    /// Returns false on EOF, a stream error, or an un-delimitable stream
    /// (oversized length prefix — without a trustable length the proxy can
    /// only hang up, which is also what a real middlebox would do).
    bool next(std::string& frame) {
        while (true) {
            if (buf.size() >= kFrameHeaderBytes) {
                const std::uint32_t len = get_u32_be(buf.data());
                if (len > kMaxFrameBytes) return false;
                const std::size_t total = kFrameHeaderBytes + len;
                if (buf.size() >= total) {
                    frame = buf.substr(0, total);
                    buf.erase(0, total);
                    return true;
                }
            }
            char chunk[4096];
            const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
            if (n < 0) {
                if (errno == EINTR) continue;
                return false;
            }
            if (n == 0) return false;
            buf.append(chunk, static_cast<std::size_t>(n));
        }
    }
};

bool send_all(int fd, const std::string& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
        const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR) continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

}  // namespace

NetFaultPlan NetFaultPlan::parse(const std::string& spec) {
    NetFaultPlan plan;
    parse_fault_spec("net fault plan", spec,
                     {{"drop-frame-every-n", &plan.drop_frame_every_n},
                      {"delay-frame-ms", &plan.delay_frame_ms},
                      {"duplicate-frame", &plan.duplicate_frame_every_n},
                      {"corrupt-frame-byte", &plan.corrupt_frame_byte},
                      {"partition-after-units", &plan.partition_after_units},
                      {"heal-ms", &plan.heal_ms}});
    if (plan.drop_frame_every_n == 1) {
        throw common::Error(
            "net fault plan: drop-frame-every-n=1 would drop every hello and "
            "wedge the handshake forever; use n >= 2");
    }
    return plan;
}

/// One relayed connection: the accepted worker socket and the upstream
/// coordinator socket it maps to.  Severing uses shutdown() so fds stay
/// valid for the pump threads still blocked on them; close() happens once,
/// at destruction.
struct FrameProxy::Conn {
    int client_fd = -1;
    int upstream_fd = -1;

    void sever() {
        ::shutdown(client_fd, SHUT_RDWR);
        ::shutdown(upstream_fd, SHUT_RDWR);
    }
    ~Conn() {
        if (client_fd >= 0) ::close(client_fd);
        if (upstream_fd >= 0) ::close(upstream_fd);
    }
};

FrameProxy::FrameProxy(Endpoint listen, Endpoint upstream, NetFaultPlan plan)
    : listen_(std::move(listen)), upstream_(std::move(upstream)), plan_(plan) {
    int bound_port = 0;
    listen_fd_ = coord::listen_endpoint(listen_, /*backlog=*/64, &bound_port);
    if (listen_.tcp) listen_.port = bound_port;
    accept_thread_ = std::thread([this] { accept_loop(); });
}

FrameProxy::~FrameProxy() { stop(); }

bool FrameProxy::partitioned_now() {
    const std::int64_t until = partition_until_ms_.load();
    return until != 0 && steady_now_ms() < until;
}

void FrameProxy::fire_partition() {
    partition_until_ms_.store(steady_now_ms() +
                              static_cast<std::int64_t>(plan_.heal_ms));
    {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.partitions;
    }
    sever_all();
}

void FrameProxy::sever_all() {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& conn : conns_) conn->sever();
}

void FrameProxy::accept_loop() {
    while (!stopping_.load()) {
        pollfd pfd{listen_fd_, POLLIN, 0};
        const int pr = ::poll(&pfd, 1, 100);
        if (pr < 0) {
            if (errno == EINTR) continue;
            break;
        }
        if (pr == 0) continue;
        const int client = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
        if (client < 0) {
            if (errno == EINTR) continue;
            if (stopping_.load()) break;
            continue;
        }
        if (stopping_.load()) {
            ::close(client);
            break;
        }
        if (partitioned_now()) {
            // A partitioned network: the TCP handshake may complete in the
            // kernel, but the peer goes silent and the connection dies.
            ::close(client);
            continue;
        }
        const int up = connect_endpoint(upstream_);
        if (up < 0) {
            ::close(client);
            continue;
        }
        auto conn = std::make_shared<Conn>();
        conn->client_fd = client;
        conn->upstream_fd = up;
        std::lock_guard<std::mutex> lock(mu_);
        if (stopping_.load()) {
            // stop() already severed everything it knew about.
            conn->sever();
            continue;
        }
        conns_.push_back(conn);
        threads_.emplace_back([this, conn] { pump(conn, /*upstream_direction=*/true); });
        threads_.emplace_back([this, conn] { pump(conn, /*upstream_direction=*/false); });
    }
}

void FrameProxy::pump(std::shared_ptr<Conn> conn, bool upstream_direction) {
    RawFrameReader reader{upstream_direction ? conn->client_fd : conn->upstream_fd, {}};
    const int dst = upstream_direction ? conn->upstream_fd : conn->client_fd;
    std::string frame;
    while (reader.next(frame)) {
        if (plan_.delay_frame_ms > 0.0) {
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(plan_.delay_frame_ms));
        }
        if (!upstream_direction) {
            if (!send_all(dst, frame)) break;
            continue;
        }
        // Fault positions count worker->coordinator frames across ALL
        // connections: a small fleet whose workers each exchange only a
        // handful of frames per connection (and reconnect after the
        // partition, resetting any per-connection count) would otherwise
        // never reach an every-Nth trigger.
        const std::int64_t seen = ++forwarded_total_;

        // Partition trigger: peek into heartbeats for their progress
        // counter.  Only heartbeats are decoded, and only while armed.
        if (plan_.partition_after_units >= 0 && partition_armed_.load() &&
            frame.find("\"type\":\"heartbeat\"") != std::string::npos) {
            try {
                common::Json j = common::Json::parse(frame.substr(kFrameHeaderBytes));
                if (common::json_int(j, "units") >= plan_.partition_after_units &&
                    partition_armed_.exchange(false)) {
                    fire_partition();
                    break;  // this connection is severed with the rest
                }
            } catch (const common::Error&) {
                // Undecodable (possibly corrupted upstream of us): pass on.
            }
        }

        if (plan_.drop_frame_every_n > 0 && seen % plan_.drop_frame_every_n == 0) {
            std::lock_guard<std::mutex> lock(stats_mu_);
            ++stats_.frames_dropped;
            continue;
        }
        if (plan_.corrupt_frame_byte > 0 && seen >= plan_.corrupt_frame_byte &&
            !corrupted_once_.exchange(true) && frame.size() > kFrameHeaderBytes) {
            frame.back() = static_cast<char>(frame.back() ^ 0x5a);
            std::lock_guard<std::mutex> lock(stats_mu_);
            ++stats_.frames_corrupted;
        }
        const bool duplicate = plan_.duplicate_frame_every_n > 0 &&
                               seen % plan_.duplicate_frame_every_n == 0;
        if (!send_all(dst, frame)) break;
        {
            std::lock_guard<std::mutex> lock(stats_mu_);
            ++stats_.frames_forwarded;
        }
        if (duplicate) {
            if (!send_all(dst, frame)) break;
            std::lock_guard<std::mutex> lock(stats_mu_);
            ++stats_.frames_duplicated;
        }
    }
    conn->sever();
}

void FrameProxy::stop() {
    if (stopping_.exchange(true)) return;
    if (listen_fd_ >= 0) {
        ::shutdown(listen_fd_, SHUT_RDWR);  // unblocks accept on some kernels
        ::close(listen_fd_);
    }
    sever_all();
    if (accept_thread_.joinable()) accept_thread_.join();
    std::vector<std::thread> threads;
    {
        std::lock_guard<std::mutex> lock(mu_);
        threads.swap(threads_);
    }
    for (std::thread& t : threads) {
        if (t.joinable()) t.join();
    }
    std::lock_guard<std::mutex> lock(mu_);
    conns_.clear();
    listen_fd_ = -1;
}

NetFaultStats FrameProxy::stats() const {
    std::lock_guard<std::mutex> lock(stats_mu_);
    return stats_;
}

}  // namespace ff::coord
