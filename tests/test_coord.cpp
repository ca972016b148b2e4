// The fault-tolerant coordinator (src/coord): lease state-machine unit
// tests driven by a fake clock (expiry, backoff, retry caps, zombie
// completion), wire-framing round trips, fault-plan parsing, a worker
// against a scripted fake coordinator, and the end-to-end acceptance bar — a coordinator plus in-
// process worker threads, with one worker crashing mid-shard and one
// stalling past its lease, finishes the audit with a report byte-identical
// to the single-process Fuzzer::audit at worker counts {1, 2, 4}
// (docs/ARCHITECTURE.md "Coordinator") — plus the poison-unit quarantine
// path: a permanently failed shard is salvaged, its blamed unit re-run
// in-process under tightened budgets, and the remainder split and re-issued.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/checksum.h"
#include "common/error.h"
#include "common/rng.h"
#include "coord/coordinator.h"
#include "coord/fault.h"
#include "coord/net_fault.h"
#include "coord/protocol.h"
#include "coord/queue.h"
#include "coord/worker.h"
#include "core/fuzzer.h"
#include "shard/manifest.h"
#include "shard/merger.h"
#include "workloads/npbench.h"

namespace ff {
namespace {

namespace fs = std::filesystem;

/// Fresh empty scratch directory under the gtest temp root.
std::string scratch_dir(const std::string& name) {
    const std::string path = ::testing::TempDir() + "ff_coord_" + name;
    fs::remove_all(path);
    fs::create_directories(path);
    return path;
}

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << path;
    return std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

/// filename -> bytes of every regular file in `dir`.
std::map<std::string, std::string> dir_contents(const std::string& dir) {
    std::map<std::string, std::string> out;
    if (!fs::exists(dir)) return out;
    for (const auto& entry : fs::directory_iterator(dir))
        if (entry.is_regular_file())
            out[entry.path().filename().string()] = read_file(entry.path().string());
    return out;
}

shard::JobSpec gemm_job(int trials = 8) {
    shard::JobSpec job;
    job.workload = "gemm";
    job.passes = "table2";
    job.max_trials = trials;
    job.size_max = 5;
    job.max_state_transitions = 2000;
    job.defaults = workloads::npbench_defaults();
    return job;
}

// --- FaultPlan ---------------------------------------------------------------

TEST(FaultPlan, ParsesSpecsAndRejectsNonsense) {
    coord::FaultPlan none = coord::FaultPlan::parse("");
    EXPECT_TRUE(none.empty());

    coord::FaultPlan plan = coord::FaultPlan::parse("kill-after-units=3,drop-heartbeats");
    EXPECT_EQ(plan.kill_after_units, 3);
    EXPECT_TRUE(plan.drop_heartbeats);
    EXPECT_FALSE(plan.empty());

    coord::FaultPlan stall = coord::FaultPlan::parse("delay-lease-ms=500");
    EXPECT_DOUBLE_EQ(stall.delay_lease_ms, 500.0);
    EXPECT_EQ(coord::FaultPlan::parse("abandon-after-units=2").abandon_after_units, 2);

    // The poison-unit faults: the worker keeps heartbeating but stops making
    // durable progress (spin) or allocates without bound (hog).
    coord::FaultPlan poison =
        coord::FaultPlan::parse("spin-after-units=2,hog-memory-after-units=5");
    EXPECT_EQ(poison.spin_after_units, 2);
    EXPECT_EQ(poison.hog_memory_after_units, 5);
    EXPECT_FALSE(poison.empty());

    EXPECT_THROW(coord::FaultPlan::parse("explode"), common::Error);
    EXPECT_THROW(coord::FaultPlan::parse("kill-after-units=soon"), common::Error);
    EXPECT_THROW(coord::FaultPlan::parse("drop-heartbeats=yes"), common::Error);
    EXPECT_THROW(coord::FaultPlan::parse("spin-after-units=never"), common::Error);
    EXPECT_THROW(coord::FaultPlan::parse("delay-lease-ms"), common::Error);

    // The unknown-key error lists every key of the grammar.
    try {
        coord::FaultPlan::parse("kill-after-units=1,,explode");
        FAIL() << "expected common::Error";
    } catch (const common::Error& e) {
        EXPECT_NE(std::string(e.what()).find("fault plan: unknown token 'explode'"),
                  std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("delay-lease-ms=N or drop-heartbeats)"),
                  std::string::npos)
            << e.what();
    }
}

// --- Frame codec -------------------------------------------------------------

/// Appends a u32 big-endian.
void push_u32(std::string& wire, std::uint32_t v) {
    wire.push_back(static_cast<char>((v >> 24) & 0xff));
    wire.push_back(static_cast<char>((v >> 16) & 0xff));
    wire.push_back(static_cast<char>((v >> 8) & 0xff));
    wire.push_back(static_cast<char>(v & 0xff));
}

/// Hand-rolls one v2 frame (length, version byte, payload CRC32C, payload)
/// — an encoder independent of write_frame, so the tests check the layout
/// and not just round-trip consistency.
std::string raw_frame(const std::string& payload, int version) {
    std::string wire;
    push_u32(wire, static_cast<std::uint32_t>(payload.size()));
    wire.push_back(static_cast<char>(version));
    push_u32(wire, common::crc32c(payload));
    wire += payload;
    return wire;
}

std::string frame_bytes(const common::Json& message) {
    return raw_frame(message.dump(), coord::kProtocolVersion);
}

/// The classified kind a decode is expected to fail with.
void expect_frame_error(const std::string& wire, coord::FrameError::Kind kind) {
    coord::FrameBuffer buf;
    buf.append(wire.data(), wire.size());
    try {
        buf.next();
        FAIL() << "expected a FrameError";
    } catch (const coord::FrameError& e) {
        EXPECT_EQ(static_cast<int>(e.kind()), static_cast<int>(kind)) << e.what();
    }
}

TEST(FrameBuffer, ReassemblesArbitrarySplitsAndGluedFrames) {
    common::Json a = common::Json::object();
    a["type"] = "hello";
    a["worker"] = "w0";
    common::Json b = common::Json::object();
    b["type"] = "lease-request";
    const std::string wire = frame_bytes(a) + frame_bytes(b);

    // Feed one byte at a time: frames must pop out exactly at their ends.
    coord::FrameBuffer buf;
    std::vector<common::Json> got;
    for (char c : wire) {
        buf.append(&c, 1);
        while (auto frame = buf.next()) got.push_back(std::move(*frame));
    }
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0].dump(), a.dump());
    EXPECT_EQ(got[1].dump(), b.dump());

    // All at once.
    coord::FrameBuffer glued;
    glued.append(wire.data(), wire.size());
    EXPECT_EQ(glued.next()->dump(), a.dump());
    EXPECT_EQ(glued.next()->dump(), b.dump());
    EXPECT_FALSE(glued.next().has_value());
}

TEST(FrameBuffer, RejectsOversizedFrames) {
    coord::FrameBuffer buf;
    const char huge[4] = {0x7f, 0x00, 0x00, 0x00};  // ~2 GiB length prefix
    buf.append(huge, 4);
    EXPECT_THROW(buf.next(), common::Error);
    expect_frame_error(std::string(huge, 4) + std::string(16, '\0'),
                       coord::FrameError::Kind::Oversized);
}

TEST(FrameBuffer, ClassifiesVersionChecksumAndPayloadFailures) {
    common::Json a = common::Json::object();
    a["type"] = "hello";
    a["worker"] = "w0";

    // A flipped payload bit fails the CRC, whether or not the JSON survives.
    std::string flipped = frame_bytes(a);
    flipped[flipped.size() - 3] ^= 0x20;
    expect_frame_error(flipped, coord::FrameError::Kind::BadChecksum);

    // So does a flipped bit in the CRC field itself.
    std::string bad_crc = frame_bytes(a);
    bad_crc[5] ^= 0x01;
    expect_frame_error(bad_crc, coord::FrameError::Kind::BadChecksum);

    // A peer speaking another version is a clean handshake error...
    expect_frame_error(raw_frame(a.dump(), coord::kProtocolVersion + 1),
                       coord::FrameError::Kind::BadVersion);
    // ...including a v1 peer, whose first payload byte '{' lands exactly
    // where v2 expects the version byte.
    std::string v1;
    push_u32(v1, static_cast<std::uint32_t>(a.dump().size()));
    v1 += a.dump();
    expect_frame_error(v1, coord::FrameError::Kind::BadVersion);

    // Checksum-valid bytes that are not JSON: the frame itself is intact,
    // the payload is the problem.
    expect_frame_error(raw_frame("not json", coord::kProtocolVersion),
                       coord::FrameError::Kind::BadPayload);
}

// The property behind "a hostile or flaky wire can never wedge or crash
// the coordinator": ANY byte-level mutation of a recorded frame stream —
// bit flips, truncations, duplicated slices — decodes to some prefix of
// valid frames followed by (at most) one classified FrameError or a
// need-more-bytes state.  Nothing else can escape the decoder.
TEST(FrameBuffer, PropertyRandomStreamMutationsAlwaysClassify) {
    common::Json a = common::Json::object();
    a["type"] = "hello";
    a["worker"] = "w0";
    a["session"] = "w0/123.0";
    common::Json b = common::Json::object();
    b["type"] = "heartbeat";
    b["shard"] = 3;
    b["units"] = 17;
    common::Json c = common::Json::object();
    c["type"] = "complete";
    c["attempt"] = 1;
    const std::vector<std::string> dumps = {a.dump(), b.dump(), c.dump()};
    const std::string clean = frame_bytes(a) + frame_bytes(b) + frame_bytes(c);

    common::Rng rng(20260809);
    for (int iter = 0; iter < 2000; ++iter) {
        std::string wire = clean;
        switch (rng.uniform_int(0, 2)) {
            case 0: {  // flip one random bit
                const auto at = static_cast<std::size_t>(
                    rng.uniform_int(0, static_cast<std::int64_t>(wire.size()) - 1));
                wire[at] ^= static_cast<char>(1 << rng.uniform_int(0, 7));
                break;
            }
            case 1: {  // truncate at a random point (torn stream)
                wire.resize(static_cast<std::size_t>(
                    rng.uniform_int(0, static_cast<std::int64_t>(wire.size()) - 1)));
                break;
            }
            default: {  // duplicate a random slice in place
                const auto at = static_cast<std::size_t>(
                    rng.uniform_int(0, static_cast<std::int64_t>(wire.size()) - 1));
                const auto len = static_cast<std::size_t>(
                    rng.uniform_int(1, static_cast<std::int64_t>(wire.size() - at)));
                wire.insert(at, wire.substr(at, len));
                break;
            }
        }

        coord::FrameBuffer buf;
        std::size_t pos = 0;
        int decoded = 0;
        bool errored = false;
        try {
            while (pos < wire.size()) {  // feed in random-sized chunks
                const auto chunk = static_cast<std::size_t>(rng.uniform_int(
                    1, std::min<std::int64_t>(9, static_cast<std::int64_t>(wire.size() - pos))));
                buf.append(wire.data() + pos, chunk);
                pos += chunk;
                while (auto frame = buf.next()) {
                    // Whatever survives the CRC is one of the real frames
                    // (possibly a duplicated one), never reassembled garbage.
                    const std::string dump = frame->dump();
                    EXPECT_NE(std::find(dumps.begin(), dumps.end(), dump), dumps.end())
                        << "iter " << iter << " decoded a frame nobody sent: " << dump;
                    ++decoded;
                    ASSERT_LE(decoded, 7) << "iter " << iter << ": runaway decode";
                }
            }
        } catch (const coord::FrameError&) {
            errored = true;  // classified — the receiver drops the connection
        }
        // No other exception type may escape (anything else would fail the
        // test), and the loop above terminates by construction: never UB,
        // never a wedge.
        (void)errored;
    }
}

// --- NetFaultPlan ------------------------------------------------------------

TEST(NetFaultPlan, ParsesSpecsAndRejectsNonsense) {
    coord::NetFaultPlan none = coord::NetFaultPlan::parse("");
    EXPECT_TRUE(none.empty());

    coord::NetFaultPlan plan = coord::NetFaultPlan::parse(
        "drop-frame-every-n=7,delay-frame-ms=5,duplicate-frame=4,"
        "corrupt-frame-byte=9,partition-after-units=3,heal-ms=250");
    EXPECT_EQ(plan.drop_frame_every_n, 7);
    EXPECT_DOUBLE_EQ(plan.delay_frame_ms, 5.0);
    EXPECT_EQ(plan.duplicate_frame_every_n, 4);
    EXPECT_EQ(plan.corrupt_frame_byte, 9);
    EXPECT_EQ(plan.partition_after_units, 3);
    EXPECT_DOUBLE_EQ(plan.heal_ms, 250.0);
    EXPECT_FALSE(plan.empty());

    // drop-frame-every-n=1 would drop every hello and wedge the handshake.
    EXPECT_THROW(coord::NetFaultPlan::parse("drop-frame-every-n=1"), common::Error);
    EXPECT_THROW(coord::NetFaultPlan::parse("sever-the-cable"), common::Error);
    EXPECT_THROW(coord::NetFaultPlan::parse("delay-frame-ms=soon"), common::Error);
}

// --- Endpoint ----------------------------------------------------------------

TEST(Endpoint, ParsesTcpAddressesAndRejectsMalformedOnes) {
    const coord::Endpoint ep = coord::Endpoint::parse_tcp("127.0.0.1:7643");
    EXPECT_TRUE(ep.tcp);
    EXPECT_EQ(ep.host, "127.0.0.1");
    EXPECT_EQ(ep.port, 7643);
    EXPECT_EQ(ep.describe(), "127.0.0.1:7643");

    EXPECT_EQ(coord::Endpoint::parse_tcp(":7643").host, "");  // all interfaces
    EXPECT_EQ(coord::Endpoint::parse_tcp("audit-box:0").port, 0);

    EXPECT_THROW(coord::Endpoint::parse_tcp("no-port-here"), common::Error);
    EXPECT_THROW(coord::Endpoint::parse_tcp("host:"), common::Error);
    EXPECT_THROW(coord::Endpoint::parse_tcp("host:unreal"), common::Error);
    EXPECT_THROW(coord::Endpoint::parse_tcp("host:70000"), common::Error);

    const coord::Endpoint unix_ep = coord::Endpoint::unix_path("/tmp/x.sock");
    EXPECT_FALSE(unix_ep.tcp);
    EXPECT_EQ(unix_ep.describe(), "/tmp/x.sock");
}

// --- LeaseQueue (fake clock) -------------------------------------------------

coord::TimePoint at_ms(double ms) {
    return coord::TimePoint{} +
           std::chrono::duration_cast<coord::TimePoint::duration>(
               std::chrono::duration<double, std::milli>(ms));
}

/// Two trivial manifests (the queue never looks inside them).
std::vector<shard::ShardManifest> toy_shards(int count, std::int64_t units_each = 4) {
    std::vector<shard::ShardManifest> shards;
    for (int i = 0; i < count; ++i) {
        shard::ShardManifest m;
        m.job = gemm_job(4);
        m.shard_index = i;
        m.shard_count = count;
        m.unit_begin = i * units_each;
        m.unit_end = (i + 1) * units_each;
        m.instance_count = count;
        shards.push_back(m);
    }
    return shards;
}

coord::LeaseConfig toy_lease() {
    coord::LeaseConfig lease;
    lease.lease_ms = 1000.0;
    lease.max_failures = 3;
    lease.backoff = {100.0, 2.0, 1000.0, 0.0};  // jitter off: exact delays
    return lease;
}

TEST(LeaseQueue, GrantsShardsInOrderThenRunsDry) {
    coord::LeaseQueue queue(toy_shards(2), toy_lease());
    auto l0 = queue.acquire("a", at_ms(0));
    auto l1 = queue.acquire("b", at_ms(0));
    ASSERT_TRUE(l0 && l1);
    EXPECT_EQ(l0->shard, 0);
    EXPECT_EQ(l0->attempt, 0);
    EXPECT_EQ(l1->shard, 1);
    // Both shards are out: nothing is grantable.
    EXPECT_FALSE(queue.acquire("c", at_ms(0)).has_value());
    EXPECT_EQ(queue.stats().granted, 2);
}

TEST(LeaseQueue, ExpiryRequeuesBehindBackoffAndHeartbeatPrevents) {
    coord::LeaseQueue queue(toy_shards(1), toy_lease());
    ASSERT_TRUE(queue.acquire("a", at_ms(0)));

    // A heartbeat at 900 pushes the deadline to 1900.
    EXPECT_TRUE(queue.heartbeat(0, 0, at_ms(900)));
    EXPECT_TRUE(queue.expire(at_ms(1500)).empty());

    auto lost = queue.expire(at_ms(1901));
    ASSERT_EQ(lost.size(), 1u);
    EXPECT_EQ(lost[0].shard, 0);
    EXPECT_EQ(lost[0].worker, "a");
    EXPECT_EQ(queue.state(0), coord::ShardState::Pending);
    EXPECT_EQ(queue.stats().expirations, 1);
    EXPECT_EQ(queue.stats().requeues, 1);

    // The re-issue waits out the first backoff delay (100 ms, no jitter).
    EXPECT_FALSE(queue.acquire("b", at_ms(1950)).has_value());
    auto next = queue.next_event_ms(at_ms(1950));
    ASSERT_TRUE(next.has_value());
    EXPECT_NEAR(*next, 51.0, 1.5);
    auto retry = queue.acquire("b", at_ms(2002));
    ASSERT_TRUE(retry.has_value());
    EXPECT_EQ(retry->attempt, 1);

    // Heartbeats from the expired attempt are stale no-ops.
    EXPECT_FALSE(queue.heartbeat(0, 0, at_ms(2005)));
}

TEST(LeaseQueue, RetryCapFailsShardAndLateCompletionRescuesIt) {
    coord::LeaseConfig lease = toy_lease();
    lease.max_failures = 2;
    coord::LeaseQueue queue(toy_shards(1), lease);

    ASSERT_TRUE(queue.acquire("a", at_ms(0)));
    ASSERT_EQ(queue.expire(at_ms(1001)).size(), 1u);
    ASSERT_TRUE(queue.acquire("a", at_ms(1200)));
    ASSERT_EQ(queue.expire(at_ms(2500)).size(), 1u);

    EXPECT_EQ(queue.state(0), coord::ShardState::Failed);
    EXPECT_EQ(queue.stats().shards_failed, 1);
    EXPECT_FALSE(queue.acquire("b", at_ms(3000)).has_value());
    EXPECT_FALSE(queue.all_done());

    // A zombie attempt finishing anyway still rescues the shard.
    EXPECT_TRUE(queue.complete(0, 1));
    EXPECT_EQ(queue.state(0), coord::ShardState::Done);
    EXPECT_EQ(queue.stats().shards_failed, 0);
    EXPECT_TRUE(queue.all_done());
}

TEST(LeaseQueue, WorkerLossRequeuesItsLeasesImmediately) {
    coord::LeaseQueue queue(toy_shards(2), toy_lease());
    ASSERT_TRUE(queue.acquire("a", at_ms(0)));
    ASSERT_TRUE(queue.acquire("b", at_ms(0)));

    auto lost = queue.worker_lost("a", at_ms(100));
    ASSERT_EQ(lost.size(), 1u);
    EXPECT_EQ(lost[0].shard, 0);
    EXPECT_EQ(queue.state(0), coord::ShardState::Pending);
    EXPECT_EQ(queue.state(1), coord::ShardState::Leased);
    EXPECT_NE(queue.last_error(0).find("disconnected"), std::string::npos);
}

TEST(LeaseQueue, ReportedFailureRequeuesWithTheError) {
    coord::LeaseQueue queue(toy_shards(1), toy_lease());
    ASSERT_TRUE(queue.acquire("a", at_ms(0)));
    queue.fail(0, 0, at_ms(50), "interpreter budget exceeded");
    EXPECT_EQ(queue.state(0), coord::ShardState::Pending);
    EXPECT_EQ(queue.stats().worker_failures, 1);
    EXPECT_EQ(queue.last_error(0), "interpreter budget exceeded");
    // Stale failure reports (unknown attempt) are ignored.
    queue.fail(0, 7, at_ms(60), "ghost");
    EXPECT_EQ(queue.stats().worker_failures, 1);
}

TEST(LeaseQueue, LeasedShardIsNotGrantableBeforeItExpires) {
    coord::LeaseQueue queue(toy_shards(1), toy_lease());
    ASSERT_TRUE(queue.acquire("slow", at_ms(0)));

    // However long the attempt runs, a second worker gets nothing until
    // expire() drops it: one outstanding attempt per shard.
    EXPECT_FALSE(queue.acquire("idle", at_ms(999)).has_value());
    EXPECT_FALSE(queue.acquire("idle", at_ms(60000)).has_value());
    EXPECT_EQ(queue.active_attempts(), 1);
    EXPECT_EQ(queue.stats().granted, 1);

    ASSERT_EQ(queue.expire(at_ms(60000)).size(), 1u);
    EXPECT_FALSE(queue.acquire("idle", at_ms(60050)).has_value());  // backoff gate
    auto retry = queue.acquire("idle", at_ms(60101));
    ASSERT_TRUE(retry.has_value());
    EXPECT_EQ(retry->attempt, 1);
}

TEST(LeaseQueue, ZombieCompletionAfterReissueIsADuplicate) {
    coord::LeaseQueue queue(toy_shards(1), toy_lease());
    ASSERT_TRUE(queue.acquire("zombie", at_ms(0)));

    // Attempt 0 misses its deadline; attempt 1 is granted after backoff.
    ASSERT_EQ(queue.expire(at_ms(1001)).size(), 1u);
    auto reissue = queue.acquire("fresh", at_ms(1102));
    ASSERT_TRUE(reissue.has_value());
    EXPECT_EQ(reissue->attempt, 1);
    EXPECT_EQ(queue.active_attempts(), 1);

    // The re-issue completes first; the zombie's late completion is a
    // duplicate for the caller to byte-verify.
    EXPECT_TRUE(queue.complete(0, 1));
    EXPECT_FALSE(queue.complete(0, 0));
    EXPECT_EQ(queue.stats().completions, 1);
    EXPECT_EQ(queue.stats().duplicate_completions, 1);
    EXPECT_TRUE(queue.all_done());
    EXPECT_EQ(queue.active_attempts(), 0);
}

TEST(LeaseQueue, AddShardMidRunStartsCleanAndGrantable) {
    coord::LeaseConfig lease = toy_lease();
    lease.max_failures = 1;
    coord::LeaseQueue queue(toy_shards(1), lease);
    ASSERT_TRUE(queue.acquire("a", at_ms(0)));
    ASSERT_EQ(queue.expire(at_ms(1001)).size(), 1u);
    ASSERT_EQ(queue.state(0), coord::ShardState::Failed);

    // The quarantine path resolves the failed shard (complete is accepted in
    // any state) and re-issues its remainder as a fresh shard.
    EXPECT_TRUE(queue.complete(0, 0));
    EXPECT_EQ(queue.stats().shards_failed, 0);
    shard::ShardManifest sub = toy_shards(1)[0];
    sub.unit_begin = 2;
    sub.unit_end = 4;
    const int idx = queue.add_shard(sub);
    EXPECT_EQ(idx, 1);
    EXPECT_EQ(queue.shard_count(), 2);
    EXPECT_FALSE(queue.all_done());
    EXPECT_EQ(queue.state(idx), coord::ShardState::Pending);

    // Immediately grantable: clean failure count, no backoff gate, and the
    // manifest carried through verbatim.
    auto retry = queue.acquire("b", at_ms(1002));
    ASSERT_TRUE(retry.has_value());
    EXPECT_EQ(retry->shard, idx);
    EXPECT_EQ(retry->attempt, 0);
    EXPECT_EQ(retry->manifest.unit_begin, 2);
    EXPECT_EQ(retry->manifest.unit_end, 4);
    EXPECT_TRUE(queue.complete(idx, 0));
    EXPECT_TRUE(queue.all_done());
}

TEST(LeaseQueue, NextEventTracksDeadlinesAndBackoffGates) {
    coord::LeaseQueue queue(toy_shards(1), toy_lease());
    // Fresh pending shard: nothing scheduled, the caller polls at its pace.
    EXPECT_FALSE(queue.next_event_ms(at_ms(0)).has_value());
    ASSERT_TRUE(queue.acquire("a", at_ms(0)));
    // Next event is the lease deadline (1000).
    auto next = queue.next_event_ms(at_ms(400));
    ASSERT_TRUE(next.has_value());
    EXPECT_NEAR(*next, 600.0, 1.5);
}

// --- Worker against a scripted fake coordinator ---------------------------

TEST(Worker, DonePushEndsAWaitEarly) {
    const std::string dir = scratch_dir("wait_done");
    const coord::Endpoint ep = coord::Endpoint::unix_path(dir + "/fake.sock");
    const int listen_fd = coord::listen_endpoint(ep, 1);

    // The fake coordinator answers the lease request with a minute-long
    // wait, then pushes `done` while the worker is still waiting.
    std::thread fake([listen_fd] {
        const int fd = ::accept(listen_fd, nullptr, nullptr);
        ASSERT_GE(fd, 0);
        coord::FramedConn conn(fd);
        auto reply = [&conn](const std::string& expect, common::Json msg) {
            coord::ReadResult r = conn.read(10000);
            ASSERT_EQ(r.status, coord::ReadStatus::Ok);
            EXPECT_EQ(common::json_string(r.message, "type"), expect);
            conn.write(msg);
        };
        common::Json welcome = common::Json::object();
        welcome["type"] = "welcome";
        welcome["protocol"] = coord::kProtocolVersion;
        welcome["heartbeat_ms"] = 1000.0;
        reply("hello", welcome);
        common::Json wait = common::Json::object();
        wait["type"] = "wait";
        wait["retry_ms"] = 60000.0;
        reply("lease-request", wait);
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        common::Json done = common::Json::object();
        done["type"] = "done";
        conn.write(done);
        conn.read(10000);  // until the worker hangs up
    });

    coord::WorkerConfig wc;
    wc.socket_path = ep.path;
    wc.worker_id = "w0";
    // Bound the failure path, not the wait: a worker that sleeps through
    // the push finds the fake gone and gives up after two dials.
    wc.reply_timeout_ms = 5000.0;
    wc.max_connect_attempts = 2;
    const auto t0 = std::chrono::steady_clock::now();
    coord::WorkerStats stats;
    try {
        stats = coord::run_worker(wc);
    } catch (const std::exception& e) {
        ADD_FAILURE() << "run_worker threw: " << e.what();
    }
    const double elapsed_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    fake.join();
    ::close(listen_fd);
    EXPECT_LT(elapsed_s, 10.0);
    EXPECT_EQ(stats.shards_completed, 0);
    EXPECT_EQ(stats.reconnects, 0);
}

// --- End to end: coordinator + in-process workers ----------------------------

/// The single-process reference: canonical report document + artifacts.
std::string reference_doc(const shard::JobSpec& job, const std::string& artifact_dir) {
    core::FuzzConfig config = shard::job_fuzz_config(job);
    config.num_threads = 2;
    config.artifact_dir = artifact_dir;
    if (!artifact_dir.empty()) fs::create_directories(artifact_dir);
    core::Fuzzer fuzzer(config);
    std::vector<core::FuzzReport> reports =
        fuzzer.audit(shard::load_job_program(job), shard::job_passes(job));
    return shard::canonical_report_document(std::move(reports)).dump(2);
}

struct ClusterResult {
    coord::ServeResult serve;
    std::vector<coord::WorkerStats> workers;
    std::vector<std::string> worker_errors;
};

/// Runs serve() in one thread and each worker in its own thread — the
/// in-process stand-in for a process fleet, where a crash is an abandon
/// fault (socket closed without a word, shard half-written) instead of a
/// SIGKILL.  A worker that abandons is replaced by a fault-free clone,
/// mirroring the coordinator's process-mode respawn.
ClusterResult run_cluster(const coord::CoordConfig& config,
                          std::vector<coord::WorkerConfig> workers) {
    ClusterResult result;
    std::mutex mu;
    std::exception_ptr serve_error;
    std::thread coordinator([&] {
        try {
            result.serve = coord::serve(config);
        } catch (...) {
            serve_error = std::current_exception();
        }
    });
    std::vector<std::thread> threads;
    for (coord::WorkerConfig wc : workers) {
        threads.emplace_back([&, wc]() mutable {
            try {
                coord::WorkerStats stats = coord::run_worker(wc);
                bool abandoned = stats.abandoned;
                {
                    std::lock_guard<std::mutex> lock(mu);
                    result.workers.push_back(stats);
                }
                if (abandoned) {
                    wc.fault = coord::FaultPlan{};
                    wc.worker_id += "-respawn";
                    coord::WorkerStats again = coord::run_worker(wc);
                    std::lock_guard<std::mutex> lock(mu);
                    result.workers.push_back(again);
                }
            } catch (const std::exception& e) {
                std::lock_guard<std::mutex> lock(mu);
                result.worker_errors.push_back(e.what());
            }
        });
    }
    for (std::thread& t : threads) t.join();
    coordinator.join();
    if (serve_error) std::rethrow_exception(serve_error);
    return result;
}

coord::CoordConfig cluster_config(const std::string& dir, const shard::JobSpec& job) {
    coord::CoordConfig config;
    config.job = job;
    config.shard_count = 4;
    config.checkpoint_interval = 2;
    config.socket_path = dir + "/coord.sock";
    config.records_dir = dir + "/records";
    config.artifact_dir = dir + "/artifacts";
    config.lease.lease_ms = 600.0;
    config.lease.heartbeat_ms = 150.0;
    config.lease.max_failures = 8;
    config.lease.backoff = {50.0, 2.0, 200.0, 0.2};
    config.linger_ms = 8000.0;  // wait for stalled zombies' completions to land
    return config;
}

coord::WorkerConfig cluster_worker(const coord::CoordConfig& config, int index) {
    coord::WorkerConfig wc;
    wc.socket_path = config.socket_path;
    wc.worker_id = "w" + std::to_string(index);
    wc.num_threads = 1;
    return wc;
}

TEST(CoordEndToEnd, SurvivesCrashAndStallAtWorkerCounts124) {
    const shard::JobSpec job = gemm_job(6);
    const std::string ref_dir = scratch_dir("e2e_ref");
    const std::string want_doc = reference_doc(job, ref_dir + "/artifacts");
    const auto want_artifacts = dir_contents(ref_dir + "/artifacts");
    ASSERT_FALSE(want_artifacts.empty()) << "job produced no reproducer artifacts; "
                                            "the artifact byte-comparison would be vacuous";

    for (int worker_count : {1, 2, 4}) {
        SCOPED_TRACE("worker_count=" + std::to_string(worker_count));
        const std::string dir = scratch_dir("e2e_n" + std::to_string(worker_count));
        coord::CoordConfig config = cluster_config(dir, job);

        std::vector<coord::WorkerConfig> workers;
        for (int i = 0; i < worker_count; ++i) workers.push_back(cluster_worker(config, i));
        // One worker crashes mid-shard (after its first durable
        // checkpoint); one stalls past its lease.  At n=1 the crasher's
        // respawned clone carries the stall, so both faults still happen.
        workers[0].fault = coord::FaultPlan::parse("abandon-after-units=3");
        if (worker_count > 1) {
            workers[1].fault = coord::FaultPlan::parse("delay-lease-ms=2000");
        } else {
            // Single worker: pile the stall onto the same first lease — the
            // delay expires the lease, the abandon then crashes the attempt,
            // and the fault-free respawned clone finishes the audit alone.
            workers[0].fault.delay_lease_ms = 2000.0;
        }

        ClusterResult result = run_cluster(config, workers);
        EXPECT_TRUE(result.worker_errors.empty())
            << "worker error: " << result.worker_errors.front();

        const coord::CoordStats& stats = result.serve.stats;
        EXPECT_EQ(stats.shards_merged, config.shard_count);
        EXPECT_EQ(stats.queue.completions, config.shard_count);
        EXPECT_GE(stats.workers_lost, 1);  // the abandoned connection

        const std::string got_doc =
            shard::canonical_report_document(result.serve.reports).dump(2);
        EXPECT_EQ(got_doc, want_doc);
        EXPECT_EQ(dir_contents(config.artifact_dir), want_artifacts);
    }
}

TEST(CoordEndToEnd, StalledWorkerLosesTheRaceAndItsBytesAreVerified) {
    const shard::JobSpec job = gemm_job(4);
    const std::string ref_dir = scratch_dir("dup_ref");
    const std::string want_doc = reference_doc(job, "");

    const std::string dir = scratch_dir("dup");
    coord::CoordConfig config = cluster_config(dir, job);
    config.shard_count = 1;  // one shard, so both workers race for it
    config.artifact_dir.clear();
    config.lease.lease_ms = 400.0;

    std::vector<coord::WorkerConfig> workers;
    workers.push_back(cluster_worker(config, 0));
    workers.push_back(cluster_worker(config, 1));
    // w0 takes the only shard, then sleeps far past its lease without
    // heartbeats; w1 gets the re-issue and completes first; w0's eventual
    // completion must be accepted as a byte-identical duplicate.
    workers[0].fault = coord::FaultPlan::parse("drop-heartbeats,delay-lease-ms=2500");

    // Stagger the start so w0 deterministically leases the shard first.
    ClusterResult result;
    {
        std::mutex mu;
        std::exception_ptr serve_error;
        std::thread coordinator([&] {
            try {
                result.serve = coord::serve(config);
            } catch (...) {
                serve_error = std::current_exception();
            }
        });
        std::thread first([&] {
            try {
                coord::WorkerStats stats = coord::run_worker(workers[0]);
                std::lock_guard<std::mutex> lock(mu);
                result.workers.push_back(stats);
            } catch (const std::exception& e) {
                std::lock_guard<std::mutex> lock(mu);
                result.worker_errors.push_back(e.what());
            }
        });
        std::this_thread::sleep_for(std::chrono::milliseconds(300));
        std::thread second([&] {
            try {
                coord::WorkerStats stats = coord::run_worker(workers[1]);
                std::lock_guard<std::mutex> lock(mu);
                result.workers.push_back(stats);
            } catch (const std::exception& e) {
                std::lock_guard<std::mutex> lock(mu);
                result.worker_errors.push_back(e.what());
            }
        });
        first.join();
        second.join();
        coordinator.join();
        if (serve_error) std::rethrow_exception(serve_error);
    }

    EXPECT_TRUE(result.worker_errors.empty()) << result.worker_errors.front();
    const coord::CoordStats& stats = result.serve.stats;
    EXPECT_EQ(stats.queue.expirations, 1);
    EXPECT_EQ(stats.queue.completions, 1);
    EXPECT_EQ(stats.queue.duplicate_completions, 1);
    EXPECT_EQ(stats.duplicate_files_verified, 1);
    // Both attempts' record files exist and are byte-identical — the
    // determinism contract, enforced per completion.
    const std::string a0 = read_file(config.records_dir + "/lease-s0-a0.jsonl");
    const std::string a1 = read_file(config.records_dir + "/lease-s0-a1.jsonl");
    EXPECT_EQ(a0, a1);
    EXPECT_EQ(shard::canonical_report_document(result.serve.reports).dump(2), want_doc);
}

TEST(CoordEndToEnd, PoisonShardIsQuarantinedAndReportStaysByteIdentical) {
    const shard::JobSpec job = gemm_job(6);
    const std::string want_doc = reference_doc(job, "");

    const std::string dir = scratch_dir("quarantine");
    coord::CoordConfig config = cluster_config(dir, job);
    config.artifact_dir.clear();
    // One lost attempt is a permanent failure: the crash below routes the
    // shard straight into the quarantine path instead of a clean re-issue.
    config.lease.max_failures = 1;

    std::vector<coord::WorkerConfig> workers;
    workers.push_back(cluster_worker(config, 0));
    workers.push_back(cluster_worker(config, 1));
    workers[0].fault = coord::FaultPlan::parse("abandon-after-units=3");

    ClusterResult result = run_cluster(config, workers);
    EXPECT_TRUE(result.worker_errors.empty()) << result.worker_errors.front();

    const coord::CoordStats& stats = result.serve.stats;
    EXPECT_EQ(stats.shards_quarantined, 1);
    ASSERT_EQ(stats.quarantined_units.size(), 1u);
    EXPECT_GE(stats.shards_split, 1);
    EXPECT_EQ(stats.queue.shards_failed, 0);  // quarantine resolved it
    // The fault lived in the worker, not the trial: the blamed unit is
    // benign, so its tightened-budget in-process re-run reproduces the
    // record a healthy worker would have written, the split remainder is
    // drained by the fault-free workers, and the finished audit matches the
    // single-process run byte for byte.
    EXPECT_EQ(shard::canonical_report_document(result.serve.reports).dump(2), want_doc);
}

TEST(CoordEndToEnd, TransportBlipParksAndResumesTheSession) {
    const shard::JobSpec job = gemm_job(6);
    const std::string want_doc = reference_doc(job, "");

    const std::string dir = scratch_dir("resume");
    coord::CoordConfig config = cluster_config(dir, job);
    config.shard_count = 2;
    config.artifact_dir.clear();
    config.session_grace_ms = 8000.0;  // generous: the reconnect must win

    std::vector<coord::WorkerConfig> workers;
    workers.push_back(cluster_worker(config, 0));
    // The connection dies mid-shard (after 3 units) but the worker process
    // survives and keeps executing; its heartbeat thread reconnects with
    // the same session id and resumes beating the SAME attempt.
    workers[0].fault = coord::FaultPlan::parse("disconnect-after-units=3");

    ClusterResult result = run_cluster(config, workers);
    EXPECT_TRUE(result.worker_errors.empty()) << result.worker_errors.front();

    const coord::CoordStats& stats = result.serve.stats;
    EXPECT_GE(stats.sessions_parked, 1);
    EXPECT_GE(stats.sessions_resumed, 1);
    EXPECT_EQ(stats.sessions_expired, 0);
    // The parked lease was never re-issued: no expiration, no second
    // attempt of the interrupted shard.
    EXPECT_EQ(stats.queue.expirations, 0);
    EXPECT_EQ(stats.queue.requeues, 0);
    EXPECT_EQ(stats.workers_seen, 1) << "a resume is not a fresh session";
    EXPECT_EQ(stats.shards_merged, config.shard_count);
    EXPECT_EQ(shard::canonical_report_document(result.serve.reports).dump(2), want_doc);
}

TEST(CoordEndToEnd, TcpTransportMatchesUnixByteForByte) {
    const shard::JobSpec job = gemm_job(4);
    const std::string want_doc = reference_doc(job, "");

    const std::string dir = scratch_dir("tcp");
    coord::CoordConfig config = cluster_config(dir, job);
    config.shard_count = 2;
    config.artifact_dir.clear();
    // Probe a free port, then listen on it for real.  (In-process workers
    // need the address before serve() resolves port 0.)
    int port = 0;
    const int probe = coord::listen_endpoint(coord::Endpoint::parse_tcp("127.0.0.1:0"), 1, &port);
    ::close(probe);
    config.listen_address = "127.0.0.1:" + std::to_string(port);
    config.socket_path.clear();

    std::vector<coord::WorkerConfig> workers;
    for (int i = 0; i < 2; ++i) {
        coord::WorkerConfig wc = cluster_worker(config, i);
        wc.socket_path.clear();
        wc.connect_address = config.listen_address;
        workers.push_back(wc);
    }

    ClusterResult result = run_cluster(config, workers);
    EXPECT_TRUE(result.worker_errors.empty()) << result.worker_errors.front();
    EXPECT_EQ(result.serve.stats.workers_seen, 2);
    EXPECT_EQ(result.serve.stats.shards_merged, config.shard_count);
    EXPECT_EQ(shard::canonical_report_document(result.serve.reports).dump(2), want_doc);
}

TEST(CoordEndToEnd, FrameProxyFaultsAreAbsorbedByteIdentically) {
    const shard::JobSpec job = gemm_job(6);
    const std::string want_doc = reference_doc(job, "");

    const std::string dir = scratch_dir("proxy");
    coord::CoordConfig config = cluster_config(dir, job);
    config.artifact_dir.clear();
    config.session_grace_ms = 8000.0;

    // Every fault class at once: periodic loss, latency, duplication, one
    // corrupted frame (-> CRC disconnect -> session resume) and one timed
    // partition with heal.
    coord::NetFaultPlan plan = coord::NetFaultPlan::parse(
        "drop-frame-every-n=11,delay-frame-ms=2,duplicate-frame=6,"
        "corrupt-frame-byte=25,partition-after-units=3,heal-ms=700");
    coord::FrameProxy proxy(coord::Endpoint::unix_path(dir + "/proxy.sock"),
                            coord::Endpoint::unix_path(config.socket_path), plan);

    std::vector<coord::WorkerConfig> workers;
    for (int i = 0; i < 2; ++i) {
        coord::WorkerConfig wc = cluster_worker(config, i);
        wc.socket_path = dir + "/proxy.sock";  // dial through the saboteur
        wc.reply_timeout_ms = 1500.0;          // dropped replies re-request fast
        workers.push_back(wc);
    }

    ClusterResult result = run_cluster(config, workers);
    proxy.stop();
    EXPECT_TRUE(result.worker_errors.empty()) << result.worker_errors.front();

    const coord::NetFaultStats net = proxy.stats();
    EXPECT_GT(net.frames_forwarded, 0);
    EXPECT_GE(net.frames_dropped, 1);
    EXPECT_GE(net.frames_duplicated, 1);
    EXPECT_EQ(net.frames_corrupted, 1);
    EXPECT_EQ(net.partitions, 1);
    // The corrupted frame and the partition both severed live connections;
    // the grace window turned every one of them into a resume.
    EXPECT_GE(result.serve.stats.sessions_resumed, 1);
    EXPECT_EQ(result.serve.stats.shards_merged, config.shard_count);
    EXPECT_EQ(shard::canonical_report_document(result.serve.reports).dump(2), want_doc);
}

TEST(CoordEndToEnd, CrashedShardIsSalvagedFromItsCheckpoint) {
    const shard::JobSpec job = gemm_job(6);
    const std::string dir = scratch_dir("salvage");
    coord::CoordConfig config = cluster_config(dir, job);
    config.shard_count = 2;
    config.artifact_dir.clear();

    std::vector<coord::WorkerConfig> workers;
    workers.push_back(cluster_worker(config, 0));
    // Abandon after >3 units with checkpoint_interval=2: exactly one
    // durable chunk, so the replacement must salvage 2 units.
    workers[0].fault = coord::FaultPlan::parse("abandon-after-units=3");

    ClusterResult result = run_cluster(config, workers);
    EXPECT_TRUE(result.worker_errors.empty());
    std::int64_t salvaged = 0;
    for (const coord::WorkerStats& w : result.workers) salvaged += w.salvages;
    EXPECT_GE(salvaged, 1);
    EXPECT_EQ(result.serve.stats.shards_merged, 2);
    EXPECT_EQ(shard::canonical_report_document(result.serve.reports).dump(2),
              reference_doc(job, ""));
}

}  // namespace
}  // namespace ff
