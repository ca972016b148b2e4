#include "coord/queue.h"

#include <algorithm>
#include <utility>

#include "common/error.h"

namespace ff::coord {

namespace {

using Millis = std::chrono::duration<double, std::milli>;

TimePoint add_ms(TimePoint t, double ms) {
    return t + std::chrono::duration_cast<TimePoint::duration>(Millis(ms));
}

double ms_until(TimePoint now, TimePoint t) {
    return std::chrono::duration_cast<Millis>(t - now).count();
}

}  // namespace

LeaseQueue::LeaseQueue(std::vector<shard::ShardManifest> shards, const LeaseConfig& config)
    : config_(config), rng_(config.seed) {
    shards_.reserve(shards.size());
    for (auto& manifest : shards) {
        ShardEntry entry;
        entry.manifest = std::move(manifest);
        shards_.push_back(std::move(entry));
    }
}

std::optional<Lease> LeaseQueue::acquire(const std::string& worker, TimePoint now) {
    for (std::size_t i = 0; i < shards_.size(); ++i) {
        ShardEntry& entry = shards_[i];
        if (entry.state != ShardState::Pending) continue;
        if (entry.attempts_issued > 0 && now < entry.not_before) continue;
        entry.active = Attempt{entry.attempts_issued++, worker, add_ms(now, config_.lease_ms)};
        entry.state = ShardState::Leased;
        ++stats_.granted;
        return Lease{static_cast<int>(i), entry.active->attempt, entry.manifest};
    }
    return std::nullopt;
}

LeaseQueue::Attempt* LeaseQueue::find_active(int shard, int attempt) {
    if (shard < 0 || shard >= shard_count()) return nullptr;
    std::optional<Attempt>& active = shards_[shard].active;
    return active && active->attempt == attempt ? &*active : nullptr;
}

bool LeaseQueue::heartbeat(int shard, int attempt, TimePoint now) {
    Attempt* a = find_active(shard, attempt);
    if (!a) return false;
    a->deadline = add_ms(now, config_.lease_ms);
    return true;
}

bool LeaseQueue::complete(int shard, int attempt) {
    if (shard < 0 || shard >= shard_count()) {
        throw common::Error("complete: shard " + std::to_string(shard) + " out of range");
    }
    ShardEntry& entry = shards_[shard];
    (void)attempt;  // any attempt's completion counts; files are byte-equal
    if (entry.state == ShardState::Done) {
        ++stats_.duplicate_completions;
        return false;
    }
    // Leased, Pending (the attempt expired but the worker finished anyway)
    // or even Failed (a zombie rescued the shard after the retry cap).
    if (entry.state == ShardState::Failed) --stats_.shards_failed;
    entry.state = ShardState::Done;
    entry.active.reset();
    entry.last_error.clear();
    ++stats_.completions;
    return true;
}

void LeaseQueue::extend_active(TimePoint now) {
    for (ShardEntry& entry : shards_) {
        if (entry.active) entry.active->deadline = add_ms(now, config_.lease_ms);
    }
}

int LeaseQueue::add_shard(const shard::ShardManifest& manifest) {
    ShardEntry entry;
    entry.manifest = manifest;
    shards_.push_back(std::move(entry));
    return static_cast<int>(shards_.size()) - 1;
}

void LeaseQueue::fail(int shard, int attempt, TimePoint now, const std::string& error) {
    if (!find_active(shard, attempt)) return;  // stale: already expired/requeued
    ++stats_.worker_failures;
    drop_attempt(shards_[shard], now, error);
}

std::vector<LeaseQueue::LostAttempt> LeaseQueue::expire(TimePoint now) {
    std::vector<LostAttempt> lost;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
        ShardEntry& entry = shards_[i];
        if (!entry.active || entry.active->deadline > now) continue;
        const std::string worker = entry.active->worker;
        lost.push_back({static_cast<int>(i), entry.active->attempt, worker});
        ++stats_.expirations;
        drop_attempt(entry, now, "lease expired (worker " + worker + ")");
    }
    return lost;
}

std::vector<LeaseQueue::LostAttempt> LeaseQueue::worker_lost(const std::string& worker,
                                                             TimePoint now) {
    std::vector<LostAttempt> lost;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
        ShardEntry& entry = shards_[i];
        if (!entry.active || entry.active->worker != worker) continue;
        lost.push_back({static_cast<int>(i), entry.active->attempt, worker});
        drop_attempt(entry, now, "worker " + worker + " disconnected");
    }
    return lost;
}

std::vector<LeaseQueue::LostAttempt> LeaseQueue::park_worker(const std::string& worker,
                                                             TimePoint now, double grace_ms) {
    std::vector<LostAttempt> parked;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
        std::optional<Attempt>& a = shards_[i].active;
        if (!a || a->worker != worker) continue;
        // max(): a lease whose deadline already reaches past the grace
        // window keeps it — parking never *shortens* a lease.
        a->deadline = std::max(a->deadline, add_ms(now, grace_ms));
        parked.push_back({static_cast<int>(i), a->attempt, worker});
    }
    return parked;
}

void LeaseQueue::drop_attempt(ShardEntry& entry, TimePoint now, std::string error) {
    entry.active.reset();
    ++entry.failures;
    entry.last_error = std::move(error);
    if (entry.failures >= config_.max_failures) {
        entry.state = ShardState::Failed;
        ++stats_.shards_failed;
        return;
    }
    entry.state = ShardState::Pending;
    entry.not_before = add_ms(now, config_.backoff.delay_ms(entry.failures - 1, rng_));
    ++stats_.requeues;
}

bool LeaseQueue::all_done() const {
    for (const ShardEntry& entry : shards_) {
        if (entry.state != ShardState::Done) return false;
    }
    return true;
}

ShardState LeaseQueue::state(int shard) const {
    if (shard < 0 || shard >= shard_count()) {
        throw common::Error("state: shard " + std::to_string(shard) + " out of range");
    }
    return shards_[shard].state;
}

const std::string& LeaseQueue::last_error(int shard) const {
    static const std::string empty;
    if (shard < 0 || shard >= shard_count()) return empty;
    return shards_[shard].last_error;
}

int LeaseQueue::attempts_issued(int shard) const {
    if (shard < 0 || shard >= shard_count()) return 0;
    return shards_[shard].attempts_issued;
}

int LeaseQueue::active_attempts() const {
    return static_cast<int>(std::count_if(shards_.begin(), shards_.end(),
                                          [](const ShardEntry& e) { return e.active.has_value(); }));
}

std::optional<double> LeaseQueue::next_event_ms(TimePoint now) const {
    std::optional<double> best;
    auto consider = [&best](double ms) {
        double clamped = std::max(0.0, ms);
        if (!best || clamped < *best) best = clamped;
    };
    for (const ShardEntry& entry : shards_) {
        if (entry.active) {
            consider(ms_until(now, entry.active->deadline));  // lease deadline
        } else if (entry.state == ShardState::Pending && entry.attempts_issued > 0) {
            consider(ms_until(now, entry.not_before));  // backoff expiry
        }
    }
    return best;
}

}  // namespace ff::coord
