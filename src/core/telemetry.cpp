#include "core/telemetry.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <ostream>

namespace psm::telemetry {

const char *
counterName(Counter c)
{
    switch (c) {
      case Counter::TasksExecuted: return "tasks_executed";
      case Counter::TasksSpawned: return "tasks_spawned";
      case Counter::QueuePushes: return "queue_pushes";
      case Counter::QueuePops: return "queue_pops";
      case Counter::StealAttempts: return "steal_attempts";
      case Counter::Steals: return "steals";
      case Counter::StealFailures: return "steal_failures";
      case Counter::StealRaces: return "steal_races";
      case Counter::JoinLockAcquires: return "join_lock_acquires";
      case Counter::JoinLockContended: return "join_lock_contended";
      case Counter::NotLockAcquires: return "not_lock_acquires";
      case Counter::NotLockContended: return "not_lock_contended";
      case Counter::TombstonesAbsorbed: return "tombstones_absorbed";
      case Counter::WorkerParks: return "worker_parks";
      case Counter::IdleSpins: return "idle_spins";
      case Counter::ChangesProcessed: return "changes_processed";
      case Counter::Batches: return "batches";
      case Counter::AffectedProductionChanges:
        return "affected_production_changes";
      case Counter::ServeAdmitted: return "serve_admitted";
      case Counter::ServeRejected: return "serve_rejected";
      case Counter::ServeCompleted: return "serve_completed";
      case Counter::ServeExpired: return "serve_expired";
      case Counter::ServeBatches: return "serve_batches";
      case Counter::DurableWalRecords: return "wal_records";
      case Counter::DurableWalBytes: return "wal_bytes";
      case Counter::DurableSnapshots: return "snapshots_written";
      case Counter::DurableRecoveries: return "recoveries";
      case Counter::AlphaRemoveMisses: return "alpha_remove_misses";
      case Counter::TombstoneParks: return "tombstone_parks";
      case Counter::InlineBatches: return "inline_batches";
      case Counter::ParkTimeouts: return "park_timeouts";
      case Counter::kCount: break;
    }
    return "unknown";
}

const char *
histogramName(Histogram h)
{
    switch (h) {
      case Histogram::TaskCostInstr: return "task_cost_instr";
      case Histogram::QueueDepth: return "queue_depth";
      case Histogram::BetaMemorySize: return "beta_memory_size";
      case Histogram::JoinCandidates: return "join_candidates";
      case Histogram::ParkNanos: return "park_nanos";
      case Histogram::SpinsBeforePark: return "spins_before_park";
      case Histogram::ServeRequestLatencyUs:
        return "serve_request_latency_us";
      case Histogram::ServeQueueDepth: return "serve_queue_depth";
      case Histogram::ServeBatchSize: return "serve_batch_size";
      case Histogram::DurableSnapshotBytes: return "snapshot_bytes";
      case Histogram::DurableWalAppendUs: return "wal_append_us";
      case Histogram::DurableCheckpointMs: return "checkpoint_ms";
      case Histogram::DurableRecoveryMs: return "recovery_ms";
      case Histogram::TombstoneHighWater: return "tombstone_high_water";
      case Histogram::BatchCostInstr: return "batch_cost_instr";
      case Histogram::LockWaitNanos: return "lock_wait_nanos";
      case Histogram::kCount: break;
    }
    return "unknown";
}

std::size_t
HistogramData::bucketOf(std::uint64_t value)
{
    if (value == 0)
        return 0;
    std::size_t b = static_cast<std::size_t>(std::bit_width(value));
    return std::min(b, kHistogramBuckets - 1);
}

std::uint64_t
HistogramData::bucketFloor(std::size_t bucket)
{
    return bucket == 0 ? 0 : std::uint64_t{1} << (bucket - 1);
}

double
HistogramData::percentile(double p) const
{
    if (count == 0)
        return 0.0;
    p = std::min(std::max(p, 0.0), 100.0);
    // Rank of the wanted observation, 1-based (nearest-rank rule).
    std::uint64_t rank = static_cast<std::uint64_t>(
        std::ceil(p / 100.0 * static_cast<double>(count)));
    rank = std::max<std::uint64_t>(rank, 1);
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
        if (buckets[b] == 0)
            continue;
        if (cum + buckets[b] >= rank) {
            double lo = static_cast<double>(bucketFloor(b));
            double hi = b + 1 < kHistogramBuckets
                            ? static_cast<double>(bucketFloor(b + 1))
                            : static_cast<double>(max);
            double frac = static_cast<double>(rank - cum) /
                          static_cast<double>(buckets[b]);
            double v = lo + (hi - lo) * frac;
            return std::min(v, static_cast<double>(max));
        }
        cum += buckets[b];
    }
    return static_cast<double>(max);
}

HistogramData
HistogramData::since(const HistogramData &earlier) const
{
    HistogramData out;
    for (std::size_t b = 0; b < kHistogramBuckets; ++b)
        out.buckets[b] = buckets[b] - earlier.buckets[b];
    out.count = count - earlier.count;
    out.sum = sum - earlier.sum;
    out.max = max; // cumulative upper bound; see header
    return out;
}

RegistrySnapshot
RegistrySnapshot::since(const RegistrySnapshot &earlier) const
{
    RegistrySnapshot out;
    for (std::size_t c = 0; c < kCounterCount; ++c)
        out.counters[c] = counters[c] - earlier.counters[c];
    for (std::size_t h = 0; h < kHistogramCount; ++h)
        out.histograms[h] = histograms[h].since(earlier.histograms[h]);
    out.epochs = epochs - earlier.epochs;
    return out;
}

Registry::Registry(std::size_t n_shards)
    : shards_(n_shards ? n_shards : 1)
{}

Registry::~Registry() = default;

void
Registry::configureNodes(std::size_t n_nodes,
                         std::vector<int> node_production,
                         std::size_t n_productions)
{
    n_nodes_ = n_nodes;
    node_production_ = std::move(node_production);
    node_production_.resize(n_nodes, -1);
    n_productions_ = n_productions;
    for (Shard &s : shards_) {
        s.node_slots = std::vector<std::atomic<std::uint64_t>>(
            2 * n_nodes);
        s.prod_epoch =
            std::vector<std::atomic<std::uint64_t>>(n_productions);
    }
}

void
Registry::observeImpl(std::size_t shard, Histogram h,
                      std::uint64_t value)
{
    Shard::Hist &hist =
        shards_[shardIndex(shard)].hists[static_cast<std::size_t>(h)];
    hist.buckets[HistogramData::bucketOf(value)].fetch_add(
        1, std::memory_order_relaxed);
    hist.count.fetch_add(1, std::memory_order_relaxed);
    hist.sum.fetch_add(value, std::memory_order_relaxed);
    // CAS loop so shared shards (serve admission, shard 0) cannot
    // lose a max; on an owner-only shard the loop never iterates and
    // the steady-state cost is the same load + untaken branch.
    std::uint64_t cur = hist.max.load(std::memory_order_relaxed);
    while (value > cur &&
           !hist.max.compare_exchange_weak(cur, value,
                                           std::memory_order_relaxed))
        ;
}

void
Registry::nodeActivationImpl(std::size_t shard, int node_id,
                             std::uint64_t cost)
{
    Shard &s = shards_[shardIndex(shard)];
    if (node_id < 0 || static_cast<std::size_t>(node_id) >= n_nodes_)
        return;
    std::size_t base = 2 * static_cast<std::size_t>(node_id);
    s.node_slots[base].fetch_add(1, std::memory_order_relaxed);
    s.node_slots[base + 1].fetch_add(cost, std::memory_order_relaxed);

    int prod = node_production_[static_cast<std::size_t>(node_id)];
    if (prod >= 0 && epoch_open_.load(std::memory_order_relaxed)) {
        std::uint64_t e = epoch_.load(std::memory_order_relaxed);
        auto &stamp = s.prod_epoch[static_cast<std::size_t>(prod)];
        if (stamp.load(std::memory_order_relaxed) != e)
            stamp.store(e, std::memory_order_relaxed);
    }
}

void
Registry::beginEpoch()
{
#if PSM_TELEMETRY
    if (epoch_open_.load(std::memory_order_relaxed))
        endEpoch();
    epoch_.fetch_add(1, std::memory_order_relaxed);
    epoch_open_.store(true, std::memory_order_relaxed);
#endif
}

void
Registry::endEpoch()
{
#if PSM_TELEMETRY
    if (!epoch_open_.load(std::memory_order_relaxed))
        return;
    epoch_open_.store(false, std::memory_order_relaxed);
    ++epochs_closed_;
    std::uint64_t e = epoch_.load(std::memory_order_relaxed);
    std::uint64_t affected = 0;
    for (std::size_t p = 0; p < n_productions_; ++p) {
        for (const Shard &s : shards_) {
            if (s.prod_epoch[p].load(std::memory_order_relaxed) == e) {
                ++affected;
                break;
            }
        }
    }
    count(0, Counter::AffectedProductionChanges, affected);
#endif
}

std::uint64_t
Registry::total(Counter c) const
{
    std::uint64_t t = 0;
    for (const Shard &s : shards_)
        t += s.counters[static_cast<std::size_t>(c)].load(
            std::memory_order_relaxed);
    return t;
}

std::vector<int>
Registry::affectedSince(std::uint64_t mark) const
{
    std::vector<int> out;
    for (std::size_t p = 0; p < n_productions_; ++p) {
        for (const Shard &s : shards_) {
            if (s.prod_epoch[p].load(std::memory_order_relaxed) >
                mark) {
                out.push_back(static_cast<int>(p));
                break;
            }
        }
    }
    return out;
}

HistogramData
Registry::merged(Histogram h) const
{
    HistogramData out;
    for (const Shard &s : shards_) {
        const Shard::Hist &hist =
            s.hists[static_cast<std::size_t>(h)];
        for (std::size_t b = 0; b < kHistogramBuckets; ++b)
            out.buckets[b] +=
                hist.buckets[b].load(std::memory_order_relaxed);
        out.count += hist.count.load(std::memory_order_relaxed);
        out.sum += hist.sum.load(std::memory_order_relaxed);
        out.max = std::max(out.max,
                           hist.max.load(std::memory_order_relaxed));
    }
    return out;
}

RegistrySnapshot
Registry::snapshot() const
{
    RegistrySnapshot out;
    for (std::size_t c = 0; c < kCounterCount; ++c)
        out.counters[c] = total(static_cast<Counter>(c));
    for (std::size_t h = 0; h < kHistogramCount; ++h)
        out.histograms[h] = merged(static_cast<Histogram>(h));
    out.epochs = epochs_closed_;
    return out;
}

NodeTotals
Registry::nodeTotals(int node_id) const
{
    NodeTotals t;
    if (node_id < 0 || static_cast<std::size_t>(node_id) >= n_nodes_)
        return t;
    std::size_t base = 2 * static_cast<std::size_t>(node_id);
    for (const Shard &s : shards_) {
        t.activations +=
            s.node_slots[base].load(std::memory_order_relaxed);
        t.cost +=
            s.node_slots[base + 1].load(std::memory_order_relaxed);
    }
    return t;
}

std::vector<NodeTotals>
Registry::perProductionTotals() const
{
    std::vector<NodeTotals> out(n_productions_);
    for (std::size_t n = 0; n < n_nodes_; ++n) {
        int prod = node_production_[n];
        if (prod < 0 || static_cast<std::size_t>(prod) >= out.size())
            continue;
        NodeTotals t = nodeTotals(static_cast<int>(n));
        out[static_cast<std::size_t>(prod)].activations +=
            t.activations;
        out[static_cast<std::size_t>(prod)].cost += t.cost;
    }
    return out;
}

void
Registry::reset()
{
    for (Shard &s : shards_) {
        for (auto &c : s.counters)
            c.store(0, std::memory_order_relaxed);
        for (auto &h : s.hists) {
            for (auto &b : h.buckets)
                b.store(0, std::memory_order_relaxed);
            h.count.store(0, std::memory_order_relaxed);
            h.sum.store(0, std::memory_order_relaxed);
            h.max.store(0, std::memory_order_relaxed);
        }
        for (auto &n : s.node_slots)
            n.store(0, std::memory_order_relaxed);
        for (auto &p : s.prod_epoch)
            p.store(0, std::memory_order_relaxed);
    }
    epoch_.store(0, std::memory_order_relaxed);
    epochs_closed_ = 0;
    epoch_open_.store(false, std::memory_order_relaxed);
}

void
Registry::writeJson(std::ostream &os,
                    const std::string &extra_fields) const
{
    os << "{\n  \"telemetry_enabled\": "
       << (PSM_TELEMETRY ? "true" : "false") << ",\n"
       << "  \"shards\": " << shards_.size() << ",\n"
       << "  \"epochs\": " << epochs_closed_ << ",\n";

    os << "  \"counters\": {";
    for (std::size_t i = 0; i < kCounterCount; ++i) {
        if (i)
            os << ",";
        os << "\n    \"" << counterName(static_cast<Counter>(i))
           << "\": " << total(static_cast<Counter>(i));
    }
    os << "\n  },\n";

    os << "  \"histograms\": {";
    for (std::size_t i = 0; i < kHistogramCount; ++i) {
        HistogramData d = merged(static_cast<Histogram>(i));
        if (i)
            os << ",";
        os << "\n    \"" << histogramName(static_cast<Histogram>(i))
           << "\": {\"count\": " << d.count << ", \"sum\": " << d.sum
           << ", \"max\": " << d.max << ", \"p50\": "
           << d.percentile(50) << ", \"p95\": " << d.percentile(95)
           << ", \"p99\": " << d.percentile(99) << ", \"buckets\": [";
        // Trailing zero buckets are elided; bucket b spans
        // [bucketFloor(b), bucketFloor(b+1)).
        std::size_t last = kHistogramBuckets;
        while (last > 0 && d.buckets[last - 1] == 0)
            --last;
        for (std::size_t b = 0; b < last; ++b)
            os << (b ? ", " : "") << d.buckets[b];
        os << "]}";
    }
    os << "\n  },\n";

    os << "  \"per_node\": [";
    bool first = true;
    for (std::size_t n = 0; n < n_nodes_; ++n) {
        NodeTotals t = nodeTotals(static_cast<int>(n));
        if (t.activations == 0)
            continue;
        if (!first)
            os << ",";
        first = false;
        os << "\n    {\"node\": " << n << ", \"production\": "
           << node_production_[n] << ", \"activations\": "
           << t.activations << ", \"cost\": " << t.cost << "}";
    }
    os << "\n  ]";

    if (!extra_fields.empty())
        os << ",\n  " << extra_fields;
    os << "\n}\n";
}

} // namespace psm::telemetry
