/**
 * @file
 * Low-overhead runtime telemetry: sharded counters, fixed-bucket
 * histograms, and per-node activation accounting behind one Registry.
 *
 * The paper's entire argument is measurement — Section 5's intrinsic
 * parallelism numbers and Section 6's simulated speed curves — so the
 * runtime must be able to report the same quantities from a *live*
 * run: per-node activation counts and costs, scheduler behaviour
 * (steals, queue depths, contention), and synchronisation losses
 * (lock waits, tombstone absorption, idle time).
 *
 * Design rules, in order:
 *  1. The match hot path pays nothing when telemetry is off. With
 *     `-DPSM_TELEMETRY=OFF` every recording function compiles to an
 *     empty inline body; with it ON but no Registry attached, the
 *     only cost is a well-predicted null check at each site.
 *  2. No cross-worker cache traffic while recording. The Registry is
 *     sharded per worker: each shard is cache-line aligned and only
 *     ever written by its owning worker. Slots are relaxed atomics so
 *     concurrent cold-path readers (reporters, tests under TSan) are
 *     race-free; relaxed RMWs on an uncontended line cost roughly a
 *     plain increment on x86/ARM.
 *  3. Aggregation is cold. total()/merged()/per-node queries walk all
 *     shards; they run at barriers or at report time, never per task.
 *
 * The epoch facility implements the paper's per-change measurements:
 * a matcher brackets each WM change (serial) or batch (parallel) with
 * beginEpoch()/endEpoch(); node activations mark their production's
 * epoch stamp, and endEpoch() harvests the number of distinct
 * productions affected — Section 5's "affected productions per
 * change" measured live instead of from a captured trace.
 */

#ifndef PSM_CORE_TELEMETRY_HPP
#define PSM_CORE_TELEMETRY_HPP

#include <array>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#ifndef PSM_TELEMETRY
#define PSM_TELEMETRY 1
#endif

namespace psm::telemetry {

/** Scalar event counters, one slot per shard each. */
enum class Counter : std::uint16_t {
    TasksExecuted,       ///< node-activation tasks run
    TasksSpawned,        ///< tasks pushed to a scheduler queue
    QueuePushes,         ///< scheduler enqueues
    QueuePops,           ///< successful scheduler dequeues
    StealAttempts,       ///< lock-free pool: victim scans begun
    Steals,              ///< lock-free pool: tasks taken from a victim
    StealFailures,       ///< victim scans that found nothing
    StealRaces,          ///< lock-free pool: top-CAS races lost
    JoinLockAcquires,    ///< DirectionalLock acquisitions
    JoinLockContended,   ///< ... that had to wait for the other side
    NotLockAcquires,     ///< not-node mutex acquisitions
    NotLockContended,    ///< ... that found the mutex held
    TombstonesAbsorbed,  ///< conjugate-race tombstones cleared
    WorkerParks,         ///< times a worker parked on the idle CV
    IdleSpins,           ///< empty-queue polls while a batch was live
    ChangesProcessed,    ///< WM changes seen
    Batches,             ///< processChanges() calls
    AffectedProductionChanges, ///< sum over epochs of affected prods
    ServeAdmitted,       ///< serve: requests accepted into a queue
    ServeRejected,       ///< serve: typed admission rejections
    ServeCompleted,      ///< serve: responses delivered
    ServeExpired,        ///< serve: deadline hit (dropped or stopped)
    ServeBatches,        ///< serve: WM-change batches committed
    DurableWalRecords,   ///< durable: WAL records appended
    DurableWalBytes,     ///< durable: WAL payload bytes appended
    DurableSnapshots,    ///< durable: snapshots written
    DurableRecoveries,   ///< durable: successful recoveries
    AlphaRemoveMisses,   ///< alpha removeWme found nothing (WM desync)
    TombstoneParks,      ///< beta removes that parked an anti-token
    InlineBatches,       ///< batches run inline on the submitter
    ParkTimeouts,        ///< mid-batch parks ended by the backstop
                         ///< with tasks still pending
    kCount,
};

/** Fixed-bucket (power-of-two) histograms, one array per shard each. */
enum class Histogram : std::uint8_t {
    TaskCostInstr,   ///< cost-model instructions per task
    QueueDepth,      ///< scheduler queue depth observed at push
    BetaMemorySize,  ///< beta-memory token count after an update
    JoinCandidates,  ///< opposite-memory candidates per two-input scan
    ParkNanos,       ///< wall-clock nanoseconds per worker park
    SpinsBeforePark, ///< failed polls a worker absorbed before parking
    ServeRequestLatencyUs, ///< serve: submit -> response microseconds
    ServeQueueDepth,       ///< serve: session queue depth at admission
    ServeBatchSize,        ///< serve: requests folded per drain batch
    DurableSnapshotBytes,  ///< durable: bytes per written snapshot
    DurableWalAppendUs,    ///< durable: microseconds per WAL append
    DurableCheckpointMs,   ///< durable: milliseconds per checkpoint
    DurableRecoveryMs,     ///< durable: milliseconds per recovery
    TombstoneHighWater,    ///< peak pending tombstones per beta memory
    BatchCostInstr,        ///< modeled probe cost per matcher batch
    kCount,
};

const char *counterName(Counter c);
const char *histogramName(Histogram h);

inline constexpr std::size_t kCounterCount =
    static_cast<std::size_t>(Counter::kCount);
inline constexpr std::size_t kHistogramCount =
    static_cast<std::size_t>(Histogram::kCount);

/** Buckets per histogram: [0], [1], [2,3], [4,7], ... [2^30, inf). */
inline constexpr std::size_t kHistogramBuckets = 32;

/** Merged (cross-shard) histogram snapshot. */
struct HistogramData
{
    std::array<std::uint64_t, kHistogramBuckets> buckets{};
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t max = 0;

    double
    mean() const
    {
        return count ? static_cast<double>(sum) /
                           static_cast<double>(count)
                     : 0.0;
    }

    /**
     * Approximate percentile (@p p in [0,100]) reconstructed from the
     * power-of-two buckets: the bucket holding the rank is found and
     * the value interpolated linearly inside it, clamped to the
     * recorded max. Resolution is therefore the bucket width (a
     * factor of two) — good enough for p50/p95/p99 latency SLO
     * reporting, free at record time.
     */
    double percentile(double p) const;

    /** Lower bound of the bucket @p value falls into. */
    static std::uint64_t bucketFloor(std::size_t bucket);
    static std::size_t bucketOf(std::uint64_t value);

    /**
     * Bucket-wise difference against an @p earlier snapshot of the
     * same cumulative histogram: the observations recorded between
     * the two snapshots. `max` cannot be recovered from cumulative
     * state, so the delta keeps the newer cumulative max — an upper
     * bound the percentile clamp stays correct against.
     */
    HistogramData since(const HistogramData &earlier) const;
};

/**
 * Point-in-time copy of every cross-shard total: the unit the
 * observability plane (src/obs) diffs to turn cumulative counters
 * into live rates and windowed percentiles. Plain data — capture one
 * with Registry::snapshot(), subtract two with since().
 */
struct RegistrySnapshot
{
    std::array<std::uint64_t, kCounterCount> counters{};
    std::array<HistogramData, kHistogramCount> histograms{};
    std::uint64_t epochs = 0;

    std::uint64_t
    counter(Counter c) const
    {
        return counters[static_cast<std::size_t>(c)];
    }

    const HistogramData &
    histogram(Histogram h) const
    {
        return histograms[static_cast<std::size_t>(h)];
    }

    /** Member-wise delta against an @p earlier snapshot: counter
     *  differences and HistogramData::since per histogram. Counters
     *  are monotonic, so every delta is well-defined (a reset()
     *  between the two snapshots is the caller's bug). */
    RegistrySnapshot since(const RegistrySnapshot &earlier) const;
};

/** Merged per-node totals. */
struct NodeTotals
{
    std::uint64_t activations = 0;
    std::uint64_t cost = 0; ///< cost-model instructions
};

/**
 * The telemetry registry: one per matcher, sharded by worker.
 *
 * Shard 0 belongs to the submitting thread; shards 1..n to workers.
 * All recording calls take the caller's shard index and should only
 * be issued from that shard's owning thread (the same discipline the
 * matchers' WorkerStats already follow) — sharding is what keeps the
 * hot path free of cross-core cache traffic. Every slot is an atomic,
 * so a multi-writer shard is still race-free and exactly counted; the
 * serve layer exploits this for shard 0, which its many client
 * threads share on the (already mutex-serialised) admission path.
 * Cold-path readers may run concurrently with recording; they see a
 * best-effort snapshot.
 */
class Registry
{
  public:
    explicit Registry(std::size_t n_shards = 1);
    ~Registry();

    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    std::size_t shards() const { return shards_.size(); }

    /**
     * Sizes the per-node slot arrays and installs the node-to-
     * production map used by the epoch facility. @p node_production
     * holds, per node id, the owning production's index, or -1 for
     * shared/stateless nodes (those never mark an epoch).
     */
    void configureNodes(std::size_t n_nodes,
                        std::vector<int> node_production,
                        std::size_t n_productions);

    // ----- hot path (per-shard, relaxed) ---------------------------------

    void
    count(std::size_t shard, Counter c, std::uint64_t v = 1)
    {
#if PSM_TELEMETRY
        slot(shard, c).fetch_add(v, std::memory_order_relaxed);
#else
        (void)shard, (void)c, (void)v;
#endif
    }

    void
    observe(std::size_t shard, Histogram h, std::uint64_t value)
    {
#if PSM_TELEMETRY
        observeImpl(shard, h, value);
#else
        (void)shard, (void)h, (void)value;
#endif
    }

    /** Records one activation of @p node_id costing @p cost. */
    void
    nodeActivation(std::size_t shard, int node_id, std::uint64_t cost)
    {
#if PSM_TELEMETRY
        nodeActivationImpl(shard, node_id, cost);
#else
        (void)shard, (void)node_id, (void)cost;
#endif
    }

    // ----- epochs (submitter thread only) --------------------------------

    /** Opens a new affected-production epoch (one WM change or one
     *  batch). Must only be called from the submitting thread, at a
     *  point where no worker is recording (matcher barriers). */
    void beginEpoch();

    /** Closes the current epoch: harvests the number of distinct
     *  productions whose nodes were activated since beginEpoch() into
     *  Counter::AffectedProductionChanges. Same threading rules. */
    void endEpoch();

    // ----- cold path -----------------------------------------------------

    std::uint64_t total(Counter c) const;
    HistogramData merged(Histogram h) const;

    /** Captures every counter and histogram total in one pass. Safe
     *  concurrently with recording (best-effort, like total()). */
    RegistrySnapshot snapshot() const;

    std::size_t nodeCount() const { return n_nodes_; }
    NodeTotals nodeTotals(int node_id) const;

    /** Cost-model instructions summed per production (index ==
     *  production ordinal; shared nodes excluded). */
    std::vector<NodeTotals> perProductionTotals() const;

    std::uint64_t epochs() const { return epochs_closed_; }

    /**
     * Monotonic epoch cursor for affectedSince(). Take a mark before
     * submitting a batch of WM changes; every epoch the matcher opens
     * afterwards has a larger value.
     */
    std::uint64_t
    epochMark() const
    {
        return epoch_.load(std::memory_order_relaxed);
    }

    /**
     * Production ordinals whose nodes were activated in any epoch
     * after @p mark (sorted ascending). Cold path; call from the
     * submitting thread at a barrier, like endEpoch(). This is the
     * paper's *dynamic* affect set of a change batch — the static
     * analyzer's interference graph must cover it (asserted by
     * test_lint's superset cross-check).
     */
    std::vector<int> affectedSince(std::uint64_t mark) const;

    /** Resets every counter, histogram, node slot, and epoch. */
    void reset();

    /**
     * Writes the registry as one JSON object: {"counters": {...},
     * "histograms": {...}, "per_node": [...], ...}. When
     * @p extra_fields is non-empty it is spliced verbatim as
     * additional top-level members (must be valid `"key": value`
     * JSON, no trailing comma) — the hook ops5_cli uses to append
     * the paper-stats block without a core -> sim dependency.
     */
    void writeJson(std::ostream &os,
                   const std::string &extra_fields = {}) const;

  private:
    /** One worker's slice of every counter and histogram.
     *
     * Cache-line aligned and only written by its owner; the atomics
     * exist for cold-path readers, not for inter-writer exclusion. */
    struct alignas(64) Shard
    {
        std::array<std::atomic<std::uint64_t>, kCounterCount> counters{};

        struct Hist
        {
            std::array<std::atomic<std::uint64_t>, kHistogramBuckets>
                buckets{};
            std::atomic<std::uint64_t> count{0};
            std::atomic<std::uint64_t> sum{0};
            std::atomic<std::uint64_t> max{0};
        };
        std::array<Hist, kHistogramCount> hists{};

        /** activations and cost interleaved: [2*node], [2*node+1]. */
        std::vector<std::atomic<std::uint64_t>> node_slots;

        /** Last epoch in which each production saw an activation. */
        std::vector<std::atomic<std::uint64_t>> prod_epoch;
    };

    /**
     * Maps a caller's worker index to its shard. An out-of-range
     * index is a matcher wiring bug (counts would be misattributed to
     * shard % size) — asserted in debug builds; release builds keep
     * the wrap so a bad index degrades telemetry instead of the run.
     */
    std::size_t
    shardIndex(std::size_t shard) const
    {
        assert(shard < shards_.size() &&
               "telemetry shard index out of range (worker/shard "
               "wiring bug)");
        return shard < shards_.size() ? shard
                                      : shard % shards_.size();
    }

    std::atomic<std::uint64_t> &
    slot(std::size_t shard, Counter c)
    {
        return shards_[shardIndex(shard)]
            .counters[static_cast<std::size_t>(c)];
    }

    void observeImpl(std::size_t shard, Histogram h,
                     std::uint64_t value);
    void nodeActivationImpl(std::size_t shard, int node_id,
                            std::uint64_t cost);

    std::vector<Shard> shards_;
    std::size_t n_nodes_ = 0;
    std::vector<int> node_production_;
    std::size_t n_productions_ = 0;

    // Epoch state: written only by the submitter at barriers, read
    // (relaxed) by workers marking productions.
    std::atomic<std::uint64_t> epoch_{0};
    std::uint64_t epochs_closed_ = 0;
    std::atomic<bool> epoch_open_{false};
};

} // namespace psm::telemetry

#endif // PSM_CORE_TELEMETRY_HPP
