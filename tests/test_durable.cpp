/**
 * @file
 * Durable-state tests: snapshot/WAL format corruption handling, torn
 * tails, sequence gaps, crash recovery through the Manager, recovery
 * equivalence across every matcher configuration, and serve-layer
 * warm starts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "core/parallel_matcher.hpp"
#include "core/production_parallel.hpp"
#include "durable/durable.hpp"
#include "rete/matcher.hpp"
#include "serve/serve.hpp"
#include "treat/fullstate.hpp"
#include "treat/naive.hpp"
#include "treat/treat.hpp"
#include "workloads/generator.hpp"
#include "workloads/presets.hpp"

using namespace psm;
namespace fs = std::filesystem;

namespace {

/** Fresh scratch directory under the gtest temp root. */
std::string
scratchDir(const std::string &name)
{
    std::string dir = ::testing::TempDir() + "psm_durable_" + name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

/** Canonical conflict-set snapshot: sorted (production, tags) keys. */
std::vector<std::pair<int, std::vector<ops5::TimeTag>>>
csSnapshot(const ops5::ConflictSet &cs)
{
    std::vector<std::pair<int, std::vector<ops5::TimeTag>>> out;
    for (const ops5::Instantiation &inst : cs.contents()) {
        ops5::InstantiationKey key = ops5::InstantiationKey::of(inst);
        out.emplace_back(key.production_id, key.tags);
    }
    std::sort(out.begin(), out.end());
    return out;
}

/** Everything recovery must reproduce exactly. */
struct EngineImage
{
    std::vector<std::tuple<ops5::TimeTag, ops5::SymbolId,
                           std::vector<ops5::Value>>>
        wmes;
    std::vector<std::pair<int, std::vector<ops5::TimeTag>>> conflict;
    std::uint64_t cycles = 0, firings = 0, wme_changes = 0;
    std::uint64_t batch_seq = 0;
    ops5::TimeTag next_tag = 0;
};

EngineImage
imageOf(core::Engine &engine)
{
    EngineImage img;
    for (const ops5::Wme *w : engine.workingMemory().liveElements()) {
        std::vector<ops5::Value> fields;
        for (int f = 0; f < w->fieldCount(); ++f)
            fields.push_back(w->field(f));
        img.wmes.emplace_back(w->timeTag(), w->className(),
                              std::move(fields));
    }
    std::sort(img.wmes.begin(), img.wmes.end(),
              [](const auto &a, const auto &b) {
                  return std::get<0>(a) < std::get<0>(b);
              });
    img.conflict = csSnapshot(engine.matcher().conflictSet());
    img.cycles = engine.totals().cycles;
    img.firings = engine.totals().firings;
    img.wme_changes = engine.totals().wme_changes;
    img.batch_seq = engine.batchSeq();
    img.next_tag = engine.workingMemory().nextTag();
    return img;
}

void
expectSameImage(const EngineImage &a, const EngineImage &b,
                const std::string &what)
{
    EXPECT_EQ(a.wmes, b.wmes) << what << ": working memory differs";
    EXPECT_EQ(a.conflict, b.conflict) << what << ": conflict set differs";
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(a.firings, b.firings) << what;
    EXPECT_EQ(a.wme_changes, b.wme_changes) << what;
    EXPECT_EQ(a.batch_seq, b.batch_seq) << what;
    EXPECT_EQ(a.next_tag, b.next_tag) << what;
}

/** One deterministic workload step: a burst of template inserts
 *  committed as a single external batch, then a bounded run. */
void
driveStep(core::Engine &engine, int step)
{
    const auto &templates = engine.program().initialWmes();
    {
        core::Engine::ExternalBatch batch(engine);
        for (int i = 0; i < 3; ++i) {
            const auto &t =
                templates[(step * 3 + i) % templates.size()];
            batch.insert(t.cls, t.fields);
        }
        batch.commit();
    }
    engine.run(2);
}

std::shared_ptr<const ops5::Program>
tinyProgram(std::uint64_t seed = 7)
{
    auto preset = workloads::tinyPreset(seed);
    return workloads::generateProgram(preset.config);
}

/** Builds durable state in @p dir with a serial-Rete engine: initial
 *  load, @p steps workload steps, a checkpoint after `checkpoint_at`
 *  steps, and NO final checkpoint (the WAL keeps a live tail). The
 *  engine is left exactly at the last logged batch, manager detached —
 *  the moral equivalent of SIGKILL with an fsynced WAL. */
EngineImage
buildDurableState(std::shared_ptr<const ops5::Program> program,
                  const std::string &dir, int steps, int checkpoint_at)
{
    rete::ReteMatcher matcher(program);
    core::Engine engine(program, matcher);
    durable::DurableOptions opts;
    opts.dir = dir;
    opts.fsync = durable::FsyncPolicy::Always;
    durable::Manager manager(engine, opts);
    manager.begin();
    engine.loadInitialWorkingMemory();
    for (int s = 0; s < steps; ++s) {
        driveStep(engine, s);
        if (s + 1 == checkpoint_at)
            manager.checkpoint();
    }
    return imageOf(engine);
}

TEST(DurableFormat, SnapshotRoundTrip)
{
    auto program = tinyProgram();
    rete::ReteMatcher matcher(program);
    core::Engine engine(program, matcher);
    engine.loadInitialWorkingMemory();
    engine.run(4);

    durable::SnapshotData snap = durable::captureSnapshot(engine);
    ASSERT_TRUE(snap.rete.present);
    std::vector<std::uint8_t> bytes = durable::encodeSnapshot(snap);
    durable::SnapshotData back = durable::decodeSnapshot(bytes);

    EXPECT_EQ(back.fingerprint, snap.fingerprint);
    EXPECT_EQ(back.batch_seq, snap.batch_seq);
    EXPECT_EQ(back.next_tag, snap.next_tag);
    EXPECT_EQ(back.symbols, snap.symbols);
    ASSERT_EQ(back.wmes.size(), snap.wmes.size());
    for (std::size_t i = 0; i < snap.wmes.size(); ++i) {
        EXPECT_EQ(back.wmes[i].tag, snap.wmes[i].tag);
        EXPECT_EQ(back.wmes[i].cls, snap.wmes[i].cls);
        EXPECT_EQ(back.wmes[i].fields, snap.wmes[i].fields);
    }
    EXPECT_EQ(back.fired.size(), snap.fired.size());
    EXPECT_EQ(back.rete.present, snap.rete.present);
    EXPECT_EQ(back.rete.nodes.size(), snap.rete.nodes.size());
}

TEST(DurableFormat, StateRestorePassesFullValidation)
{
    auto program = tinyProgram();
    rete::ReteMatcher matcher(program);
    core::Engine engine(program, matcher);
    engine.loadInitialWorkingMemory();
    engine.run(5);
    durable::SnapshotData snap = durable::captureSnapshot(engine);

    rete::ReteMatcher matcher2(program);
    core::Engine engine2(program, matcher2);
    // Explicit Full validation: re-derives every memory from WM and
    // cross-checks the restored state against it.
    durable::stateRestore(engine2, matcher2, snap,
                          durable::RestoreValidation::Full);
    expectSameImage(imageOf(engine2), imageOf(engine),
                    "fully validated state restore");
}

TEST(DurableFormat, ParallelSessionRestoresMatchState)
{
    // The parallel matcher runs serial Rete's executor over the same
    // fully shared network, so its match state snapshots and restores
    // as serial Rete's does, here straight after worker batches.
    auto program = tinyProgram();
    core::ParallelOptions opt;
    opt.n_workers = 2;
    const rete::CostModel fine_grain{.worker_wake = 0};
    core::ParallelReteMatcher matcher(program, opt, fine_grain);
    core::Engine engine(program, matcher);
    engine.loadInitialWorkingMemory();
    engine.run(5);
    durable::SnapshotData snap = durable::captureSnapshot(engine);
    ASSERT_TRUE(snap.rete.present);

    core::ParallelReteMatcher matcher2(program, opt, fine_grain);
    core::Engine engine2(program, matcher2);
    EXPECT_TRUE(durable::restoreSnapshot(engine2, snap,
                                         durable::RestoreValidation::Full));
    rete::ReteMatcher serial(program);
    core::Engine engine3(program, serial);
    EXPECT_TRUE(durable::restoreSnapshot(engine3, snap,
                                         durable::RestoreValidation::Full));
    expectSameImage(imageOf(engine2), imageOf(engine),
                    "parallel state restore");
    // The restored sessions keep matching in lockstep with the one
    // that never stopped.
    for (int step = 0; step < 4; ++step) {
        driveStep(engine, step);
        driveStep(engine2, step);
        driveStep(engine3, step);
        const std::string at = " step " + std::to_string(step);
        expectSameImage(imageOf(engine2), imageOf(engine),
                        "restored parallel" + at);
        expectSameImage(imageOf(engine3), imageOf(engine),
                        "serial restored from a parallel snapshot" + at);
    }
}

TEST(DurableFormat, SnapshotRejectsBitFlips)
{
    auto program = tinyProgram();
    rete::ReteMatcher matcher(program);
    core::Engine engine(program, matcher);
    engine.loadInitialWorkingMemory();
    engine.run(2);
    std::vector<std::uint8_t> bytes =
        durable::encodeSnapshot(durable::captureSnapshot(engine));

    // Flip one bit at several positions spread across the image —
    // every flip must be caught by the CRC (or fail to parse), never
    // silently produce a different snapshot.
    for (std::size_t pos = 0; pos < bytes.size();
         pos += std::max<std::size_t>(bytes.size() / 13, 1)) {
        std::vector<std::uint8_t> bad = bytes;
        bad[pos] ^= 0x40;
        EXPECT_THROW(durable::decodeSnapshot(bad), durable::DurableError)
            << "flip at byte " << pos;
    }
    // Truncation too.
    std::vector<std::uint8_t> cut(bytes.begin(),
                                  bytes.begin() + bytes.size() / 2);
    EXPECT_THROW(durable::decodeSnapshot(cut), durable::DurableError);
}

TEST(DurableWal, TornFinalRecordIsCut)
{
    auto program = tinyProgram();
    std::string dir = scratchDir("torn");
    buildDurableState(program, dir, 6, 0);
    std::uint64_t fp = durable::programFingerprint(*program);

    durable::WalReadResult whole = durable::readWal(dir + "/wal.plog", fp);
    ASSERT_GE(whole.records.size(), 6u);
    EXPECT_FALSE(whole.truncated);

    // Cut the file mid-way through the final record: recovery must
    // keep every earlier record and flag the torn tail.
    fs::resize_file(dir + "/wal.plog",
                    fs::file_size(dir + "/wal.plog") - 3);
    durable::WalReadResult torn = durable::readWal(dir + "/wal.plog", fp);
    EXPECT_TRUE(torn.truncated);
    EXPECT_EQ(torn.records.size(), whole.records.size() - 1);
    for (std::size_t i = 0; i < torn.records.size(); ++i)
        EXPECT_EQ(torn.records[i].seq, whole.records[i].seq);
}

TEST(DurableWal, BitFlippedRecordStopsTheScan)
{
    auto program = tinyProgram();
    std::string dir = scratchDir("flip");
    buildDurableState(program, dir, 6, 0);
    std::uint64_t fp = durable::programFingerprint(*program);
    durable::WalReadResult whole = durable::readWal(dir + "/wal.plog", fp);
    ASSERT_GE(whole.records.size(), 3u);

    // Corrupt a byte near the end of the file (inside the last
    // record's payload): CRC must reject it, keeping the prefix.
    std::fstream f(dir + "/wal.plog",
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-5, std::ios::end);
    char c;
    f.get(c);
    f.seekp(-5, std::ios::end);
    f.put(static_cast<char>(c ^ 0x10));
    f.close();

    durable::WalReadResult flipped =
        durable::readWal(dir + "/wal.plog", fp);
    EXPECT_TRUE(flipped.truncated);
    EXPECT_LT(flipped.records.size(), whole.records.size());
    EXPECT_FALSE(flipped.truncation_reason.empty());
}

TEST(DurableWal, EmptyAndMissingWalsReadAsEmpty)
{
    auto program = tinyProgram();
    std::string dir = scratchDir("empty");
    std::uint64_t fp = durable::programFingerprint(*program);

    durable::WalReadResult missing =
        durable::readWal(dir + "/wal.plog", fp);
    EXPECT_TRUE(missing.records.empty());
    EXPECT_FALSE(missing.truncated);

    { // Header-only WAL (writer opened, nothing appended).
        durable::WalWriter w(dir + "/wal.plog",
                             durable::FsyncPolicy::None, fp);
    }
    durable::WalReadResult empty =
        durable::readWal(dir + "/wal.plog", fp);
    EXPECT_TRUE(empty.records.empty());
    EXPECT_FALSE(empty.truncated);

    // A foreign program's WAL is an error, not a truncation.
    EXPECT_THROW(durable::readWal(dir + "/wal.plog", fp + 1),
                 durable::DurableError);
}

TEST(DurableRecovery, SequenceGapIsRejected)
{
    auto program = tinyProgram();
    std::string dir = scratchDir("gap");
    std::uint64_t fp = durable::programFingerprint(*program);

    // A WAL whose first record claims seq 2 against a fresh engine
    // (batch_seq 0) has a hole at seq 1 — replay must refuse.
    core::LoggedBatch record;
    record.seq = 2;
    record.origin = core::BatchOrigin::External;
    record.cycles_after = 0;
    record.wme_changes_after = 0;
    record.next_tag_after = 1;
    {
        durable::WalWriter w(dir + "/wal.plog",
                             durable::FsyncPolicy::Always, fp);
        w.append(record);
    }

    rete::ReteMatcher matcher(program);
    core::Engine engine(program, matcher);
    durable::DurableOptions opts;
    opts.dir = dir;
    durable::Manager manager(engine, opts);
    EXPECT_THROW(manager.recover(), durable::DurableError);
}

TEST(DurableRecovery, CycleCounterDivergenceIsRejected)
{
    auto program = tinyProgram();
    rete::ReteMatcher matcher(program);
    core::Engine engine(program, matcher);

    const auto &t = program->initialWmes().at(0);
    core::LoggedBatch record;
    record.seq = 1;
    record.origin = core::BatchOrigin::External;
    core::LoggedBatch::Change change;
    change.kind = ops5::ChangeKind::Insert;
    change.tag = 1;
    change.cls = t.cls;
    change.fields = t.fields;
    record.changes.push_back(change);
    record.next_tag_after = 2;
    record.wme_changes_after = 1;
    record.cycles_after = 99; // lies about the cycle counter
    EXPECT_THROW(engine.applyLoggedBatch(record), std::runtime_error);
}

TEST(DurableRecovery, BeginWithoutRecoverOnStatefulDirThrows)
{
    auto program = tinyProgram();
    std::string dir = scratchDir("beginguard");
    buildDurableState(program, dir, 3, 0);

    rete::ReteMatcher matcher(program);
    core::Engine engine(program, matcher);
    durable::DurableOptions opts;
    opts.dir = dir;
    durable::Manager manager(engine, opts);
    EXPECT_THROW(manager.begin(), durable::DurableError);
}

TEST(DurableRecovery, ForeignProgramSnapshotRejected)
{
    auto program = tinyProgram(7);
    std::string dir = scratchDir("foreign");
    buildDurableState(program, dir, 3, 2);

    auto other = tinyProgram(8);
    rete::ReteMatcher matcher(other);
    core::Engine engine(other, matcher);
    durable::DurableOptions opts;
    opts.dir = dir;
    durable::Manager manager(engine, opts);
    EXPECT_THROW(manager.recover(), durable::DurableError);
}

/**
 * The acceptance property: durable state written by one engine
 * (snapshot mid-history + WAL tail, simulated crash) recovers into
 * EVERY matcher configuration with the exact working memory, conflict
 * set, counters, and time tags — and every recovered engine then
 * diverges identically under an identical post-recovery workload.
 */
TEST(DurableEquivalence, RecoverThenDivergeAcrossAllMatchers)
{
    auto program = tinyProgram(11);
    std::string dir = scratchDir("equiv");
    EngineImage crashed = buildDurableState(program, dir, 8, 4);

    rete::ReteMatcher shared_rete(program);
    rete::ReteMatcher hashed_rete(
        std::make_shared<rete::Network>(program), rete::CostModel{},
        /*hash_joins=*/true);
    rete::ReteMatcher private_rete(std::make_shared<rete::Network>(
        program, rete::NetworkOptions::privateState()));
    treat::TreatMatcher treat(program);
    treat::NaiveMatcher naive(program);
    treat::FullStateMatcher fullstate(program);
    core::ProductionParallelMatcher prod_par0(program, 0);
    core::ProductionParallelMatcher prod_par3(program, 3);
    core::ParallelOptions serial_par;
    serial_par.n_workers = 0;
    core::ParallelReteMatcher par0(program, serial_par);
    core::ParallelOptions two;
    two.n_workers = 2;
    core::ParallelReteMatcher par2(program, two);
    core::ParallelOptions three;
    three.n_workers = 3;
    core::ParallelReteMatcher par3(program, three);

    std::vector<core::Matcher *> matchers = {
        &shared_rete, &hashed_rete, &private_rete, &treat,
        &naive,       &fullstate,   &prod_par0,    &prod_par3,
        &par0,        &par2,        &par3,
    };

    std::vector<std::unique_ptr<core::Engine>> engines;
    for (core::Matcher *m : matchers) {
        auto engine = std::make_unique<core::Engine>(program, *m);
        durable::DurableOptions opts;
        opts.dir = dir;
        durable::Manager manager(*engine, opts);
        durable::RecoveryStats stats = manager.recover();
        EXPECT_TRUE(stats.recovered) << m->name();
        EXPECT_GT(stats.wal_records_replayed, 0u) << m->name();
        // Only the Rete matchers on the shared node layout can take
        // the state-restore path (the parallel matcher is serial
        // Rete's executor over that layout); everyone else replays.
        bool can_state = m == &shared_rete || m == &hashed_rete ||
                         m == &par0 || m == &par2 || m == &par3;
        EXPECT_EQ(stats.state_restored, can_state) << m->name();
        expectSameImage(imageOf(*engine), crashed,
                        std::string("recovery into ") + m->name());
        engines.push_back(std::move(engine));
    }

    // Post-recovery divergence: identical workloads must keep every
    // configuration in lockstep with the naive ground truth.
    for (int step = 100; step < 104; ++step) {
        for (auto &engine : engines)
            driveStep(*engine, step);
        EngineImage expected = imageOf(*engines[4]); // naive
        for (std::size_t i = 0; i < engines.size(); ++i)
            expectSameImage(imageOf(*engines[i]), expected,
                            std::string("post-recovery step ") +
                                std::to_string(step) + " on " +
                                matchers[i]->name());
    }
}

/** Garbage appended past the last intact record (a crash mid-append)
 *  must recover to exactly the crashed image, with the tail flagged. */
TEST(DurableRecovery, GarbageTailStillRecoversExactly)
{
    auto program = tinyProgram(13);
    std::string dir = scratchDir("garbage");
    EngineImage crashed = buildDurableState(program, dir, 5, 3);

    {
        std::ofstream f(dir + "/wal.plog",
                        std::ios::app | std::ios::binary);
        const char junk[] = "\x37\x00\x00\x00garbage-half-record";
        f.write(junk, sizeof junk - 1);
    }

    rete::ReteMatcher matcher(program);
    core::Engine engine(program, matcher);
    durable::DurableOptions opts;
    opts.dir = dir;
    durable::Manager manager(engine, opts);
    durable::RecoveryStats stats = manager.recover();
    EXPECT_TRUE(stats.recovered);
    EXPECT_TRUE(stats.wal_truncated);
    expectSameImage(imageOf(engine), crashed, "garbage-tail recovery");

    // begin() must cut the tail so new appends are reachable.
    manager.begin();
    durable::WalReadResult wal = durable::readWal(
        dir + "/wal.plog", durable::programFingerprint(*program));
    EXPECT_FALSE(wal.truncated);
}

/** A corrupt newest snapshot makes recovery fall back to the previous
 *  one — but when the WAL tail no longer chains onto that older
 *  snapshot, recovery must refuse rather than resurrect a stale
 *  prefix as if it were current. */
TEST(DurableRecovery, CorruptNewestSnapshotNeverResurrectsStaleState)
{
    auto program = tinyProgram(17);
    std::string dir = scratchDir("fallback");

    rete::ReteMatcher matcher(program);
    core::Engine engine(program, matcher);
    durable::DurableOptions opts;
    opts.dir = dir;
    opts.fsync = durable::FsyncPolicy::Always;
    opts.keep_snapshots = 4;
    std::string newest;
    {
        durable::Manager manager(engine, opts);
        manager.begin();
        engine.loadInitialWorkingMemory();
        driveStep(engine, 0);
        manager.checkpoint();
        driveStep(engine, 1);
        manager.checkpoint();
        newest = dir + "/snap-" + std::to_string(engine.batchSeq()) +
                 ".psnap";
        driveStep(engine, 2);
    }
    ASSERT_TRUE(fs::exists(newest));

    // Checkpoints truncate the WAL, so only the tail past the newest
    // snapshot exists — flip a byte in the newest snapshot and the
    // older one alone CANNOT reach the crashed image; recovery must
    // fail loudly rather than resurrect a stale prefix.
    {
        std::fstream f(newest,
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(10);
        char c;
        f.seekg(10);
        f.get(c);
        f.seekp(10);
        f.put(static_cast<char>(c ^ 0x01));
    }
    rete::ReteMatcher matcher2(program);
    core::Engine engine2(program, matcher2);
    durable::Manager manager2(engine2, opts);
    // The WAL's first tail record seq does not chain onto the older
    // snapshot — a gap, which recovery rejects instead of guessing.
    EXPECT_THROW(manager2.recover(), durable::DurableError);
}

TEST(DurableServe, DrainCheckpointThenWarmStart)
{
    auto program = tinyProgram(19);
    std::string dir = scratchDir("serve");

    serve::PoolOptions opts;
    opts.n_sessions = 2;
    opts.n_threads = 2;
    opts.durability.dir = dir;
    opts.durability.fsync = durable::FsyncPolicy::Batch;

    std::vector<EngineImage> before;
    {
        serve::SessionPool pool(program, opts);
        const auto &t = program->initialWmes().at(0);
        std::vector<serve::Submit> subs;
        for (int i = 0; i < 20; ++i)
            subs.push_back(pool.submit(
                i % 2, serve::Request::makeAssert(t.cls, t.fields)));
        for (int i = 0; i < 2; ++i)
            subs.push_back(
                pool.submit(i, serve::Request::makeRun(4)));
        for (auto &s : subs) {
            ASSERT_TRUE(s.accepted());
            s.response.get();
        }
        pool.drain(); // on_drain checkpoint (default policy)
        before.push_back(imageOf(pool.engine(0)));
        before.push_back(imageOf(pool.engine(1)));
    }
    ASSERT_TRUE(fs::exists(
        serve::SessionPool::sessionDir(dir, 0) + "/wal.plog"));

    serve::PoolOptions warm = opts;
    warm.restore = true;
    warm.autostart = false;
    serve::SessionPool pool2(program, warm);
    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_TRUE(pool2.recoveryStats(i).recovered) << i;
        expectSameImage(imageOf(pool2.engine(i)), before[i],
                        "warm-started session " + std::to_string(i));
    }
}

/** Collects everything the primary ships, like a standby's receive
 *  loop (minus the socket). */
struct CaptureSink : durable::WalShipSink
{
    std::vector<durable::WalFrame> frames;
    std::uint64_t checkpoints = 0;

    void onWalFrame(std::uint64_t seq,
                    std::span<const std::uint8_t> frame) override
    {
        frames.push_back({seq, {frame.begin(), frame.end()}});
    }
    void onCheckpoint(std::uint64_t, const std::string &) override
    {
        ++checkpoints;
        frames.clear(); // a checkpoint resets the replica log too
    }
};

TEST(DurableWal, ShippedReplicaTornTailRecoversLikeLocal)
{
    auto program = tinyProgram(23);
    std::string pdir = scratchDir("ship_primary");
    std::string rdir = scratchDir("ship_replica");
    const std::uint64_t fp = durable::programFingerprint(*program);

    // Primary: every committed batch is offered to the ship sink.
    CaptureSink sink;
    {
        rete::ReteMatcher matcher(program);
        core::Engine engine(program, matcher);
        durable::DurableOptions opts;
        opts.dir = pdir;
        opts.fsync = durable::FsyncPolicy::Always;
        opts.ship = &sink;
        durable::Manager manager(engine, opts);
        manager.begin();
        engine.loadInitialWorkingMemory();
        for (int s = 0; s < 4; ++s)
            driveStep(engine, s);
    }
    ASSERT_GE(sink.frames.size(), 3u);
    EXPECT_EQ(sink.checkpoints, 0u);

    const std::string pwal = pdir + "/wal.plog";
    const std::string rwal = rdir + "/wal.plog";

    // The read-only frame iterator sees exactly what the sink saw —
    // it is the catch-up path for a standby that (re)connects late.
    std::vector<durable::WalFrame> all =
        durable::readWalFramesSince(pwal, fp, 0);
    ASSERT_EQ(all.size(), sink.frames.size());
    for (std::size_t i = 0; i < all.size(); ++i) {
        EXPECT_EQ(all[i].seq, sink.frames[i].seq) << i;
        EXPECT_EQ(all[i].bytes, sink.frames[i].bytes) << i;
    }
    std::vector<durable::WalFrame> tail =
        durable::readWalFramesSince(pwal, fp, all[1].seq);
    ASSERT_EQ(tail.size(), all.size() - 2);
    EXPECT_EQ(tail.front().seq, all[2].seq)
        << "after_seq must filter strictly greater";

    // Replica log built the receive-path way (appendRawFrame
    // revalidates each frame's CRC before it touches the log).
    {
        durable::WalWriter writer(rwal, durable::FsyncPolicy::None,
                                  fp);
        for (const durable::WalFrame &f : sink.frames)
            writer.appendRawFrame(f.bytes);
    }
    ASSERT_EQ(fs::file_size(pwal), fs::file_size(rwal))
        << "shipped log must be byte-identical to the source";

    // SIGKILL both sides mid-append of the final frame.
    const std::uintmax_t torn_size = fs::file_size(pwal) - 5;
    fs::resize_file(pwal, torn_size);
    fs::resize_file(rwal, torn_size);

    durable::WalReadResult pres = durable::readWal(pwal, fp);
    durable::WalReadResult rres = durable::readWal(rwal, fp);
    EXPECT_TRUE(pres.truncated);
    EXPECT_TRUE(rres.truncated);
    EXPECT_EQ(pres.valid_bytes, rres.valid_bytes);
    ASSERT_EQ(pres.records.size(), sink.frames.size() - 1);
    EXPECT_EQ(rres.records.size(), pres.records.size());

    // A torn frame is invisible to shipping: a standby of the
    // standby would never receive half a record.
    EXPECT_EQ(durable::readWalFramesSince(rwal, fp, 0).size(),
              sink.frames.size() - 1);

    // Both sides recover through the same torn-tail cut and land on
    // the same engine image.
    EngineImage imgs[2];
    const std::string *dirs[2] = {&pdir, &rdir};
    for (int i = 0; i < 2; ++i) {
        rete::ReteMatcher matcher(program);
        core::Engine engine(program, matcher);
        durable::DurableOptions opts;
        opts.dir = *dirs[i];
        durable::Manager manager(engine, opts);
        durable::RecoveryStats rs = manager.recover();
        EXPECT_TRUE(rs.recovered) << *dirs[i];
        imgs[i] = imageOf(engine);
    }
    expectSameImage(imgs[1], imgs[0],
                    "shipped replica after torn tail");
}

} // namespace
