/**
 * @file
 * Bit-identity suite for prefix-snapshot forking and state restore
 * (DESIGN.md §12).
 *
 * The contracts enforced here:
 *
 *  - **Copies are independent.** A copy of a PhysMem owns its pages:
 *    neither side ever observes the other's writes.
 *  - **Restore rewind.** Restoring the snapshot a machine last
 *    restored rewinds the cache journal; the result — cache state,
 *    every page's bytes, and the run that follows — equals a full
 *    copy, a page materialized since is dropped, and any other
 *    snapshot or a recycled snapshot clone takes the full copy
 *    (DESIGN.md §17).
 *  - **Concurrent restores.** Several threads may restore one
 *    snapshot at once and each gets exactly the serial result.
 *  - **Fork-vs-cold.** A trial forked from a post-warmup Snapshot and
 *    reseeded equals, bit for bit, a cold trial that runs the same
 *    warmup and reseeds at the same point — across fast-forward
 *    on/off, fault plans (including USCOPE_FAULT_PLAN=chaos, which
 *    the CI chaos job exports), worker counts 1/2/4, and every
 *    prefixCache × machinePool combination of the campaign runner.
 *
 * Runs under TSan in CI, where the worker sweep doubles as a race
 * check on the per-worker snapshot caches and machine pools, and the
 * concurrent-restore test checks that restoring never writes the
 * snapshot.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.hh"
#include "core/microscope.hh"
#include "crypto/aes.hh"
#include "crypto/aes_codegen.hh"
#include "exp/campaign.hh"
#include "exp/json.hh"
#include "mem/phys_mem.hh"
#include "os/machine.hh"

using namespace uscope;

namespace
{

// ---------------------------------------------------------------------
// PhysMem: a copy owns its pages.
// ---------------------------------------------------------------------

TEST(PhysMemCopy, CopiesAreIndependent)
{
    mem::PhysMem a(1 << 20);
    a.write64(0x1000, 0x1111111111111111ull);
    a.write64(0x2000, 0x2222222222222222ull);

    // Assignment replaces the target's own pages wholesale.
    mem::PhysMem b(1 << 20);
    b.write64(0x5000, 0x5555555555555555ull);
    b = a;
    EXPECT_EQ(b.pagesAllocated(), a.pagesAllocated());
    EXPECT_EQ(b.read64(0x1000), 0x1111111111111111ull);
    EXPECT_EQ(b.read64(0x2000), 0x2222222222222222ull);
    EXPECT_EQ(b.read64(0x5000), 0u);

    // Writes, fresh pages and zeroPage on either side stay there.
    b.write64(0x1000, 0xbbbbbbbbbbbbbbbbull);
    b.write64(0x3000, 0x3333333333333333ull);
    a.write64(0x2008, 0xaaaaaaaaaaaaaaaaull);
    const mem::PhysMem c(a);
    a.zeroPage(0x1000 / pageSize);
    EXPECT_EQ(a.read64(0x1000), 0u);
    EXPECT_EQ(a.read64(0x3000), 0u);
    EXPECT_EQ(b.read64(0x1000), 0xbbbbbbbbbbbbbbbbull);
    EXPECT_EQ(b.read64(0x2008), 0u);
    EXPECT_EQ(c.read64(0x1000), 0x1111111111111111ull);
    EXPECT_EQ(c.read64(0x2008), 0xaaaaaaaaaaaaaaaaull);
    EXPECT_EQ(c.pagesAllocated(), 2u);
    EXPECT_EQ(b.pagesAllocated(), 3u);
}

// ---------------------------------------------------------------------
// Machine-level fork, on an AES-victim workload.
// ---------------------------------------------------------------------

constexpr std::uint8_t victimKey[16] = {
    0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
    0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};

struct Victim
{
    os::Pid pid = 0;
    crypto::AesVictimLayout layout;
    std::shared_ptr<const cpu::Program> program;
};

/** The warmup prefix: enclave build + one warm decryption. */
Victim
buildVictim(os::Machine &machine)
{
    Victim v;
    const crypto::AesKey dec(victimKey, 128, true);
    const crypto::AesKey enc(victimKey, 128, false);
    os::Kernel &kernel = machine.kernel();
    v.pid = kernel.createProcess("aes-victim");
    v.layout = crypto::setupAesVictim(kernel, v.pid, dec);
    v.program = std::make_shared<const cpu::Program>(
        crypto::buildAesDecryptProgram(v.layout));

    const std::uint8_t warm_plain[16] = {};
    std::uint8_t ct[16];
    crypto::encryptBlock(enc, warm_plain, ct);
    crypto::loadCiphertext(kernel, v.pid, v.layout, ct);
    kernel.startOnContext(v.pid, 0, v.program);
    machine.runUntilHalted(0, 50'000'000);
    return v;
}

/** The per-trial body: decrypt a seed-derived ciphertext. */
void
runBody(os::Machine &machine, const Victim &v, std::uint64_t seed)
{
    const crypto::AesKey enc(victimKey, 128, false);
    Rng rng(seed);
    std::uint8_t plaintext[16], ct[16];
    for (unsigned i = 0; i < 16; ++i)
        plaintext[i] = static_cast<std::uint8_t>(rng.below(256));
    crypto::encryptBlock(enc, plaintext, ct);
    crypto::loadCiphertext(machine.kernel(), v.pid, v.layout, ct);
    machine.kernel().startOnContext(v.pid, 0, v.program);
    machine.runUntilHalted(0, 50'000'000);
}

/** A fresh machine restored from @p snap by the full copy. */
std::unique_ptr<os::Machine>
restored(const os::Snapshot &snap)
{
    auto m = std::make_unique<os::Machine>(snap.config());
    m->restoreFrom(snap);
    return m;
}

/** Restore counters of @p m: {full copies, rewinds}. */
std::pair<std::uint64_t, std::uint64_t>
restoreCounts(const os::Machine &m)
{
    const obs::MetricSnapshot metrics = m.metricsSnapshot();
    return {metrics.find("mem.physmem.shares_full")->counter,
            metrics.find("mem.physmem.shares_fast")->counter};
}

/** Every simulated metric the machine exports, plus the clock.
 *  mem.physmem.* counts restores by path — how a state was reached,
 *  which is exactly what forked-vs-cold arms differ in — so it is
 *  dropped, as exp::deterministicFingerprint drops it. */
std::string
stateFingerprint(const os::Machine &machine)
{
    obs::MetricSnapshot snap = machine.metricsSnapshot();
    snap.values.erase(
        std::remove_if(snap.values.begin(), snap.values.end(),
                       [](const obs::MetricValue &v) {
                           return v.name.rfind("mem.physmem.", 0) == 0;
                       }),
        snap.values.end());
    return snap.toJson().dump() + "@" + std::to_string(machine.cycle());
}

TEST(MachineFork, ForkedTrialIsBitIdenticalToColdTrial)
{
    constexpr std::uint64_t warmupSeed = 7001;
    constexpr std::uint64_t trialSeed = 9002;

    // Cold: construct with the warmup seed, run the warmup, reseed at
    // the fork point, run the body.
    os::MachineConfig config;
    config.seed = warmupSeed;
    os::Machine cold(config);
    const Victim coldVictim = buildVictim(cold);
    cold.reseed(trialSeed);
    runBody(cold, coldVictim, trialSeed);

    // Fork: run the same warmup once, snapshot, restore a fresh
    // machine from the snapshot, reseed with the same trial seed, run
    // the body.
    os::Machine warm(config);
    const Victim victim = buildVictim(warm);
    const os::Snapshot snap = warm.snapshot();
    os::Machine fork(config);
    fork.restoreFrom(snap);
    fork.reseed(trialSeed);
    runBody(fork, victim, trialSeed);

    EXPECT_EQ(stateFingerprint(fork), stateFingerprint(cold));
}

TEST(MachineFork, SiblingForksDoNotInterfere)
{
    os::MachineConfig config;
    config.seed = 7001;
    os::Machine warm(config);
    const Victim victim = buildVictim(warm);
    const os::Snapshot snap = warm.snapshot();

    // Reference: a lone fork running trial seed 1.
    const auto lone = restored(snap);
    lone->reseed(1);
    runBody(*lone, victim, 1);
    const std::string reference = stateFingerprint(*lone);

    // Two siblings off the same snapshot, run interleaved with
    // different seeds: sibling 1's result is unaffected by sibling
    // 2's writes.
    const auto fork1 = restored(snap);
    const auto fork2 = restored(snap);
    fork1->reseed(1);
    fork2->reseed(2);
    runBody(*fork2, victim, 2);
    runBody(*fork1, victim, 1);
    EXPECT_EQ(stateFingerprint(*fork1), reference);

    // The snapshot itself stayed frozen: a third fork still works.
    const auto fork3 = restored(snap);
    fork3->reseed(1);
    runBody(*fork3, victim, 1);
    EXPECT_EQ(stateFingerprint(*fork3), reference);
}

TEST(MachineFork, ConcurrentRestoresOfOneSnapshotAgree)
{
    os::MachineConfig config;
    config.seed = 7001;
    os::Machine warm(config);
    const Victim victim = buildVictim(warm);
    const os::Snapshot snap = warm.snapshot();

    // One worker's run: a full restore and a body, then a rewind and
    // a body.  Returns both end states and the restore counters.
    using Outcome =
        std::pair<std::string, std::pair<std::uint64_t, std::uint64_t>>;
    const auto work = [&](std::uint64_t seed) {
        os::Machine m(snap.config());
        std::string states;
        for (std::uint64_t round = 0; round < 2; ++round) {
            m.restoreFrom(snap);
            m.reseed(seed + round);
            runBody(m, victim, seed + round);
            states += stateFingerprint(m) + "\n";
        }
        return Outcome{states, restoreCounts(m)};
    };
    const Outcome serial1 = work(1);
    const Outcome serial2 = work(2);
    ASSERT_EQ(serial1.second, std::make_pair(std::uint64_t{1},
                                             std::uint64_t{1}));

    // Two threads restore the one snapshot at the same time.
    Outcome concurrent1, concurrent2;
    std::thread t1([&] { concurrent1 = work(1); });
    std::thread t2([&] { concurrent2 = work(2); });
    t1.join();
    t2.join();
    EXPECT_EQ(concurrent1, serial1);
    EXPECT_EQ(concurrent2, serial2);
}

TEST(MachineFork, StructuralMismatchIsRejected)
{
    os::Machine machine;
    os::MachineConfig other = machine.config();
    other.core.numContexts = machine.config().core.numContexts + 1;
    const os::Machine donor(other);
    EXPECT_THROW(machine.restoreFrom(donor.snapshot()), std::exception);
}

// ---------------------------------------------------------------------
// Restore: the undo-log rewind against a full copy as the oracle.
// ---------------------------------------------------------------------

/** Every materialized page of @p m, keyed by PPN. */
std::map<Ppn, std::vector<std::uint8_t>>
pageBytes(os::Machine &m)
{
    std::map<Ppn, std::vector<std::uint8_t>> out;
    for (const Ppn ppn : m.mem().pages()) {
        std::vector<std::uint8_t> bytes(pageSize);
        m.mem().readBytes(ppn << pageShift, bytes.data(), pageSize);
        out.emplace(ppn, std::move(bytes));
    }
    return out;
}

TEST(RestoreRewind, RewindEqualsFullCopy)
{
    os::MachineConfig config;
    config.seed = 7001;
    os::Machine m(config);
    const Victim victim = buildVictim(m);
    const os::Snapshot snap = m.snapshot();

    m.restoreFrom(snap);
    runBody(m, victim, 1);
    const auto before = restoreCounts(m);
    m.restoreFrom(snap);
    ASSERT_EQ(restoreCounts(m),
              std::make_pair(before.first, before.second + 1))
        << "the second restore of one snapshot must rewind";

    // Oracle: a machine built from the snapshot by the full copy.
    const auto oracle = restored(snap);
    EXPECT_EQ(m.cycle(), oracle->cycle());
    EXPECT_EQ(m.hierarchy().stateDigest(),
              oracle->hierarchy().stateDigest());
    EXPECT_EQ(pageBytes(m), pageBytes(*oracle));

    // And the rewound machine runs on exactly like the copy.
    m.reseed(2);
    oracle->reseed(2);
    runBody(m, victim, 2);
    runBody(*oracle, victim, 2);
    EXPECT_EQ(stateFingerprint(m), stateFingerprint(*oracle));
}

TEST(RestoreRewind, AlternatingSnapshotsTakeTheFullPath)
{
    os::MachineConfig config;
    config.seed = 7001;
    os::Machine m(config);
    const Victim victim = buildVictim(m);
    const os::Snapshot a = m.snapshot();
    runBody(m, victim, 1);
    const os::Snapshot b = m.snapshot();

    const auto before = restoreCounts(m);
    m.restoreFrom(a);
    m.restoreFrom(b);
    m.restoreFrom(a);
    EXPECT_EQ(restoreCounts(m),
              std::make_pair(before.first + 3, before.second));
    const auto oracle = restored(a);
    EXPECT_EQ(m.hierarchy().stateDigest(),
              oracle->hierarchy().stateDigest());
    EXPECT_EQ(pageBytes(m), pageBytes(*oracle));
}

TEST(RestoreRewind, RecycledScratchSlotTakesTheFullPath)
{
    // A dropped snapshot's frozen clone is reused for the next
    // snapshot.  That snapshot holds different state in the same
    // clone, so a restore from it must not rewind logs armed at the
    // first one.
    os::MachineConfig config;
    config.seed = 7001;
    os::Machine m(config);
    const Victim victim = buildVictim(m);
    std::optional<os::Snapshot> first = m.snapshot();
    m.restoreFrom(*first);
    first.reset();
    runBody(m, victim, 1);
    const os::Snapshot second = m.snapshot();
    runBody(m, victim, 2);

    const auto before = restoreCounts(m);
    m.restoreFrom(second);
    EXPECT_EQ(restoreCounts(m),
              std::make_pair(before.first + 1, before.second));
    const auto oracle = restored(second);
    EXPECT_EQ(m.cycle(), oracle->cycle());
    EXPECT_EQ(m.hierarchy().stateDigest(),
              oracle->hierarchy().stateDigest());
    EXPECT_EQ(pageBytes(m), pageBytes(*oracle));
}

TEST(RestoreRewind, FreshPageIsDroppedByARewind)
{
    os::MachineConfig config;
    config.seed = 7001;
    os::Machine m(config);
    buildVictim(m);
    const os::Snapshot snap = m.snapshot();
    m.restoreFrom(snap);

    // A page the snapshot never materialized: the rewind copies
    // memory whole, so the page is gone again afterwards.
    const PAddr fresh = PAddr{0xF000} << pageShift;
    ASSERT_EQ(m.mem().read64(fresh), 0u);
    const std::size_t pages = m.mem().pagesAllocated();
    m.mem().write64(fresh, 1);
    ASSERT_EQ(m.mem().pagesAllocated(), pages + 1);
    const auto before = restoreCounts(m);
    m.restoreFrom(snap);
    EXPECT_EQ(restoreCounts(m),
              std::make_pair(before.first, before.second + 1));
    EXPECT_EQ(m.mem().pagesAllocated(), pages);
    EXPECT_EQ(m.mem().read64(fresh), 0u);
    const auto oracle = restored(snap);
    EXPECT_EQ(m.hierarchy().stateDigest(),
              oracle->hierarchy().stateDigest());
    EXPECT_EQ(pageBytes(m), pageBytes(*oracle));
}

// ---------------------------------------------------------------------
// Campaign-level: prefixCache x machinePool x workers, under faults.
// ---------------------------------------------------------------------

/**
 * A warmup-heavy replay campaign: the prefix builds the enclave and
 * runs a warm decryption; each trial replays one MicroScope episode
 * against its own ciphertext.  The machine keeps its config defaults,
 * so the CI chaos job's USCOPE_FAULT_PLAN=chaos flows into every arm.
 */
exp::CampaignSpec
prefixCampaign(bool prefix_cache, bool pool, unsigned workers,
               bool fast_forward = true)
{
    exp::CampaignSpec spec;
    spec.name = "snapshot_prefix";
    spec.trials = 4;
    spec.masterSeed = 42;
    spec.workers = workers;
    spec.prefixCache = prefix_cache;
    spec.machinePool = pool;
    spec.machineFactory =
        [fast_forward](const exp::TrialContext &) {
            os::MachineConfig config;
            config.fastForward = fast_forward;
            return config;
        };
    spec.warmup = [](os::Machine &m) -> std::shared_ptr<const void> {
        return std::make_shared<Victim>(buildVictim(m));
    };
    spec.body = [](const exp::TrialContext &ctx) {
        os::Machine &m = *ctx.fork;
        const auto *v = static_cast<const Victim *>(ctx.warmupData);

        const crypto::AesKey enc(victimKey, 128, false);
        Rng rng(ctx.seed);
        std::uint8_t plaintext[16], ct[16];
        for (unsigned i = 0; i < 16; ++i)
            plaintext[i] = static_cast<std::uint8_t>(rng.below(256));
        crypto::encryptBlock(enc, plaintext, ct);
        crypto::loadCiphertext(m.kernel(), v->pid, v->layout, ct);

        std::uint64_t replayProbes = 0;
        ms::Microscope scope(m);
        ms::AttackRecipe recipe;
        recipe.victim = v->pid;
        recipe.replayHandle = v->layout.td0;
        recipe.pivot = v->layout.rk;
        recipe.confidence = 2;
        recipe.maxEpisodes = 1;
        recipe.walkPlan = ms::PageWalkPlan::longest();
        recipe.onReplay = [&](const ms::ReplayEvent &) {
            ++replayProbes;
            return true;
        };
        scope.setRecipe(std::move(recipe));

        scope.arm();
        m.kernel().startOnContext(v->pid, 0, v->program);
        m.runUntilHalted(0, 50'000'000);
        scope.disarm();

        exp::TrialOutput out;
        out.metric.add(static_cast<double>(replayProbes));
        out.simCycles = m.cycle() - ctx.forkCycle;
        out.scope.episodes = 1;
        out.scope.totalReplays = scope.stats().totalReplays;
        out.metrics = m.metricsSnapshot();
        out.payload = exp::json::Value::object()
                          .set("replay_probes", replayProbes)
                          .set("fork_cycle", ctx.forkCycle);
        return out;
    };
    return spec;
}

TEST(PrefixCampaign, FingerprintInvariantAcrossCachePoolAndWorkers)
{
    const std::string reference = exp::deterministicFingerprint(
        exp::runCampaign(prefixCampaign(false, false, 1)));
    ASSERT_FALSE(reference.empty());

    for (const bool cache : {false, true}) {
        for (const bool pool : {false, true}) {
            for (const unsigned workers : {1u, 2u, 4u}) {
                const std::string fp =
                    exp::deterministicFingerprint(exp::runCampaign(
                        prefixCampaign(cache, pool, workers)));
                EXPECT_EQ(fp, reference)
                    << "prefixCache=" << cache << " pool=" << pool
                    << " workers=" << workers;
            }
        }
    }
}

TEST(PrefixCampaign, FingerprintInvariantWithFastForwardOff)
{
    const std::string slow =
        exp::deterministicFingerprint(exp::runCampaign(
            prefixCampaign(false, false, 1, /*fast_forward=*/false)));
    const std::string forked =
        exp::deterministicFingerprint(exp::runCampaign(
            prefixCampaign(true, true, 2, /*fast_forward=*/false)));
    EXPECT_EQ(forked, slow);
}

TEST(PrefixCampaign, FailedTrialsDoNotPoisonThePooledMachine)
{
    // Odd trials start the victim on the runner's machine, run part of
    // it, and throw: the next trial on that worker reuses the pooled
    // machine (or the cached warmup snapshot), and must still see the
    // post-warmup state exactly as a cold, unpooled trial does.
    const auto failing = [](bool cache, bool pool) {
        exp::CampaignSpec spec = prefixCampaign(cache, pool, 1);
        auto inner = spec.body;
        spec.body = [inner](const exp::TrialContext &ctx) {
            if (ctx.index % 2 == 0)
                return inner(ctx);
            const auto *v = static_cast<const Victim *>(ctx.warmupData);
            ctx.fork->kernel().startOnContext(v->pid, 0, v->program);
            ctx.fork->run(20'000);
            throw std::runtime_error("trial dies mid-body");
        };
        return spec;
    };
    const exp::CampaignResult cold =
        exp::runCampaign(failing(false, false));
    const exp::CampaignResult forked =
        exp::runCampaign(failing(true, true));
    EXPECT_EQ(cold.aggregate.failed, 2u);
    EXPECT_EQ(cold.aggregate.ok, 2u);
    EXPECT_EQ(exp::deterministicFingerprint(forked),
              exp::deterministicFingerprint(cold));

    // The surviving trials match a campaign in which nothing failed.
    const exp::CampaignResult clean =
        exp::runCampaign(prefixCampaign(true, true, 1));
    for (std::size_t i = 0; i < clean.trials.size(); i += 2) {
        EXPECT_EQ(forked.trials[i].output.payload.dump(),
                  clean.trials[i].output.payload.dump())
            << "trial " << i;
        EXPECT_EQ(forked.trials[i].output.simCycles,
                  clean.trials[i].output.simCycles)
            << "trial " << i;
    }
}

// ---------------------------------------------------------------------
// perTrialMetrics: skip the work, keep the aggregate.
// ---------------------------------------------------------------------

TEST(PerTrialMetrics, DroppedSnapshotsLeaveAggregateIntact)
{
    exp::CampaignSpec with = prefixCampaign(true, true, 1);
    exp::CampaignSpec without = prefixCampaign(true, true, 1);
    without.perTrialMetrics = false;

    const exp::CampaignResult kept = exp::runCampaign(std::move(with));
    const exp::CampaignResult dropped =
        exp::runCampaign(std::move(without));

    // The aggregate (including merged metrics) is unaffected...
    EXPECT_EQ(dropped.aggregate.toJson().dump(),
              kept.aggregate.toJson().dump());
    ASSERT_EQ(dropped.trials.size(), kept.trials.size());
    for (std::size_t i = 0; i < dropped.trials.size(); ++i) {
        // ...while the per-trial snapshots are gone, and their JSON
        // omits the "metrics" block instead of serializing it.
        EXPECT_TRUE(dropped.trials[i].output.metrics.empty());
        EXPECT_FALSE(kept.trials[i].output.metrics.empty());
        const std::string trialJson =
            dropped.trials[i].toJson().dump();
        EXPECT_EQ(trialJson.find("\"metrics\""), std::string::npos);
    }
}

TEST(PerTrialMetrics, IncompatibleWithCheckpointDir)
{
    exp::CampaignSpec spec = prefixCampaign(true, true, 1);
    spec.perTrialMetrics = false;
    spec.checkpointDir = "/tmp/uscope-test-never-created";
    EXPECT_THROW(exp::CampaignRunner{std::move(spec)},
                 std::invalid_argument);
}

} // namespace
