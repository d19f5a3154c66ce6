/**
 * @file
 * Throughput A/B benchmarks for the campaign runner.  Each section
 * times a baseline arm against a candidate arm — two campaign specs
 * that must give byte-identical results — with one routine, runAb():
 * abPairs interleaved pairs, alternating which arm runs first; inside
 * an arm the campaign repeats until abMinArmSeconds have passed, and
 * the arm's time is seconds per campaign.  Every run's deterministic
 * fingerprint must equal the first run's and every trial must end Ok.
 * Each section writes bench-results/BENCH_<section>.json in the one
 * layout of writeBench(), and fails on its own gate:
 *
 *  1. sharding: a Fig.-10-style sweep at 1 worker against 4; the
 *     median speedup must reach 2x on a host with >= 4 cores.
 *  2. fastforward: Fig.-11-shaped AES trials with fast-forward off
 *     against on (DESIGN.md §10); the speedup is only reported.
 *  3. prefix: a warmup-heavy AES arm run cold against forked from a
 *     per-worker warmup snapshot (prefixCache + machinePool,
 *     DESIGN.md §12), and forked without the pool against with it.
 *  5. obs: section 2's ff-on campaign at ObsLevel::Off against Metrics
 *     (DESIGN.md §14); the median overhead must stay <=
 *     obsOverheadGate, and one Trace run must merge every trial into
 *     bench-results/perf_campaign_obs.trace.json.
 *  6. diffreplay: denoise-shaped episodes re-simulated against
 *     restored from the episode snapshot (DESIGN.md §15).
 *
 * In sections 3 and 6 the fast arm must win at least 9 of 10 pairs
 * with a median speedup of at least 1.0, and each arm's fingerprint
 * goes to BENCH_<section>_fp_{off,on}.txt.  `--section=N` runs one
 * section; any other argument exits 2 before anything runs.
 */

#include <algorithm>
#include <array>
#include <cstdio>
#include <initializer_list>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "attack/aes_attack.hh"
#include "attack/port_contention.hh"
#include "common/fsio.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "core/microscope.hh"
#include "crypto/aes.hh"
#include "crypto/aes_codegen.hh"
#include "exp/campaign.hh"
#include "exp/result_sink.hh"
#include "obs/chrome_trace.hh"
#include "obs/cli.hh"

using namespace uscope;

namespace
{

using exp::deterministicFingerprint;
using exp::fnv1aHex;

constexpr std::size_t fig10Trials = 16;
constexpr std::size_t fig11Trials = 8;

/** Per-line probe latencies, one row per probe, for a trial payload. */
exp::json::Value
probeLatencies(const std::vector<attack::LineProbe> &probes)
{
    exp::json::Value rows = exp::json::Value::array();
    for (const attack::LineProbe &probe : probes) {
        exp::json::Value row = exp::json::Value::array();
        for (Cycles latency : probe.latency)
            row.push(latency);
        rows.push(std::move(row));
    }
    return rows;
}

exp::CampaignSpec
fig10StyleSpec(unsigned workers)
{
    exp::CampaignSpec spec;
    spec.name = workers == 1 ? "perf_campaign_serial"
                             : "perf_campaign_parallel";
    spec.trials = fig10Trials;
    spec.masterSeed = 42;
    spec.workers = workers;
    spec.body = [](const exp::TrialContext &ctx) {
        attack::PortContentionConfig config;
        config.victimDivides = ctx.index % 2 == 1;
        config.samples = 800;
        config.replays = 30;
        config.threshold = 120;
        config.seed = ctx.seed;
        const attack::PortContentionResult result =
            attack::runPortContentionAttack(config);

        exp::TrialOutput out;
        for (Cycles sample : result.samples)
            out.metric.add(static_cast<double>(sample));
        out.metrics = result.metrics;
        out.simCycles = result.totalCycles;
        out.scope.episodes = 1;
        out.scope.totalReplays = result.replaysDone;
        out.payload = exp::json::Value::object()
                          .set("arm", config.victimDivides ? "div"
                                                           : "mul")
                          .set("above_threshold", result.aboveThreshold)
                          .set("inferred_divides",
                               result.inferredDivides);
        return out;
    };
    return spec;
}

/** Fig.-11-shaped: one AES replay timeline per trial (random key and
 *  plaintext), the long-stall workload fast-forward exists for. */
exp::CampaignSpec
fig11StyleSpec(const char *name, bool fast_forward,
               obs::ObsLevel level = obs::ObsLevel::Off)
{
    exp::CampaignSpec spec;
    spec.name = name;
    spec.trials = fig11Trials;
    spec.masterSeed = 42;
    spec.workers = 1;
    spec.obsLevel = level;
    spec.body = [fast_forward](const exp::TrialContext &ctx) {
        attack::AesAttackConfig config;
        Rng rng(ctx.seed);
        for (unsigned i = 0; i < 16; ++i) {
            config.key[i] = static_cast<std::uint8_t>(rng.below(256));
            config.plaintext[i] =
                static_cast<std::uint8_t>(rng.below(256));
        }
        config.seed = ctx.seed;
        config.machine.fastForward = fast_forward;
        // Self-built machine: the executor cannot drain it, so the
        // body adopts the obs dial and hands the drained log back.
        config.machine.obs = ctx.machine.obs;
        attack::Fig11Result fig11 = attack::runFig11(config);

        exp::TrialOutput out;
        out.trace = std::move(fig11.events);
        out.metric.add(fig11.matchesGroundTruth ? 1.0 : 0.0);
        out.metrics = fig11.metrics;
        out.payload = exp::json::Value::object()
                          .set("consistent",
                               fig11.consistentAcrossPrimedReplays)
                          .set("matches_ground_truth",
                               fig11.matchesGroundTruth)
                          .set("probe_latencies",
                               probeLatencies(fig11.replays));
        return out;
    };
    return spec;
}

// ---- The A/B routine and its one JSON layout ----

/** Interleaved pairs per comparison, and the least wall time of one
 *  arm of one pair: a shorter campaign repeats until it is reached. */
constexpr std::size_t abPairs = 10;
constexpr double abMinArmSeconds = 0.2;

/** Linear-interpolated quantile @p q of @p v (non-empty). */
double
quantile(std::vector<double> v, double q)
{
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

exp::json::Value
jsonArray(const std::vector<double> &values)
{
    exp::json::Value out = exp::json::Value::array();
    for (double v : values)
        out.push(v);
    return out;
}

using AbArm = std::pair<const char *, exp::CampaignSpec>;

/** One comparison; side 0 is the baseline, side 1 the candidate. */
struct AbResult
{
    std::string name;
    std::array<const char *, 2> labels{};
    /** Seconds per campaign, per side, one entry per pair. */
    std::array<std::vector<double>, 2> seconds;
    /** Each side's first run, and its fingerprint. */
    std::array<exp::CampaignResult, 2> first;
    std::array<std::string, 2> fingerprints;
    /** baseline / candidate, one entry per pair. */
    std::vector<double> speedups;
    std::size_t candidateWins = 0;
    /** Every run matched the baseline's first fingerprint. */
    bool identical = true;
    /** Every trial of every run ended Ok. */
    bool trialsOk = true;

    bool ok() const { return identical && trialsOk; }
    double medianSpeedup() const { return quantile(speedups, 0.5); }

    /** The candidate won at least 9 of 10 pairs, median >= 1.0. */
    bool
    candidateFaster() const
    {
        return candidateWins * 10 >= speedups.size() * 9 &&
               medianSpeedup() >= 1.0;
    }

    exp::json::Value
    toJson() const
    {
        exp::json::Value out = exp::json::Value::object();
        for (std::size_t side = 0; side < 2; ++side)
            out.set(side ? "candidate" : "baseline",
                    exp::json::Value::object()
                        .set("label", labels[side])
                        .set("median_seconds", quantile(seconds[side], 0.5))
                        .set("q1_seconds", quantile(seconds[side], 0.25))
                        .set("q3_seconds", quantile(seconds[side], 0.75))
                        .set("seconds_per_campaign",
                             jsonArray(seconds[side])));
        return out.set("speedups", jsonArray(speedups))
            .set("speedup_median", medianSpeedup())
            .set("candidate_wins", std::uint64_t{candidateWins})
            .set("fingerprints_identical", identical)
            .set("trials_ok", trialsOk)
            .set("fingerprint", fnv1aHex(fingerprints[0]));
    }
};

/** Run one side of @p ab for abMinArmSeconds; seconds per campaign. */
double
timeArm(const exp::CampaignSpec &spec, std::size_t side, AbResult &ab)
{
    double total = 0.0;
    std::size_t runs = 0;
    while (total < abMinArmSeconds) {
        exp::CampaignResult result = exp::runCampaign(spec);
        total += result.wallSeconds;
        ++runs;
        // Pair 0 runs the baseline first, so fingerprints[0] is set
        // before any candidate run is compared with it.
        const std::string fp = deterministicFingerprint(result);
        const bool firstRun = ab.fingerprints[side].empty();
        if (firstRun)
            ab.fingerprints[side] = fp;
        ab.identical = ab.identical && fp == ab.fingerprints[0];
        ab.trialsOk =
            ab.trialsOk && result.aggregate.ok == result.trialCount;
        if (firstRun)
            ab.first[side] = std::move(result);
    }
    return total / static_cast<double>(runs);
}

/** Time @p baseline against @p candidate over abPairs pairs, even
 *  pairs running the baseline first; print every pair and the summary,
 *  and hand each arm's first run to @p sink. */
AbResult
runAb(const char *name, const AbArm &baseline, const AbArm &candidate,
      exp::JsonFileSink &sink)
{
    AbResult ab;
    ab.name = name;
    ab.labels = {baseline.first, candidate.first};
    const std::array<const AbArm *, 2> arms = {&baseline, &candidate};
    for (std::size_t pair = 0; pair < abPairs; ++pair) {
        std::array<double, 2> secs{};
        for (std::size_t k = 0; k < 2; ++k) {
            const std::size_t side = (pair + k) % 2;
            secs[side] = timeArm(arms[side]->second, side, ab);
            ab.seconds[side].push_back(secs[side]);
        }
        ab.speedups.push_back(secs[0] / secs[1]);
        ab.candidateWins += secs[1] < secs[0];
        std::printf("pair %2zu (%s first): %-8s %.4fs  %-8s %.4fs  "
                    "speedup %.3f\n",
                    pair, ab.labels[pair % 2], ab.labels[0], secs[0],
                    ab.labels[1], secs[1], ab.speedups.back());
    }

    for (std::size_t side = 0; side < 2; ++side)
        std::printf("%s%-8s median %.4fs per campaign (q1 %.4f, q3 %.4f)\n",
                    side ? "" : "\n", ab.labels[side],
                    quantile(ab.seconds[side], 0.5),
                    quantile(ab.seconds[side], 0.25),
                    quantile(ab.seconds[side], 0.75));
    std::printf("%s speedup: median %.2fx, %s won %zu/%zu pairs\n"
                "fingerprints identical: %s (%s); every trial ok: %s\n",
                name, ab.medianSpeedup(), ab.labels[1], ab.candidateWins,
                ab.speedups.size(), ab.identical ? "yes" : "NO",
                fnv1aHex(ab.fingerprints[0]).c_str(),
                ab.trialsOk ? "yes" : "NO");
    sink.consume(ab.first[0]);
    sink.consume(ab.first[1]);
    return ab;
}

/**
 * Write bench-results/BENCH_<section>.json, the layout every section
 * shares: the section's verdict and each comparison by name, after
 * the section's own fields in @p doc.
 */
void
writeBench(const char *section, bool pass,
           std::initializer_list<const AbResult *> comparisons,
           exp::json::Value doc = exp::json::Value::object())
{
    exp::json::Value byName = exp::json::Value::object();
    for (const AbResult *ab : comparisons)
        byName.set(ab->name, ab->toJson());
    doc.set("bench", std::string("perf_campaign_") + section)
        .set("pass", pass)
        .set("min_arm_seconds", abMinArmSeconds)
        .set("host_cores",
             std::uint64_t{std::thread::hardware_concurrency()})
        .set("comparisons", std::move(byName));
    const std::string path =
        std::string("bench-results/BENCH_") + section + ".json";
    writeFileAtomic(path, doc.dump());
    std::printf("bench JSON: %s\n", path.c_str());
}

// ---- The AES rig shared by sections 3 and 6 (DESIGN.md §12) ----

constexpr std::size_t prefixTrials = 12;
/** Warm decryptions inside the prefix — what makes it warmup-heavy. */
constexpr unsigned prefixWarmRuns = 4;
constexpr Cycles prefixHitThreshold = 100;

/** One fixed campaign-wide AES key (the warmup is shared by every
 *  trial, so it cannot depend on a trial seed). */
constexpr std::array<std::uint8_t, 16> prefixKey = {
    0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
    0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};

/** The warmup artifact: every handle the prefix mints, valid in each
 *  fork.  The enclave is left unsealed: each trial loads its own
 *  ciphertext into its copy of the input page. */
struct PrefixRig
{
    os::Pid pid = 0;
    crypto::AesKey decKey{prefixKey.data(), 128, true};
    crypto::AesKey encKey{prefixKey.data(), 128, false};
    crypto::AesVictimLayout layout;
    std::array<PAddr, 5> tablePa{};
    std::shared_ptr<const cpu::Program> program;
};

/** The shared warmup: build the AES enclave rig and warm-decrypt. */
std::shared_ptr<const void>
aesRigWarmup(os::Machine &m)
{
    auto rig = std::make_shared<PrefixRig>();
    os::Kernel &kernel = m.kernel();
    rig->pid = kernel.createProcess("aes-enclave");
    rig->layout = crypto::setupAesVictim(kernel, rig->pid, rig->decKey);
    for (unsigned t = 0; t < 5; ++t)
        rig->tablePa[t] =
            *kernel.translate(rig->pid, rig->layout.tableVa(t));
    rig->program = std::make_shared<const cpu::Program>(
        crypto::buildAesDecryptProgram(rig->layout));

    // The expensive part: full warm decryptions of a fixed block,
    // leaving the TLB/PWC/predictor/caches trained the way a
    // long-running victim's machine would be.
    std::uint8_t ct[16];
    const std::uint8_t warm_plain[16] = {};
    crypto::encryptBlock(rig->encKey, warm_plain, ct);
    crypto::loadCiphertext(kernel, rig->pid, rig->layout, ct);
    for (unsigned run = 0; run < prefixWarmRuns; ++run) {
        kernel.startOnContext(rig->pid, 0, rig->program);
        m.runUntilHalted(0, 50'000'000);
    }
    return rig;
}

/** A 1-worker campaign on the rig, forked and pooled by default. */
exp::CampaignSpec
rigSpec(const char *name, std::size_t trial_count)
{
    exp::CampaignSpec spec;
    spec.name = name;
    spec.trials = trial_count;
    spec.masterSeed = 42;
    spec.workers = 1;
    spec.prefixCache = true;
    spec.machinePool = true;
    // The fingerprint rides on the aggregate (plus payloads); the
    // per-trial component-metric blocks are pure serialization weight.
    spec.perTrialMetrics = false;
    spec.warmup = aesRigWarmup;
    return spec;
}

/** One trial on the rig's fork: loads a ciphertext drawn from the
 *  trial seed, and holds the steps both rig sections share. */
struct RigTrial
{
    explicit RigTrial(const exp::TrialContext &ctx)
        : m(*ctx.fork),
          rig(*static_cast<const PrefixRig *>(ctx.warmupData))
    {
        Rng rng(ctx.seed);
        std::uint8_t plaintext[16];
        for (unsigned i = 0; i < 16; ++i)
            plaintext[i] = static_cast<std::uint8_t>(rng.below(256));
        crypto::encryptBlock(rig.encKey, plaintext, ct.data());
        crypto::loadCiphertext(m.kernel(), rig.pid, rig.layout,
                               ct.data());
    }

    os::Machine &m;
    const PrefixRig &rig;
    std::array<std::uint8_t, 16> ct{};

    attack::LineProbe
    probe(unsigned table) const
    {
        attack::LineProbe probe;
        for (unsigned line = 0; line < 16; ++line) {
            const os::ProbeResult r = m.kernel().timedProbePhys(
                rig.tablePa[table] + line * lineSize);
            probe.latency[line] = r.latency;
            probe.level[line] = r.level;
        }
        return probe;
    }

    void
    prime() const
    {
        for (unsigned t = 0; t < 4; ++t)
            m.kernel().primeRange(rig.tablePa[t], 1024);
    }

    /** Start one decryption of the trial's ciphertext on context 0. */
    void
    start() const
    {
        m.kernel().startOnContext(rig.pid, 0, rig.program);
    }

    /** One longest-walk episode on the Td0 handle, the tables
     *  re-primed before every resume; sections add the rest. */
    ms::AttackRecipe
    recipe() const
    {
        ms::AttackRecipe recipe;
        recipe.victim = rig.pid;
        recipe.replayHandle = rig.layout.td0;
        recipe.maxEpisodes = 1;
        recipe.walkPlan = ms::PageWalkPlan::longest();
        recipe.beforeResume = [this](const ms::ReplayEvent &) { prime(); };
        return recipe;
    }

    /** Majority vote of @p windows past the first @p skip against the
     *  Td1 lines the first round really touches. */
    bool
    majorityMatches(const std::vector<attack::LineProbe> &windows,
                    std::size_t skip) const
    {
        std::set<unsigned> expected;
        const crypto::DecAccessTrace trace =
            crypto::traceDecryption(rig.decKey, ct.data());
        for (std::uint8_t index : trace.indices[0][1])
            expected.insert(crypto::tableLineOf(index));
        const std::size_t voters =
            windows.size() > skip ? windows.size() - skip : 0;
        std::array<unsigned, 16> votes{};
        for (std::size_t i = skip; i < windows.size(); ++i)
            for (unsigned line : windows[i].hitLines(prefixHitThreshold))
                ++votes[line];
        std::set<unsigned> majority;
        for (unsigned line = 0; line < 16; ++line)
            if (votes[line] * 2 > voters)
                majority.insert(line);
        return voters > 0 && majority == expected;
    }

    /** Verdict, sim cycles and metrics; callers add scope, payload. */
    exp::TrialOutput
    output(const exp::TrialContext &ctx, const ms::Microscope &scope,
           bool matches) const
    {
        exp::TrialOutput out;
        out.metric.add(matches ? 1.0 : 0.0);
        out.simCycles = m.cycle() - ctx.forkCycle;
        obs::MetricRegistry registry;
        m.exportMetrics(registry);
        scope.exportMetrics(registry);
        out.metrics = registry.snapshot();
        return out;
    }
};

// ---- Section 3: prefix snapshot and machine pool (DESIGN.md §12) ----

exp::CampaignSpec
prefixSpec(const char *name, bool prefix_cache, bool pool)
{
    exp::CampaignSpec spec = rigSpec(name, prefixTrials);
    spec.prefixCache = prefix_cache;
    spec.machinePool = pool;
    spec.body = [](const exp::TrialContext &ctx) {
        const RigTrial trial(ctx);
        os::Machine &m = trial.m;

        std::vector<attack::LineProbe> replays;
        ms::Microscope scope(m);
        ms::AttackRecipe recipe = trial.recipe();
        recipe.pivot = trial.rig.layout.rk;
        recipe.confidence = 3;
        recipe.onReplay = [&](const ms::ReplayEvent &) {
            replays.push_back(trial.probe(1));
            return true;
        };
        scope.setRecipe(std::move(recipe));

        trial.prime();
        scope.arm();
        trial.start();
        m.runUntilHalted(0, 50'000'000);
        scope.disarm();

        // Replay 0 probes the warm cache; the vote is over the primed
        // replays, as in the Figure-11 run.
        const bool matches = trial.majorityMatches(replays, 1);
        exp::TrialOutput out = trial.output(ctx, scope, matches);
        out.scope.episodes = 1;
        out.scope.totalReplays = scope.stats().totalReplays;
        out.payload = exp::json::Value::object()
                          .set("matches_ground_truth", matches)
                          .set("probe_latencies", probeLatencies(replays));
        return out;
    };
    return spec;
}

bool
prefixSection(exp::JsonFileSink &sink)
{
    std::printf("\n=== 3. prefix cache and machine pool, 12 trials ===\n\n");
    const AbResult cache = runAb(
        "prefix_cache",
        {"cold", prefixSpec("perf_campaign_prefix_off", false, false)},
        {"forked", prefixSpec("perf_campaign_prefix_on", true, true)},
        sink);
    std::printf("\n");
    const AbResult pool = runAb(
        "machine_pool",
        {"nopool", prefixSpec("perf_campaign_prefix_nopool", true, false)},
        {"pool", prefixSpec("perf_campaign_prefix_on", true, true)},
        sink);
    writeFileAtomic("bench-results/BENCH_prefix_fp_off.txt",
                    cache.fingerprints[0]);
    writeFileAtomic("bench-results/BENCH_prefix_fp_on.txt",
                    cache.fingerprints[1]);

    // The fork contract: a forked trial, pooled or not, is byte-
    // identical to a cold trial that reseeds at the same point.
    const bool sameAcross = pool.fingerprints[0] == cache.fingerprints[0];
    std::printf("\nfingerprints identical across all three arms: %s\n",
                sameAcross ? "yes" : "NO");
    const bool pass =
        cache.ok() && pool.ok() && sameAcross && cache.candidateFaster();
    writeBench("prefix", pass, {&cache, &pool});
    return pass;
}

// ---- Section 6: differential replay (DESIGN.md §15) ----

constexpr std::size_t diffTrials = 8;
/** Episode re-entries per trial — the §4.3 denoise vote width. */
constexpr std::uint64_t diffIterations = 5;
constexpr Cycles diffRunBudget = 50'000'000;

/**
 * Denoise-shaped trial: one confidence-2 episode (replay 1 calibrates,
 * replay 2 is the measured window) re-entered diffIterations times,
 * each with a fresh noise seed, then a majority vote.  With
 * @p differential a re-entry restores the episode snapshot; without
 * it, the pre-arm snapshot is restored and the prefix re-simulated.
 */
exp::CampaignSpec
diffReplaySpec(const char *name, bool differential)
{
    exp::CampaignSpec spec = rigSpec(name, diffTrials);
    spec.body = [differential](const exp::TrialContext &ctx) {
        // The ciphertext is loaded once, before the pre-arm snapshot,
        // so both arms see it.
        const RigTrial trial(ctx);
        os::Machine &m = trial.m;

        std::vector<attack::LineProbe> windows;
        ms::Microscope scope(m);
        ms::AttackRecipe recipe = trial.recipe();
        recipe.confidence = 2;
        recipe.differentialReplay = differential;
        recipe.onReplay = [&](const ms::ReplayEvent &event) {
            if (event.replayIndex == 1) {
                // Heavy calibration pass, prefix-only: survey every
                // table, then re-prime — the work the fast arm's
                // snapshot captures instead of re-executing.
                for (unsigned t = 0; t < 4; ++t)
                    trial.probe(t);
            } else {
                windows.push_back(trial.probe(1));
            }
            return true;
        };
        scope.setRecipe(std::move(recipe));

        // Pre-arm snapshot, for the resimulating arm only.
        os::Snapshot pre;
        ms::EpisodeState preState;
        if (!differential) {
            pre = m.snapshot();
            preState = ms::EpisodeState{scope.armed(),
                                        scope.replaysThisEpisode(),
                                        scope.stats()};
        }
        const auto runPrefix = [&]() {
            // A warm decryption of this trial's ciphertext, the bulk
            // of the prefix cost, then the arming run.
            trial.start();
            if (!m.runUntilHalted(0, diffRunBudget))
                throw std::runtime_error("warm run never halted");
            trial.prime();
            scope.arm();
            trial.start();
            const bool reached = m.runUntil(
                [&]() {
                    return differential
                               ? scope.episodeSnapshotPending()
                               : scope.replaysThisEpisode() >= 1;
                },
                diffRunBudget);
            if (!reached)
                throw std::runtime_error(
                    "prefix never reached the re-arm");
        };
        runPrefix();
        if (differential)
            scope.takeEpisodeSnapshot();

        for (std::uint64_t i = 0; i < diffIterations; ++i) {
            const std::uint64_t seed = exp::deriveReplaySeed(ctx.seed, i);
            if (differential) {
                scope.restoreEpisode(seed);
            } else {
                m.restoreFrom(pre);
                scope.adoptEpisodeState(preState);
                runPrefix();
                m.reseed(seed);
            }
            // The window: replay 2 measures and closes the episode (no
            // pivot, maxEpisodes 1 => the engine disarms inline).
            if (!m.runUntil([&]() { return !scope.armed(); },
                            diffRunBudget))
                throw std::runtime_error("window never closed");
        }

        const bool matches = trial.majorityMatches(windows, 0);
        exp::TrialOutput out = trial.output(ctx, scope, matches);
        out.scope = scope.stats();
        out.payload = exp::json::Value::object()
                          .set("matches_ground_truth", matches)
                          .set("final_cycle", m.cycle())
                          .set("probe_latencies", probeLatencies(windows));
        return out;
    };
    return spec;
}

bool
diffReplaySection(exp::JsonFileSink &sink)
{
    std::printf("\n=== 6. differential replay, 8 trials x 5 replays ===\n\n");
    const AbResult ab = runAb(
        "differential_replay",
        {"resim", diffReplaySpec("perf_campaign_diffreplay_off", false)},
        {"restore", diffReplaySpec("perf_campaign_diffreplay_on", true)},
        sink);
    writeFileAtomic("bench-results/BENCH_diffreplay_fp_off.txt",
                    ab.fingerprints[0]);
    writeFileAtomic("bench-results/BENCH_diffreplay_fp_on.txt",
                    ab.fingerprints[1]);
    const bool pass = ab.ok() && ab.candidateFaster();
    writeBench("diffreplay", pass, {&ab});
    return pass;
}

// ---- Section 5: observability (DESIGN.md §14) ----

/** Phase profiling + metric export must stay effectively free. */
constexpr double obsOverheadGate = 1.10;

bool
obsSection(exp::JsonFileSink &sink)
{
    std::printf("\n=== 5. observability, 8 Fig.-11-shaped trials ===\n\n");
    const AbResult ab = runAb(
        "obs_metrics",
        {"off", fig11StyleSpec("perf_campaign_obs_off", true)},
        {"metrics", fig11StyleSpec("perf_campaign_obs_metrics", true,
                                   obs::ObsLevel::Metrics)},
        sink);
    std::vector<double> overheads;
    for (std::size_t pair = 0; pair < ab.speedups.size(); ++pair)
        overheads.push_back(ab.seconds[1][pair] / ab.seconds[0][pair]);
    const double overhead = quantile(overheads, 0.5);
    std::printf("metrics overhead vs off: median %.3fx (gate: <= %.2fx)\n",
                overhead, obsOverheadGate);

    // The trace run: the dial never changes results, and every trial's
    // event log reaches the merged Perfetto document.
    const exp::CampaignResult traced = exp::runCampaign(fig11StyleSpec(
        "perf_campaign_obs_trace", true, obs::ObsLevel::Trace));
    const bool traceIdentical =
        deterministicFingerprint(traced) == ab.fingerprints[0] &&
        traced.aggregate.ok == fig11Trials;
    std::vector<const obs::EventLog *> logs;
    for (const exp::TrialResult &trial : traced.trials)
        logs.push_back(&trial.output.trace);
    const exp::json::Value merged = obs::mergeChromeTraces(logs);
    const std::size_t tracedTrials =
        merged.get("otherData")->get("trials")->asU64();
    const std::string mergedPath =
        "bench-results/perf_campaign_obs.trace.json";
    writeFileAtomic(mergedPath, merged.dump());
    std::printf("trace run: fingerprint %s, %zu/%zu trials in the merged "
                "trace %s\n",
                traceIdentical ? "identical" : "DIFFERS", tracedTrials,
                fig11Trials, mergedPath.c_str());

    // Prof must be present exactly when the dial says so.
    const bool profGated = ab.first[0].prof.empty() &&
                           !ab.first[1].prof.empty() &&
                           !traced.prof.empty();
    if (!profGated)
        std::printf("prof presence does not match the obs dial\n");

    const bool pass = ab.ok() && traceIdentical && profGated &&
                      tracedTrials == fig11Trials &&
                      overhead <= obsOverheadGate;
    writeBench("obs", pass, {&ab},
               exp::json::Value::object()
                   .set("overhead_median", overhead)
                   .set("overhead_gate", obsOverheadGate)
                   .set("merged_trace_trials",
                        std::uint64_t{tracedTrials}));
    return pass;
}

// ---- Sections 1 and 2: sharding and fast-forward ----

bool
shardingSection(exp::JsonFileSink &sink)
{
    const unsigned hw = std::thread::hardware_concurrency();
    std::printf("\n=== 1. sharding, 16 Fig.-10-style trials ===\n\n");
    const AbResult ab = runAb("sharding", {"serial", fig10StyleSpec(1)},
                              {"parallel", fig10StyleSpec(4)}, sink);

    // Trials are independent CPU-bound simulations, so the speedup
    // tracks the core count: below 4 cores it is only reported.
    const bool fast = hw < 4 || ab.medianSpeedup() >= 2.0;
    std::printf("%u cores: median >= 2x %s\n", hw,
                hw < 4 ? "not enforced" : fast ? "PASS" : "FAIL");
    const bool pass = ab.ok() && fast;
    writeBench("sharding", pass, {&ab});
    return pass;
}

bool
fastForwardSection(exp::JsonFileSink &sink)
{
    std::printf("\n=== 2. fast-forward, 8 Fig.-11-shaped trials ===\n\n");
    // The elision contract is the gate; the speedup is reported.
    const AbResult ab = runAb(
        "fast_forward",
        {"ff=off", fig11StyleSpec("perf_campaign_fig11_ff_off", false)},
        {"ff=on", fig11StyleSpec("perf_campaign_fig11_ff_on", true)},
        sink);
    writeBench("fastforward", ab.ok(), {&ab});
    return ab.ok();
}

struct Section
{
    unsigned number;
    bool (*run)(exp::JsonFileSink &);
};

constexpr Section sections[] = {{1, shardingSection},
                                {2, fastForwardSection},
                                {3, prefixSection},
                                {5, obsSection},
                                {6, diffReplaySection}};

} // namespace

int
main(int argc, char **argv)
{
    const Section *only = nullptr;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const std::optional<std::uint64_t> n =
            arg.rfind("--section=", 0) == 0
                ? obs::parseUnsignedValue(arg.c_str() + 10)
                : std::nullopt;
        only = std::find_if(std::begin(sections), std::end(sections),
                            [&](const Section &s) { return n == s.number; });
        if (only == std::end(sections)) {
            std::fprintf(stderr, "perf_campaign: bad argument '%s' (usage: "
                                 "--section=N, N in 1, 2, 3, 5, 6)\n",
                         arg.c_str());
            return 2;
        }
    }

    std::optional<exp::JsonFileSink> sink;
    try {
        sink.emplace("bench-results", /*include_trials=*/false);
    } catch (const SimFatal &) {
        return 2;  // fatal() has named the directory
    }

    bool ok = true;
    for (const Section &section : sections)
        if (!only || only == &section)
            ok = section.run(*sink) && ok;
    return ok ? 0 : 1;
}
