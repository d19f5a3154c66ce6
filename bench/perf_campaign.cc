/**
 * @file
 * Throughput benchmarks for the campaign runner:
 *
 *  1. **Sharding** (Fig.-10-style port-contention sweep) — the
 *     identical CampaignSpec (16 trials, each a full attack on its own
 *     Machine) at 1 worker and at 4 workers.  The aggregate (and every
 *     per-trial payload) must be bit-identical across worker counts —
 *     a hard failure if violated.  Trials are independent CPU-bound
 *     simulations, so speedup tracks the physical core count: on >= 4
 *     cores we demand >= 2x and fail otherwise; on fewer cores we
 *     report the measured value and the hardware bound.
 *  2. **Fast-forward A/B** (Fig.-11-shaped AES replay trials) — the
 *     same campaign with MachineConfig::fastForward off (cycle-by-
 *     cycle baseline) and on (event-driven clock jumps, DESIGN.md
 *     §10), plus the on-mode at 4 workers.  The determinism
 *     fingerprint must be bit-identical across all three runs — the
 *     elision contract — while the wall-clock speedup is measured and
 *     reported.  `--fast-forward={on,off}` pins both sections to one
 *     mode (and skips the A/B comparison).
 *  3. **Prefix-snapshot A/B** (warmup-heavy Fig.-11-shaped arm,
 *     DESIGN.md §12) — each trial needs the same expensive prefix
 *     (enclave build, victim codegen, warm decryptions) before its
 *     private replay episode.  The baseline re-runs the prefix cold
 *     per trial; the fast arm runs it once per worker, snapshots, and
 *     forks the snapshot per trial with per-trial reseeding
 *     (CampaignSpec::warmup + prefixCache + machinePool).  The
 *     determinism fingerprints must be byte-identical across arms — a
 *     hard failure otherwise — and the measured speedup lands in
 *     bench-results/BENCH_prefix.json (CI fails the A/B if the fast
 *     arm is not at least as fast; the paper-repro target is >= 2x).
 *  5. **Observability A/B** (DESIGN.md §14) — section 2's
 *     fast-forward-on campaign at --obs=off/metrics/trace.
 *     Observation must never perturb results: every arm's
 *     deterministic fingerprint must be byte-identical (hard
 *     failure), and the wall-clock overhead of --obs=metrics over
 *     --obs=off — the median ratio of interleaved off/metrics pairs —
 *     is gated at <= 1.10x.  The trace arm's per-trial event logs are
 *     merged (obs::mergeChromeTraces) into one Perfetto trace,
 *     bench-results/perf_campaign_obs.trace.json.  Results land in
 *     bench-results/BENCH_obs.json; `--obs=LEVEL` pins one arm.
 *  6. **Differential-replay A/B** (DESIGN.md §15) — a denoise-shaped
 *     arm: each trial re-enters one confidence-2 episode several
 *     times (fresh noise seed per iteration, majority vote across
 *     them, §4.3 of the paper).  The baseline restores the pre-arm
 *     snapshot and re-simulates the whole prefix (per-trial warm
 *     decryption + arming run + the replay-1 calibration work) before
 *     every iteration; the fast arm snapshots the machine at the
 *     replay handle once (Recipe::differentialReplay +
 *     Microscope::restoreEpisode) and restores that per iteration;
 *     every restore after the first rewinds the cache journal
 *     (DESIGN.md §17).
 *     The determinism fingerprints must be byte-identical across arms
 *     — a hard failure otherwise — and the measured speedup lands in
 *     bench-results/BENCH_diffreplay.json (CI fails if the fast arm
 *     is not at least break-even; the paper-repro target is >= 1.5x).
 *
 * `--section=N` runs exactly one numbered section (1 sharding, 2
 * fast-forward, 3 prefix, 5 obs, 6 diffreplay) — what
 * the CI smoke jobs use to parallelize and to scope failures.  Any
 * other N is an error: a section that does not exist must not pass.
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "attack/aes_attack.hh"
#include "attack/port_contention.hh"
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

constexpr std::size_t trials = 16;
constexpr std::size_t fig11Trials = 8;

exp::CampaignSpec
fig10StyleSpec(unsigned workers, bool fast_forward)
{
    exp::CampaignSpec spec;
    spec.name = workers == 1 ? "perf_campaign_serial"
                             : "perf_campaign_parallel";
    spec.trials = trials;
    spec.masterSeed = 42;
    spec.workers = workers;
    spec.body = [fast_forward](const exp::TrialContext &ctx) {
        attack::PortContentionConfig config;
        config.victimDivides = ctx.index % 2 == 1;
        config.samples = 800;
        config.replays = 30;
        config.threshold = 120;
        config.seed = ctx.seed;
        config.machine.fastForward = fast_forward;
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

/**
 * Fig.-11-shaped: one AES replay timeline per trial (random key and
 * plaintext), dominated by tuned page walks and long stalls — the
 * workload event-driven fast-forward exists for.
 */
exp::CampaignSpec
fig11StyleSpec(const char *name, unsigned workers, bool fast_forward)
{
    exp::CampaignSpec spec;
    spec.name = name;
    spec.trials = fig11Trials;
    spec.masterSeed = 42;
    spec.workers = workers;
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
        exp::json::Value probes = exp::json::Value::array();
        for (const attack::LineProbe &probe : fig11.replays) {
            exp::json::Value row = exp::json::Value::array();
            for (Cycles latency : probe.latency)
                row.push(latency);
            probes.push(std::move(row));
        }
        out.payload = exp::json::Value::object()
                          .set("consistent",
                               fig11.consistentAcrossPrimedReplays)
                          .set("matches_ground_truth",
                               fig11.matchesGroundTruth)
                          .set("probe_latencies", std::move(probes));
        return out;
    };
    return spec;
}

// Fingerprint + hash shapes live in the library (shared with
// tests/test_fastforward).
using exp::deterministicFingerprint;
using exp::fnv1aHex;

void
report(const char *label, const exp::CampaignResult &result)
{
    std::printf("%-8s %u worker(s): %6.2fs wall, %5.1f trials/s, "
                "%6.1f Msim-cycles/s, %zu/%zu ok\n",
                label, result.workers, result.wallSeconds,
                result.trialsPerSecond(),
                result.simCyclesPerSecond() / 1e6, result.aggregate.ok,
                result.trialCount);
}

// ---------------------------------------------------------------------
// Section 3: prefix-snapshot A/B (DESIGN.md §12).
// ---------------------------------------------------------------------

constexpr std::size_t prefixTrials = 12;
/** Warm decryptions inside the prefix — what makes it warmup-heavy. */
constexpr unsigned prefixWarmRuns = 4;
constexpr Cycles prefixHitThreshold = 100;

/** One fixed campaign-wide AES key (the warmup is shared by every
 *  trial, so it cannot depend on a trial seed). */
constexpr std::array<std::uint8_t, 16> prefixKey = {
    0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
    0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};

/**
 * The warmup artifact: every handle the prefix mints, valid in each
 * fork exactly because forks share the warmed-up machine state.  The
 * enclave pages are deliberately left unsealed — each trial loads its
 * own ciphertext into its copy of the input page.
 */
struct PrefixRig
{
    os::Pid pid = 0;
    crypto::AesKey decKey;
    crypto::AesKey encKey;
    crypto::AesVictimLayout layout;
    std::array<PAddr, 5> tablePa{};
    std::shared_ptr<const cpu::Program> program;

    PrefixRig()
        : decKey(prefixKey.data(), 128, true),
          encKey(prefixKey.data(), 128, false)
    {
    }
};

/** The shared §12 warmup: build the AES enclave rig and warm-decrypt
 *  (used by the prefix-snapshot and differential-replay sections). */
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

exp::CampaignSpec
prefixSpec(const char *name, bool prefix_cache, bool pool)
{
    exp::CampaignSpec spec;
    spec.name = name;
    spec.trials = prefixTrials;
    spec.masterSeed = 42;
    spec.workers = 1;
    spec.prefixCache = prefix_cache;
    spec.machinePool = pool;
    // The fingerprint rides on the aggregate (plus payloads); the
    // per-trial component-metric blocks are pure serialization weight.
    spec.perTrialMetrics = false;

    spec.warmup = aesRigWarmup;

    spec.body = [](const exp::TrialContext &ctx) {
        os::Machine &m = *ctx.fork;
        const auto *rig =
            static_cast<const PrefixRig *>(ctx.warmupData);

        // Per-trial secret input, drawn from the trial stream.
        Rng rng(ctx.seed);
        std::uint8_t plaintext[16], ct[16];
        for (unsigned i = 0; i < 16; ++i)
            plaintext[i] = static_cast<std::uint8_t>(rng.below(256));
        crypto::encryptBlock(rig->encKey, plaintext, ct);
        crypto::loadCiphertext(m.kernel(), rig->pid, rig->layout, ct);

        const auto probeTable = [&](unsigned table) {
            attack::LineProbe probe;
            for (unsigned line = 0; line < 16; ++line) {
                const os::ProbeResult r = m.kernel().timedProbePhys(
                    rig->tablePa[table] + line * lineSize);
                probe.latency[line] = r.latency;
                probe.level[line] = r.level;
            }
            return probe;
        };
        const auto primeTables = [&] {
            for (unsigned t = 0; t < 4; ++t)
                m.kernel().primeRange(rig->tablePa[t], 1024);
        };

        std::vector<attack::LineProbe> replays;
        ms::Microscope scope(m);
        ms::AttackRecipe recipe;
        recipe.victim = rig->pid;
        recipe.replayHandle = rig->layout.td0;
        recipe.pivot = rig->layout.rk;
        recipe.confidence = 3;
        recipe.maxEpisodes = 1;
        recipe.walkPlan = ms::PageWalkPlan::longest();
        recipe.onReplay = [&](const ms::ReplayEvent &) {
            replays.push_back(probeTable(1));
            return true;
        };
        recipe.beforeResume = [&](const ms::ReplayEvent &) {
            primeTables();
        };
        scope.setRecipe(std::move(recipe));

        primeTables();
        scope.arm();
        m.kernel().startOnContext(rig->pid, 0, rig->program);
        m.runUntilHalted(0, 50'000'000);
        scope.disarm();

        // Ground truth + majority vote over the primed replays, as in
        // the Figure-11 run.
        std::set<unsigned> expected;
        const crypto::DecAccessTrace trace =
            crypto::traceDecryption(rig->decKey, ct);
        for (std::uint8_t index : trace.indices[0][1])
            expected.insert(crypto::tableLineOf(index));
        std::array<unsigned, 16> votes{};
        std::size_t primed = replays.size() > 1 ? replays.size() - 1
                                                : 0;
        for (std::size_t i = 1; i < replays.size(); ++i)
            for (unsigned line :
                 replays[i].hitLines(prefixHitThreshold))
                ++votes[line];
        std::set<unsigned> majority;
        for (unsigned line = 0; line < 16; ++line)
            if (votes[line] * 2 > primed)
                majority.insert(line);
        const bool matches = primed > 0 && majority == expected;

        exp::TrialOutput out;
        out.metric.add(matches ? 1.0 : 0.0);
        out.simCycles = m.cycle() - ctx.forkCycle;
        out.scope.episodes = 1;
        out.scope.totalReplays = scope.stats().totalReplays;
        obs::MetricRegistry registry;
        m.exportMetrics(registry);
        scope.exportMetrics(registry);
        out.metrics = registry.snapshot();

        exp::json::Value probes = exp::json::Value::array();
        for (const attack::LineProbe &probe : replays) {
            exp::json::Value row = exp::json::Value::array();
            for (Cycles latency : probe.latency)
                row.push(latency);
            probes.push(std::move(row));
        }
        out.payload = exp::json::Value::object()
                          .set("matches_ground_truth", matches)
                          .set("probe_latencies", std::move(probes));
        return out;
    };
    return spec;
}

void
writeTextFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
}

/** Run section 3; returns false on a hard failure. */
bool
prefixSection(exp::JsonFileSink &sink)
{
    std::printf("\n==============================================================\n");
    std::printf("Prefix-snapshot A/B: warmup-heavy Fig.-11-shaped arm, "
                "%zu trials, %u warm runs\n",
                prefixTrials, prefixWarmRuns);
    std::printf("==============================================================\n\n");

    exp::CampaignResult off = exp::runCampaign(
        prefixSpec("perf_campaign_prefix_off", false, false));
    report("cold", off);
    exp::CampaignResult on = exp::runCampaign(
        prefixSpec("perf_campaign_prefix_on", true, true));
    report("forked", on);

    const double speedup =
        on.wallSeconds > 0.0 ? off.wallSeconds / on.wallSeconds : 0.0;
    std::printf("\nprefix-cache speedup (1 worker): %.2fx "
                "(paper-repro target: >= 2x)\n", speedup);

    // The fork contract: a forked trial is byte-identical to a cold
    // trial that reseeds at the same point.  Hard failure if violated.
    const std::string fpOff = deterministicFingerprint(off);
    const std::string fpOn = deterministicFingerprint(on);
    const bool identical = fpOff == fpOn;
    std::printf("fingerprints byte-identical across arms: %s\n",
                identical ? "yes" : "NO");

    sink.consume(off);
    sink.consume(on);
    writeTextFile("bench-results/BENCH_prefix_fp_off.txt", fpOff);
    writeTextFile("bench-results/BENCH_prefix_fp_on.txt", fpOn);

    const exp::json::Value bench =
        exp::json::Value::object()
            .set("bench", "perf_campaign_prefix")
            .set("config",
                 exp::json::Value::object()
                     .set("trials", std::uint64_t{prefixTrials})
                     .set("warm_runs", std::uint64_t{prefixWarmRuns})
                     .set("workers", std::uint64_t{1})
                     .set("master_seed", std::uint64_t{42}))
            .set("trials_per_sec", on.trialsPerSecond())
            .set("trials_per_sec_off", off.trialsPerSecond())
            .set("speedup_vs_off", speedup)
            .set("fingerprints_identical", identical)
            .set("fingerprint", fnv1aHex(fpOn));
    writeTextFile("bench-results/BENCH_prefix.json", bench.dump());
    std::printf("bench JSON: bench-results/BENCH_prefix.json "
                "(+ fingerprint files)\n");

    // CI gate: determinism is absolute; the speedup must never regress
    // below break-even (the >= 2x target is tracked via the JSON).
    return identical && speedup >= 1.0 &&
           off.aggregate.ok == prefixTrials &&
           on.aggregate.ok == prefixTrials;
}

// ---------------------------------------------------------------------
// Section 5: observability A/B (DESIGN.md §14).
// ---------------------------------------------------------------------

/** Phase profiling + metric export must stay effectively free. */
constexpr double obsOverheadGate = 1.10;
/** Interleaved off/metrics pairs behind the overhead gate: one
 *  ~50 ms arm each is too short for a single pair to be trusted. */
constexpr std::size_t obsOverheadPairs = 7;

struct ObsArm
{
    obs::ObsLevel level = obs::ObsLevel::Off;
    const char *name = "";
    double wallSeconds = 0.0;
    double trialsPerSec = 0.0;
    std::string fingerprint;
    bool hasProf = false;
    bool ok = false;
    /** The arm's trials merged into one Chrome trace (Trace only). */
    exp::json::Value mergedTrace;
};

/** The section-2 fast-forward-on campaign at one obs level. */
ObsArm
runObsArm(obs::ObsLevel level)
{
    const std::string name =
        std::string("perf_campaign_obs_") + obs::obsLevelName(level);
    exp::CampaignSpec spec = fig11StyleSpec(name.c_str(), 1, true);
    spec.obsLevel = level;
    const exp::CampaignResult result = exp::runCampaign(spec);

    ObsArm arm;
    arm.level = level;
    arm.name = obs::obsLevelName(level);
    arm.wallSeconds = result.wallSeconds;
    arm.trialsPerSec = result.trialsPerSecond();
    arm.fingerprint = deterministicFingerprint(result);
    arm.hasProf = !result.prof.empty();
    arm.ok = result.aggregate.ok == fig11Trials;
    if (level >= obs::ObsLevel::Trace) {
        std::vector<const obs::EventLog *> logs;
        for (const exp::TrialResult &trial : result.trials)
            logs.push_back(&trial.output.trace);
        arm.mergedTrace = obs::mergeChromeTraces(logs);
    }
    return arm;
}

/** Run section 5; returns false on a hard failure. */
bool
obsSection(std::optional<obs::ObsLevel> pinned)
{
    std::printf("\n==============================================================\n");
    std::printf("Observability A/B: fig11_aes_replay at "
                "--obs=off/metrics/trace, %zu trials\n",
                fig11Trials);
    std::printf("==============================================================\n\n");

    if (pinned) {
        const ObsArm arm = runObsArm(*pinned);
        std::printf("obs=%-8s %6.2fs wall, %5.1f trials/s, "
                    "fingerprint %s\n",
                    arm.name, arm.wallSeconds, arm.trialsPerSec,
                    fnv1aHex(arm.fingerprint).c_str());
        return arm.ok;
    }

    // The overhead gate: off/metrics pairs, alternating which arm
    // runs first so drift in host speed cancels; the median ratio is
    // gated.  Then one trace arm.
    std::vector<ObsArm> arms;
    std::vector<double> ratios;
    for (std::size_t pair = 0; pair < obsOverheadPairs; ++pair) {
        const bool offFirst = pair % 2 == 0;
        ObsArm first = runObsArm(offFirst ? obs::ObsLevel::Off
                                          : obs::ObsLevel::Metrics);
        ObsArm second = runObsArm(offFirst ? obs::ObsLevel::Metrics
                                           : obs::ObsLevel::Off);
        const ObsArm &off = offFirst ? first : second;
        const ObsArm &metrics = offFirst ? second : first;
        ratios.push_back(off.wallSeconds > 0.0
                             ? metrics.wallSeconds / off.wallSeconds
                             : 0.0);
        std::printf("pair %zu (%s first): off %.3fs, metrics %.3fs, "
                    "ratio %.3f\n",
                    pair, offFirst ? "off" : "metrics",
                    off.wallSeconds, metrics.wallSeconds,
                    ratios.back());
        arms.push_back(std::move(first));
        arms.push_back(std::move(second));
    }
    arms.push_back(runObsArm(obs::ObsLevel::Trace));
    for (const ObsArm &arm : arms)
        std::printf("obs=%-8s %6.2fs wall, %5.1f trials/s, prof %s, "
                    "fingerprint %s\n",
                    arm.name, arm.wallSeconds, arm.trialsPerSec,
                    arm.hasProf ? "yes" : "no",
                    fnv1aHex(arm.fingerprint).c_str());

    // The invariance contract: the dial NEVER changes results.
    bool identical = true, ok = true;
    for (const ObsArm &arm : arms) {
        identical = identical && arm.fingerprint == arms[0].fingerprint;
        ok = ok && arm.ok;
    }
    std::printf("\nfingerprints byte-identical across obs levels: "
                "%s\n", identical ? "yes" : "NO");

    // Prof must be present exactly when the dial says so.
    bool profGated = true;
    for (const ObsArm &arm : arms)
        profGated = profGated && arm.hasProf == (arm.level !=
                                                 obs::ObsLevel::Off);
    if (!profGated)
        std::printf("prof presence does not match the obs dial\n");

    std::vector<double> sorted = ratios;
    std::sort(sorted.begin(), sorted.end());
    const double overhead = sorted[sorted.size() / 2];
    std::printf("metrics overhead vs off: %.3fx median of %zu pairs "
                "(range %.3f-%.3f; gate: <= %.2fx)\n",
                overhead, ratios.size(), sorted.front(), sorted.back(),
                obsOverheadGate);

    // The trace arm's merged document: one track group per trial.
    const exp::json::Value &merged = arms.back().mergedTrace;
    const std::size_t tracedTrials =
        merged.get("otherData")->get("trials")->asU64();
    const std::string mergedPath =
        "bench-results/perf_campaign_obs.trace.json";
    writeTextFile(mergedPath, merged.dump());
    std::printf("trace arm: %zu/%zu trials in the merged trace %s\n",
                tracedTrials, fig11Trials, mergedPath.c_str());

    exp::json::Value pairsJson = exp::json::Value::array();
    for (const double ratio : ratios)
        pairsJson.push(ratio);
    exp::json::Value armsJson = exp::json::Value::array();
    for (const ObsArm &arm : arms)
        armsJson.push(exp::json::Value::object()
                          .set("obs", arm.name)
                          .set("wall_seconds", arm.wallSeconds)
                          .set("trials_per_sec", arm.trialsPerSec)
                          .set("has_prof", arm.hasProf)
                          .set("fingerprint_match",
                               arm.fingerprint == arms[0].fingerprint));
    const exp::json::Value bench =
        exp::json::Value::object()
            .set("bench", "perf_campaign_obs")
            .set("config",
                 exp::json::Value::object()
                     .set("recipe", "fig11_aes_replay")
                     .set("trials", std::uint64_t{fig11Trials})
                     .set("master_seed", std::uint64_t{42}))
            .set("overhead_metrics_vs_off", overhead)
            .set("overhead_pair_ratios", std::move(pairsJson))
            .set("overhead_gate", obsOverheadGate)
            .set("fingerprints_identical", identical)
            .set("fingerprint", fnv1aHex(arms[0].fingerprint))
            .set("merged_trace_trials", std::uint64_t{tracedTrials})
            .set("arms", std::move(armsJson));
    writeTextFile("bench-results/BENCH_obs.json", bench.dump());
    std::printf("bench JSON: bench-results/BENCH_obs.json\n");

    return ok && identical && profGated && tracedTrials == fig11Trials &&
           overhead > 0.0 && overhead <= obsOverheadGate;
}

// ---------------------------------------------------------------------
// Section 6: differential-replay A/B (DESIGN.md §15).
// ---------------------------------------------------------------------

constexpr std::size_t diffTrials = 8;
/** Episode re-entries per trial — the §4.3 denoise vote width. */
constexpr std::uint64_t diffIterations = 5;
constexpr Cycles diffRunBudget = 50'000'000;

/**
 * Denoise-shaped trial: one confidence-2 episode (replay 1 is the
 * calibration prefix, replay 2 the measured window), re-entered
 * diffIterations times with a fresh noise seed each, line hits decided
 * by majority vote.  With @p differential the re-entry restores the
 * engine's episode snapshot; without it, the pre-arm snapshot is
 * restored and the prefix — per-trial warm decryption, priming, the
 * arming run up to the replay-1 re-arm — re-simulated from scratch.
 * Both must produce bit-identical results.
 */
exp::CampaignSpec
diffReplaySpec(const char *name, bool differential)
{
    exp::CampaignSpec spec;
    spec.name = name;
    spec.trials = diffTrials;
    spec.masterSeed = 42;
    spec.workers = 1;
    spec.prefixCache = true;
    spec.machinePool = true;
    spec.perTrialMetrics = false;
    spec.warmup = aesRigWarmup;
    spec.body = [differential](const exp::TrialContext &ctx) {
        os::Machine &m = *ctx.fork;
        const auto *rig =
            static_cast<const PrefixRig *>(ctx.warmupData);

        // Per-trial secret input, drawn from the trial stream; loaded
        // once, before the pre-arm snapshot, so both arms see it.
        Rng rng(ctx.seed);
        std::uint8_t plaintext[16], ct[16];
        for (unsigned i = 0; i < 16; ++i)
            plaintext[i] = static_cast<std::uint8_t>(rng.below(256));
        crypto::encryptBlock(rig->encKey, plaintext, ct);
        crypto::loadCiphertext(m.kernel(), rig->pid, rig->layout, ct);

        const auto probeTable = [&](unsigned table) {
            attack::LineProbe probe;
            for (unsigned line = 0; line < 16; ++line) {
                const os::ProbeResult r = m.kernel().timedProbePhys(
                    rig->tablePa[table] + line * lineSize);
                probe.latency[line] = r.latency;
                probe.level[line] = r.level;
            }
            return probe;
        };
        const auto primeTables = [&] {
            for (unsigned t = 0; t < 4; ++t)
                m.kernel().primeRange(rig->tablePa[t], 1024);
        };

        std::vector<attack::LineProbe> windows;
        ms::Microscope scope(m);
        ms::AttackRecipe recipe;
        recipe.victim = rig->pid;
        recipe.replayHandle = rig->layout.td0;
        recipe.confidence = 2;
        recipe.maxEpisodes = 1;
        recipe.walkPlan = ms::PageWalkPlan::longest();
        recipe.differentialReplay = differential;
        recipe.onReplay = [&](const ms::ReplayEvent &event) {
            if (event.replayIndex == 1) {
                // Heavy calibration pass, prefix-only: survey every
                // table, then re-prime — the work the fast arm's
                // snapshot captures instead of re-executing.
                for (unsigned t = 0; t < 4; ++t)
                    probeTable(t);
            } else {
                windows.push_back(probeTable(1));
            }
            return true;
        };
        recipe.beforeResume = [&](const ms::ReplayEvent &) {
            primeTables();
        };
        scope.setRecipe(std::move(recipe));

        // Pre-arm snapshot: the resimulating arm rewinds here before
        // every iteration.  The differential arms never read it, and
        // a snapshot has no semantic effect (PhysMem share counters
        // are stripped from fingerprints), so they skip its cost.
        os::Snapshot pre;
        ms::EpisodeState preState;
        if (!differential) {
            pre = m.snapshot();
            preState = ms::EpisodeState{scope.armed(),
                                        scope.replaysThisEpisode(),
                                        scope.stats()};
        }
        const auto runPrefix = [&]() {
            // Per-trial warm decryption of this trial's ciphertext —
            // the calibration run a denoise campaign performs before
            // opening the episode, and the bulk of the prefix cost.
            m.kernel().startOnContext(rig->pid, 0, rig->program);
            if (!m.runUntilHalted(0, diffRunBudget))
                throw std::runtime_error("warm run never halted");
            primeTables();
            scope.arm();
            m.kernel().startOnContext(rig->pid, 0, rig->program);
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

        // Majority vote over the measured windows vs ground truth.
        std::set<unsigned> expected;
        const crypto::DecAccessTrace trace =
            crypto::traceDecryption(rig->decKey, ct);
        for (std::uint8_t index : trace.indices[0][1])
            expected.insert(crypto::tableLineOf(index));
        std::array<unsigned, 16> votes{};
        for (const attack::LineProbe &probe : windows)
            for (unsigned line : probe.hitLines(prefixHitThreshold))
                ++votes[line];
        std::set<unsigned> majority;
        for (unsigned line = 0; line < 16; ++line)
            if (votes[line] * 2 > windows.size())
                majority.insert(line);
        const bool matches = !windows.empty() && majority == expected;

        exp::TrialOutput out;
        out.metric.add(matches ? 1.0 : 0.0);
        out.simCycles = m.cycle() - ctx.forkCycle;
        out.scope = scope.stats();
        obs::MetricRegistry registry;
        m.exportMetrics(registry);
        scope.exportMetrics(registry);
        out.metrics = registry.snapshot();

        exp::json::Value probes = exp::json::Value::array();
        for (const attack::LineProbe &probe : windows) {
            exp::json::Value row = exp::json::Value::array();
            for (Cycles latency : probe.latency)
                row.push(latency);
            probes.push(std::move(row));
        }
        out.payload = exp::json::Value::object()
                          .set("matches_ground_truth", matches)
                          .set("final_cycle", m.cycle())
                          .set("probe_latencies", std::move(probes));
        return out;
    };
    return spec;
}

/** Run section 6; returns false on a hard failure. */
bool
diffReplaySection(exp::JsonFileSink &sink)
{
    std::printf("\n==============================================================\n");
    std::printf("Differential-replay A/B: denoise-shaped episodes, %zu "
                "trials x %llu re-entries\n",
                diffTrials,
                static_cast<unsigned long long>(diffIterations));
    std::printf("==============================================================\n\n");

    exp::CampaignResult off = exp::runCampaign(
        diffReplaySpec("perf_campaign_diffreplay_off", false));
    report("resim", off);

    exp::CampaignResult on = exp::runCampaign(
        diffReplaySpec("perf_campaign_diffreplay_on", true));
    report("cowfork", on);

    const double speedup =
        on.wallSeconds > 0.0 ? off.wallSeconds / on.wallSeconds : 0.0;
    std::printf("\ndifferential-replay speedup (1 worker): %.2fx "
                "(paper-repro target: >= 1.5x)\n", speedup);

    // The replay contract: restoring the episode snapshot is byte-
    // identical to re-simulating the prefix.  Hard failure if violated.
    const std::string fpOff = deterministicFingerprint(off);
    const std::string fpOn = deterministicFingerprint(on);
    const bool identical = fpOff == fpOn;
    std::printf("fingerprints byte-identical across arms: %s\n",
                identical ? "yes" : "NO");

    sink.consume(off);
    sink.consume(on);
    writeTextFile("bench-results/BENCH_diffreplay_fp_off.txt", fpOff);
    writeTextFile("bench-results/BENCH_diffreplay_fp_on.txt", fpOn);

    const exp::json::Value bench =
        exp::json::Value::object()
            .set("bench", "perf_campaign_diffreplay")
            .set("config",
                 exp::json::Value::object()
                     .set("trials", std::uint64_t{diffTrials})
                     .set("replays_per_trial",
                          std::uint64_t{diffIterations})
                     .set("workers", std::uint64_t{1})
                     .set("master_seed", std::uint64_t{42}))
            .set("trials_per_sec", on.trialsPerSecond())
            .set("trials_per_sec_off", off.trialsPerSecond())
            .set("speedup_vs_off", speedup)
            .set("fingerprints_identical", identical)
            .set("fingerprint", fnv1aHex(fpOn));
    writeTextFile("bench-results/BENCH_diffreplay.json", bench.dump());
    std::printf("bench JSON: bench-results/BENCH_diffreplay.json "
                "(+ fingerprint files)\n");

    // CI gate: determinism is absolute; the speedup must never regress
    // below break-even (>= 1.5x is tracked via the JSON).
    return identical && speedup >= 1.0 &&
           off.aggregate.ok == diffTrials &&
           on.aggregate.ok == diffTrials;
}

// ---------------------------------------------------------------------
// Sections 1 and 2: sharding and fast-forward A/B.
// ---------------------------------------------------------------------

/** Run section 1 (Fig.-10 sharding); returns false on hard failure. */
bool
shardingSection(bool fast_forward, exp::JsonFileSink &sink)
{
    const unsigned hw = std::thread::hardware_concurrency();
    std::printf("==============================================================\n");
    std::printf("Campaign-runner throughput: Fig.-10-style sweep, %zu "
                "trials\n", trials);
    std::printf("hardware_concurrency: %u, fast-forward: %s\n", hw,
                fast_forward ? "on" : "off");
    std::printf("==============================================================\n\n");

    exp::CampaignResult serial =
        exp::runCampaign(fig10StyleSpec(1, fast_forward));
    report("serial", serial);
    exp::CampaignResult parallel =
        exp::runCampaign(fig10StyleSpec(4, fast_forward));
    report("parallel", parallel);

    const double speedup =
        parallel.wallSeconds > 0.0
            ? serial.wallSeconds / parallel.wallSeconds
            : 0.0;
    std::printf("\nspeedup at 4 workers:   %.2fx\n", speedup);

    const bool identical = deterministicFingerprint(serial) ==
                           deterministicFingerprint(parallel);
    std::printf("aggregates bit-identical across worker counts: %s\n",
                identical ? "yes" : "NO");

    sink.consume(serial);
    sink.consume(parallel);
    std::printf("campaign JSON: %s (+ serial twin)\n",
                sink.lastPath().c_str());

    bool ok = identical && serial.aggregate.ok == trials &&
              parallel.aggregate.ok == trials;
    if (hw >= 4) {
        std::printf("expectation (>= 4 cores): >= 2x  ->  %s\n",
                    speedup >= 2.0 ? "PASS" : "FAIL");
        ok = ok && speedup >= 2.0;
    } else {
        std::printf("only %u core(s) visible: parallel speedup is "
                    "hardware-bound near %ux; determinism is the "
                    "enforced check here\n",
                    hw, hw ? hw : 1);
    }
    return ok;
}

/** Run section 2 (fast-forward A/B); returns false on hard failure. */
bool
fastForwardSection(std::optional<bool> pinned, exp::JsonFileSink &sink)
{
    std::printf("\n==============================================================\n");
    std::printf("Fast-forward A/B: Fig.-11-shaped AES replay trials, "
                "%zu trials\n", fig11Trials);
    std::printf("==============================================================\n\n");

    if (pinned) {
        // Pinned mode: measure it alone, no A/B comparison possible.
        const bool ff = *pinned;
        exp::CampaignResult result = exp::runCampaign(fig11StyleSpec(
            ff ? "perf_campaign_fig11_ff_on"
               : "perf_campaign_fig11_ff_off",
            1, ff));
        report(ff ? "ff=on" : "ff=off", result);
        sink.consume(result);
        std::printf("campaign JSON: %s\n", sink.lastPath().c_str());
        return result.aggregate.ok == fig11Trials;
    }

    exp::CampaignResult ffOff = exp::runCampaign(
        fig11StyleSpec("perf_campaign_fig11_ff_off", 1, false));
    report("ff=off", ffOff);
    exp::CampaignResult ffOn = exp::runCampaign(
        fig11StyleSpec("perf_campaign_fig11_ff_on", 1, true));
    report("ff=on", ffOn);
    exp::CampaignResult ffOn4 = exp::runCampaign(
        fig11StyleSpec("perf_campaign_fig11_ff_on4", 4, true));
    report("ff=on", ffOn4);

    const double ffSpeedup = ffOn.wallSeconds > 0.0
                                 ? ffOff.wallSeconds / ffOn.wallSeconds
                                 : 0.0;
    std::printf("\nfast-forward speedup (1 worker): %.2fx\n", ffSpeedup);

    // The elision contract: identical results across modes AND across
    // worker counts within the fast mode.  Hard failure if violated;
    // the speedup is measured, not asserted (timing noise is not a
    // correctness signal).
    const std::string ffBaseline = deterministicFingerprint(ffOff);
    const bool ffIdentical =
        ffBaseline == deterministicFingerprint(ffOn) &&
        ffBaseline == deterministicFingerprint(ffOn4);
    std::printf("fingerprints bit-identical across modes and worker "
                "counts: %s (ff=on %s)\n",
                ffIdentical ? "yes" : "NO",
                fnv1aHex(deterministicFingerprint(ffOn)).c_str());

    sink.consume(ffOff);
    sink.consume(ffOn);
    sink.consume(ffOn4);
    std::printf("campaign JSON: %s (+ off/on twins)\n",
                sink.lastPath().c_str());

    return ffIdentical && ffOff.aggregate.ok == fig11Trials &&
           ffOn.aggregate.ok == fig11Trials &&
           ffOn4.aggregate.ok == fig11Trials;
}

} // namespace

int
main(int argc, char **argv)
{
    // Peel off --section before the shared obs parser sees (and
    // rejects) it.
    std::optional<unsigned> sectionFlag;
    std::vector<char *> rest;
    rest.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--section=", 0) == 0) {
            const std::optional<std::uint64_t> n =
                obs::parseUnsignedValue(arg.c_str() + 10);
            if (!n || *n < 1 || *n > 6 || *n == 4) {
                std::fprintf(stderr,
                             "perf_campaign: --section takes one of "
                             "1, 2, 3, 5, 6 (got '%s')\n",
                             arg.c_str() + 10);
                return 2;
            }
            sectionFlag = static_cast<unsigned>(*n);
        } else
            rest.push_back(argv[i]);
    }
    obs::BenchObsOptions opts;
    try {
        opts = obs::parseBenchObsOptions(
            static_cast<int>(rest.size()), rest.data(),
            "bench-results/perf_campaign.trace.json");
    } catch (const SimPanic &) {
        return 2;  // panic() has named the bad argument
    }
    // Sharding section: fast-forward on unless pinned off, so the
    // throughput numbers reflect the production configuration.
    const bool fig10Ff = opts.fastForward.value_or(true);

    std::optional<exp::JsonFileSink> sink;
    try {
        sink.emplace("bench-results", /*include_trials=*/false);
    } catch (const SimFatal &) {
        return 2;  // fatal() has named the directory
    }

    // --section=N runs exactly one numbered section; without it, all
    // of them run (the full bench).
    const auto want = [&](unsigned section) {
        return !sectionFlag || *sectionFlag == section;
    };

    bool ok = true;
    if (want(1))
        ok = shardingSection(fig10Ff, *sink) && ok;
    if (want(2))
        ok = fastForwardSection(opts.fastForward, *sink) && ok;
    if (want(3))
        ok = prefixSection(*sink) && ok;
    if (want(5))
        ok = obsSection(opts.obsLevel) && ok;
    if (want(6))
        ok = diffReplaySection(*sink) && ok;
    return ok ? 0 : 1;
}
