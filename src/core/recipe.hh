/**
 * @file
 * Attack Recipes (paper §5.2.1).
 *
 * A recipe bundles everything the MicroScope module needs for one
 * microarchitectural replay attack: the replay handle, the optional
 * pivot, addresses to monitor for cache-based side channels, the
 * confidence threshold that bounds replays, a page-walk plan that
 * tunes the speculative-window length, and the attack functions
 * invoked from the fault path.  Recipes can be swapped mid-attack
 * ("if a side-channel attack is unsuccessful for a number of replays,
 * the attacker can switch from a long page walk to a short one").
 */

#ifndef USCOPE_CORE_RECIPE_HH
#define USCOPE_CORE_RECIPE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/types.hh"
#include "mem/hierarchy.hh"
#include "os/module.hh"
#include "vm/paging.hh"

namespace uscope::ms
{

class Microscope;

/**
 * Where to stage each page-table entry before a replay, and how many
 * levels the hardware walk must fetch.  This is the §4.1.2 duration
 * knob: all-DRAM with 4 fetched levels gives a >1000-cycle window;
 * PWC-prefilled with the leaf in L1 gives a few cycles.
 */
struct PageWalkPlan
{
    std::array<mem::HitLevel, vm::numLevels> levels{
        mem::HitLevel::Dram, mem::HitLevel::Dram, mem::HitLevel::Dram,
        mem::HitLevel::Dram};
    /** Levels the walk must fetch (1..4); 4-n upper levels come from
     *  a pre-filled PWC. */
    unsigned fetchLevels = vm::numLevels;

    /** Longest window: PWC flushed, every entry in DRAM. */
    static PageWalkPlan longest();

    /** Shortest window: PWC covers the upper levels, leaf in L1. */
    static PageWalkPlan shortest();

    /** All fetched entries staged at one level. */
    static PageWalkPlan uniform(mem::HitLevel level,
                                unsigned fetch_levels = vm::numLevels);
};

/** Context handed to the recipe's attack functions. */
struct ReplayEvent
{
    Microscope &scope;
    const os::PageFaultEvent &fault;
    /** 1-based replay count within the current episode. */
    std::uint64_t replayIndex;
    /** 0-based episode count (episodes advance at pivot swaps). */
    std::uint64_t episode;
};

/** One attack recipe (§5.2.1). */
struct AttackRecipe
{
    os::Pid victim = 0;

    /** The page-fault-inducing load address (§4.1.1). */
    VAddr replayHandle = 0;

    /**
     * Optional pivot on a different page; when set, releasing the
     * handle arms the pivot and vice versa, single-stepping the
     * victim through loop iterations (§4.2.2).
     */
    std::optional<VAddr> pivot;

    /** Victim addresses probed by cache-based monitors. */
    std::vector<VAddr> monitorAddrs;

    /**
     * Confidence threshold: replays per episode before the module
     * decides the noise is low enough and releases the handle.
     */
    std::uint64_t confidence = 10;

    /** Episodes before the module disarms entirely (0 = unbounded). */
    std::uint64_t maxEpisodes = 0;

    PageWalkPlan walkPlan = PageWalkPlan::longest();

    /**
     * Walk plan staged for a page being *released* (made present
     * again) at an episode end or pivot swap.  A short plan makes the
     * released access retire quickly, so instructions that depend on
     * its value execute well before the newly-armed page's fault
     * squashes the window — the §4.1.2/§4.4 walk-duration tuning in
     * its second role.
     */
    PageWalkPlan releasePlan = PageWalkPlan::shortest();

    /**
     * Differential replay (DESIGN.md §15): when set, the engine flags
     * the first re-arm of each episode as a snapshot point.  A harness
     * that runs the machine until Microscope::episodeSnapshotPending()
     * and then calls takeEpisodeSnapshot() can afterwards re-enter the
     * episode any number of times via restoreEpisode(seed) — a
     * restore at the replay handle — instead of re-simulating the prefix
     * up to the faulting load.  Off by default: the flag changes no
     * machine-visible behaviour, only whether the engine offers the
     * snapshot point.
     */
    bool differentialReplay = false;

    /**
     * Measurement hook, called on every handle fault (the Replayer-
     * as-Monitor configuration).  Return false to end the episode
     * before the confidence threshold.
     */
    std::function<bool(const ReplayEvent &)> onReplay;

    /** Called after re-arming, before the victim resumes (priming). */
    std::function<void(const ReplayEvent &)> beforeResume;

    /** Called when an episode ends (handle released). */
    std::function<void(const ReplayEvent &)> onEpisodeEnd;

    /** Called on each pivot fault. */
    std::function<void(const ReplayEvent &)> onPivot;
};

} // namespace uscope::ms

#endif // USCOPE_CORE_RECIPE_HH
