/**
 * @file
 * Top-level simulated machine: physical memory, cache hierarchy, MMU,
 * the SMT out-of-order core, and the kernel, wired together.
 *
 * This is the library's main entry point: construct a Machine, create
 * processes through its kernel, start programs on SMT contexts, and
 * tick.  The MicroScope framework (src/core) attaches to the kernel as
 * a fault module.
 */

#ifndef USCOPE_OS_MACHINE_HH
#define USCOPE_OS_MACHINE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>

#include "common/random.hh"
#include "common/types.hh"
#include "cpu/core.hh"
#include "fault/injector.hh"
#include "fault/plan.hh"
#include "mem/hierarchy.hh"
#include "mem/phys_mem.hh"
#include "obs/observer.hh"
#include "os/kernel.hh"
#include "vm/mmu.hh"

namespace uscope::os
{

/** Aggregate configuration of the whole machine. */
struct MachineConfig
{
    std::uint64_t physMemBytes = std::uint64_t{1} << 32;
    mem::MemConfig mem;
    vm::MmuConfig mmu;
    cpu::CoreConfig core;
    KernelCosts costs;
    obs::ObsConfig obs;
    /**
     * The machine's fault/noise model (DESIGN.md §11).  Defaults to
     * the process-wide environment plan — inert unless
     * USCOPE_FAULT_PLAN=chaos is exported (the CI chaos job).
     * Explicit assignment (even of an empty plan) always wins.
     */
    fault::FaultPlan fault = fault::FaultPlan::environmentDefault();
    /** Master seed; sub-components derive their own streams. */
    std::uint64_t seed = 42;
    /**
     * Event-driven fast-forward: Machine::run/runUntil jump the clock
     * over provably inert cycles (Machine::nextEventCycle()) instead
     * of ticking one by one.  Results are bit-identical either way
     * (see DESIGN.md §10); off exists for differential testing and
     * debugging.
     */
    bool fastForward = true;
};

/**
 * Structural equality of two configs: every knob except the seed.
 * Machines with the same structure can share snapshots — only their
 * RNG streams (reseedable at any time) differ.
 */
bool sameStructure(const MachineConfig &a, const MachineConfig &b);

class Snapshot;

/** The machine. */
class Machine
{
  public:
    explicit Machine(const MachineConfig &config = MachineConfig{});

    mem::PhysMem &mem() { return mem_; }
    mem::Hierarchy &hierarchy() { return hierarchy_; }
    vm::Mmu &mmu() { return mmu_; }
    cpu::Core &core() { return core_; }
    Kernel &kernel() { return kernel_; }
    const MachineConfig &config() const { return config_; }

    /** The machine's fault injector (inert for an empty plan). */
    fault::FaultInjector &faults() { return faults_; }
    const fault::FaultInjector &faults() const { return faults_; }

    /** Advance one cycle (scheduled faults due now fire first). */
    void
    tick()
    {
        if (faults_.active())
            faults_.poll(core_.cycle());
        core_.tick();
    }

    /** Current cycle. */
    Cycles cycle() const { return core_.cycle(); }

    /**
     * Advance exactly @p n cycles: runUntil with a predicate that
     * never holds.
     */
    void run(Cycles n);

    /**
     * Tick until context @p ctx halts or @p max_cycles pass.
     * @return true if the context halted.
     */
    bool runUntilHalted(unsigned ctx, Cycles max_cycles);

    /**
     * Tick until @p pred() holds or @p max_cycles pass.  With
     * config().fastForward this elides inert cycles via
     * nextEventCycle() but lands on exactly the same state a
     * cycle-by-cycle run would reach.
     *
     * @p pred must be a pure function of machine state (stats,
     * registers, memory, context states) — not of the raw cycle
     * counter — so that it cannot flip during a span of cycles the
     * fast-forward path proves inert.  Every predicate in the tree
     * satisfies this today (they test halted()/stat counters).
     */
    bool runUntil(const std::function<bool()> &pred, Cycles max_cycles);

    /**
     * Earliest cycle at which ticking can change architectural or
     * stats state: the minimum of the core's nextEventCycle() (its
     * in-flight ops) and the fault injector's (its next scheduled
     * injection).  The walker, hierarchy and kernel are synchronous
     * and hold no time of their own.  kNoEventCycle when nothing is
     * in flight anywhere.
     */
    Cycles nextEventCycle() const;

    /** The machine's observability hub (event ring). */
    obs::Observer &observer() { return obs_; }
    const obs::Observer &observer() const { return obs_; }

    /**
     * Register every component's counters into @p registry
     * (mem.*, vm.*, core.*, os.*).
     */
    void exportMetrics(obs::MetricRegistry &registry) const;

    /** Convenience: exportMetrics into a fresh registry + snapshot. */
    obs::MetricSnapshot metricsSnapshot() const;

    // ------------------------------------------------------------------
    // Snapshot, fork, and restore (DESIGN.md §12).
    // ------------------------------------------------------------------

    /**
     * Freeze a deep copy of the machine's entire mutable state:
     * physical pages, core/ROB/contexts, TLB/PWC/walker, cache ways,
     * kernel processes and fault-path counters, RNG streams,
     * fault-injector schedule, stats, and the event-trace ring.  The
     * snapshot owns its copy; nothing this machine does afterwards
     * reaches it.
     *
     * Registered fault modules (ms::Microscope) are per-machine
     * external objects and are NOT captured; their machine-visible
     * effects (present bits, staged PT/data lines, TLB/PWC state)
     * are, via the copied memory system.
     */
    Snapshot snapshot() const;

    /**
     * Overwrite this machine's state with @p snap's (same structural
     * config required; a machine constructed from snap.config() always
     * qualifies).  Page and cache-way buffers are reused, so a
     * pooled machine's restore does not reallocate them.
     *
     * The one restore path (DESIGN.md §17).  A full restore copies
     * every component and arms the cache hierarchy's undo journal at
     * the restored state.  Restoring the *same* snapshot again — a
     * replay loop re-entering one episode, a pooled worker re-forking
     * one warmup — rewinds the journal instead, O(ways touched since)
     * rather than O(cache size), while every other component,
     * physical memory included, is copied as before.  Any other
     * snapshot, or a journal that overflowed or saw invalidateAll,
     * takes the full path.  Both paths land on bit-identical state.
     * restoreFrom only reads @p snap, so several threads may restore
     * one snapshot at once.
     * Fault schedules are defensively re-anchored at the restored
     * cycle (FaultInjector::reanchorAt), a no-op for any consistent
     * snapshot.
     */
    void restoreFrom(const Snapshot &snap);

    /**
     * Re-derive every component RNG stream from @p seed, anchored at
     * the *current* cycle — the reseed-at-fork primitive.  Leaves all
     * architectural state, stats, and traces alone.  The determinism
     * contract: a cold machine that runs a warmup and reseeds equals,
     * bit for bit, a fork restored from the post-warmup snapshot and
     * reseeded with the same seed.
     */
    void reseed(std::uint64_t seed);

  private:
    /** Overwrite all mutable state with @p other's (same structure). */
    void copyStateFrom(const Machine &other);

    /** The part of copyStateFrom that has no undo log: everything
     *  but the cache hierarchy. */
    void copyUnloggedStateFrom(const Machine &other);

    MachineConfig config_;
    obs::Observer obs_;
    mem::PhysMem mem_;
    mem::Hierarchy hierarchy_;
    vm::Mmu mmu_;
    cpu::Core core_;
    /**
     * Frozen-machine pool for snapshot(): constructing a Machine
     * (cache arrays, ROB) dwarfs copying one, so dead Snapshots'
     * clones are kept for reuse.  A slot is reusable only while no
     * Snapshot references it (use_count()==1).  Two slots
     * cover the take-new-then-drop-old pattern of an engine that
     * holds one episode snapshot across trials.  Mutable: a pool
     * hand-off never changes this machine's observable state.
     */
    mutable std::array<std::shared_ptr<Machine>, 2> scratchSnaps_;
    mutable std::size_t scratchNext_ = 0;
    /** Snapshot::id_ of the last full restore, whose state the undo
     *  journal is armed at; 0 when none is. */
    std::uint64_t restoredSnapId_ = 0;
    /** Restores since construction, by path (exported as
     *  mem.physmem.shares_{full,fast}); never copied by a restore. */
    std::uint64_t restoresFull_ = 0;
    std::uint64_t restoresRewound_ = 0;
    Kernel kernel_;
    Rng entropy_;   ///< Hardware RDRAND source.
    fault::FaultInjector faults_;
};

/**
 * A frozen Machine state (DESIGN.md §12): the product of
 * Machine::snapshot(), consumed by Machine::restoreFrom().  Internally
 * a full state-clone machine that is never ticked and owns its pages.
 * Move-only.  Restoring only reads it, so any number of threads may
 * restore one snapshot concurrently; taking or dropping one stays on
 * the thread of the machine it was taken from (the scratch pool).
 */
class Snapshot
{
  public:
    Snapshot() = default;
    Snapshot(Snapshot &&) = default;
    Snapshot &operator=(Snapshot &&) = default;

    /** False for a default-constructed or moved-from snapshot. */
    bool valid() const { return frozen_ != nullptr; }

    /** The frozen machine's config (requires valid()). */
    const MachineConfig &config() const { return frozen_->config(); }

    /** Cycle the snapshot was taken at (requires valid()). */
    Cycles cycle() const { return frozen_->cycle(); }

  private:
    friend class Machine;
    Snapshot(std::shared_ptr<Machine> frozen, std::uint64_t id)
        : frozen_(std::move(frozen)), id_(id)
    {
    }

    /**
     * Shared only with the taking machine's scratch pool (snapshot
     * reuse); a Snapshot is still the sole *owner* in the API sense —
     * the pool never reads or writes a frozen machine while any
     * Snapshot references it (use_count guard in Machine::snapshot).
     */
    std::shared_ptr<Machine> frozen_;
    /**
     * Process-unique, stamped by Machine::snapshot().  Identifies the
     * frozen state, not the pooled clone holding it: a scratch slot
     * reused for a later snapshot gets a new id.
     */
    std::uint64_t id_ = 0;
};

} // namespace uscope::os

#endif // USCOPE_OS_MACHINE_HH
