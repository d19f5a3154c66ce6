/**
 * @file
 * A single set-associative cache level with true-LRU replacement.
 *
 * The cache tracks presence only — data always lives in PhysMem — which
 * is all the timing model and the side channels need.  The hierarchy
 * (mem/hierarchy.hh) composes three of these plus DRAM.
 */

#ifndef USCOPE_MEM_CACHE_HH
#define USCOPE_MEM_CACHE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hh"

namespace uscope::mem
{

/** Aggregate hit/miss/eviction counters for one cache. */
struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t invalidations = 0;
};

/**
 * Set-associative cache of 64-byte lines, physically indexed and
 * tagged, with true LRU within each set.
 */
class Cache
{
  public:
    /**
     * @param name  Name used in stats dumps ("L1D", "L2", "L3").
     * @param size  Capacity in bytes.
     * @param assoc Associativity (ways per set).
     */
    Cache(std::string name, std::uint64_t size, unsigned assoc);

    const std::string &name() const { return name_; }
    unsigned numSets() const { return numSets_; }
    unsigned assoc() const { return assoc_; }

    /** True if the line holding @p addr is present (no LRU update). */
    bool contains(PAddr addr) const;

    /**
     * Access the line holding @p addr.  On a hit, refresh LRU and
     * return true.  On a miss, return false and leave the set
     * unchanged (call insert() to fill).
     */
    bool access(PAddr addr);

    /**
     * Fill the line holding @p addr, evicting the LRU way if the set
     * is full.
     *
     * @return Base address of the evicted line, if any.
     */
    std::optional<PAddr> insert(PAddr addr);

    /** Remove the line holding @p addr.  @return true if it was there. */
    bool invalidate(PAddr addr);

    /** Drop every line (e.g., on a simulated WBINVD). */
    void invalidateAll();

    /** Number of valid lines currently resident (tests/stats). */
    std::size_t occupancy() const;

    /** Set index this cache maps @p addr to (for eviction-set tests). */
    unsigned setIndex(PAddr addr) const;

    /**
     * Base address of the line resident at (@p set, @p way), or
     * nullopt when that way is invalid.  Lets the fault injector pick
     * a uniformly random victim line for interrupt-residue evictions
     * without walking tags itself.
     */
    std::optional<PAddr> residentLine(unsigned set, unsigned way) const;

    const CacheStats &stats() const { return stats_; }

    /**
     * Adopt @p other's ways, LRU clock, and stats (snapshot forking,
     * DESIGN.md §12).  Both caches must share the same geometry.
     * Disarms any journal — a wholesale overwrite invalidates it.
     */
    void copyStateFrom(const Cache &other)
    {
        ways_ = other.ways_;
        clock_ = other.clock_;
        stats_ = other.stats_;
        disarmJournal();
    }

    // ------------------------------------------------------------------
    // Undo journal (machine state restore, DESIGN.md §17).
    // ------------------------------------------------------------------

    /**
     * Arm the undo journal at the current state: every subsequent way
     * mutation records the overwritten way image so rewindJournal()
     * can restore this exact state in O(ways touched), instead of the
     * O(all ways) copyStateFrom a full restore pays.  Re-arming
     * discards any previous journal.
     */
    void beginJournal();

    /**
     * Undo every journaled mutation in reverse order, restoring the
     * exact state beginJournal() captured (ways, LRU clock, stats),
     * and leave the journal armed-and-empty for the next window.
     * Requires journalViable().
     */
    void rewindJournal();

    /** Armed and not poisoned (by invalidateAll or the entry cap). */
    bool journalViable() const
    {
        return journal_.armed && !journal_.poisoned;
    }

    /**
     * FNV-1a digest of the complete mutable state (ways, LRU clock,
     * stats) — the rewind-equals-restore test oracle.
     */
    std::uint64_t stateDigest() const;

  private:
    struct Way
    {
        bool valid = false;
        std::uint64_t tag = 0;
        std::uint64_t lruStamp = 0;
    };

    /** One undo record: the pre-mutation image of ways_[index]. */
    struct JournalEntry
    {
        std::uint32_t index;
        Way pre;
    };

    struct Journal
    {
        bool armed = false;
        bool poisoned = false;
        std::vector<JournalEntry> entries;
        std::uint64_t clock0 = 0;
        CacheStats stats0;
    };

    /** Record @p way's pre-mutation image (no-op unless armed). */
    void journalWay(const Way &way)
    {
        if (journal_.armed)
            recordUndo(way);
    }

    void recordUndo(const Way &way);

    void disarmJournal()
    {
        journal_.armed = false;
        journal_.poisoned = false;
        journal_.entries.clear();
    }

    std::uint64_t tagOf(PAddr addr) const;
    Way *findWay(PAddr addr);
    const Way *findWay(PAddr addr) const;

    std::string name_;
    unsigned numSets_;
    unsigned assoc_;
    std::vector<Way> ways_;      ///< numSets_ * assoc_, row-major by set.
    std::uint64_t clock_ = 0;    ///< monotonic stamp source for LRU.
    CacheStats stats_;
    Journal journal_;
};

} // namespace uscope::mem

#endif // USCOPE_MEM_CACHE_HH
