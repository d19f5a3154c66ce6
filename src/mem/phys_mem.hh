/**
 * @file
 * The machine's physical memory: a sparse, page-granular byte store.
 *
 * Page tables, victim data (AES tables, key schedules), and Monitor
 * buffers all live here as real bytes; the page-table walker, the core's
 * load/store units, and the kernel all read and write the same storage.
 * Timing is modelled separately by the cache hierarchy — PhysMem is the
 * functional backing store.
 *
 * Storage is a contiguous vector of pages plus an open-addressed
 * PPN → page-index table (no per-page heap node, no hash-map pointer
 * chase on the hot path).  PhysMem is a plain value: a copy owns its
 * own pages, and copy-assignment into an instance that already holds
 * as many pages reuses its buffers (DESIGN.md §12).
 */

#ifndef USCOPE_MEM_PHYS_MEM_HH
#define USCOPE_MEM_PHYS_MEM_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace uscope::mem
{

/** Sparse physical memory; pages materialize zero-filled on first touch. */
class PhysMem
{
  public:
    /** @param size Total physical memory size in bytes (for bounds). */
    explicit PhysMem(std::uint64_t size = std::uint64_t{1} << 32);

    std::uint64_t size() const { return size_; }

    /** Read @p len (1/2/4/8) bytes, little-endian, at @p addr. */
    std::uint64_t read(PAddr addr, unsigned len) const;

    /** Write the low @p len bytes of @p val, little-endian, at @p addr. */
    void write(PAddr addr, std::uint64_t val, unsigned len);

    std::uint8_t read8(PAddr addr) const { return read(addr, 1); }
    std::uint32_t read32(PAddr addr) const
    {
        return static_cast<std::uint32_t>(read(addr, 4));
    }
    std::uint64_t read64(PAddr addr) const { return read(addr, 8); }

    void write8(PAddr addr, std::uint8_t val) { write(addr, val, 1); }
    void write64(PAddr addr, std::uint64_t val) { write(addr, val, 8); }

    /** Bulk copy into physical memory. */
    void writeBytes(PAddr addr, const void *src, std::uint64_t len);

    /** Bulk copy out of physical memory. */
    void readBytes(PAddr addr, void *dst, std::uint64_t len) const;

    /** Zero a whole physical page (stays materialized if present). */
    void zeroPage(Ppn ppn);

    /** Number of pages materialized so far (for tests/stats). */
    std::size_t pagesAllocated() const { return pages_.size(); }

    /** PPNs of every materialized page, in no particular order
     *  (tests compare memories page by page). */
    std::vector<Ppn> pages() const;

  private:
    using Page = std::array<std::uint8_t, pageSize>;
    static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};

    struct Slot
    {
        Ppn ppn = 0;
        std::uint32_t page = kEmpty; // index into pages_; kEmpty == free
    };

    /** Writable page bytes for @p addr (materializes on first touch). */
    std::uint8_t *pageFor(PAddr addr);

    /** Readable page bytes for @p addr, or nullptr if untouched. */
    const std::uint8_t *pageForConst(PAddr addr) const;

    std::size_t probe(Ppn ppn) const;
    void grow();
    void checkBounds(PAddr addr, std::uint64_t len) const;

    std::uint64_t size_;
    std::vector<Slot> slots_; // open-addressed, power-of-two size
    std::size_t mask_;
    std::vector<Page> pages_;
};

} // namespace uscope::mem

#endif // USCOPE_MEM_PHYS_MEM_HH
