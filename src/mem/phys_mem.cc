#include "mem/phys_mem.hh"

#include <cstring>

#include "common/logging.hh"
#include "common/random.hh"

namespace uscope::mem
{

namespace
{

/** Initial index capacity; must be a power of two. */
constexpr std::size_t kInitialSlots = 256;

} // namespace

PhysMem::PhysMem(std::uint64_t size)
    : size_(size), slots_(kInitialSlots), mask_(kInitialSlots - 1)
{
}

void
PhysMem::checkBounds(PAddr addr, std::uint64_t len) const
{
    if (addr + len > size_ || addr + len < addr)
        panic("PhysMem access [%#llx, +%llu) out of bounds (size %#llx)",
              static_cast<unsigned long long>(addr),
              static_cast<unsigned long long>(len),
              static_cast<unsigned long long>(size_));
}

std::size_t
PhysMem::probe(Ppn ppn) const
{
    std::size_t i = mix64(ppn) & mask_;
    while (slots_[i].page != kEmpty && slots_[i].ppn != ppn)
        i = (i + 1) & mask_;
    return i;
}

void
PhysMem::grow()
{
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.size() * 2, Slot{});
    mask_ = slots_.size() - 1;
    for (const Slot &slot : old) {
        if (slot.page == kEmpty)
            continue;
        std::size_t i = mix64(slot.ppn) & mask_;
        while (slots_[i].page != kEmpty)
            i = (i + 1) & mask_;
        slots_[i] = slot;
    }
}

std::uint8_t *
PhysMem::pageFor(PAddr addr)
{
    const Ppn ppn = pageNumber(addr);
    std::size_t i = probe(ppn);
    if (slots_[i].page == kEmpty) {
        // Keep the load factor below ~2/3 so probes stay short.
        if ((pages_.size() + 1) * 3 > slots_.size() * 2) {
            grow();
            i = probe(ppn);
        }
        slots_[i].ppn = ppn;
        slots_[i].page = static_cast<std::uint32_t>(pages_.size());
        pages_.emplace_back(); // value-initialized: zero-filled
    }
    return pages_[slots_[i].page].data();
}

const std::uint8_t *
PhysMem::pageForConst(PAddr addr) const
{
    const std::size_t i = probe(pageNumber(addr));
    return slots_[i].page == kEmpty ? nullptr
                                    : pages_[slots_[i].page].data();
}

std::uint64_t
PhysMem::read(PAddr addr, unsigned len) const
{
    checkBounds(addr, len);
    std::uint64_t val = 0;
    for (unsigned i = 0; i < len; ++i) {
        const PAddr byte_addr = addr + i;
        const std::uint8_t *page = pageForConst(byte_addr);
        const std::uint8_t byte =
            page ? page[byte_addr & pageOffsetMask] : 0;
        val |= static_cast<std::uint64_t>(byte) << (8 * i);
    }
    return val;
}

void
PhysMem::write(PAddr addr, std::uint64_t val, unsigned len)
{
    checkBounds(addr, len);
    for (unsigned i = 0; i < len; ++i) {
        const PAddr byte_addr = addr + i;
        pageFor(byte_addr)[byte_addr & pageOffsetMask] =
            static_cast<std::uint8_t>(val >> (8 * i));
    }
}

void
PhysMem::writeBytes(PAddr addr, const void *src, std::uint64_t len)
{
    checkBounds(addr, len);
    const auto *bytes = static_cast<const std::uint8_t *>(src);
    std::uint64_t done = 0;
    while (done < len) {
        const PAddr cur = addr + done;
        const std::uint64_t in_page =
            std::min<std::uint64_t>(len - done,
                                    pageSize - (cur & pageOffsetMask));
        std::memcpy(pageFor(cur) + (cur & pageOffsetMask), bytes + done,
                    in_page);
        done += in_page;
    }
}

void
PhysMem::readBytes(PAddr addr, void *dst, std::uint64_t len) const
{
    checkBounds(addr, len);
    auto *bytes = static_cast<std::uint8_t *>(dst);
    std::uint64_t done = 0;
    while (done < len) {
        const PAddr cur = addr + done;
        const std::uint64_t in_page =
            std::min<std::uint64_t>(len - done,
                                    pageSize - (cur & pageOffsetMask));
        const std::uint8_t *page = pageForConst(cur);
        if (page) {
            std::memcpy(bytes + done, page + (cur & pageOffsetMask),
                        in_page);
        } else {
            std::memset(bytes + done, 0, in_page);
        }
        done += in_page;
    }
}

void
PhysMem::zeroPage(Ppn ppn)
{
    checkBounds(ppn << pageShift, pageSize);
    const std::size_t i = probe(ppn);
    if (slots_[i].page != kEmpty)
        pages_[slots_[i].page].fill(0);
}

std::vector<Ppn>
PhysMem::pages() const
{
    std::vector<Ppn> out;
    for (const Slot &slot : slots_)
        if (slot.page != kEmpty)
            out.push_back(slot.ppn);
    return out;
}

} // namespace uscope::mem
