#include "mem/cache.hh"

#include "common/bitfield.hh"
#include "common/logging.hh"

namespace uscope::mem
{

Cache::Cache(std::string name, std::uint64_t size, unsigned assoc)
    : name_(std::move(name)), assoc_(assoc)
{
    if (assoc == 0 || size == 0 || size % (lineSize * assoc) != 0)
        fatal("Cache %s: size %llu not divisible by line*assoc",
              name_.c_str(), static_cast<unsigned long long>(size));
    const std::uint64_t sets = size / (lineSize * assoc);
    if (!isPowerOf2(sets))
        fatal("Cache %s: set count %llu not a power of two",
              name_.c_str(), static_cast<unsigned long long>(sets));
    numSets_ = static_cast<unsigned>(sets);
    ways_.resize(static_cast<std::size_t>(numSets_) * assoc_);
}

unsigned
Cache::setIndex(PAddr addr) const
{
    return static_cast<unsigned>(lineNumber(addr) & (numSets_ - 1));
}

std::uint64_t
Cache::tagOf(PAddr addr) const
{
    return lineNumber(addr) / numSets_;
}

Cache::Way *
Cache::findWay(PAddr addr)
{
    const std::uint64_t tag = tagOf(addr);
    Way *set = &ways_[static_cast<std::size_t>(setIndex(addr)) * assoc_];
    for (unsigned w = 0; w < assoc_; ++w)
        if (set[w].valid && set[w].tag == tag)
            return &set[w];
    return nullptr;
}

const Cache::Way *
Cache::findWay(PAddr addr) const
{
    return const_cast<Cache *>(this)->findWay(addr);
}

bool
Cache::contains(PAddr addr) const
{
    return findWay(addr) != nullptr;
}

bool
Cache::access(PAddr addr)
{
    Way *way = findWay(addr);
    if (way) {
        journalWay(*way);
        way->lruStamp = ++clock_;
        ++stats_.hits;
        return true;
    }
    ++stats_.misses;
    return false;
}

std::optional<PAddr>
Cache::insert(PAddr addr)
{
    if (Way *way = findWay(addr)) {
        // Already resident (races between walker and core fills);
        // treat as a touch.
        journalWay(*way);
        way->lruStamp = ++clock_;
        return std::nullopt;
    }

    const unsigned set = setIndex(addr);
    Way *set_base = &ways_[static_cast<std::size_t>(set) * assoc_];
    Way *victim = nullptr;
    for (unsigned w = 0; w < assoc_; ++w) {
        Way &cand = set_base[w];
        if (!cand.valid) {
            victim = &cand;
            break;
        }
        if (!victim || cand.lruStamp < victim->lruStamp)
            victim = &cand;
    }

    std::optional<PAddr> evicted;
    if (victim->valid) {
        ++stats_.evictions;
        evicted = (victim->tag * numSets_ + set) << lineShift;
    }
    journalWay(*victim);
    victim->valid = true;
    victim->tag = tagOf(addr);
    victim->lruStamp = ++clock_;
    return evicted;
}

bool
Cache::invalidate(PAddr addr)
{
    if (Way *way = findWay(addr)) {
        journalWay(*way);
        way->valid = false;
        ++stats_.invalidations;
        return true;
    }
    return false;
}

void
Cache::invalidateAll()
{
    // A bulk wipe touches every way; undoing it entry-by-entry would
    // cost as much as the full copy the journal exists to avoid, so it
    // poisons the journal instead (rewind falls back to copyStateFrom).
    if (journal_.armed)
        journal_.poisoned = true;
    for (Way &way : ways_) {
        if (way.valid) {
            way.valid = false;
            ++stats_.invalidations;
        }
    }
}

std::optional<PAddr>
Cache::residentLine(unsigned set, unsigned way) const
{
    const Way &w = ways_[static_cast<std::size_t>(set) * assoc_ + way];
    if (!w.valid)
        return std::nullopt;
    return (w.tag * numSets_ + set) << lineShift;
}

std::size_t
Cache::occupancy() const
{
    std::size_t n = 0;
    for (const Way &way : ways_)
        if (way.valid)
            ++n;
    return n;
}

namespace
{

/**
 * Entry cap: bounds journal memory on pathological windows.  A window
 * touching more distinct way-mutations than this is in full-copy
 * territory anyway, so overflow poisons rather than grows.
 */
constexpr std::size_t kJournalCap = 1u << 16;

} // anonymous namespace

void
Cache::beginJournal()
{
    journal_.armed = true;
    journal_.poisoned = false;
    journal_.entries.clear();
    journal_.clock0 = clock_;
    journal_.stats0 = stats_;
}

void
Cache::recordUndo(const Way &way)
{
    if (journal_.poisoned)
        return;
    if (journal_.entries.size() >= kJournalCap) {
        journal_.poisoned = true;
        return;
    }
    const auto index =
        static_cast<std::uint32_t>(&way - ways_.data());
    journal_.entries.push_back({index, way});
}

void
Cache::rewindJournal()
{
    if (!journalViable())
        panic("Cache %s: rewind without a viable journal", name_.c_str());
    // Reverse order makes duplicate records of one way harmless: the
    // last applied (= first recorded) image is the armed-time state.
    for (auto it = journal_.entries.rbegin();
         it != journal_.entries.rend(); ++it) {
        ways_[it->index] = it->pre;
    }
    clock_ = journal_.clock0;
    stats_ = journal_.stats0;
    journal_.entries.clear();
}

std::uint64_t
Cache::stateDigest() const
{
    std::uint64_t h = 14695981039346656037ull;
    auto mix = [&h](std::uint64_t v) {
        for (unsigned i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xFF;
            h *= 1099511628211ull;
        }
    };
    for (const Way &way : ways_) {
        mix(way.valid ? 1 : 0);
        mix(way.tag);
        mix(way.lruStamp);
    }
    mix(clock_);
    mix(stats_.hits);
    mix(stats_.misses);
    mix(stats_.evictions);
    mix(stats_.invalidations);
    return h;
}

} // namespace uscope::mem
