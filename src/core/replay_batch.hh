/**
 * @file
 * The seed of each differential-replay iteration (DESIGN.md §15).
 * exp::deriveReplaySeed forwards here, so the library and the
 * campaign layer derive the same sibling seeds.
 */

#ifndef USCOPE_CORE_REPLAY_BATCH_HH
#define USCOPE_CORE_REPLAY_BATCH_HH

#include <cstdint>

namespace uscope::ms
{

/**
 * Seed of differential-replay iteration @p iteration of a trial
 * seeded @p trial_seed.  The formula is pinned by golden values in
 * tests/test_diffreplay.cc: changing it moves every replay campaign's
 * fingerprint.
 */
std::uint64_t deriveReplaySeed(std::uint64_t trial_seed,
                               std::uint64_t iteration);

} // namespace uscope::ms

#endif // USCOPE_CORE_REPLAY_BATCH_HH
