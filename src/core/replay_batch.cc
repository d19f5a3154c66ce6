#include "core/replay_batch.hh"

#include "common/random.hh"

namespace uscope::ms
{

std::uint64_t
deriveReplaySeed(std::uint64_t trial_seed, std::uint64_t iteration)
{
    // Same two-round mix as exp::deriveTrialSeed, salted so replay
    // seeds never collide with trial or retry seeds.
    return mix64(mix64(trial_seed ^ 0xD1B54A32D192ED03ull) ^
                 mix64(~iteration));
}

} // namespace uscope::ms
