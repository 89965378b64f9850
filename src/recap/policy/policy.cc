#include "recap/policy/policy.hh"

#include "recap/common/error.hh"

namespace recap::policy
{

ReplacementPolicy::ReplacementPolicy(unsigned ways)
    : ways_(ways)
{
    require(ways >= 1, "ReplacementPolicy: associativity must be >= 1");
}

void
ReplacementPolicy::unpackState(const PackedState& in)
{
    (void)in;
    throw UsageError("ReplacementPolicy: " + name() +
                     " has no packed state encoding");
}

} // namespace recap::policy
