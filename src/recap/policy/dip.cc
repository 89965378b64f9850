#include "recap/policy/dip.hh"

#include "recap/common/bitops.hh"
#include "recap/common/error.hh"

namespace recap::policy
{

DipPolicy::DipPolicy(unsigned ways, unsigned throttle,
                     unsigned pselBits, unsigned epochLen)
    : RecencyStackPolicy(ways), throttle_(throttle),
      duel_(pselBits, epochLen)
{
    require(ways >= 2, "DipPolicy: needs at least 2 ways");
    require(throttle >= 1, "DipPolicy: throttle must be >= 1");
}

void
DipPolicy::reset()
{
    RecencyStackPolicy::reset();
    fillCount_ = 0;
    duel_.reset();
}

void
DipPolicy::touch(Way way)
{
    checkWay(way);
    moveToMru(way);
    duel_.advance();
}

void
DipPolicy::fill(Way way)
{
    checkWay(way);
    // Train first: the miss is attributed to the constituent that
    // governed the epoch it occurred in.
    const DuelMode mode = duel_.mode();
    duel_.onMiss(mode);

    const bool bip = mode == DuelMode::kLeaderB ||
                     (mode == DuelMode::kFollower &&
                      duel_.followerPicksB());
    if (!bip || fillCount_ == 0)
        moveToMru(way);
    else
        moveToLru(way);
    // The BIP throttle counter runs on every fill so constituent B's
    // behaviour matches a free-standing BipPolicy.
    fillCount_ = (fillCount_ + 1) % throttle_;
    duel_.advance();
}

PolicyPtr
DipPolicy::clone() const
{
    return std::make_unique<DipPolicy>(*this);
}

std::string
DipPolicy::stateKey() const
{
    return RecencyStackPolicy::stateKey() + ":" +
           std::to_string(fillCount_) + ":" + duel_.key();
}

bool
DipPolicy::packState(PackedState& out) const
{
    const unsigned countBits = log2Ceil(throttle_);
    if (orderBits() + countBits + duel_.packBits() > kBits128Width)
        return false;
    BitPacker packer;
    packOrder(packer);
    packer.put(fillCount_, countBits);
    duel_.pack(packer);
    out = packer.bits();
    return true;
}

void
DipPolicy::unpackState(const PackedState& in)
{
    BitUnpacker unpacker(in);
    unpackOrder(unpacker);
    fillCount_ = static_cast<unsigned>(unpacker.get(log2Ceil(throttle_)));
    duel_.unpack(unpacker);
}

} // namespace recap::policy
