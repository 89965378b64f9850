#include "recap/policy/drrip.hh"

#include "recap/common/bitops.hh"
#include "recap/common/error.hh"

namespace recap::policy
{

DrripPolicy::DrripPolicy(unsigned ways, unsigned bits,
                         unsigned throttle, unsigned pselBits,
                         unsigned epochLen)
    : SrripPolicy(ways, bits), throttle_(throttle),
      duel_(pselBits, epochLen)
{
    require(ways >= 2, "DrripPolicy: needs at least 2 ways");
    require(throttle >= 1, "DrripPolicy: throttle must be >= 1");
}

void
DrripPolicy::reset()
{
    SrripPolicy::reset();
    fillCount_ = 0;
    duel_.reset();
}

void
DrripPolicy::touch(Way way)
{
    SrripPolicy::touch(way);
    duel_.advance();
}

void
DrripPolicy::fill(Way way)
{
    checkWay(way);
    const DuelMode mode = duel_.mode();
    duel_.onMiss(mode);

    const bool brrip = mode == DuelMode::kLeaderB ||
                       (mode == DuelMode::kFollower &&
                        duel_.followerPicksB());
    // SRRIP constituent inserts long; BRRIP inserts distant except
    // for the 1-in-throttle long insert. The throttle counter runs on
    // every fill so constituent B matches a free-standing
    // BrripPolicy.
    unsigned rrpv = maxRrpv_ == 0 ? 0 : maxRrpv_ - 1;
    if (brrip && fillCount_ != 0)
        rrpv = maxRrpv_;
    fillCount_ = (fillCount_ + 1) % throttle_;

    ageUntilVictimExists();
    rrpv_[way] = rrpv;
    duel_.advance();
}

std::string
DrripPolicy::name() const
{
    return "DRRIP" + std::to_string(bits_);
}

PolicyPtr
DrripPolicy::clone() const
{
    return std::make_unique<DrripPolicy>(*this);
}

std::string
DrripPolicy::stateKey() const
{
    return SrripPolicy::stateKey() + ":" +
           std::to_string(fillCount_) + ":" + duel_.key();
}

bool
DrripPolicy::packState(PackedState& out) const
{
    const unsigned countBits = log2Ceil(throttle_);
    if (rrpvBits() + countBits + duel_.packBits() > kBits128Width)
        return false;
    BitPacker packer;
    packRrpvs(packer);
    packer.put(fillCount_, countBits);
    duel_.pack(packer);
    out = packer.bits();
    return true;
}

void
DrripPolicy::unpackState(const PackedState& in)
{
    BitUnpacker unpacker(in);
    unpackRrpvs(unpacker);
    fillCount_ = static_cast<unsigned>(unpacker.get(log2Ceil(throttle_)));
    duel_.unpack(unpacker);
}

} // namespace recap::policy
