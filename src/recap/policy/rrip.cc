#include "recap/policy/rrip.hh"

#include <algorithm>

#include "recap/common/bitops.hh"
#include "recap/common/error.hh"

namespace recap::policy
{

SrripPolicy::SrripPolicy(unsigned ways, unsigned bits)
    : ReplacementPolicy(ways), bits_(bits),
      maxRrpv_(static_cast<unsigned>(lowMask(bits)))
{
    require(bits >= 1 && bits <= 8, "SrripPolicy: bits must be in [1,8]");
    SrripPolicy::reset();
}

void
SrripPolicy::reset()
{
    // All lines start distant, i.e. immediately evictable.
    rrpv_.assign(ways_, maxRrpv_);
}

void
SrripPolicy::touch(Way way)
{
    checkWay(way);
    rrpv_[way] = 0; // hit promotion (HP variant)
}

Way
SrripPolicy::victim() const
{
    // Aging lifts every line by (max - highest RRPV), so the victim,
    // the lowest-index line at max once aged, is the lowest-index
    // line of highest RRPV.
    return static_cast<Way>(
        std::max_element(rrpv_.begin(), rrpv_.end()) - rrpv_.begin());
}

void
SrripPolicy::fill(Way way)
{
    checkWay(way);
    // Commit the aging victim() modelled, then insert.
    ageUntilVictimExists();
    rrpv_[way] = insertionRrpv();
}

std::string
SrripPolicy::name() const
{
    return "SRRIP" + std::to_string(bits_);
}

PolicyPtr
SrripPolicy::clone() const
{
    return std::make_unique<SrripPolicy>(*this);
}

std::string
SrripPolicy::stateKey() const
{
    std::string key;
    key.reserve(rrpv_.size());
    for (unsigned r : rrpv_)
        key.push_back(static_cast<char>('0' + r));
    return key;
}

bool
SrripPolicy::packState(PackedState& out) const
{
    if (rrpvBits() > kBits128Width)
        return false;
    BitPacker packer;
    packRrpvs(packer);
    out = packer.bits();
    return true;
}

void
SrripPolicy::unpackState(const PackedState& in)
{
    BitUnpacker unpacker(in);
    unpackRrpvs(unpacker);
}

unsigned
SrripPolicy::insertionRrpv()
{
    return maxRrpv_ == 0 ? 0 : maxRrpv_ - 1;
}

void
SrripPolicy::ageUntilVictimExists()
{
    const unsigned highest = *std::max_element(rrpv_.begin(),
                                               rrpv_.end());
    if (highest < maxRrpv_) {
        for (auto& r : rrpv_)
            r += maxRrpv_ - highest;
    }
}

BrripPolicy::BrripPolicy(unsigned ways, unsigned bits, unsigned throttle)
    : SrripPolicy(ways, bits), throttle_(throttle)
{
    require(throttle >= 1, "BrripPolicy: throttle must be >= 1");
}

void
BrripPolicy::reset()
{
    SrripPolicy::reset();
    fillCount_ = 0;
}

std::string
BrripPolicy::name() const
{
    return "BRRIP" + std::to_string(bits_);
}

PolicyPtr
BrripPolicy::clone() const
{
    return std::make_unique<BrripPolicy>(*this);
}

std::string
BrripPolicy::stateKey() const
{
    return SrripPolicy::stateKey() + ":" + std::to_string(fillCount_);
}

bool
BrripPolicy::packState(PackedState& out) const
{
    const unsigned countBits = log2Ceil(throttle_);
    if (rrpvBits() + countBits > kBits128Width)
        return false;
    BitPacker packer;
    packRrpvs(packer);
    packer.put(fillCount_, countBits);
    out = packer.bits();
    return true;
}

void
BrripPolicy::unpackState(const PackedState& in)
{
    BitUnpacker unpacker(in);
    unpackRrpvs(unpacker);
    fillCount_ = static_cast<unsigned>(unpacker.get(log2Ceil(throttle_)));
}

unsigned
BrripPolicy::insertionRrpv()
{
    // The 1-in-throttle fill gets the "long" prediction, all others
    // the "distant" one.
    const unsigned rrpv = (fillCount_ == 0 && maxRrpv_ > 0)
        ? maxRrpv_ - 1 : maxRrpv_;
    fillCount_ = (fillCount_ + 1) % throttle_;
    return rrpv;
}

} // namespace recap::policy
