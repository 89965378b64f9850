#include "recap/policy/nru.hh"

#include "recap/common/bitops.hh"
#include "recap/common/error.hh"

namespace recap::policy
{

NruPolicy::NruPolicy(unsigned ways)
    : ReplacementPolicy(ways)
{
    require(ways >= 2, "NruPolicy: associativity must be >= 2");
    NruPolicy::reset();
}

void
NruPolicy::reset()
{
    bits_.assign(ways_, false);
}

void
NruPolicy::touch(Way way)
{
    checkWay(way);
    bits_[way] = true;
}

Way
NruPolicy::victim() const
{
    if (allSet()) {
        // Lazy clear: with every bit set the next victim is way 0.
        return 0;
    }
    for (unsigned w = 0; w < ways_; ++w)
        if (!bits_[w])
            return w;
    return 0; // unreachable
}

void
NruPolicy::fill(Way way)
{
    checkWay(way);
    // Commit the lazy clear that victim() modelled, then mark the
    // freshly installed line as referenced.
    if (allSet())
        bits_.assign(ways_, false);
    bits_[way] = true;
}

PolicyPtr
NruPolicy::clone() const
{
    return std::make_unique<NruPolicy>(*this);
}

std::string
NruPolicy::stateKey() const
{
    std::string key;
    key.reserve(bits_.size());
    for (bool b : bits_)
        key.push_back(b ? '1' : '0');
    return key;
}

bool
NruPolicy::packState(PackedState& out) const
{
    if (bits_.size() > kBits128Width)
        return false;
    BitPacker packer;
    packer.putAll(bits_, 1);
    out = packer.bits();
    return true;
}

void
NruPolicy::unpackState(const PackedState& in)
{
    BitUnpacker unpacker(in);
    unpacker.getAll(bits_, 1);
}

bool
NruPolicy::allSet() const
{
    for (bool b : bits_)
        if (!b)
            return false;
    return true;
}

} // namespace recap::policy
