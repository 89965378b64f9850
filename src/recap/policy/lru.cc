#include "recap/policy/lru.hh"

#include <algorithm>

#include "recap/common/bitops.hh"
#include "recap/common/error.hh"

namespace recap::policy
{

RecencyStackPolicy::RecencyStackPolicy(unsigned ways)
    : ReplacementPolicy(ways)
{
    RecencyStackPolicy::reset();
}

void
RecencyStackPolicy::reset()
{
    stack_.resize(ways_);
    // Initial order: way 0 is MRU, way ways-1 is the first victim.
    for (unsigned i = 0; i < ways_; ++i)
        stack_[i] = i;
}

void
RecencyStackPolicy::touch(Way way)
{
    checkWay(way);
    moveToMru(way);
}

Way
RecencyStackPolicy::victim() const
{
    return stack_.back();
}

std::string
RecencyStackPolicy::stateKey() const
{
    std::string key;
    key.reserve(stack_.size());
    for (Way w : stack_)
        key.push_back(static_cast<char>('a' + w));
    return key;
}

bool
RecencyStackPolicy::packState(PackedState& out) const
{
    if (orderBits() > kBits128Width)
        return false;
    BitPacker packer;
    packOrder(packer);
    out = packer.bits();
    return true;
}

void
RecencyStackPolicy::unpackState(const PackedState& in)
{
    BitUnpacker unpacker(in);
    unpackOrder(unpacker);
}

unsigned
RecencyStackPolicy::orderBits() const
{
    return ways_ * log2Ceil(ways_);
}

void
RecencyStackPolicy::packOrder(BitPacker& out) const
{
    out.putAll(stack_, log2Ceil(ways_));
}

void
RecencyStackPolicy::unpackOrder(BitUnpacker& in)
{
    in.getAll(stack_, log2Ceil(ways_));
}

void
RecencyStackPolicy::moveToMru(Way way)
{
    // One pass: slide entries down until the old slot of @p way.
    Way carried = way;
    for (Way& slot : stack_) {
        std::swap(slot, carried);
        if (carried == way)
            return;
    }
    ensure(false, "RecencyStackPolicy: way missing in stack");
}

void
RecencyStackPolicy::moveToLru(Way way)
{
    auto it = std::find(stack_.begin(), stack_.end(), way);
    ensure(it != stack_.end(), "RecencyStackPolicy: way missing in stack");
    for (; it + 1 != stack_.end(); ++it)
        *it = *(it + 1);
    *it = way;
}

unsigned
RecencyStackPolicy::positionOf(Way way) const
{
    auto it = std::find(stack_.begin(), stack_.end(), way);
    ensure(it != stack_.end(), "RecencyStackPolicy: way missing in stack");
    return static_cast<unsigned>(it - stack_.begin());
}

LruPolicy::LruPolicy(unsigned ways)
    : RecencyStackPolicy(ways)
{}

void
LruPolicy::fill(Way way)
{
    checkWay(way);
    moveToMru(way);
}

PolicyPtr
LruPolicy::clone() const
{
    return std::make_unique<LruPolicy>(*this);
}

LipPolicy::LipPolicy(unsigned ways)
    : RecencyStackPolicy(ways)
{}

void
LipPolicy::fill(Way way)
{
    checkWay(way);
    moveToLru(way);
}

PolicyPtr
LipPolicy::clone() const
{
    return std::make_unique<LipPolicy>(*this);
}

BipPolicy::BipPolicy(unsigned ways, unsigned throttle)
    : RecencyStackPolicy(ways), throttle_(throttle)
{
    require(throttle >= 1, "BipPolicy: throttle must be >= 1");
}

void
BipPolicy::reset()
{
    RecencyStackPolicy::reset();
    fillCount_ = 0;
}

void
BipPolicy::fill(Way way)
{
    checkWay(way);
    // The 1-in-throttle fill gets full retention priority; all others
    // are inserted as immediate eviction candidates.
    if (fillCount_ == 0)
        moveToMru(way);
    else
        moveToLru(way);
    fillCount_ = (fillCount_ + 1) % throttle_;
}

PolicyPtr
BipPolicy::clone() const
{
    return std::make_unique<BipPolicy>(*this);
}

std::string
BipPolicy::stateKey() const
{
    return RecencyStackPolicy::stateKey() + ":" +
           std::to_string(fillCount_);
}

bool
BipPolicy::packState(PackedState& out) const
{
    const unsigned countBits = log2Ceil(throttle_);
    if (orderBits() + countBits > kBits128Width)
        return false;
    BitPacker packer;
    packOrder(packer);
    packer.put(fillCount_, countBits);
    out = packer.bits();
    return true;
}

void
BipPolicy::unpackState(const PackedState& in)
{
    BitUnpacker unpacker(in);
    unpackOrder(unpacker);
    fillCount_ = static_cast<unsigned>(unpacker.get(log2Ceil(throttle_)));
}

} // namespace recap::policy
