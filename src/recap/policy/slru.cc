#include "recap/policy/slru.hh"

#include <algorithm>

#include "recap/common/bitops.hh"
#include "recap/common/error.hh"

namespace recap::policy
{

SlruPolicy::SlruPolicy(unsigned ways, unsigned protectedWays)
    : ReplacementPolicy(ways),
      protectedWays_(protectedWays ? protectedWays : ways / 2)
{
    require(ways >= 2, "SlruPolicy: associativity must be >= 2");
    require(protectedWays_ >= 1 && protectedWays_ < ways,
            "SlruPolicy: protected segment must be in [1, ways-1]");
    SlruPolicy::reset();
}

void
SlruPolicy::reset()
{
    protected_.clear();
    probation_.clear();
    // All ways start probationary, way 0 most recently "used" so the
    // highest way index is the first victim.
    for (unsigned w = 0; w < ways_; ++w)
        probation_.push_back(w);
}

void
SlruPolicy::touch(Way way)
{
    checkWay(way);
    const bool was_protected =
        std::find(protected_.begin(), protected_.end(), way) !=
        protected_.end();
    remove(way);
    if (was_protected) {
        // Refresh within the protected segment.
        protected_.insert(protected_.begin(), way);
    } else {
        promote(way);
    }
}

Way
SlruPolicy::victim() const
{
    if (!probation_.empty())
        return probation_.back();
    return protected_.back();
}

void
SlruPolicy::fill(Way way)
{
    checkWay(way);
    remove(way);
    probation_.insert(probation_.begin(), way);
}

PolicyPtr
SlruPolicy::clone() const
{
    return std::make_unique<SlruPolicy>(*this);
}

std::string
SlruPolicy::stateKey() const
{
    std::string key;
    key.reserve(ways_ + 1);
    for (Way w : protected_)
        key.push_back(static_cast<char>('a' + w));
    key.push_back('|');
    for (Way w : probation_)
        key.push_back(static_cast<char>('a' + w));
    return key;
}

bool
SlruPolicy::packState(PackedState& out) const
{
    // The protected occupancy, then both segments' ways in key order.
    const unsigned sizeBits = log2Ceil(protectedWays_ + uint64_t{1});
    const unsigned width = log2Ceil(ways_);
    if (sizeBits + ways_ * width > kBits128Width)
        return false;
    BitPacker packer;
    packer.put(protected_.size(), sizeBits);
    packer.putAll(protected_, width);
    packer.putAll(probation_, width);
    out = packer.bits();
    return true;
}

void
SlruPolicy::unpackState(const PackedState& in)
{
    BitUnpacker unpacker(in);
    const auto held = static_cast<std::size_t>(
        unpacker.get(log2Ceil(protectedWays_ + uint64_t{1})));
    protected_.resize(held);
    probation_.resize(ways_ - held);
    unpacker.getAll(protected_, log2Ceil(ways_));
    unpacker.getAll(probation_, log2Ceil(ways_));
}

void
SlruPolicy::remove(Way way)
{
    auto it = std::find(protected_.begin(), protected_.end(), way);
    if (it != protected_.end()) {
        protected_.erase(it);
        return;
    }
    it = std::find(probation_.begin(), probation_.end(), way);
    ensure(it != probation_.end(), "SlruPolicy: way in no segment");
    probation_.erase(it);
}

void
SlruPolicy::promote(Way way)
{
    protected_.insert(protected_.begin(), way);
    if (protected_.size() > protectedWays_) {
        const Way demoted = protected_.back();
        protected_.pop_back();
        probation_.insert(probation_.begin(), demoted);
    }
}

} // namespace recap::policy
