#include "recap/policy/plru.hh"

#include "recap/common/bitops.hh"
#include "recap/common/error.hh"

namespace recap::policy
{

TreePlruPolicy::TreePlruPolicy(unsigned ways)
    : ReplacementPolicy(ways), levels_(log2Floor(ways))
{
    require(ways >= 2 && isPowerOfTwo(ways),
            "TreePlruPolicy: associativity must be a power of two >= 2");
    TreePlruPolicy::reset();
}

void
TreePlruPolicy::reset()
{
    bits_.assign(ways_ - 1, false);
}

void
TreePlruPolicy::touch(Way way)
{
    checkWay(way);
    markAccessed(way);
}

Way
TreePlruPolicy::victim() const
{
    // Follow the direction bits from the root to a leaf.
    unsigned node = 0;
    unsigned way = 0;
    for (unsigned level = 0; level < levels_; ++level) {
        const bool go_right = bits_[node];
        way = (way << 1) | (go_right ? 1u : 0u);
        node = 2 * node + (go_right ? 2 : 1);
    }
    return way;
}

void
TreePlruPolicy::fill(Way way)
{
    checkWay(way);
    markAccessed(way);
}

PolicyPtr
TreePlruPolicy::clone() const
{
    return std::make_unique<TreePlruPolicy>(*this);
}

std::string
TreePlruPolicy::stateKey() const
{
    std::string key;
    key.reserve(bits_.size());
    for (bool b : bits_)
        key.push_back(b ? '1' : '0');
    return key;
}

bool
TreePlruPolicy::packState(PackedState& out) const
{
    if (bits_.size() > kBits128Width)
        return false;
    BitPacker packer;
    packer.putAll(bits_, 1);
    out = packer.bits();
    return true;
}

void
TreePlruPolicy::unpackState(const PackedState& in)
{
    BitUnpacker unpacker(in);
    unpacker.getAll(bits_, 1);
}

void
TreePlruPolicy::markAccessed(Way way)
{
    // Walk from the root towards the accessed leaf; at each node,
    // point the bit at the sibling subtree (away from the access).
    unsigned node = 0;
    for (unsigned level = 0; level < levels_; ++level) {
        const unsigned shift = levels_ - 1 - level;
        const bool went_right = (way >> shift) & 1u;
        bits_[node] = !went_right;
        node = 2 * node + (went_right ? 2 : 1);
    }
}

BitPlruPolicy::BitPlruPolicy(unsigned ways)
    : ReplacementPolicy(ways)
{
    require(ways >= 2, "BitPlruPolicy: associativity must be >= 2");
    BitPlruPolicy::reset();
}

void
BitPlruPolicy::reset()
{
    bits_.assign(ways_, false);
}

void
BitPlruPolicy::touch(Way way)
{
    checkWay(way);
    mark(way);
}

Way
BitPlruPolicy::victim() const
{
    for (unsigned w = 0; w < ways_; ++w)
        if (!bits_[w])
            return w;
    // Unreachable: mark() never leaves all bits set.
    return 0;
}

void
BitPlruPolicy::fill(Way way)
{
    checkWay(way);
    mark(way);
}

PolicyPtr
BitPlruPolicy::clone() const
{
    return std::make_unique<BitPlruPolicy>(*this);
}

std::string
BitPlruPolicy::stateKey() const
{
    std::string key;
    key.reserve(bits_.size());
    for (bool b : bits_)
        key.push_back(b ? '1' : '0');
    return key;
}

bool
BitPlruPolicy::packState(PackedState& out) const
{
    if (bits_.size() > kBits128Width)
        return false;
    BitPacker packer;
    packer.putAll(bits_, 1);
    out = packer.bits();
    return true;
}

void
BitPlruPolicy::unpackState(const PackedState& in)
{
    BitUnpacker unpacker(in);
    unpacker.getAll(bits_, 1);
}

void
BitPlruPolicy::mark(Way way)
{
    unsigned set_bits = 0;
    for (unsigned w = 0; w < ways_; ++w)
        if (bits_[w])
            ++set_bits;
    const bool would_saturate = !bits_[way] && set_bits == ways_ - 1;
    if (would_saturate)
        bits_.assign(ways_, false);
    bits_[way] = true;
}

} // namespace recap::policy
