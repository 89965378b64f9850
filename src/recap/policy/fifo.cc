#include "recap/policy/fifo.hh"

#include <algorithm>

#include "recap/common/bitops.hh"
#include "recap/common/error.hh"

namespace recap::policy
{

FifoPolicy::FifoPolicy(unsigned ways)
    : ReplacementPolicy(ways)
{
    FifoPolicy::reset();
}

void
FifoPolicy::reset()
{
    queue_.resize(ways_);
    // Initial queue: way 0 is evicted first.
    for (unsigned i = 0; i < ways_; ++i)
        queue_[i] = i;
}

void
FifoPolicy::touch(Way way)
{
    checkWay(way);
    // Hits do not affect FIFO order.
}

Way
FifoPolicy::victim() const
{
    return queue_.front();
}

void
FifoPolicy::fill(Way way)
{
    checkWay(way);
    auto it = std::find(queue_.begin(), queue_.end(), way);
    ensure(it != queue_.end(), "FifoPolicy: way missing in queue");
    std::rotate(it, it + 1, queue_.end());
}

PolicyPtr
FifoPolicy::clone() const
{
    return std::make_unique<FifoPolicy>(*this);
}

std::string
FifoPolicy::stateKey() const
{
    std::string key;
    key.reserve(queue_.size());
    for (Way w : queue_)
        key.push_back(static_cast<char>('a' + w));
    return key;
}

bool
FifoPolicy::packState(PackedState& out) const
{
    const unsigned width = log2Ceil(ways_);
    if (ways_ * width > kBits128Width)
        return false;
    BitPacker packer;
    packer.putAll(queue_, width);
    out = packer.bits();
    return true;
}

void
FifoPolicy::unpackState(const PackedState& in)
{
    BitUnpacker unpacker(in);
    unpacker.getAll(queue_, log2Ceil(ways_));
}

} // namespace recap::policy
