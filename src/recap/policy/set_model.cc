#include "recap/policy/set_model.hh"

#include <algorithm>

#include "recap/common/error.hh"

namespace recap::policy
{

SetModel::SetModel(PolicyPtr policy)
    : policy_(std::move(policy))
{
    require(policy_ != nullptr, "SetModel: policy must not be null");
    blocks_.assign(policy_->ways(), 0);
    valid_.assign(policy_->ways(), false);
}

SetModel::SetModel(const SetModel& other)
    : policy_(other.policy_->clone()),
      blocks_(other.blocks_),
      valid_(other.valid_)
{}

SetModel&
SetModel::operator=(const SetModel& other)
{
    if (this != &other) {
        policy_ = other.policy_->clone();
        blocks_ = other.blocks_;
        valid_ = other.valid_;
    }
    return *this;
}

unsigned
SetModel::ways() const
{
    return policy_->ways();
}

bool
SetModel::access(BlockId block)
{
    AccessMeta meta;
    meta.block = block;
    meta.hasBlock = true;
    return accessImpl(block, meta);
}

bool
SetModel::accessWithPc(BlockId block, uint64_t pc)
{
    AccessMeta meta;
    meta.block = block;
    meta.hasBlock = true;
    meta.pc = pc;
    meta.hasPc = true;
    return accessImpl(block, meta);
}

bool
SetModel::accessImpl(BlockId block, const AccessMeta& meta)
{
    if (policy_->usesMeta())
        policy_->beginAccess(meta);
    for (unsigned w = 0; w < ways(); ++w) {
        if (valid_[w] && blocks_[w] == block) {
            policy_->touch(w);
            return true;
        }
    }
    const Way way = nextFillWay();
    blocks_[way] = block;
    valid_[way] = true;
    policy_->fill(way);
    return false;
}

void
SetModel::flush()
{
    std::fill(valid_.begin(), valid_.end(), false);
    policy_->reset();
}

bool
SetModel::contains(BlockId block) const
{
    for (unsigned w = 0; w < ways(); ++w)
        if (valid_[w] && blocks_[w] == block)
            return true;
    return false;
}

BlockId
SetModel::blockAt(Way way) const
{
    require(way < ways(), "SetModel::blockAt: way out of range");
    require(valid_[way], "SetModel::blockAt: way is invalid");
    return blocks_[way];
}

bool
SetModel::isValid(Way way) const
{
    require(way < ways(), "SetModel::isValid: way out of range");
    return valid_[way];
}

unsigned
SetModel::validCount() const
{
    unsigned n = 0;
    for (bool v : valid_)
        if (v)
            ++n;
    return n;
}

Way
SetModel::nextFillWay() const
{
    for (unsigned w = 0; w < ways(); ++w)
        if (!valid_[w])
            return w;
    return policy_->victim();
}

std::vector<BlockId>
SetModel::evictionOrder() const
{
    require(validCount() == ways(),
            "SetModel::evictionOrder: set must be full");
    SetModel probe(*this);
    std::vector<BlockId> order;
    order.reserve(ways());
    // Fresh block ids that cannot collide with resident blocks.
    BlockId fresh = 0;
    for (unsigned w = 0; w < ways(); ++w)
        fresh = std::max(fresh, blocks_[w] + 1);
    for (unsigned i = 0; i < ways(); ++i) {
        const Way v = probe.policy().victim();
        order.push_back(probe.blockAt(v));
        probe.access(fresh++);
    }
    return order;
}

} // namespace recap::policy
