#include "recap/policy/state_space.hh"

#include <algorithm>
#include <string>

#include "recap/common/error.hh"

namespace recap::policy
{

namespace
{

/** A multiply-xorshift round per word pair, then fmix64's tail. */
uint64_t
hashWords(std::span<const uint32_t> words)
{
    uint64_t h = words.size() * 0x9E3779B97F4A7C15ull;
    for (std::size_t i = 0; i < words.size(); i += 2) {
        const uint64_t hi = i + 1 < words.size() ? words[i + 1] : 0;
        h = (h ^ (words[i] | hi << 32)) * 0xFF51AFD7ED558CCDull;
        h ^= h >> 32;
    }
    h *= 0xC4CEB9FE1A85EC53ull;
    h ^= h >> 33;
    return h;
}

} // namespace

StateIndex::StateIndex(unsigned width)
    : width_(width), slots_(std::size_t{1} << (32 - kShift)), shift_(kShift)
{}

std::pair<uint32_t, bool>
StateIndex::intern(std::span<const uint32_t> record, uint64_t limit)
{
    const auto tag = static_cast<uint32_t>(hashWords(record) >> 32);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = tag >> shift_;; i = (i + 1) & mask) {
        Slot& slot = slots_[i];
        if (slot.idPlusOne == 0) {
            if (size() >= limit)
                return {kFull, false};
            const uint32_t id = size_++;
            ensure(id < kFull - 1, "StateIndex: more than 2^32 - 2 states");
            words_.insert(words_.end(), record.begin(), record.end());
            if (width_ == 0)
                ends_.push_back(words_.size());
            slot = Slot{tag, id + 1};
            if (4 * std::size_t{size_} > 3 * slots_.size())
                grow();
            return {id, true};
        }
        if (slot.tag != tag)
            continue;
        const auto stored = this->record(slot.idPlusOne - 1);
        if (std::equal(stored.begin(), stored.end(), record.begin(),
                       record.end()))
            return {slot.idPlusOne - 1, false};
    }
}

void
StateIndex::clear()
{
    const std::size_t mask = slots_.size() - 1;
    for (uint32_t id = 0; id < size(); ++id) {
        const auto tag = static_cast<uint32_t>(hashWords(record(id)) >> 32);
        std::size_t i = tag >> shift_;
        while (slots_[i].idPlusOne != id + 1)
            i = (i + 1) & mask;
        slots_[i] = Slot{};
    }
    size_ = 0;
    words_.clear();
    ends_.clear();
}

void
StateIndex::grow()
{
    // A slot's home is the top bits of its tag, so moving it needs
    // neither its record nor its hash.
    ensure(shift_ > 0, "StateIndex: more than 2^32 slots");
    --shift_;
    std::vector<Slot> slots(2 * slots_.size());
    const std::size_t mask = slots.size() - 1;
    for (const Slot& slot : slots_) {
        if (slot.idPlusOne == 0)
            continue;
        std::size_t i = slot.tag >> shift_;
        while (slots[i].idPlusOne != 0)
            i = (i + 1) & mask;
        slots[i] = slot;
    }
    slots_ = std::move(slots);
}

PolicyStates::PolicyStates(const ReplacementPolicy& proto)
    : policy_(proto.clone())
{
    PackedState pack;
    packs_ = policy_->packState(pack);
    index_ = StateIndex(packs_ ? 4 : 0);
}

ReplacementPolicy&
PolicyStates::load(uint32_t id)
{
    if (!packs_) {
        policy_ = clones_[id]->clone();
        return *policy_;
    }
    if (id != loaded_) {
        loaded_ = id;
        loadedPack_ = pack(id);
    }
    policy_->unpackState(loadedPack_);
    return *policy_;
}

PackedState
PolicyStates::pack(uint32_t id) const
{
    const auto w = index_.record(id);
    return {w[0] | uint64_t{w[1]} << 32, w[2] | uint64_t{w[3]} << 32};
}

uint32_t
PolicyStates::intern()
{
    if (!packs_) {
        // The key's length, then its bytes four to a word.
        const std::string key = policy_->stateKey();
        std::vector<uint32_t> words(1 + (key.size() + 3) / 4, 0);
        words[0] = static_cast<uint32_t>(key.size());
        for (std::size_t i = 0; i < key.size(); ++i)
            words[1 + i / 4] |= uint32_t{static_cast<uint8_t>(key[i])}
                                << (8 * (i % 4));
        const auto [id, fresh] = index_.intern(words);
        if (fresh)
            clones_.push_back(policy_->clone());
        return id;
    }
    PackedState pack;
    const bool packs = policy_->packState(pack);
    ensure(packs, "PolicyStates: packState refused after packing once");
    if (loaded_ != kNone && pack == loadedPack_)
        return loaded_;
    Recent& recent =
        recent_[((pack.lo ^ pack.hi) * 0x9E3779B97F4A7C15ull) >> 58];
    if (recent.id != kNone && recent.pack == pack)
        return recent.id;
    const uint32_t words[4] = {
        static_cast<uint32_t>(pack.lo), static_cast<uint32_t>(pack.lo >> 32),
        static_cast<uint32_t>(pack.hi), static_cast<uint32_t>(pack.hi >> 32)};
    recent = Recent{pack, index_.intern(words).first};
    return recent.id;
}

SetStates::SetStates(const std::vector<const ReplacementPolicy*>& protos,
                     const std::vector<BlockId>& pinned)
    : offset_{0}, pinned_(pinned)
{
    for (const ReplacementPolicy* proto : protos) {
        policies_.emplace_back(*proto);
        offset_.push_back(offset_.back() + proto->ways());
    }
    const unsigned ways = offset_.back();
    require(ways + pinned.size() <= 254,
            "SetStates: more than 254 ways and pinned blocks");
    slots_.assign(ways, 0);
    index_ = StateIndex(static_cast<unsigned>(protos.size()) +
                        (ways + 3) / 4);
}

void
SetStates::flush()
{
    for (PolicyStates& p : policies_)
        p.policy().reset();
    std::fill(slots_.begin(), slots_.end(), 0);
    loaded_ = kNone;
}

void
SetStates::load(uint32_t id)
{
    const auto record = index_.record(id);
    for (std::size_t s = 0; s < policies_.size(); ++s)
        policies_[s].load(record[s]);
    std::copy_n(concrete_.begin() + std::size_t{id} * slots_.size(),
                slots_.size(), slots_.begin());
    loaded_ = id;
}

bool
SetStates::access(unsigned set, BlockId block)
{
    require(block < UINT32_MAX - 1, "SetStates: block id too large");
    ReplacementPolicy& policy = policies_[set].policy();
    if (policy.usesMeta())
        policy.beginAccess(AccessMeta{block, true});
    uint32_t* begin = slots_.data() + offset_[set];
    uint32_t* end = slots_.data() + offset_[set + 1];
    uint32_t* hit = std::find(begin, end, static_cast<uint32_t>(block + 1));
    if (hit != end) {
        policy.touch(static_cast<Way>(hit - begin));
        return true;
    }
    // Cold misses fill the lowest invalid way, as SetModel does.
    uint32_t* empty = std::find(begin, end, 0u);
    const Way way = empty != end ? static_cast<Way>(empty - begin)
                                 : policy.victim();
    begin[way] = static_cast<uint32_t>(block + 1);
    policy.fill(way);
    return false;
}

std::vector<BlockId>
SetStates::blocks(unsigned set) const
{
    std::vector<BlockId> out;
    for (unsigned w = offset_[set]; w < offset_[set + 1]; ++w)
        if (slots_[w] != 0)
            out.push_back(BlockId{slots_[w]} - 1);
    return out;
}

uint32_t
SetStates::intern(BlockId via, uint64_t limit)
{
    record_.clear();
    for (PolicyStates& p : policies_)
        record_.push_back(p.intern());
    // Names: 0 = invalid, then the pinned blocks in order, then the
    // others by first occurrence.
    ++pass_;
    uint8_t next = 1;
    const auto nameOf = [&](uint32_t value) {
        if (value >= stamp_.size()) {
            stamp_.resize(std::max<std::size_t>(value + 1, 2 * stamp_.size()));
            name_.resize(stamp_.size());
        }
        if (stamp_[value] != pass_) {
            stamp_[value] = pass_;
            name_[value] = next++;
        }
        return uint32_t{name_[value]};
    };
    for (const BlockId block : pinned_)
        nameOf(static_cast<uint32_t>(block + 1));
    const std::size_t base = record_.size();
    record_.resize(base + (slots_.size() + 3) / 4, 0);
    for (std::size_t i = 0; i < slots_.size(); ++i)
        if (slots_[i] != 0)
            record_[base + i / 4] |= nameOf(slots_[i]) << (8 * (i % 4));
    const auto [id, fresh] = index_.intern(record_, limit);
    if (fresh) {
        parents_.push_back({loaded_, static_cast<uint32_t>(via)});
        concrete_.insert(concrete_.end(), slots_.begin(), slots_.end());
    }
    return id;
}

std::vector<BlockId>
SetStates::path(uint32_t id) const
{
    std::vector<BlockId> blocks;
    for (uint32_t at = id; parents_[at].id != kNone; at = parents_[at].id)
        blocks.push_back(parents_[at].via);
    std::reverse(blocks.begin(), blocks.end());
    return blocks;
}

} // namespace recap::policy
