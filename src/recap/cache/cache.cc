#include "recap/cache/cache.hh"

#include <algorithm>

#include "recap/common/bitops.hh"
#include "recap/common/error.hh"
#include "recap/policy/factory.hh"

namespace recap::cache
{

Cache::Cache(const Geometry& geom, const std::string& policySpec,
             std::string name, uint64_t seed)
    : geom_(geom), name_(std::move(name)), specA_(policySpec)
{
    initLines();
    for (unsigned s = 0; s < geom_.numSets; ++s)
        sets_[s].policyA =
            policy::makePolicy(policySpec, geom_.ways, seed + s);
    metaA_ = sets_[0].policyA->usesMeta();
}

Cache::Cache(const Geometry& geom, const std::string& specA,
             const std::string& specB, const DuelingConfig& duel,
             std::string name, uint64_t seed)
    : geom_(geom), name_(std::move(name)), specA_(specA), specB_(specB),
      adaptive_(true), duel_(duel)
{
    geom_.validate();
    require(duel_.pselBits >= 1 && duel_.pselBits <= 16,
            "Cache: PSEL width must be in [1,16]");
    require(duel_.leaderSetsPerPolicy >= 1,
            "Cache: need at least one leader set per policy");
    require(geom_.numSets >= 2 * duel_.leaderSetsPerPolicy,
            "Cache: too few sets for the requested leader count");
    pselMax_ = (1u << duel_.pselBits) - 1;
    psel_ = pselMidpoint();
    initLines();
    for (unsigned s = 0; s < geom_.numSets; ++s) {
        sets_[s].policyA = policy::makePolicy(specA, geom_.ways, seed + s);
        sets_[s].policyB = policy::makePolicy(specB, geom_.ways,
                                              seed + geom_.numSets + s);
    }
    metaA_ = sets_[0].policyA->usesMeta();
    metaB_ = sets_[0].policyB->usesMeta();
}

void
Cache::initLines()
{
    geom_.validate();
    offsetBits_ = log2Floor(geom_.lineSize);
    setBits_ = log2Floor(geom_.numSets);
    const std::size_t lines = std::size_t{geom_.numSets} * geom_.ways;
    tags_.assign(lines, 0);
    lines_.assign(lines, 0);
    sets_.resize(geom_.numSets);
    touched_.resize(geom_.numSets);
    for (unsigned s = 0; s < geom_.numSets; ++s)
        touched_[s] = s;
}

unsigned
Cache::findWay(unsigned set, uint64_t tag) const
{
    const std::size_t row = std::size_t{set} * geom_.ways;
    for (unsigned w = 0; w < geom_.ways; ++w)
        if ((lines_[row + w] & kValid) && tags_[row + w] == tag)
            return w;
    return geom_.ways;
}

unsigned
Cache::freeWay(unsigned set) const
{
    const std::size_t row = std::size_t{set} * geom_.ways;
    for (unsigned w = 0; w < geom_.ways; ++w)
        if (!(lines_[row + w] & kValid))
            return w;
    return geom_.ways;
}

bool
Cache::access(Addr addr, bool write)
{
    return accessDetailed(addr, write).hit;
}

AccessResult
Cache::accessDetailed(Addr addr, bool write)
{
    policy::AccessMeta meta;
    meta.block = addr >> offsetBits_;
    meta.hasBlock = true;
    return accessSet(setOf(addr), tagOf(addr), write, meta);
}

bool
Cache::accessWithPc(Addr addr, uint64_t pc, bool write)
{
    return accessDetailedWithPc(addr, pc, write).hit;
}

AccessResult
Cache::accessDetailedWithPc(Addr addr, uint64_t pc, bool write)
{
    policy::AccessMeta meta;
    meta.block = addr >> offsetBits_;
    meta.hasBlock = true;
    meta.pc = pc;
    meta.hasPc = true;
    return accessSet(setOf(addr), tagOf(addr), write, meta);
}

bool
Cache::probeAccess(Addr addr, bool write, bool touchOnHit)
{
    const unsigned set = setOf(addr);
    Set& s = sets_[set];
    markTouched(set);
    ++stats_.accesses;
    if (write)
        ++stats_.writes;

    policy::AccessMeta meta;
    meta.block = addr >> offsetBits_;
    meta.hasBlock = true;
    if (metaA_)
        s.policyA->beginAccess(meta);
    if (metaB_ && s.policyB)
        s.policyB->beginAccess(meta);

    const unsigned w = findWay(set, tagOf(addr));
    if (w < geom_.ways) {
        ++stats_.hits;
        if (touchOnHit) {
            s.policyA->touch(w);
            if (s.policyB)
                s.policyB->touch(w);
            if (write)
                lines_[std::size_t{set} * geom_.ways + w] |= kDirty;
        }
        return true;
    }
    ++stats_.misses;
    if (adaptive_)
        trainPsel(setRole(set));
    return false;
}

Cache::Extracted
Cache::extract(Addr addr)
{
    const unsigned set = setOf(addr);
    const unsigned w = findWay(set, tagOf(addr));
    if (w == geom_.ways)
        return {};
    uint8_t& line = lines_[std::size_t{set} * geom_.ways + w];
    Extracted out{true, (line & kDirty) != 0};
    line = 0;
    return out;
}

std::optional<Cache::Displaced>
Cache::insertLine(Addr addr, bool dirty)
{
    const unsigned set = setOf(addr);
    Set& s = sets_[set];
    markTouched(set);

    policy::AccessMeta meta;
    meta.block = addr >> offsetBits_;
    meta.hasBlock = true;
    if (metaA_)
        s.policyA->beginAccess(meta);
    if (metaB_ && s.policyB)
        s.policyB->beginAccess(meta);

    std::optional<Displaced> displaced;
    policy::Way way = freeWay(set);
    const std::size_t row = std::size_t{set} * geom_.ways;
    if (way == geom_.ways) {
        way = decider(set).victim();
        ++stats_.evictions;
        const bool wasDirty = (lines_[row + way] & kDirty) != 0;
        displaced = Displaced{lineAddr(set, way), wasDirty};
        if (wasDirty)
            ++stats_.writebacks;
    }
    tags_[row + way] = tagOf(addr);
    lines_[row + way] = dirty ? kValid | kDirty : kValid;
    s.policyA->fill(way);
    if (s.policyB)
        s.policyB->fill(way);
    return displaced;
}

void
Cache::backInvalidate(Addr addr)
{
    const unsigned set = setOf(addr);
    const unsigned w = findWay(set, tagOf(addr));
    if (w == geom_.ways)
        return;
    uint8_t& line = lines_[std::size_t{set} * geom_.ways + w];
    if (line & kDirty)
        ++stats_.writebacks;
    line = 0;
    ++stats_.backInvalidations;
}

bool
Cache::isDirty(Addr addr) const
{
    const unsigned set = setOf(addr);
    const unsigned w = findWay(set, tagOf(addr));
    return w < geom_.ways &&
           (lines_[std::size_t{set} * geom_.ways + w] & kDirty);
}

bool
Cache::probe(Addr addr) const
{
    return findWay(setOf(addr), tagOf(addr)) < geom_.ways;
}

void
Cache::flush()
{
    for (const unsigned set : touched_) {
        Set& s = sets_[set];
        uint8_t* lines = &lines_[std::size_t{set} * geom_.ways];
        for (unsigned w = 0; w < geom_.ways; ++w)
            if (lines[w] == (kValid | kDirty))
                ++stats_.writebacks;
        std::fill(lines, lines + geom_.ways, uint8_t{0});
        s.policyA->reset();
        if (s.policyB)
            s.policyB->reset();
        s.touched = false;
    }
    touched_.clear();
    // Note: PSEL is deliberately NOT reset. It models a global
    // selector register, which an invalidation instruction leaves
    // alone on real hardware; inference relies on training it across
    // flushes.
}

void
Cache::invalidate(Addr addr)
{
    const unsigned set = setOf(addr);
    const unsigned w = findWay(set, tagOf(addr));
    if (w == geom_.ways)
        return;
    uint8_t& line = lines_[std::size_t{set} * geom_.ways + w];
    if (line & kDirty)
        ++stats_.writebacks;
    line = 0;
}

unsigned
Cache::psel() const
{
    require(adaptive_, "Cache::psel: cache is not adaptive");
    return psel_;
}

unsigned
Cache::pselMidpoint() const
{
    require(adaptive_, "Cache::pselMidpoint: cache is not adaptive");
    return (pselMax_ + 1) / 2;
}

Cache::SetRole
Cache::setRole(unsigned set) const
{
    require(set < geom_.numSets, "Cache::setRole: set out of range");
    if (!adaptive_)
        return SetRole::kFollower;
    // Leaders are spread evenly: each interval of sets contributes
    // one A-leader at its start and one B-leader at its midpoint.
    const unsigned interval = geom_.numSets / duel_.leaderSetsPerPolicy;
    if (set % interval == 0)
        return SetRole::kLeaderA;
    if (set % interval == interval / 2)
        return SetRole::kLeaderB;
    return SetRole::kFollower;
}

Cache::SetImage
Cache::setImage(unsigned set) const
{
    require(set < geom_.numSets, "Cache::setImage: set out of range");
    const std::size_t row = std::size_t{set} * geom_.ways;
    SetImage image;
    image.tags.assign(geom_.ways, 0);
    image.valid.assign(geom_.ways, false);
    for (unsigned w = 0; w < geom_.ways; ++w) {
        if (lines_[row + w] & kValid) {
            image.tags[w] = tags_[row + w];
            image.valid[w] = true;
        }
    }
    image.policyKey = sets_[set].policyA->stateKey();
    return image;
}

const policy::ReplacementPolicy&
Cache::decider(unsigned set) const
{
    const Set& s = sets_[set];
    if (!adaptive_)
        return *s.policyA;
    switch (setRole(set)) {
      case SetRole::kLeaderA:
        return *s.policyA;
      case SetRole::kLeaderB:
        return *s.policyB;
      case SetRole::kFollower:
        break;
    }
    return psel_ >= pselMidpoint() ? *s.policyB : *s.policyA;
}

AccessResult
Cache::accessSet(unsigned set, uint64_t tag, bool write,
                 const policy::AccessMeta& meta)
{
    Set& s = sets_[set];
    markTouched(set);
    ++stats_.accesses;
    if (write)
        ++stats_.writes;

    if (metaA_)
        s.policyA->beginAccess(meta);
    if (metaB_ && s.policyB)
        s.policyB->beginAccess(meta);

    AccessResult result;
    result.setIndex = set;
    const std::size_t row = std::size_t{set} * geom_.ways;

    // Hit path: update every automaton so their state stays in sync
    // with the true contents.
    policy::Way way = findWay(set, tag);
    if (way < geom_.ways) {
        ++stats_.hits;
        s.policyA->touch(way);
        if (s.policyB)
            s.policyB->touch(way);
        if (write)
            lines_[row + way] |= kDirty;
        result.hit = true;
        result.way = way;
        return result;
    }

    // Miss path.
    ++stats_.misses;
    if (adaptive_)
        trainPsel(setRole(set));

    way = freeWay(set);
    if (way == geom_.ways) {
        way = decider(set).victim();
        ++stats_.evictions;
        result.evictedBlock = lineAddr(set, way);
        if (lines_[row + way] & kDirty) {
            ++stats_.writebacks;
            result.writeback = true;
        }
    }

    tags_[row + way] = tag;
    lines_[row + way] = write ? kValid | kDirty : kValid; // write-allocate
    s.policyA->fill(way);
    if (s.policyB)
        s.policyB->fill(way);

    result.way = way;
    return result;
}

void
Cache::trainPsel(SetRole role)
{
    // A miss in an A-leader is evidence for B (and vice versa).
    if (role == SetRole::kLeaderA && psel_ < pselMax_)
        ++psel_;
    else if (role == SetRole::kLeaderB && psel_ > 0)
        --psel_;
}

} // namespace recap::cache
