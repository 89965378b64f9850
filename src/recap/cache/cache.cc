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

// The per-access helpers below are forced inline: at -O2 GCC keeps
// them out of line, and a call per step of every access costs more
// than the step.
template <bool kDetailed>
[[gnu::always_inline]] inline
std::conditional_t<kDetailed, AccessResult, bool>
Cache::accessCore(Addr addr, bool write, const uint64_t* pc)
{
    const unsigned set = setOf(addr);
    const unsigned hit = lookup(set, addr, write, pc);
    if (hit < geom_.ways) {
        touchWay(set, hit, write);
        if constexpr (kDetailed)
            return AccessResult{true, set, hit, std::nullopt, false};
        else
            return true;
    }
    // Write-allocate: a store miss installs a dirty line.
    const Fill f = fillLine(set, tagOf(addr), write);
    if constexpr (kDetailed) {
        AccessResult result{false, set, f.way, std::nullopt, f.dirty};
        if (f.evicted)
            result.evictedBlock = f.victim;
        return result;
    } else {
        return false;
    }
}

void
Cache::publishMeta(unsigned set, Addr addr, const uint64_t* pc)
{
    policy::AccessMeta meta;
    meta.block = addr >> offsetBits_;
    meta.hasBlock = true;
    if (pc) {
        meta.pc = *pc;
        meta.hasPc = true;
    }
    Set& s = sets_[set];
    if (metaA_)
        s.policyA->beginAccess(meta);
    if (metaB_)
        s.policyB->beginAccess(meta);
}

[[gnu::always_inline]] inline unsigned
Cache::lookup(unsigned set, Addr addr, bool write, const uint64_t* pc)
{
    markTouched(set);
    if (metaA_ || metaB_)
        publishMeta(set, addr, pc);
    ++stats_.accesses;
    if (write)
        ++stats_.writes;
    const unsigned way = findWay(set, tagOf(addr));
    if (way < geom_.ways) {
        ++stats_.hits;
        return way;
    }
    ++stats_.misses;
    if (adaptive_)
        trainPsel(setRole(set));
    return way;
}

[[gnu::always_inline]] inline void
Cache::touchWay(unsigned set, unsigned way, bool write)
{
    // Every automaton sees every hit, so its state stays in sync with
    // the true contents.
    Set& s = sets_[set];
    s.policyA->touch(way);
    if (s.policyB)
        s.policyB->touch(way);
    if (write)
        lines_[std::size_t{set} * geom_.ways + way] |= kDirty;
}

[[gnu::always_inline]] inline Cache::Fill
Cache::fillLine(unsigned set, uint64_t tag, bool dirty)
{
    Set& s = sets_[set];
    const std::size_t row = std::size_t{set} * geom_.ways;
    Fill f;
    f.way = geom_.ways;
    if (!s.full) {
        for (unsigned w = 0; w < geom_.ways; ++w) {
            if (!(lines_[row + w] & kValid)) {
                f.way = w;
                break;
            }
        }
        s.full = f.way == geom_.ways;
    }
    if (f.way == geom_.ways) {
        f.way = adaptive_ ? decider(set).victim() : s.policyA->victim();
        f.evicted = true;
        f.victim = lineAddr(set, f.way);
        ++stats_.evictions;
        if (lines_[row + f.way] & kDirty) {
            f.dirty = true;
            ++stats_.writebacks;
        }
    }
    tags_[row + f.way] = tag;
    lines_[row + f.way] = dirty ? kValid | kDirty : kValid;
    s.policyA->fill(f.way);
    if (s.policyB)
        s.policyB->fill(f.way);
    return f;
}

uint8_t
Cache::removeLine(Addr addr)
{
    const unsigned set = setOf(addr);
    const unsigned w = findWay(set, tagOf(addr));
    if (w == geom_.ways)
        return 0;
    uint8_t& line = lines_[std::size_t{set} * geom_.ways + w];
    const uint8_t was = line;
    line = 0;
    // The automata are deliberately not notified: "invalidate" is
    // outside the touch/fill input alphabet.
    sets_[set].full = false;
    return was;
}

bool
Cache::access(Addr addr, bool write)
{
    return accessCore<false>(addr, write, nullptr);
}

AccessResult
Cache::accessDetailed(Addr addr, bool write)
{
    return accessCore<true>(addr, write, nullptr);
}

bool
Cache::accessWithPc(Addr addr, uint64_t pc, bool write)
{
    return accessCore<false>(addr, write, &pc);
}

AccessResult
Cache::accessDetailedWithPc(Addr addr, uint64_t pc, bool write)
{
    return accessCore<true>(addr, write, &pc);
}

bool
Cache::probeAccess(Addr addr, bool write, bool touchOnHit)
{
    const unsigned set = setOf(addr);
    const unsigned w = lookup(set, addr, write, nullptr);
    if (w == geom_.ways)
        return false;
    if (touchOnHit)
        touchWay(set, w, write);
    return true;
}

Cache::Extracted
Cache::extract(Addr addr)
{
    const uint8_t line = removeLine(addr);
    return {line != 0, (line & kDirty) != 0};
}

std::optional<Cache::Displaced>
Cache::insertLine(Addr addr, bool dirty)
{
    const unsigned set = setOf(addr);
    markTouched(set);
    if (metaA_ || metaB_)
        publishMeta(set, addr, nullptr);
    const Fill f = fillLine(set, tagOf(addr), dirty);
    if (!f.evicted)
        return std::nullopt;
    return Displaced{f.victim, f.dirty};
}

void
Cache::backInvalidate(Addr addr)
{
    const uint8_t line = removeLine(addr);
    if (line == 0)
        return;
    if (line & kDirty)
        ++stats_.writebacks;
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
        s.full = false;
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
    if (removeLine(addr) & kDirty)
        ++stats_.writebacks;
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
