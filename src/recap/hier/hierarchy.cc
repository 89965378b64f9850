#include "recap/hier/hierarchy.hh"

#include <bit>

#include "recap/common/bitops.hh"
#include "recap/common/error.hh"
#include "recap/policy/factory.hh"

namespace recap::hier
{

namespace
{

constexpr uint8_t kFollower =
    static_cast<uint8_t>(cache::Cache::SetRole::kFollower);
constexpr uint8_t kLeaderA =
    static_cast<uint8_t>(cache::Cache::SetRole::kLeaderA);
constexpr uint8_t kLeaderB =
    static_cast<uint8_t>(cache::Cache::SetRole::kLeaderB);

/**
 * Fixed-associativity tag scan: with the trip count a compile-time
 * constant the compiler unrolls and vectorizes the row comparison
 * (the same trick as the S10 kernel loop). kFixedWays = 0 is the
 * generic variable-count fallback.
 */
template <unsigned kFixedWays>
inline uint32_t
rowMatch(const uint64_t* row, uint64_t tag, unsigned dynWays)
{
    const unsigned ways = kFixedWays != 0 ? kFixedWays : dynWays;
    uint32_t match = 0;
    for (unsigned w = 0; w < ways; ++w)
        match |= static_cast<uint32_t>(row[w] == tag) << w;
    return match;
}

inline uint32_t
matchMask(const uint64_t* row, uint64_t tag, unsigned ways)
{
    switch (ways) {
      case 2:
        return rowMatch<2>(row, tag, ways);
      case 4:
        return rowMatch<4>(row, tag, ways);
      case 8:
        return rowMatch<8>(row, tag, ways);
      case 12:
        return rowMatch<12>(row, tag, ways);
      case 16:
        return rowMatch<16>(row, tag, ways);
      case 24:
        return rowMatch<24>(row, tag, ways);
      default:
        return rowMatch<0>(row, tag, ways);
    }
}

} // namespace

Hierarchy::Hierarchy(const hw::MachineSpec& spec, uint64_t seed,
                     const Options& opts)
    : memoryLatency_(spec.memoryLatency), mode_(opts.mode)
{
    spec.validate();
    levels_.reserve(spec.levels.size());
    uint64_t level_seed = seed;
    for (const auto& lvl_spec : spec.levels) {
        Level lvl;
        lvl.geom = lvl_spec.geometry();
        require(lvl.geom.ways <= 32,
                "hier::Hierarchy: at most 32 ways per level (valid "
                "and dirty masks are one word per set)");
        if (mode_ != cache::InclusionMode::kNonInclusive &&
            !levels_.empty()) {
            require(lvl.geom.lineSize ==
                        levels_.front().geom.lineSize,
                    "hier::Hierarchy: inclusive/exclusive modes need "
                    "one line size across levels");
        }
        lvl.name = lvl_spec.name;
        lvl.hitLatency = lvl_spec.hitLatency;
        lvl.ways = lvl.geom.ways;
        lvl.setShift = log2Floor(lvl.geom.lineSize);
        lvl.tagShift = lvl.setShift + log2Floor(lvl.geom.numSets);
        lvl.setMask = lvl.geom.numSets - 1;
        lvl.fullMask = lvl.ways == 32
                           ? ~uint32_t{0}
                           : (uint32_t{1} << lvl.ways) - 1;

        const unsigned sets = lvl.geom.numSets;
        lvl.tags.assign(static_cast<std::size_t>(sets) * lvl.ways, 0);
        lvl.valid.assign(sets, 0);
        lvl.dirty.assign(sets, 0);

        const auto hoist = [](const policy::CompiledTable& t) {
            Level::TablePtrs p;
            if (t.narrow()) {
                p.touch16 = t.touchData16();
                p.fill16 = t.fillData16();
            } else {
                p.touch32 = t.touchData();
                p.fill32 = t.fillData();
            }
            p.victim = t.victimData();
            return p;
        };

        lvl.tableA = policy::compiledTableFor(lvl_spec.policySpec,
                                              lvl.ways, opts.budget);
        if (lvl.tableA) {
            lvl.ptrA = hoist(*lvl.tableA);
            lvl.stateA.assign(sets, 0);
        } else {
            lvl.interpA.reserve(sets);
            for (unsigned s = 0; s < sets; ++s) {
                lvl.interpA.push_back(policy::makePolicy(
                    lvl_spec.policySpec, lvl.ways, level_seed + s));
            }
            lvl.metaA = lvl.interpA.front()->usesMeta();
        }

        if (lvl_spec.isAdaptive()) {
            lvl.adaptive = true;
            lvl.duel = lvl_spec.duel;
            require(lvl.duel.pselBits >= 1 && lvl.duel.pselBits <= 16,
                    "hier::Hierarchy: PSEL width must be in [1,16]");
            require(lvl.duel.leaderSetsPerPolicy >= 1,
                    "hier::Hierarchy: need at least one leader set "
                    "per policy");
            require(sets >= 2 * lvl.duel.leaderSetsPerPolicy,
                    "hier::Hierarchy: too few sets for the requested "
                    "leader count");
            lvl.pselMax = (1u << lvl.duel.pselBits) - 1;
            lvl.psel = (lvl.pselMax + 1) / 2;

            lvl.tableB = policy::compiledTableFor(
                lvl_spec.policySpecB, lvl.ways, opts.budget);
            if (lvl.tableB) {
                lvl.ptrB = hoist(*lvl.tableB);
                lvl.stateB.assign(sets, 0);
            } else {
                lvl.interpB.reserve(sets);
                for (unsigned s = 0; s < sets; ++s) {
                    lvl.interpB.push_back(policy::makePolicy(
                        lvl_spec.policySpecB, lvl.ways,
                        level_seed + sets + s));
                }
                lvl.metaB = lvl.interpB.front()->usesMeta();
            }

            // Leaders are spread evenly, one A-leader at each
            // interval start and one B-leader at its midpoint —
            // the same layout as cache::Cache::setRole().
            const unsigned interval =
                sets / lvl.duel.leaderSetsPerPolicy;
            lvl.roles.assign(sets, kFollower);
            for (unsigned s = 0; s < sets; ++s) {
                if (s % interval == 0)
                    lvl.roles[s] = kLeaderA;
                else if (s % interval == interval / 2)
                    lvl.roles[s] = kLeaderB;
            }
        }

        lvl.anyMeta = lvl.metaA || lvl.metaB;
        levels_.push_back(std::move(lvl));
        level_seed += 0x10001;
    }
}

void
Hierarchy::publishMeta(Level& lvl, unsigned set, cache::Addr addr)
{
    if (!lvl.anyMeta)
        return;
    policy::AccessMeta meta;
    meta.block = addr / lvl.geom.lineSize;
    meta.hasBlock = true;
    if (lvl.metaA)
        lvl.interpA[set]->beginAccess(meta);
    if (lvl.metaB)
        lvl.interpB[set]->beginAccess(meta);
}

void
Hierarchy::touchBoth(Level& lvl, unsigned set, unsigned way)
{
    if (lvl.ptrA.touch16) {
        const std::size_t idx =
            static_cast<std::size_t>(lvl.stateA[set]) * lvl.ways +
            way;
        lvl.stateA[set] = lvl.ptrA.touch16[idx];
    } else if (lvl.ptrA.touch32) {
        const std::size_t idx =
            static_cast<std::size_t>(lvl.stateA[set]) * lvl.ways +
            way;
        lvl.stateA[set] = lvl.ptrA.touch32[idx];
    } else {
        lvl.interpA[set]->touch(way);
    }
    if (!lvl.adaptive)
        return;
    if (lvl.ptrB.touch16) {
        const std::size_t idx =
            static_cast<std::size_t>(lvl.stateB[set]) * lvl.ways +
            way;
        lvl.stateB[set] = lvl.ptrB.touch16[idx];
    } else if (lvl.ptrB.touch32) {
        const std::size_t idx =
            static_cast<std::size_t>(lvl.stateB[set]) * lvl.ways +
            way;
        lvl.stateB[set] = lvl.ptrB.touch32[idx];
    } else {
        lvl.interpB[set]->touch(way);
    }
}

void
Hierarchy::fillBoth(Level& lvl, unsigned set, unsigned way)
{
    if (lvl.ptrA.fill16) {
        const std::size_t idx =
            static_cast<std::size_t>(lvl.stateA[set]) * lvl.ways +
            way;
        lvl.stateA[set] = lvl.ptrA.fill16[idx];
    } else if (lvl.ptrA.fill32) {
        const std::size_t idx =
            static_cast<std::size_t>(lvl.stateA[set]) * lvl.ways +
            way;
        lvl.stateA[set] = lvl.ptrA.fill32[idx];
    } else {
        lvl.interpA[set]->fill(way);
    }
    if (!lvl.adaptive)
        return;
    if (lvl.ptrB.fill16) {
        const std::size_t idx =
            static_cast<std::size_t>(lvl.stateB[set]) * lvl.ways +
            way;
        lvl.stateB[set] = lvl.ptrB.fill16[idx];
    } else if (lvl.ptrB.fill32) {
        const std::size_t idx =
            static_cast<std::size_t>(lvl.stateB[set]) * lvl.ways +
            way;
        lvl.stateB[set] = lvl.ptrB.fill32[idx];
    } else {
        lvl.interpB[set]->fill(way);
    }
}

unsigned
Hierarchy::victimOf(const Level& lvl, unsigned set) const
{
    bool use_b = false;
    if (lvl.adaptive) {
        const uint8_t role = lvl.roles[set];
        use_b = role == kLeaderB ||
                (role == kFollower &&
                 lvl.psel >= (lvl.pselMax + 1) / 2);
    }
    if (use_b) {
        return lvl.ptrB.victim ? lvl.ptrB.victim[lvl.stateB[set]]
                               : lvl.interpB[set]->victim();
    }
    return lvl.ptrA.victim ? lvl.ptrA.victim[lvl.stateA[set]]
                           : lvl.interpA[set]->victim();
}

void
Hierarchy::trainPsel(Level& lvl, uint8_t role)
{
    // A miss in an A-leader is evidence for B (and vice versa).
    if (role == kLeaderA && lvl.psel < lvl.pselMax)
        ++lvl.psel;
    else if (role == kLeaderB && lvl.psel > 0)
        --lvl.psel;
}

cache::Addr
Hierarchy::blockAddr(const Level& lvl, unsigned set,
                     unsigned way) const
{
    const uint64_t tag =
        lvl.tags[static_cast<std::size_t>(set) * lvl.ways + way];
    return ((tag << (lvl.tagShift - lvl.setShift)) | set)
           << lvl.setShift;
}

Hierarchy::LevelAccess
Hierarchy::accessLevel(Level& lvl, cache::Addr addr, bool write)
{
    const unsigned set =
        static_cast<unsigned>(addr >> lvl.setShift) & lvl.setMask;
    const uint64_t tag = addr >> lvl.tagShift;
    uint64_t* row =
        &lvl.tags[static_cast<std::size_t>(set) * lvl.ways];
    ++lvl.stats.accesses;
    if (write)
        ++lvl.stats.writes;
    publishMeta(lvl, set, addr);

    uint32_t match =
        matchMask(row, tag, lvl.ways) & lvl.valid[set];

    LevelAccess out;
    if (match) {
        const unsigned way =
            static_cast<unsigned>(std::countr_zero(match));
        ++lvl.stats.hits;
        touchBoth(lvl, set, way);
        if (write)
            lvl.dirty[set] |= uint32_t{1} << way;
        out.hit = true;
        return out;
    }

    ++lvl.stats.misses;
    if (lvl.adaptive)
        trainPsel(lvl, lvl.roles[set]);

    unsigned way;
    const uint32_t invalid = ~lvl.valid[set] & lvl.fullMask;
    if (invalid) {
        way = static_cast<unsigned>(std::countr_zero(invalid));
    } else {
        way = victimOf(lvl, set);
        ++lvl.stats.evictions;
        out.evicted = true;
        out.evictedBlock = blockAddr(lvl, set, way);
        if (lvl.dirty[set] & (uint32_t{1} << way))
            ++lvl.stats.writebacks;
    }

    row[way] = tag;
    lvl.valid[set] |= uint32_t{1} << way;
    if (write) // write-allocate
        lvl.dirty[set] |= uint32_t{1} << way;
    else
        lvl.dirty[set] &= ~(uint32_t{1} << way);
    fillBoth(lvl, set, way);
    return out;
}

bool
Hierarchy::probeLevel(Level& lvl, cache::Addr addr, bool write,
                      bool touchOnHit)
{
    const unsigned set =
        static_cast<unsigned>(addr >> lvl.setShift) & lvl.setMask;
    const uint64_t tag = addr >> lvl.tagShift;
    const uint64_t* row =
        &lvl.tags[static_cast<std::size_t>(set) * lvl.ways];
    ++lvl.stats.accesses;
    if (write)
        ++lvl.stats.writes;
    publishMeta(lvl, set, addr);

    uint32_t match =
        matchMask(row, tag, lvl.ways) & lvl.valid[set];
    if (match) {
        ++lvl.stats.hits;
        if (touchOnHit) {
            const unsigned way =
                static_cast<unsigned>(std::countr_zero(match));
            touchBoth(lvl, set, way);
            if (write)
                lvl.dirty[set] |= uint32_t{1} << way;
        }
        return true;
    }
    ++lvl.stats.misses;
    if (lvl.adaptive)
        trainPsel(lvl, lvl.roles[set]);
    return false;
}

cache::Cache::Extracted
Hierarchy::extractLevel(Level& lvl, cache::Addr addr)
{
    const unsigned set =
        static_cast<unsigned>(addr >> lvl.setShift) & lvl.setMask;
    const uint64_t tag = addr >> lvl.tagShift;
    const uint64_t* row =
        &lvl.tags[static_cast<std::size_t>(set) * lvl.ways];
    uint32_t match =
        matchMask(row, tag, lvl.ways) & lvl.valid[set];
    if (!match)
        return {};
    const uint32_t bit =
        uint32_t{1} << std::countr_zero(match);
    cache::Cache::Extracted out{
        true, (lvl.dirty[set] & bit) != 0};
    lvl.valid[set] &= ~bit;
    lvl.dirty[set] &= ~bit;
    return out;
}

bool
Hierarchy::insertLevel(Level& lvl, cache::Addr addr, bool dirty,
                       cache::Cache::Displaced* displaced)
{
    const unsigned set =
        static_cast<unsigned>(addr >> lvl.setShift) & lvl.setMask;
    const uint64_t tag = addr >> lvl.tagShift;
    uint64_t* row =
        &lvl.tags[static_cast<std::size_t>(set) * lvl.ways];
    publishMeta(lvl, set, addr);

    bool displaced_any = false;
    unsigned way;
    const uint32_t invalid = ~lvl.valid[set] & lvl.fullMask;
    if (invalid) {
        way = static_cast<unsigned>(std::countr_zero(invalid));
    } else {
        way = victimOf(lvl, set);
        ++lvl.stats.evictions;
        displaced_any = true;
        displaced->addr = blockAddr(lvl, set, way);
        displaced->dirty =
            (lvl.dirty[set] & (uint32_t{1} << way)) != 0;
        if (displaced->dirty)
            ++lvl.stats.writebacks;
    }
    row[way] = tag;
    lvl.valid[set] |= uint32_t{1} << way;
    if (dirty)
        lvl.dirty[set] |= uint32_t{1} << way;
    else
        lvl.dirty[set] &= ~(uint32_t{1} << way);
    fillBoth(lvl, set, way);
    return displaced_any;
}

void
Hierarchy::backInvalidateLevel(Level& lvl, cache::Addr addr)
{
    const unsigned set =
        static_cast<unsigned>(addr >> lvl.setShift) & lvl.setMask;
    const uint64_t tag = addr >> lvl.tagShift;
    const uint64_t* row =
        &lvl.tags[static_cast<std::size_t>(set) * lvl.ways];
    uint32_t match =
        matchMask(row, tag, lvl.ways) & lvl.valid[set];
    if (!match)
        return;
    const uint32_t bit =
        uint32_t{1} << std::countr_zero(match);
    if (lvl.dirty[set] & bit)
        ++lvl.stats.writebacks;
    lvl.valid[set] &= ~bit;
    lvl.dirty[set] &= ~bit;
    ++lvl.stats.backInvalidations;
}

unsigned
Hierarchy::access(cache::Addr addr, bool write)
{
    switch (mode_) {
      case cache::InclusionMode::kInclusive:
        return accessInclusive(addr, write);
      case cache::InclusionMode::kExclusive:
        return accessExclusive(addr, write);
      case cache::InclusionMode::kNonInclusive:
        break;
    }
    return accessNonInclusive(addr, write);
}

unsigned
Hierarchy::accessNonInclusive(cache::Addr addr, bool write)
{
    for (unsigned i = 0; i < levels_.size(); ++i) {
        if (accessLevel(levels_[i], addr, write).hit)
            return i;
    }
    return depth();
}

unsigned
Hierarchy::accessInclusive(cache::Addr addr, bool write)
{
    for (unsigned i = 0; i < levels_.size(); ++i) {
        const LevelAccess r = accessLevel(levels_[i], addr, write);
        if (r.evicted) {
            for (unsigned j = 0; j < i; ++j)
                backInvalidateLevel(levels_[j], r.evictedBlock);
        }
        if (r.hit)
            return i;
    }
    return depth();
}

unsigned
Hierarchy::accessExclusive(cache::Addr addr, bool write)
{
    unsigned hit_level = depth();
    for (unsigned i = 0; i < levels_.size(); ++i) {
        if (probeLevel(levels_[i], addr, write,
                       /*touchOnHit=*/i == 0)) {
            hit_level = i;
            break;
        }
    }
    if (hit_level == 0)
        return 0;

    bool dirty = write;
    if (hit_level < depth()) {
        const cache::Cache::Extracted ex =
            extractLevel(levels_[hit_level], addr);
        dirty = ex.dirty || write;
    }
    cache::Cache::Displaced displaced;
    bool have = insertLevel(levels_.front(), addr, dirty, &displaced);
    for (unsigned j = 1; j < levels_.size() && have; ++j) {
        const cache::Cache::Displaced in = displaced;
        have = insertLevel(levels_[j], in.addr, in.dirty, &displaced);
    }
    return hit_level;
}

unsigned
Hierarchy::latencyOf(unsigned level) const
{
    require(level <= depth(), "hier::latencyOf: level range");
    if (level == depth())
        return memoryLatency_;
    return levels_[level].hitLatency;
}

void
Hierarchy::flushAll()
{
    for (Level& lvl : levels_) {
        for (unsigned s = 0; s < lvl.geom.numSets; ++s) {
            lvl.stats.writebacks += static_cast<uint64_t>(
                std::popcount(lvl.valid[s] & lvl.dirty[s]));
            lvl.valid[s] = 0;
            lvl.dirty[s] = 0;
        }
        if (lvl.tableA)
            std::fill(lvl.stateA.begin(), lvl.stateA.end(), 0u);
        else
            for (auto& p : lvl.interpA)
                p->reset();
        if (lvl.adaptive) {
            if (lvl.tableB)
                std::fill(lvl.stateB.begin(), lvl.stateB.end(), 0u);
            else
                for (auto& p : lvl.interpB)
                    p->reset();
        }
        // PSEL deliberately survives the flush, exactly like
        // cache::Cache::flush(): it models a global selector
        // register an invalidation instruction leaves alone.
    }
}

void
Hierarchy::resetStats()
{
    for (Level& lvl : levels_)
        lvl.stats.reset();
}

const Hierarchy::Level&
Hierarchy::checkedLevel(unsigned level, const char* what) const
{
    require(level < depth(), what);
    return levels_[level];
}

const std::string&
Hierarchy::name(unsigned level) const
{
    return checkedLevel(level, "hier::name: level range").name;
}

const cache::LevelStats&
Hierarchy::stats(unsigned level) const
{
    return checkedLevel(level, "hier::stats: level range").stats;
}

const cache::Geometry&
Hierarchy::geometry(unsigned level) const
{
    return checkedLevel(level, "hier::geometry: level range").geom;
}

bool
Hierarchy::isAdaptive(unsigned level) const
{
    return checkedLevel(level, "hier::isAdaptive: level range")
        .adaptive;
}

unsigned
Hierarchy::psel(unsigned level) const
{
    const Level& lvl =
        checkedLevel(level, "hier::psel: level range");
    require(lvl.adaptive, "hier::psel: level is not adaptive");
    return lvl.psel;
}

unsigned
Hierarchy::pselMidpoint(unsigned level) const
{
    const Level& lvl =
        checkedLevel(level, "hier::pselMidpoint: level range");
    require(lvl.adaptive,
            "hier::pselMidpoint: level is not adaptive");
    return (lvl.pselMax + 1) / 2;
}

cache::Cache::SetRole
Hierarchy::setRole(unsigned level, unsigned set) const
{
    const Level& lvl =
        checkedLevel(level, "hier::setRole: level range");
    require(set < lvl.geom.numSets, "hier::setRole: set range");
    if (!lvl.adaptive)
        return cache::Cache::SetRole::kFollower;
    return static_cast<cache::Cache::SetRole>(lvl.roles[set]);
}

cache::Cache::SetImage
Hierarchy::setImage(unsigned level, unsigned set) const
{
    const Level& lvl =
        checkedLevel(level, "hier::setImage: level range");
    require(set < lvl.geom.numSets, "hier::setImage: set range");
    cache::Cache::SetImage image;
    image.tags.assign(lvl.ways, 0);
    image.valid.assign(lvl.ways, false);
    const uint64_t* row =
        &lvl.tags[static_cast<std::size_t>(set) * lvl.ways];
    for (unsigned w = 0; w < lvl.ways; ++w) {
        if (lvl.valid[set] & (uint32_t{1} << w)) {
            image.tags[w] = row[w];
            image.valid[w] = true;
        }
    }
    image.policyKey = lvl.tableA
                          ? lvl.tableA->stateKey(lvl.stateA[set])
                          : lvl.interpA[set]->stateKey();
    return image;
}

bool
Hierarchy::levelCompiled(unsigned level) const
{
    const Level& lvl =
        checkedLevel(level, "hier::levelCompiled: level range");
    if (!lvl.tableA)
        return false;
    return !lvl.adaptive || static_cast<bool>(lvl.tableB);
}

bool
Hierarchy::fullyCompiled() const
{
    for (unsigned i = 0; i < depth(); ++i)
        if (!levelCompiled(i))
            return false;
    return true;
}

} // namespace recap::hier
