#include "recap/policy/permutation.hh"

#include <algorithm>

#include "recap/common/bitops.hh"
#include "recap/common/error.hh"
#include "recap/policy/plru.hh"
#include "recap/policy/set_model.hh"

namespace recap::policy
{

bool
isPermutation(const Permutation& pi)
{
    std::vector<bool> seen(pi.size(), false);
    for (unsigned v : pi) {
        if (v >= pi.size() || seen[v])
            return false;
        seen[v] = true;
    }
    return true;
}

Permutation
identityPermutation(unsigned k)
{
    Permutation pi(k);
    for (unsigned i = 0; i < k; ++i)
        pi[i] = i;
    return pi;
}

PermutationPolicy::PermutationPolicy(unsigned ways,
                                     std::vector<Permutation> hitPerms,
                                     Permutation missPerm,
                                     std::string displayName,
                                     FillRule fillRule,
                                     std::vector<Way> initialOrder)
    : ReplacementPolicy(ways),
      hitPerms_(std::move(hitPerms)),
      missPerm_(std::move(missPerm)),
      displayName_(std::move(displayName)),
      fillRule_(fillRule),
      initialOrder_(std::move(initialOrder))
{
    require(hitPerms_.size() == ways,
            "PermutationPolicy: need exactly one hit permutation per way");
    for (const auto& pi : hitPerms_)
        require(pi.size() == ways && isPermutation(pi),
                "PermutationPolicy: invalid hit permutation");
    require(missPerm_.size() == ways && isPermutation(missPerm_),
            "PermutationPolicy: invalid miss permutation");
    if (initialOrder_.empty()) {
        initialOrder_.resize(ways);
        for (unsigned i = 0; i < ways; ++i)
            initialOrder_[i] = i;
    }
    // The initial order must place each way exactly once.
    {
        Permutation as_perm(initialOrder_.begin(), initialOrder_.end());
        require(as_perm.size() == ways && isPermutation(as_perm),
                "PermutationPolicy: invalid initial order");
    }
    PermutationPolicy::reset();
}

void
PermutationPolicy::reset()
{
    order_ = initialOrder_;
}

void
PermutationPolicy::touch(Way way)
{
    checkWay(way);
    applyPermutation(hitPerms_[positionOf(way)]);
}

Way
PermutationPolicy::victim() const
{
    return order_[0];
}

void
PermutationPolicy::fill(Way way)
{
    checkWay(way);
    // A true miss fills the victim: the incoming line takes position
    // 0 and the miss permutation is applied. Cold fills into other
    // (invalid) ways follow the configured fill rule.
    if (way != order_[0] && fillRule_ == FillRule::kTouch) {
        applyPermutation(hitPerms_[positionOf(way)]);
        return;
    }
    auto it = std::find(order_.begin(), order_.end(), way);
    ensure(it != order_.end(), "PermutationPolicy: way missing in order");
    std::rotate(order_.begin(), it, it + 1);
    applyPermutation(missPerm_);
}

std::string
PermutationPolicy::name() const
{
    return displayName_.empty() ? "Permutation" : displayName_;
}

PolicyPtr
PermutationPolicy::clone() const
{
    return std::make_unique<PermutationPolicy>(*this);
}

std::string
PermutationPolicy::stateKey() const
{
    std::string key;
    key.reserve(order_.size());
    for (Way w : order_)
        key.push_back(static_cast<char>('a' + w));
    return key;
}

bool
PermutationPolicy::packState(PackedState& out) const
{
    const unsigned width = log2Ceil(ways_);
    if (ways_ * width > kBits128Width)
        return false;
    BitPacker packer;
    packer.putAll(order_, width);
    out = packer.bits();
    return true;
}

void
PermutationPolicy::unpackState(const PackedState& in)
{
    BitUnpacker unpacker(in);
    unpacker.getAll(order_, log2Ceil(ways_));
}

Way
PermutationPolicy::orderAt(unsigned pos) const
{
    require(pos < ways_, "PermutationPolicy::orderAt: position range");
    return order_[pos];
}

bool
PermutationPolicy::sameVectors(const PermutationPolicy& other) const
{
    return ways_ == other.ways_ && hitPerms_ == other.hitPerms_ &&
           missPerm_ == other.missPerm_;
}

PermutationPolicy
PermutationPolicy::lru(unsigned ways)
{
    std::vector<Permutation> hits(ways);
    for (unsigned p = 0; p < ways; ++p) {
        Permutation pi(ways);
        for (unsigned j = 0; j < ways; ++j) {
            if (j < p)
                pi[j] = j;          // safer lines keep their slot
            else if (j == p)
                pi[j] = ways - 1;   // hit line becomes safest
            else
                pi[j] = j - 1;      // lines above the hit slide down
        }
        hits[p] = std::move(pi);
    }
    Permutation miss(ways);
    miss[0] = ways - 1;             // new line becomes safest
    for (unsigned j = 1; j < ways; ++j)
        miss[j] = j - 1;
    return PermutationPolicy(ways, std::move(hits), std::move(miss),
                             "LRU");
}

PermutationPolicy
PermutationPolicy::fifo(unsigned ways)
{
    std::vector<Permutation> hits(ways, identityPermutation(ways));
    Permutation miss(ways);
    miss[0] = ways - 1;
    for (unsigned j = 1; j < ways; ++j)
        miss[j] = j - 1;
    return PermutationPolicy(ways, std::move(hits), std::move(miss),
                             "FIFO");
}

PermutationPolicy
PermutationPolicy::plru(unsigned ways)
{
    TreePlruPolicy proto(ways);
    auto derived = derive(proto);
    ensure(derived.has_value(),
           "PermutationPolicy::plru: tree-PLRU failed derivation");
    return PermutationPolicy(ways, derived->hitPermutations(),
                             derived->missPermutation(), "PLRU",
                             derived->fillRule(),
                             derived->initialOrder());
}

std::optional<PermutationPolicy>
PermutationPolicy::derive(const ReplacementPolicy& proto,
                          unsigned verifyRounds, uint64_t seed)
{
    const unsigned k = proto.ways();
    if (k < 1)
        return std::nullopt;

    // Build the canonical state: flush, then fill blocks 1..k.
    SetModel base(proto.clone());
    base.flush();
    for (unsigned b = 1; b <= k; ++b)
        base.access(b);
    const std::vector<BlockId> ord = base.evictionOrder();

    auto index_of = [&](const std::vector<BlockId>& seq, BlockId b)
        -> std::optional<unsigned> {
        for (unsigned i = 0; i < seq.size(); ++i)
            if (seq[i] == b)
                return i;
        return std::nullopt;
    };

    // Hit permutations: touch the line at each position and see how
    // the eviction order rearranges.
    std::vector<Permutation> hits(k);
    for (unsigned p = 0; p < k; ++p) {
        SetModel probe(base);
        probe.access(ord[p]); // hit
        const std::vector<BlockId> after = probe.evictionOrder();
        Permutation pi(k);
        for (unsigned j = 0; j < k; ++j) {
            auto pos = index_of(after, ord[j]);
            if (!pos)
                return std::nullopt; // a hit evicted a line: not perm.
            pi[j] = *pos;
        }
        if (!isPermutation(pi))
            return std::nullopt;
        hits[p] = std::move(pi);
    }

    // Miss permutation: insert a fresh block, which must evict the
    // position-0 line; the incoming block stands for old position 0.
    Permutation miss(k);
    {
        SetModel probe(base);
        const BlockId fresh = 1000 + k;
        probe.access(fresh); // miss
        const std::vector<BlockId> after = probe.evictionOrder();
        auto new_pos = index_of(after, fresh);
        if (!new_pos)
            return std::nullopt;
        miss[0] = *new_pos;
        for (unsigned j = 1; j < k; ++j) {
            auto pos = index_of(after, ord[j]);
            if (!pos)
                return std::nullopt; // wrong line was evicted
            miss[j] = *pos;
        }
        if (!isPermutation(miss))
            return std::nullopt;
    }

    // Validate against the prototype on random access sequences: a
    // true permutation policy matches everywhere. Both cold-fill
    // rules are tried; sequences start from a flush, so cold fills
    // are exercised.
    auto validates = [&](const PermutationPolicy& candidate) {
        Rng rng(seed);
        for (unsigned round = 0; round < verifyRounds; ++round) {
            SetModel ref(proto.clone());
            SetModel hyp(candidate.clone());
            ref.flush();
            hyp.flush();
            const unsigned universe = k + 1 + static_cast<unsigned>(
                rng.nextBelow(k + 1));
            const unsigned length = 8 * k + static_cast<unsigned>(
                rng.nextBelow(8 * k + 1));
            for (unsigned i = 0; i < length; ++i) {
                const BlockId b = rng.nextBelow(universe);
                if (ref.access(b) != hyp.access(b))
                    return false;
            }
            if (ref.validCount() == k && hyp.validCount() == k &&
                ref.evictionOrder() != hyp.evictionOrder()) {
                return false;
            }
        }
        return true;
    };

    // The prototype's reset-state eviction order over ways, read off
    // white-box by following victim() through consecutive fills.
    std::vector<Way> init_order;
    {
        PolicyPtr s = proto.clone();
        s->reset();
        std::vector<bool> seen(k, false);
        for (unsigned i = 0; i < k; ++i) {
            const Way v = s->victim();
            if (v >= k || seen[v])
                break; // repeated victim: probing assumption violated
            seen[v] = true;
            init_order.push_back(v);
            s->fill(v);
        }
    }

    std::vector<std::vector<Way>> order_hypotheses;
    if (init_order.size() == k)
        order_hypotheses.push_back(init_order);
    order_hypotheses.push_back({}); // identity fallback

    for (FillRule rule : {FillRule::kInsertAtVictim, FillRule::kTouch}) {
        for (const auto& order : order_hypotheses) {
            PermutationPolicy candidate(k, hits, miss, "", rule, order);
            if (validates(candidate))
                return candidate;
        }
    }
    return std::nullopt;
}

void
PermutationPolicy::applyPermutation(const Permutation& pi)
{
    next_.resize(ways_);
    for (unsigned j = 0; j < ways_; ++j)
        next_[pi[j]] = order_[j];
    order_.swap(next_);
}

unsigned
PermutationPolicy::positionOf(Way way) const
{
    auto it = std::find(order_.begin(), order_.end(), way);
    ensure(it != order_.end(), "PermutationPolicy: way missing in order");
    return static_cast<unsigned>(it - order_.begin());
}

} // namespace recap::policy
