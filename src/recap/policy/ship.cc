#include "recap/policy/ship.hh"

#include "recap/common/bitops.hh"
#include "recap/common/error.hh"

namespace recap::policy
{

ShipPolicy::ShipPolicy(unsigned ways, unsigned bits, unsigned sigBits,
                       unsigned ctrBits)
    : SrripPolicy(ways, bits), sigBits_(sigBits),
      ctrMax_(static_cast<unsigned>(lowMask(ctrBits)))
{
    require(ways >= 2, "ShipPolicy: needs at least 2 ways");
    require(sigBits >= 1 && sigBits <= 14,
            "ShipPolicy: sigBits must be in [1,14]");
    require(ctrBits >= 1 && ctrBits <= 8,
            "ShipPolicy: ctrBits must be in [1,8]");
    ShipPolicy::reset();
}

void
ShipPolicy::reset()
{
    SrripPolicy::reset();
    // Counters start weakly reused: cold signatures insert long until
    // they prove themselves streaming.
    shct_.assign(size_t{1} << sigBits_, 1);
    sig_.assign(ways_, 0);
    outcome_.assign(ways_, false);
    tracked_.assign(ways_, false);
    pendingPc_ = 0;
    pendingHasPc_ = false;
}

void
ShipPolicy::beginAccess(const AccessMeta& meta)
{
    pendingPc_ = meta.hasPc ? meta.pc : 0;
    pendingHasPc_ = meta.hasPc;
}

void
ShipPolicy::touch(Way way)
{
    checkWay(way);
    rrpv_[way] = 0;
    // Every re-reference strengthens the line's signature.
    outcome_[way] = true;
    if (tracked_[way] && shct_[sig_[way]] < ctrMax_)
        ++shct_[sig_[way]];
    pendingHasPc_ = false;
    pendingPc_ = 0;
}

void
ShipPolicy::fill(Way way)
{
    checkWay(way);
    // The displaced line's verdict: never reused weakens its
    // signature.
    if (tracked_[way] && !outcome_[way] && shct_[sig_[way]] > 0)
        --shct_[sig_[way]];

    const unsigned sig =
        signatureOf(pendingHasPc_ ? pendingPc_ : 0);
    ageUntilVictimExists();
    // Zero counter = confirmed streaming signature: insert distant
    // (immediately evictable). Anything else inserts long.
    rrpv_[way] = shct_[sig] == 0
        ? maxRrpv_ : (maxRrpv_ == 0 ? 0 : maxRrpv_ - 1);
    sig_[way] = sig;
    outcome_[way] = false;
    tracked_[way] = true;
    pendingHasPc_ = false;
    pendingPc_ = 0;
}

PolicyPtr
ShipPolicy::clone() const
{
    return std::make_unique<ShipPolicy>(*this);
}

std::string
ShipPolicy::stateKey() const
{
    std::string key = SrripPolicy::stateKey();
    key += ":";
    for (unsigned w = 0; w < ways_; ++w) {
        if (!tracked_[w]) {
            key += "-";
            continue;
        }
        key += std::to_string(sig_[w]);
        key += outcome_[w] ? "r" : "u";
    }
    key += ":";
    for (unsigned c : shct_)
        key += std::to_string(c);
    key += ":";
    key += pendingHasPc_ ? std::to_string(signatureOf(pendingPc_))
                         : std::string("-");
    return key;
}

unsigned
ShipPolicy::shctAt(unsigned signature) const
{
    require(signature < shct_.size(),
            "ShipPolicy::shctAt: signature out of range");
    return shct_[signature];
}

unsigned
ShipPolicy::signatureOf(uint64_t pc) const
{
    // Fibonacci multiplicative hash folded to sigBits_.
    const uint64_t h = pc * 0x9E3779B97F4A7C15ull;
    return static_cast<unsigned>(h >> (64 - sigBits_));
}

} // namespace recap::policy
