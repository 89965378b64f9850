#include "recap/policy/qlru.hh"

#include <algorithm>

#include "recap/common/bitops.hh"
#include "recap/common/error.hh"

namespace recap::policy
{

std::string
QlruParams::shortName() const
{
    std::string s;
    s += 'H';
    s += static_cast<char>('0' + static_cast<int>(hit));
    s += ",M";
    s += static_cast<char>('0' + static_cast<int>(miss));
    s += ",R";
    s += static_cast<char>('0' + static_cast<int>(replace));
    s += ",U";
    s += static_cast<char>('0' + static_cast<int>(update));
    return s;
}

QlruParams
QlruParams::parse(const std::string& text)
{
    auto bad = [&] {
        throw UsageError("QlruParams::parse: expected 'Hx,Mx,Rx,Ux', got '"
                         + text + "'");
    };
    // Expected shape: H<d>,M<d>,R<d>,U<d>
    if (text.size() != 11 || text[0] != 'H' || text[2] != ',' ||
        text[3] != 'M' || text[5] != ',' || text[6] != 'R' ||
        text[8] != ',' || text[9] != 'U') {
        bad();
    }
    const int h = text[1] - '0';
    const int m = text[4] - '0';
    const int r = text[7] - '0';
    const int u = text[10] - '0';
    if (h < 0 || h > 1 || m < 0 || m > 3 || r < 0 || r > 1 ||
        u < 0 || u > 2) {
        bad();
    }
    QlruParams p;
    p.hit = static_cast<Hit>(h);
    p.miss = static_cast<Miss>(m);
    p.replace = static_cast<Replace>(r);
    p.update = static_cast<Update>(u);
    return p;
}

std::vector<QlruParams>
QlruParams::allVariants()
{
    std::vector<QlruParams> all;
    all.reserve(2 * 4 * 2 * 3);
    for (int h = 0; h < 2; ++h) {
        for (int m = 0; m < 4; ++m) {
            for (int r = 0; r < 2; ++r) {
                for (int u = 0; u < 3; ++u) {
                    QlruParams p;
                    p.hit = static_cast<Hit>(h);
                    p.miss = static_cast<Miss>(m);
                    p.replace = static_cast<Replace>(r);
                    p.update = static_cast<Update>(u);
                    all.push_back(p);
                }
            }
        }
    }
    return all;
}

QlruPolicy::QlruPolicy(unsigned ways, QlruParams params)
    : ReplacementPolicy(ways), params_(params)
{
    require(ways >= 2, "QlruPolicy: associativity must be >= 2");
    QlruPolicy::reset();
}

void
QlruPolicy::reset()
{
    // Cold lines carry the maximal age: immediately evictable.
    age_.assign(ways_, kMaxAge);
}

void
QlruPolicy::touch(Way way)
{
    checkWay(way);
    switch (params_.hit) {
      case QlruParams::Hit::kH0:
        age_[way] = 0;
        break;
      case QlruParams::Hit::kH1:
        if (age_[way] > 0)
            --age_[way];
        break;
    }
}

Way
QlruPolicy::victim() const
{
    // All update rules choose among the maximal-age lines; they differ
    // only in which state change is committed at fill time.
    return selectVictim(age_);
}

void
QlruPolicy::fill(Way way)
{
    checkWay(way);
    switch (params_.update) {
      case QlruParams::Update::kU0:
        break;
      case QlruParams::Update::kU1:
        for (unsigned w = 0; w < ways_; ++w)
            if (w != way && age_[w] < kMaxAge)
                ++age_[w];
        break;
      case QlruParams::Update::kU2:
        normalize(age_);
        break;
    }
    age_[way] = static_cast<unsigned>(params_.miss);
}

std::string
QlruPolicy::name() const
{
    return "QLRU(" + params_.shortName() + ")";
}

PolicyPtr
QlruPolicy::clone() const
{
    return std::make_unique<QlruPolicy>(*this);
}

std::string
QlruPolicy::stateKey() const
{
    std::string key;
    key.reserve(age_.size());
    for (unsigned a : age_)
        key.push_back(static_cast<char>('0' + a));
    return key;
}

bool
QlruPolicy::packState(PackedState& out) const
{
    // Two bits per line: ages are in [0, kMaxAge].
    if (2 * age_.size() > kBits128Width)
        return false;
    BitPacker packer;
    packer.putAll(age_, 2);
    out = packer.bits();
    return true;
}

void
QlruPolicy::unpackState(const PackedState& in)
{
    BitUnpacker unpacker(in);
    unpacker.getAll(age_, 2);
}

Way
QlruPolicy::selectVictim(const std::vector<unsigned>& age) const
{
    const unsigned max_age = *std::max_element(age.begin(), age.end());
    if (params_.replace == QlruParams::Replace::kR0) {
        for (unsigned w = 0; w < ways_; ++w)
            if (age[w] == max_age)
                return w;
    } else {
        for (unsigned w = ways_; w-- > 0;)
            if (age[w] == max_age)
                return w;
    }
    return 0; // unreachable
}

void
QlruPolicy::normalize(std::vector<unsigned>& age) const
{
    const unsigned max_age = *std::max_element(age.begin(), age.end());
    if (max_age >= kMaxAge)
        return;
    const unsigned delta = kMaxAge - max_age;
    for (auto& a : age)
        a += delta;
}

} // namespace recap::policy
