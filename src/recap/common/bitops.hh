/**
 * @file
 * Small bit-manipulation helpers: the cache geometry arithmetic and
 * the fixed-width field packing of policy control states.
 */

#ifndef RECAP_COMMON_BITOPS_HH_
#define RECAP_COMMON_BITOPS_HH_

#include <bit>
#include <cstddef>
#include <cstdint>

namespace recap
{

/** Returns true iff @p x is a power of two (0 is not). */
constexpr bool
isPowerOfTwo(uint64_t x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

/** Returns floor(log2(x)); requires x > 0. */
constexpr unsigned
log2Floor(uint64_t x)
{
    return x == 0 ? 0 : static_cast<unsigned>(std::bit_width(x)) - 1;
}

/** Returns ceil(log2(x)); requires x > 0. */
constexpr unsigned
log2Ceil(uint64_t x)
{
    return x <= 1 ? 0 : log2Floor(x - 1) + 1;
}

/** Rounds @p x down to a multiple of @p align (align must be pow2). */
constexpr uint64_t
alignDown(uint64_t x, uint64_t align)
{
    return x & ~(align - 1);
}

/** Rounds @p x up to a multiple of @p align (align must be pow2). */
constexpr uint64_t
alignUp(uint64_t x, uint64_t align)
{
    return (x + align - 1) & ~(align - 1);
}

/** Extracts bits [lo, lo+len) of @p x. */
constexpr uint64_t
bitField(uint64_t x, unsigned lo, unsigned len)
{
    return len >= 64 ? (x >> lo) : ((x >> lo) & ((uint64_t{1} << len) - 1));
}

/** Returns the number of set bits in @p x. */
constexpr unsigned
popCount(uint64_t x)
{
    unsigned n = 0;
    while (x) {
        x &= x - 1;
        ++n;
    }
    return n;
}

/** Mask of the low @p width bits (all ones at width >= 64). */
constexpr uint64_t
lowMask(unsigned width)
{
    return width >= 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
}

/** A 128-bit value as two 64-bit words, low word first. */
struct Bits128
{
    uint64_t lo = 0;
    uint64_t hi = 0;

    bool operator==(const Bits128&) const = default;
};

/** Width of a Bits128 in bits. */
constexpr unsigned kBits128Width = 128;

/**
 * Appends fixed-width fields to a Bits128, lowest bits first. The
 * caller checks that the fields fit in 128 bits before packing; a
 * field may straddle the word boundary.
 */
class BitPacker
{
  public:
    /** Appends the low @p width (<= 64) bits of @p value. */
    void put(uint64_t value, unsigned width)
    {
        if (width == 0)
            return;
        value &= lowMask(width);
        if (used_ >= 64) {
            bits_.hi |= value << (used_ - 64);
        } else {
            bits_.lo |= value << used_;
            if (used_ + width > 64)
                bits_.hi |= value >> (64 - used_);
        }
        used_ += width;
    }

    /** Appends every element of @p values, @p width bits each. */
    template <class Seq>
    void putAll(const Seq& values, unsigned width)
    {
        // Gather fields into 64-bit chunks first: one put() per chunk.
        const uint64_t mask = lowMask(width);
        uint64_t chunk = 0;
        unsigned chunkBits = 0;
        for (std::size_t i = 0; i < values.size(); ++i) {
            if (chunkBits + width > 64) {
                put(chunk, chunkBits);
                chunk = 0;
                chunkBits = 0;
            }
            chunk |= (static_cast<uint64_t>(values[i]) & mask)
                     << chunkBits;
            chunkBits += width;
        }
        put(chunk, chunkBits);
    }

    const Bits128& bits() const { return bits_; }

  private:
    Bits128 bits_;
    unsigned used_ = 0;
};

/**
 * Reads back the fields a BitPacker wrote, in the same order: a
 * 128-bit shift register that drops each field as it is read.
 */
class BitUnpacker
{
  public:
    explicit BitUnpacker(const Bits128& bits)
        : lo_(bits.lo), hi_(bits.hi)
    {}

    /** Next field of @p width (<= 64) bits. */
    uint64_t get(unsigned width)
    {
        if (width == 0)
            return 0;
        const uint64_t value = lo_ & lowMask(width);
        if (width == 64) {
            lo_ = hi_;
            hi_ = 0;
        } else {
            lo_ = (lo_ >> width) | (hi_ << (64 - width));
            hi_ >>= width;
        }
        return value;
    }

    /** Overwrites every element of @p values, @p width bits each. */
    template <class Seq>
    void getAll(Seq& values, unsigned width)
    {
        using Value = typename Seq::value_type;
        std::size_t i = 0;
        // Fast path once every remaining field sits in the low word.
        for (; i < values.size() && hi_ != 0; ++i)
            values[i] = static_cast<Value>(get(width));
        if (width == 0 || width == 64) {
            for (; i < values.size(); ++i)
                values[i] = static_cast<Value>(get(width));
            return;
        }
        const uint64_t mask = lowMask(width);
        for (; i < values.size(); ++i) {
            values[i] = static_cast<Value>(lo_ & mask);
            lo_ >>= width;
        }
    }

  private:
    uint64_t lo_;
    uint64_t hi_;
};

} // namespace recap

#endif // RECAP_COMMON_BITOPS_HH_
