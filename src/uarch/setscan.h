/**
 * @file
 * The set scans of the flat set-associative arrays, shared by
 * SetAssocCache and TlbArray: find the way holding a key, and pick
 * the way a fill claims.
 *
 * Both scans are branch-free over the ways. A tag match is a mask
 * with one bit per way, then a count of trailing zeros; the victim
 * pick is an argmin over the LRU stamps, overridden by the first
 * invalid way. One source serves every associativity: withWays()
 * instantiates it for the Table III shapes (4, 8 and 16 ways), where
 * the loops unroll completely, and for N = 0, which reads the way
 * count at run time and scans in blocks of 64 ways (DSE geometries,
 * fully associative TLBs).
 */

#ifndef BDS_UARCH_SETSCAN_H
#define BDS_UARCH_SETSCAN_H

#include <algorithm>
#include <cstdint>
#include <type_traits>

namespace bds {

/**
 * Call `fn` with std::integral_constant<std::uint32_t, N>: N = `ways`
 * for a Table III associativity, else 0 (the run-time fallback).
 */
template <typename Fn>
inline decltype(auto)
withWays(std::uint32_t ways, Fn &&fn)
{
    switch (ways) {
      case 4: return fn(std::integral_constant<std::uint32_t, 4>{});
      case 8: return fn(std::integral_constant<std::uint32_t, 8>{});
      case 16: return fn(std::integral_constant<std::uint32_t, 16>{});
      default: return fn(std::integral_constant<std::uint32_t, 0>{});
    }
}

/**
 * First way of the set at `keys` whose key equals `key`, or -1.
 * N fixes the way count; N = 0 takes it from `ways`.
 */
template <std::uint32_t N>
inline int
findKey(const std::uint64_t *keys, std::uint64_t key, std::uint32_t ways)
{
    const std::uint32_t n = N ? N : ways;
    for (std::uint32_t b = 0; b < n; b += 64) {
        const std::uint32_t len = std::min<std::uint32_t>(64, n - b);
        std::uint64_t match = 0;
        for (std::uint32_t w = 0; w < len; ++w)
            match |= std::uint64_t(keys[b + w] == key) << w;
        if (match)
            return static_cast<int>(b + __builtin_ctzll(match));
    }
    return -1;
}

/**
 * The way a fill claims in the set at `keys`/`lru`: the first way
 * holding `invalid`, else the one with the oldest LRU stamp (the
 * first of equals).
 */
template <std::uint32_t N>
inline std::uint32_t
victimWay(const std::uint64_t *keys, const std::uint64_t *lru,
          std::uint64_t invalid, std::uint32_t ways)
{
    const std::uint32_t n = N ? N : ways;
    std::uint32_t oldest = 0;
    std::uint64_t stamp = lru[0];
    for (std::uint32_t w = 1; w < n; ++w) {
        const bool older = lru[w] < stamp;
        stamp = older ? lru[w] : stamp;
        oldest = older ? w : oldest;
    }
    const int hole = findKey<N>(keys, invalid, ways);
    return hole >= 0 ? static_cast<std::uint32_t>(hole) : oldest;
}

} // namespace bds

#endif // BDS_UARCH_SETSCAN_H
