/**
 * @file
 * The checkpoint encoding of a set-associative array's contents,
 * shared by SetAssocCache and TlbArray (docs/CHECKPOINT.md, "The
 * state encoding").
 *
 * A tag width byte W (1-8); then every set's valid bitmap, in set
 * order, ceil(assoc / 8) bytes each (bit w % 8 of byte w / 8 is way
 * w; bits past assoc are zero); then every valid line, in set and
 * way order: its key divided by the set count in W little-endian
 * bytes (the set is implied by the position; W is the fewest bytes
 * that hold every quotient of the array), its LRU rank within the set
 * (0 is the least recently used) in one byte, or two or four when the
 * associativity needs them, and the owner's per-line byte if it keeps
 * one (the cache's state and flags). Fixed widths and the bitmaps
 * up front let the restore size and bounds-check the whole run once
 * and walk each set's lines without data-dependent parsing.
 *
 * Why ranks keep every victim: victim choice compares stamps only
 * within one set, and every fill or hit takes ++tick. Restoring tick
 * and rank + 1 as each stamp keeps every within-set order, and every
 * later stamp exceeds every restored one, because rank + 1 <= tick (a
 * set holding k lines has seen at least k fills). So a restored array
 * picks the victims the uninterrupted one does, and it re-encodes to
 * the same bytes.
 */

#ifndef BDS_UARCH_WAYS_H
#define BDS_UARCH_WAYS_H

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "ckpt/state.h"

namespace bds {

/**
 * Set bits of `x`. std::popcount is a libgcc call on a baseline x86-64
 * build (no POPCNT), too slow for once per cache set.
 */
inline unsigned
bitCount(std::uint64_t x)
{
    x -= (x >> 1) & 0x5555555555555555ULL;
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
    return static_cast<unsigned>((x * 0x0101010101010101ULL) >> 56);
}

/** Bytes an LRU rank below `assoc` takes: 1, 2 or 4. */
inline std::size_t
rankBytes(std::uint32_t assoc)
{
    return assoc <= 0x100 ? 1 : assoc <= 0x10000 ? 2 : 4;
}

/**
 * Append every set of the flat per-slot arrays `keys` (line address
 * or page; `invalid` marks an empty way) and `lru` (stamps), indexed
 * set * assoc + way, plus each valid line's `extra` byte when the
 * owner keeps one (null otherwise). `quot(key)` is key / num_sets
 * (the owner knows a divide-free form).
 */
template <typename Quot>
void
saveWays(StateSink &sink, const std::uint64_t *keys,
         const std::uint64_t *lru, const std::uint8_t *extra,
         std::uint64_t num_sets, std::uint32_t assoc,
         std::uint64_t invalid, Quot &&quot)
{
    const std::size_t map_bytes = (assoc + 7) / 8;
    const std::size_t rank_bytes = rankBytes(assoc);
    std::uint64_t valid = 0, widest = 0;
    for (std::uint64_t i = 0; i < num_sets * assoc; ++i)
        if (keys[i] != invalid) {
            ++valid;
            widest |= quot(keys[i]);
        }
    const std::size_t tag_bytes =
        std::max<std::size_t>(1, (std::bit_width(widest) + 7) / 8);
    sink.u8(static_cast<std::uint8_t>(tag_bytes));
    // Exact size plus the 8 bytes of room uint() writes need.
    RecordWriter out = sink.records(
        num_sets * map_bytes
            + valid * (tag_bytes + rank_bytes + (extra ? 1 : 0)) + 8, 1);
    for (std::uint64_t s = 0; s < num_sets; ++s)
        for (std::uint32_t b = 0; b < map_bytes; ++b) {
            unsigned bits = 0;
            for (std::uint32_t w = 8 * b; w < assoc && w < 8 * b + 8; ++w)
                if (keys[s * assoc + w] != invalid)
                    bits |= 1u << (w % 8);
            out.u8(static_cast<std::uint8_t>(bits));
        }
    std::vector<std::uint32_t> order(assoc);
    std::vector<std::uint32_t> rank(assoc);
    for (std::uint64_t s = 0; s < num_sets; ++s) {
        const std::uint64_t base = s * assoc;
        std::uint32_t k = 0;
        for (std::uint32_t w = 0; w < assoc; ++w)
            if (keys[base + w] != invalid)
                order[k++] = w;
        // Insertion sort by stamp (distinct within a set: each is a
        // ++tick); sets are small.
        for (std::uint32_t r = 1; r < k; ++r) {
            const std::uint32_t w = order[r];
            std::uint32_t j = r;
            for (; j > 0 && lru[base + order[j - 1]] > lru[base + w]; --j)
                order[j] = order[j - 1];
            order[j] = w;
        }
        for (std::uint32_t r = 0; r < k; ++r)
            rank[order[r]] = r;
        for (std::uint32_t w = 0; w < assoc; ++w) {
            const std::uint64_t i = base + w;
            if (keys[i] == invalid)
                continue;
            out.uint(quot(keys[i]), tag_bytes);
            out.uint(rank[w], rank_bytes);
            if (extra)
                out.u8(extra[i]);
        }
    }
    sink.trim(out);
}

/**
 * Restore a saveWays() run into the arrays: clear the keys whole (a
 * memset costs less than storing to each slot of a megabytes-large
 * array), then fill in each valid line. With `line_bytes` 1 the owner
 * keeps a per-line byte: `clear()` clears its arrays first and
 * `line(slot, byte)` restores a valid slot from the byte. Returns the
 * OR of every line byte, for the owner to check. Error(Io) on a tag
 * width outside 1-8, truncation, a stray bitmap bit, a set holding
 * more lines than `tick` allows, a key that overflows or lands on
 * `invalid`, and a duplicate or out-of-range rank.
 */
template <typename Clear, typename Line>
std::uint8_t
loadWays(StateSource &src, std::uint64_t *__restrict keys,
         std::uint64_t *__restrict lru, std::uint64_t num_sets,
         std::uint32_t assoc, std::uint64_t invalid, std::uint64_t tick,
         std::size_t line_bytes, Clear &&clear, Line &&line)
{
    const std::size_t tag_bytes = src.u8();
    if (tag_bytes < 1 || tag_bytes > 8)
        src.fail("tag width " + std::to_string(tag_bytes)
                 + " is outside 1-8 bytes");
    const std::size_t rank_bytes = rankBytes(assoc);
    const std::size_t rec = tag_bytes + rank_bytes + line_bytes;
    const std::uint64_t tag_mask =
        tag_bytes == 8 ? ~0ULL : (1ULL << (8 * tag_bytes)) - 1;
    const std::uint64_t rank_mask = (1ULL << (8 * rank_bytes)) - 1;
    // q <= max_quot keeps q * num_sets + set below `invalid`.
    const std::uint64_t max_quot = (invalid - num_sets) / num_sets;
    const std::size_t map_bytes = (assoc + 7) / 8;
    const std::size_t words = (assoc + 63) / 64;

    // The bitmaps, then the run of lines they size.
    const std::string_view in = src.rest();
    if (in.size() / map_bytes < num_sets)
        src.fail("truncated valid bitmaps");
    const char *const maps = in.data();
    const char *const lines = maps + num_sets * map_bytes;
    const char *const end = in.data() + in.size();
    const unsigned stray = assoc % 8 ? 0xffu << (assoc % 8) & 0xffu : 0u;
    std::uint64_t total = 0;
    for (std::uint64_t s = 0; s < num_sets; ++s) {
        const char *map = maps + s * map_bytes;
        if (stray && (static_cast<std::uint8_t>(map[map_bytes - 1]) & stray))
            src.fail("valid bitmap of set " + std::to_string(s)
                     + " marks a way past the associativity");
        for (std::size_t b = 0; b < map_bytes; ++b)
            total += bitCount(static_cast<std::uint8_t>(map[b]));
    }
    if (static_cast<std::uint64_t>(end - lines) / rec < total)
        src.fail("bitmaps mark " + std::to_string(total)
                 + " lines but the payload holds fewer");

    // An empty way's stamp is never read (a victim scan stops at the
    // first empty way), so only the keys need clearing.
    const std::uint64_t slots = num_sets * assoc;
    if (invalid == ~0ULL)
        std::memset(keys, 0xff, slots * sizeof(*keys));
    else
        std::fill(keys, keys + slots, invalid);
    clear();

    const std::uint64_t last_word = assoc % 64
        ? (std::uint64_t(1) << (assoc % 64)) - 1 : ~0ULL;
    // Every set's lines. `load(r, n, mask)` reads an n-byte field;
    // `small` (up to 64 ways) keeps the ranks seen in a register.
    std::uint8_t line_or = 0;
    auto decode = [&](auto load, auto small) {
        constexpr bool kSmall = decltype(small)::value;
        std::vector<std::uint64_t> seen_high(kSmall ? 0 : words);
        const char *r = lines;
        for (std::uint64_t s = 0; s < num_sets; ++s) {
            const std::uint64_t base = s * assoc;
            const char *map = maps + s * map_bytes;
            // Ways 64c to 64c + 63 of the bitmap.
            auto word = [&](std::size_t c) {
                return c + 1 < words
                    ? load(map + 8 * c, 8, ~0ULL)
                    : load(map + 8 * c, map_bytes - 8 * c, last_word);
            };
            std::uint32_t k = 0;
            for (std::size_t c = 0; c < words; ++c)
                k += bitCount(word(c));
            if (k > tick)
                src.fail("set " + std::to_string(s) + " holds "
                         + std::to_string(k)
                         + " lines but the LRU clock is "
                         + std::to_string(tick));
            std::uint64_t seen = 0;
            bool bad = false;
            if constexpr (!kSmall)
                std::fill(seen_high.begin(), seen_high.end(), 0);
            for (std::size_t c = 0; c < words; ++c) {
                for (std::uint64_t bits = word(c); bits != 0;
                     bits &= bits - 1) {
                    const std::uint64_t i = base + 64 * c
                        + static_cast<unsigned>(std::countr_zero(bits));
                    const std::uint64_t q = load(r, tag_bytes, tag_mask);
                    const std::uint64_t rank =
                        load(r + tag_bytes, rank_bytes, rank_mask);
                    bad |= (q > max_quot) | (rank >= k);
                    if constexpr (kSmall)
                        seen |= std::uint64_t(1) << (rank & 63);
                    else if (rank < k)
                        seen_high[rank / 64] |= std::uint64_t(1)
                            << (rank % 64);
                    keys[i] = q * num_sets + s;
                    lru[i] = rank + 1;
                    if (line_bytes) {
                        const auto b = static_cast<std::uint8_t>(
                            r[tag_bytes + rank_bytes]);
                        line_or |= b;
                        line(i, b);
                    }
                    r += rec;
                }
            }
            // k ranks below k are distinct exactly when k bits are set.
            std::uint32_t ranks = bitCount(seen);
            for (std::uint64_t b : seen_high)
                ranks += bitCount(b);
            if (bad || ranks != k)
                src.fail("set " + std::to_string(s)
                         + " holds a tag out of range or LRU ranks that"
                           " are not 0 to "
                         + std::to_string(k) + " - 1");
        }
        src.skip(static_cast<std::size_t>(r - in.data()));
    };
    // An 8-byte load per field needs 8 bytes after the last line; a
    // structure saved on its own (not inside a SystemModel payload,
    // whose every array has other sections after it) may lack them.
    if (assoc <= 64 && end - (lines + total * rec) >= 8)
        decode([](const char *r, std::size_t, std::uint64_t mask) {
                   return loadLe64(r) & mask;
               },
               std::true_type{});
    else
        decode([](const char *r, std::size_t n, std::uint64_t) {
                   std::uint64_t v = 0;
                   for (std::size_t b = 0; b < n; ++b)
                       v |= std::uint64_t(static_cast<std::uint8_t>(r[b]))
                           << (8 * b);
                   return v;
               },
               std::false_type{});
    return line_or;
}

} // namespace bds

#endif // BDS_UARCH_WAYS_H
