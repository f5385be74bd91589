/**
 * @file
 * Seeded byte-level mutations for the on-disk parser fuzz tests: one
 * seed file, a fixed seed and a fixed budget, so every run tries the
 * same mutants. The operations are byte flips, truncation, splice
 * and length inflation of a "<key> <n>" field.
 */

#ifndef BDS_TESTS_MUTATOR_H
#define BDS_TESTS_MUTATOR_H

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "common/rng.h"

namespace bds {

class Mutator
{
  public:
    explicit Mutator(std::uint64_t seed) : rng_(seed) {}

    /** A uniform draw in [0, n), n > 0. */
    std::size_t below(std::size_t n)
    {
        return static_cast<std::size_t>(
            rng_.next64() % static_cast<std::uint64_t>(n));
    }

    /** `n` pushed just past, far past, or to an extreme value. */
    std::uint64_t inflated(std::uint64_t n)
    {
        const std::uint64_t kMax = ~std::uint64_t(0);
        const std::uint64_t picks[] = {n + 1, 2 * n + 7, 1ull << 32,
                                       1ull << 62, kMax / 26 + 1, kMax,
                                       rng_.next64()};
        return picks[below(std::size(picks))];
    }

    /**
     * Op 0 flips one to four bytes, op 1 truncates, op 2 splices a
     * suffix from a random point onto a random prefix. `b` must be
     * non-empty.
     */
    void mutate(std::string &b, unsigned op)
    {
        if (op == 0) {
            for (std::size_t k = 1 + below(4); k > 0; --k)
                b[below(b.size())] ^= static_cast<char>(1 + below(255));
        } else if (op == 1) {
            b.resize(below(b.size()));
        } else {
            const std::size_t cut = below(b.size());
            const std::size_t from = below(b.size());
            b = b.substr(0, cut) + b.substr(from);
        }
    }

    /**
     * Inflate the decimal value that follows one of `keys` (each must
     * occur in `b`, its value ending at a space or a newline).
     */
    void inflateField(std::string &b, const std::vector<std::string> &keys)
    {
        const std::string &k = keys[below(keys.size())];
        const std::size_t at = b.find(k) + k.size();
        const std::size_t nl = b.find_first_of(" \n", at);
        b.replace(at, nl - at,
                  std::to_string(inflated(std::stoull(b.substr(at, nl - at)))));
    }

  private:
    Pcg32 rng_;
};

} // namespace bds

#endif // BDS_TESTS_MUTATOR_H
