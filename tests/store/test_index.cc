/**
 * @file
 * The LRU index file: its exact bytes, parsing the literal layout,
 * and a seeded mutational fuzz of StoreIndex::load — a mutant either
 * loads or is reported as false (rebuild), never an exception.
 */

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include <unistd.h>

#include <gtest/gtest.h>

#include "store/index.h"

#include "../mutator.h"

namespace bds {
namespace {

std::string
slurp(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(f)),
                       std::istreambuf_iterator<char>());
}

void
spit(const std::string &path, const std::string &bytes)
{
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << bytes;
}

const std::string kGolden = "BDSINDEX 1\n"
                            "entries 2\n"
                            "2 250 a.ent\n"
                            "1 100 b.ent\n"
                            "END\n";

TEST(StoreIndex, SavedBytesArePinned)
{
    const std::string path = ::testing::TempDir() + "bds_index_bytes";
    StoreIndex index;
    index.touch("b.ent", 100);
    index.touch("a.ent", 250);
    ASSERT_TRUE(index.save(path));
    EXPECT_EQ(slurp(path), kGolden);
    std::ifstream tmp(path + ".tmp." + std::to_string(::getpid()));
    EXPECT_FALSE(tmp.good());

    // The literal layout loads with its recency intact.
    spit(path, kGolden);
    StoreIndex back;
    ASSERT_TRUE(back.load(path));
    const std::vector<IndexedEntry> order = back.lruOrder();
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0].name, "b.ent");
    EXPECT_EQ(order[0].bytes, 100u);
    EXPECT_EQ(order[1].name, "a.ent");
    EXPECT_EQ(back.totalBytes(), 350u);
    std::remove(path.c_str());
}

TEST(StoreIndexMutation, MutantsLoadOrReportFalse)
{
    // Fixed seed and budget: every run tries the same mutants. A
    // mutant loads or returns false (leaving the index empty for the
    // caller's rebuild); nothing throws.
    const std::string path = ::testing::TempDir() + "bds_index_mutation";
    Mutator mut(0x696e6478ULL);
    std::size_t loaded = 0, rejected = 0;
    constexpr int kMutants = 2000;
    for (int i = 0; i < kMutants; ++i) {
        const unsigned op = static_cast<unsigned>(mut.below(4));
        std::string bytes = kGolden;
        if (op < 3)
            mut.mutate(bytes, op);
        else
            mut.inflateField(bytes, {"entries ", "\n2 ", "\n1 "});
        spit(path, bytes);
        StoreIndex index;
        try {
            if (index.load(path)) {
                ++loaded;
                index.lruOrder();
                index.totalBytes();
            } else {
                ++rejected;
                EXPECT_TRUE(index.empty()) << "mutant " << i;
            }
        } catch (const std::exception &e) {
            ADD_FAILURE() << "mutant " << i << ": threw " << e.what();
        }
    }
    std::remove(path.c_str());
    EXPECT_EQ(loaded + rejected, static_cast<std::size_t>(kMutants));
    EXPECT_GT(loaded, 0u);
    EXPECT_GT(rejected, kMutants / 2u);
}

} // namespace
} // namespace bds
