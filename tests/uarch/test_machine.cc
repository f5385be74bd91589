/**
 * @file
 * Machine-axis tests: the preset registry (stable order, valid
 * geometry, distinct canonical renderings), the spec grammar
 * (presets, overrides, suffixes, typed rejection of typos), the
 * construction-time geometry validator, the canonical one-line
 * rendering the result store hashes, and the spec parser as a fuzz
 * target (seeded mutants resolve to a valid machine or raise a typed
 * error).
 */

#include <set>
#include <string>

#include <gtest/gtest.h>

#include "fault/error.h"
#include "uarch/machine.h"
#include "../mutator.h"

namespace bds {
namespace {

TEST(Machine, RegistryLeadsWithDefaultAndCoversTheSweep)
{
    const std::vector<MachinePreset> &all = machinePresets();
    ASSERT_GE(all.size(), 8u);
    // Index 0 is the record's default: a request line without
    // machine= means the default preset.
    EXPECT_EQ(all[0].name, "default");
    EXPECT_TRUE(isDefaultMachine(all[0].config));
    // The sweep needs variation on every axis the tech report varies.
    EXPECT_NE(findMachinePreset("westmere"), nullptr);
    EXPECT_NE(findMachinePreset("l2-512k"), nullptr);
    EXPECT_NE(findMachinePreset("l3-4m"), nullptr);
    EXPECT_NE(findMachinePreset("cores-2"), nullptr);
    EXPECT_NE(findMachinePreset("gshare-8"), nullptr);

    std::set<std::string> names, texts;
    for (const MachinePreset &p : all) {
        EXPECT_FALSE(p.summary.empty()) << p.name;
        // Every preset is valid geometry...
        EXPECT_NO_THROW(validateMachineConfig(p.config)) << p.name;
        names.insert(p.name);
        texts.insert(canonicalMachineText(p.config));
    }
    // ...uniquely named, and no two alias the same geometry (which
    // would waste sweep cells and collide store keys by design).
    EXPECT_EQ(names.size(), all.size());
    EXPECT_EQ(texts.size(), all.size());
}

TEST(Machine, PresetIndexMatchesRegistryOrder)
{
    const std::vector<MachinePreset> &all = machinePresets();
    for (std::size_t i = 0; i < all.size(); ++i)
        EXPECT_EQ(machinePresetIndex(all[i].name), i);
    EXPECT_THROW(machinePresetIndex("not-a-preset"), Error);
}

TEST(Machine, WestmereIsThePaperMachine)
{
    const NodeConfig cfg = NodeConfig::westmere();
    // One socket of the dual E5645 node: 6 cores, Table III geometry.
    EXPECT_EQ(cfg.numCores, 6u);
    EXPECT_EQ(cfg.l1d.sizeBytes, 32u * 1024);
    EXPECT_EQ(cfg.l2.sizeBytes, 256u * 1024);
    EXPECT_EQ(cfg.l3.sizeBytes, 12u * 1024 * 1024);
    EXPECT_NO_THROW(validateMachineConfig(cfg));
    // The registry preset and the NodeConfig factory agree.
    EXPECT_EQ(canonicalMachineText(machineByName("westmere")),
              canonicalMachineText(cfg));
}

TEST(Machine, SpecResolvesPresetsAndOverrides)
{
    // Empty and "default" are the Table III default machine.
    EXPECT_TRUE(isDefaultMachine(resolveMachineSpec("")));
    EXPECT_TRUE(isDefaultMachine(resolveMachineSpec("default")));

    // Bare overrides apply to the default.
    NodeConfig big = resolveMachineSpec("l2=512k");
    EXPECT_EQ(big.l2.sizeBytes, 512u * 1024);
    EXPECT_EQ(big.l3.sizeBytes, 12u * 1024 * 1024);

    // preset,overrides composes left to right.
    NodeConfig w = resolveMachineSpec("westmere,cores=4,l3=24m");
    EXPECT_EQ(w.numCores, 4u);
    EXPECT_EQ(w.l3.sizeBytes, 24u * 1024 * 1024);

    // Suffixes and '-'/'_' key spellings.
    EXPECT_EQ(resolveMachineSpec("l1d=65536").l1d.sizeBytes,
              resolveMachineSpec("l1d=64k").l1d.sizeBytes);
    EXPECT_EQ(resolveMachineSpec("l1d-assoc=4").l1d.assoc,
              resolveMachineSpec("l1d_assoc=4").l1d.assoc);

    // A spec that spells out the default resolves to it exactly.
    EXPECT_TRUE(isDefaultMachine(resolveMachineSpec("cores=4,l2=256k")));
}

TEST(Machine, SpecTyposAreTypedErrors)
{
    // An unknown preset name must never silently become the default
    // — and a leading token without '=' IS a preset name, so a typo'd
    // key=value separator surfaces as UnknownName too.
    for (const char *spec : {"westmore", "l2:512k"}) {
        try {
            resolveMachineSpec(spec);
            FAIL() << "expected UnknownName for: " << spec;
        } catch (const Error &e) {
            EXPECT_EQ(e.code(), ErrorCode::UnknownName) << spec;
        }
    }
    const char *bad[] = {
        "westmere,l3:4m",   // override token not key=value
        "frobnicate=1",     // unknown key
        "cores=four",       // malformed value
        "cores=0",          // invalid geometry
        "cores=65",         // beyond the snoop bitmask
        "l2=1000",          // does not divide into whole sets
        "line=48",          // non-pow2 line
        "history=0",        // degenerate gshare
        "history=40",       // oversized gshare
        "l2=512k,,cores=2", // empty element
        "l3-4m,",           // trailing comma
    };
    for (const char *spec : bad) {
        try {
            resolveMachineSpec(spec);
            FAIL() << "expected InvalidConfig for: " << spec;
        } catch (const Error &e) {
            EXPECT_EQ(e.code(), ErrorCode::InvalidConfig) << spec;
        }
    }
}

TEST(Machine, ValidatorRejectsImpossibleGeometry)
{
    EXPECT_NO_THROW(validateMachineConfig(NodeConfig::defaultSim()));

    NodeConfig page = NodeConfig::defaultSim();
    page.pageBytes = 32; // smaller than a 64 B line
    EXPECT_THROW(validateMachineConfig(page), Error);

    NodeConfig tlb = NodeConfig::defaultSim();
    tlb.stlb = {510, 4}; // entries not divisible by assoc
    EXPECT_THROW(validateMachineConfig(tlb), Error);

    NodeConfig lines = NodeConfig::defaultSim();
    lines.l2.lineBytes = 128; // levels disagree on line size
    EXPECT_THROW(validateMachineConfig(lines), Error);

    NodeConfig issue = NodeConfig::defaultSim();
    issue.issueWidth = 0;
    EXPECT_THROW(validateMachineConfig(issue), Error);
}

TEST(Machine, CanonicalTextIsSpellingIndependent)
{
    // The store key hashes the rendering, so every spelling of one
    // machine must render to the same bytes.
    EXPECT_EQ(canonicalMachineText(resolveMachineSpec("default")),
              canonicalMachineText(resolveMachineSpec("")));
    EXPECT_EQ(canonicalMachineText(resolveMachineSpec("l2=524288")),
              canonicalMachineText(resolveMachineSpec("l2=512k")));
    EXPECT_NE(canonicalMachineText(resolveMachineSpec("l2=512k")),
              canonicalMachineText(resolveMachineSpec("default")));
    // One line, fixed leading field, no newline.
    const std::string text =
        canonicalMachineText(NodeConfig::defaultSim());
    EXPECT_EQ(text.rfind("cores=4 ", 0), 0u) << text;
    EXPECT_EQ(text.find('\n'), std::string::npos);
}

TEST(Machine, SlugIsFilesystemSafe)
{
    EXPECT_EQ(machineSlug("default"), "default");
    const std::string slug = machineSlug("westmere,l2=512k");
    EXPECT_EQ(slug.find_first_not_of(
                  "abcdefghijklmnopqrstuvwxyz0123456789-"),
              std::string::npos)
        << slug;
}

TEST(Machine, DescribeMentionsTheHeadlineNumbers)
{
    const std::string text =
        describeMachine(NodeConfig::defaultSim());
    EXPECT_NE(text.find("4 cores"), std::string::npos) << text;
    EXPECT_NE(text.find("12M"), std::string::npos) << text;
}

TEST(Machine, OversizedSizesAreOutOfRangeNotWrapped)
{
    // Each of these used to wrap uint64_t silently (99999999999g
    // resolved to a ~14 PB L3); every one is now a typed
    // InvalidConfig naming the range.
    for (const char *spec : {
             "l3=99999999999g",          // digits fit, the suffix wraps
             "l3=18446744073709551616",  // 2^64: the digits wrap
             "l3=99999999999999999999",  // far past 2^64
             "l2=18446744073709551615k", // UINT64_MAX, then the suffix
             "westmere,l1d=17179869184g" // 2^34 GiB
         }) {
        try {
            resolveMachineSpec(spec);
            FAIL() << "expected InvalidConfig for: " << spec;
        } catch (const Error &e) {
            EXPECT_EQ(e.code(), ErrorCode::InvalidConfig) << spec;
            EXPECT_NE(std::string(e.what()).find("out of range"),
                      std::string::npos)
                << e.what();
        }
    }
    // The largest value that fits is still a parse, left to the
    // geometry validator to judge.
    try {
        resolveMachineSpec("l3=18446744073709551615");
        FAIL() << "an L3 of 2^64-1 bytes is not a valid geometry";
    } catch (const Error &e) {
        EXPECT_EQ(std::string(e.what()).find("out of range"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Machine, UnknownPresetPointsAtTheRegistryListing)
{
    try {
        machineByName("westmore");
        FAIL() << "expected UnknownName";
    } catch (const Error &e) {
        EXPECT_EQ(e.code(), ErrorCode::UnknownName);
        EXPECT_NE(std::string(e.what()).find("repro table3"),
                  std::string::npos)
            << e.what();
    }
}

TEST(MachineSpecMutation, MutantsResolveValidOrRaiseTyped)
{
    // Fixed seed and budget: every run tries the same mutants of a
    // preset-plus-overrides spec. Byte flips, truncation and splices,
    // plus an appended override with an inflated size. A spec that
    // resolves must be a valid geometry; one that does not must raise
    // InvalidConfig or UnknownName, never anything else.
    const std::string seed =
        "westmere,cores=4,l2=512k,l3=24m,l3_assoc=16,line=64,"
        "dtlb=64,history=12,lfb=10";
    ASSERT_NO_THROW(validateMachineConfig(resolveMachineSpec(seed)));
    const char *keys[] = {"cores", "l1d", "l2", "l3", "l2_assoc",
                          "line", "itlb", "page", "history", "issue"};
    const char *suffixes[] = {"", "k", "m", "g"};
    Mutator mut(0x73706563ULL);
    std::size_t resolved = 0;
    constexpr int kMutants = 2000;
    for (int i = 0; i < kMutants; ++i) {
        std::string spec = seed;
        const unsigned op = static_cast<unsigned>(mut.below(4));
        if (op < 3)
            mut.mutate(spec, op);
        else
            spec += std::string(",") + keys[mut.below(std::size(keys))]
                + '='
                + std::to_string(mut.inflated(mut.below(1u << 20)))
                + suffixes[mut.below(std::size(suffixes))];
        try {
            const NodeConfig cfg = resolveMachineSpec(spec);
            EXPECT_NO_THROW(validateMachineConfig(cfg)) << spec;
            ++resolved;
        } catch (const Error &e) {
            EXPECT_TRUE(e.code() == ErrorCode::InvalidConfig
                        || e.code() == ErrorCode::UnknownName)
                << "mutant " << i << " (" << spec << "): " << e.what();
        } catch (const std::exception &e) {
            ADD_FAILURE() << "mutant " << i << " (" << spec
                          << ") threw " << e.what();
        }
    }
    EXPECT_GT(resolved, 0u);
    EXPECT_LT(resolved, static_cast<std::size_t>(kMutants));
}

} // namespace
} // namespace bds
