#include "uarch/machine.h"

#include <cctype>
#include <cstdio>
#include <sstream>

#include "fault/error.h"

namespace bds {

namespace {

/** True for 0-free powers of two. */
bool
isPow2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** Strict non-negative decimal with optional k/m/g suffix. */
std::uint64_t
parseSize(const std::string &key, const std::string &value)
{
    if (value.empty())
        BDS_RAISE(ErrorCode::InvalidConfig,
                  "machine spec: empty value for '" << key << "'");
    std::uint64_t mult = 1;
    std::string digits = value;
    switch (digits.back()) {
    case 'k': case 'K': mult = 1024ULL; break;
    case 'm': case 'M': mult = 1024ULL * 1024; break;
    case 'g': case 'G': mult = 1024ULL * 1024 * 1024; break;
    default: break;
    }
    if (mult != 1)
        digits.pop_back();
    if (digits.empty())
        BDS_RAISE(ErrorCode::InvalidConfig,
                  "machine spec: '" << key << "=" << value
                                    << "' has no digits");
    std::uint64_t out = 0;
    auto outOfRange = [&] {
        BDS_RAISE(ErrorCode::InvalidConfig,
                  "machine spec: '" << key << "=" << value
                                    << "' is out of range");
    };
    for (char c : digits) {
        if (!std::isdigit(static_cast<unsigned char>(c)))
            BDS_RAISE(ErrorCode::InvalidConfig,
                      "machine spec: '" << key << "=" << value
                                        << "' is not an integer");
        const std::uint64_t d = static_cast<std::uint64_t>(c - '0');
        if (out > (UINT64_MAX - d) / 10)
            outOfRange();
        out = out * 10 + d;
    }
    if (out > UINT64_MAX / mult)
        outOfRange();
    return out * mult;
}

/** Cache geometry sanity shared by every level. */
void
validateCache(const char *name, const CacheConfig &c)
{
    if (!isPow2(c.lineBytes))
        BDS_RAISE(ErrorCode::InvalidConfig,
                  "machine: " << name << " line size " << c.lineBytes
                              << " is not a power of two");
    if (c.sizeBytes == 0 || c.assoc == 0)
        BDS_RAISE(ErrorCode::InvalidConfig,
                  "machine: " << name
                              << " needs nonzero capacity and ways");
    const std::uint64_t setBytes =
        static_cast<std::uint64_t>(c.assoc) * c.lineBytes;
    if (c.sizeBytes % setBytes != 0)
        BDS_RAISE(ErrorCode::InvalidConfig,
                  "machine: " << name << " capacity " << c.sizeBytes
                              << " does not divide into " << c.assoc
                              << "-way sets of " << c.lineBytes
                              << "-byte lines");
}

/** TLB geometry sanity. */
void
validateTlb(const char *name, const TlbConfig &t)
{
    if (t.entries == 0 || t.assoc == 0 || t.entries % t.assoc != 0)
        BDS_RAISE(ErrorCode::InvalidConfig,
                  "machine: " << name << " TLB " << t.entries << "/"
                              << t.assoc
                              << " does not divide into whole sets");
}

/** Build the registry once; validated so a bad preset is a bug. */
std::vector<MachinePreset>
buildPresets()
{
    std::vector<MachinePreset> out;
    auto add = [&](const std::string &name, const std::string &summary,
                   NodeConfig cfg) {
        validateMachineConfig(cfg);
        out.push_back({name, summary, cfg});
    };
    const NodeConfig base = NodeConfig::defaultSim();

    add("default", "Table III geometry, 4 cores (the sim default)",
        base);
    add("westmere",
        "the paper machine: one E5645 socket, 6 cores, Table III",
        NodeConfig::westmere());

    {   // L1 capacity sweep (both I and D sides move together).
        NodeConfig c = base;
        c.l1i.sizeBytes = c.l1d.sizeBytes = 16 * 1024;
        add("l1-16k", "halved 16 KB split L1s", c);
        c = base;
        c.l1i.sizeBytes = c.l1d.sizeBytes = 64 * 1024;
        add("l1-64k", "doubled 64 KB split L1s", c);
    }
    {   // Private L2 capacity sweep.
        NodeConfig c = base;
        c.l2.sizeBytes = 128 * 1024;
        add("l2-128k", "halved 128 KB private L2", c);
        c = base;
        c.l2.sizeBytes = 512 * 1024;
        add("l2-512k", "doubled 512 KB private L2", c);
        c = base;
        c.l2.sizeBytes = 1024 * 1024;
        add("l2-1m", "1 MB private L2", c);
    }
    {   // Shared L3 capacity sweep. 4 MB and 8 MB give power-of-two
        // set counts; 24 MB keeps the factor-3 set count the Table
        // III 12 MB has — together they cover every set-index path.
        NodeConfig c = base;
        c.l3.sizeBytes = 4 * 1024 * 1024;
        add("l3-4m", "third-sized 4 MB shared L3", c);
        c = base;
        c.l3.sizeBytes = 8 * 1024 * 1024;
        add("l3-8m", "8 MB shared L3", c);
        c = base;
        c.l3.sizeBytes = 24 * 1024 * 1024;
        add("l3-24m", "doubled 24 MB shared L3", c);
    }
    {   // Core-count sweep (L3 and its snoop set stay shared).
        NodeConfig c = base;
        c.numCores = 2;
        add("cores-2", "2 cores on the Table III memory system", c);
        c = base;
        c.numCores = 8;
        add("cores-8", "8 cores on the Table III memory system", c);
    }
    {   // Branch-predictor size sweep.
        NodeConfig c = base;
        c.historyBits = 8;
        add("gshare-8", "small 8-bit-history gshare predictor", c);
        c = base;
        c.historyBits = 16;
        add("gshare-16", "large 16-bit-history gshare predictor", c);
    }
    return out;
}

} // namespace

const std::vector<MachinePreset> &
machinePresets()
{
    static const std::vector<MachinePreset> presets = buildPresets();
    return presets;
}

const MachinePreset *
findMachinePreset(const std::string &name)
{
    for (const MachinePreset &p : machinePresets())
        if (p.name == name)
            return &p;
    return nullptr;
}

NodeConfig
machineByName(const std::string &name)
{
    const MachinePreset *p = findMachinePreset(name);
    if (!p)
        BDS_RAISE(ErrorCode::UnknownName,
                  "unknown machine preset '"
                      << name
                      << "' (`repro table3` lists the registry)");
    return p->config;
}

std::size_t
machinePresetIndex(const std::string &name)
{
    const std::vector<MachinePreset> &all = machinePresets();
    for (std::size_t i = 0; i < all.size(); ++i)
        if (all[i].name == name)
            return i;
    BDS_RAISE(ErrorCode::UnknownName,
              "unknown machine preset '" << name
                                         << "' (no wire index)");
}

NodeConfig
resolveMachineSpec(const std::string &spec)
{
    NodeConfig cfg = NodeConfig::defaultSim();
    if (spec.empty() || spec == "default") {
        validateMachineConfig(cfg);
        return cfg;
    }

    const std::vector<std::string> tokens =
        splitList("machine spec", spec);
    std::size_t first = 0;
    if (tokens[0].find('=') == std::string::npos) {
        cfg = machineByName(tokens[0]); // UnknownName on a typo
        first = 1;
    }

    for (std::size_t i = first; i < tokens.size(); ++i) {
        const std::string &t = tokens[i];
        const std::size_t eq = t.find('=');
        if (eq == std::string::npos || eq == 0)
            BDS_RAISE(ErrorCode::InvalidConfig,
                      "machine spec '" << spec
                                       << "': expected key=value, got '"
                                       << t << "'");
        std::string key = t.substr(0, eq);
        for (char &c : key)
            if (c == '-')
                c = '_';
        const std::string value = t.substr(eq + 1);
        const std::uint64_t v = parseSize(key, value);
        auto u32 = [&]() -> std::uint32_t {
            if (v > UINT32_MAX)
                BDS_RAISE(ErrorCode::InvalidConfig,
                          "machine spec: '" << key << "=" << value
                                            << "' is out of range");
            return static_cast<std::uint32_t>(v);
        };

        if (key == "cores")
            cfg.numCores = u32();
        else if (key == "l1i")
            cfg.l1i.sizeBytes = v;
        else if (key == "l1d")
            cfg.l1d.sizeBytes = v;
        else if (key == "l2")
            cfg.l2.sizeBytes = v;
        else if (key == "l3")
            cfg.l3.sizeBytes = v;
        else if (key == "l1i_assoc")
            cfg.l1i.assoc = u32();
        else if (key == "l1d_assoc")
            cfg.l1d.assoc = u32();
        else if (key == "l2_assoc")
            cfg.l2.assoc = u32();
        else if (key == "l3_assoc")
            cfg.l3.assoc = u32();
        else if (key == "line")
            cfg.l1i.lineBytes = cfg.l1d.lineBytes = cfg.l2.lineBytes =
                cfg.l3.lineBytes = u32();
        else if (key == "itlb")
            cfg.itlb.entries = u32();
        else if (key == "dtlb")
            cfg.dtlb.entries = u32();
        else if (key == "stlb")
            cfg.stlb.entries = u32();
        else if (key == "page")
            cfg.pageBytes = u32();
        else if (key == "history")
            cfg.historyBits = u32();
        else if (key == "lfb")
            cfg.lfbEntries = u32();
        else if (key == "issue")
            cfg.issueWidth = u32();
        else
            BDS_RAISE(ErrorCode::InvalidConfig,
                      "machine spec: unknown key '"
                          << key << "' (uarch/machine.h lists them)");
    }

    validateMachineConfig(cfg);
    return cfg;
}

void
validateMachineConfig(const NodeConfig &cfg)
{
    // The L3 snoop set tracks holders in a 64-bit mask, and the
    // cycle model assumes at least one core exists.
    if (cfg.numCores == 0 || cfg.numCores > 64)
        BDS_RAISE(ErrorCode::InvalidConfig,
                  "machine: core count " << cfg.numCores
                                         << " outside 1..64");
    validateCache("l1i", cfg.l1i);
    validateCache("l1d", cfg.l1d);
    validateCache("l2", cfg.l2);
    validateCache("l3", cfg.l3);
    // Coherence passes byte addresses between levels; a per-level
    // line size would make "the line" ambiguous across them.
    if (cfg.l1i.lineBytes != cfg.l3.lineBytes
        || cfg.l1d.lineBytes != cfg.l3.lineBytes
        || cfg.l2.lineBytes != cfg.l3.lineBytes)
        BDS_RAISE(ErrorCode::InvalidConfig,
                  "machine: all cache levels must share one line size");
    validateTlb("itlb", cfg.itlb);
    validateTlb("dtlb", cfg.dtlb);
    validateTlb("stlb", cfg.stlb);
    if (!isPow2(cfg.pageBytes) || cfg.pageBytes < cfg.l3.lineBytes)
        BDS_RAISE(ErrorCode::InvalidConfig,
                  "machine: page size "
                      << cfg.pageBytes
                      << " must be a power of two >= the line size");
    if (cfg.issueWidth == 0)
        BDS_RAISE(ErrorCode::InvalidConfig,
                  "machine: issue width must be nonzero");
    if (cfg.lfbEntries == 0)
        BDS_RAISE(ErrorCode::InvalidConfig,
                  "machine: line-fill buffer count must be nonzero");
    // 2^historyBits counter table: 24 bits is already a 16M-entry
    // predictor, far past anything the sweep needs.
    if (cfg.historyBits == 0 || cfg.historyBits > 24)
        BDS_RAISE(ErrorCode::InvalidConfig,
                  "machine: gshare history " << cfg.historyBits
                                             << " outside 1..24");
}

std::string
canonicalMachineText(const NodeConfig &cfg)
{
    // Fixed field order, integers in decimal, one space between
    // fields, no newline: this line is folded into the serve result
    // hash (serve/confighash.cc), so changing the rendering is a
    // config-hash schema break.
    // Appended rather than streamed (the serve path hashes this per
    // request); integers render as std::to_string and doubles as %g,
    // exactly what a default-formatted ostream prints.
    std::string out;
    auto num = [&out](double v) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%g", v);
        out += buf;
    };
    auto cache = [&out](const char *key, const CacheConfig &c) {
        out += key;
        out += std::to_string(c.sizeBytes) + '/' + std::to_string(c.assoc)
            + '/' + std::to_string(c.lineBytes);
    };
    auto tlb = [&out](const char *key, const TlbConfig &t) {
        out += key;
        out += std::to_string(t.entries) + '/' + std::to_string(t.assoc);
    };
    out += "cores=" + std::to_string(cfg.numCores);
    cache(" l1i=", cfg.l1i);
    cache(" l1d=", cfg.l1d);
    cache(" l2=", cfg.l2);
    cache(" l3=", cfg.l3);
    tlb(" itlb=", cfg.itlb);
    tlb(" dtlb=", cfg.dtlb);
    tlb(" stlb=", cfg.stlb);
    out += " page=" + std::to_string(cfg.pageBytes) + " lat=";
    for (double lat : {cfg.l2Latency, cfg.l3Latency, cfg.memLatency,
                       cfg.c2cLatency, cfg.walkLatency}) {
        num(lat);
        out += '/';
    }
    num(cfg.stlbHitPenalty);
    out += " branch=";
    num(cfg.branchMissPenalty);
    out += " issue=" + std::to_string(cfg.issueWidth)
        + " history=" + std::to_string(cfg.historyBits)
        + " lfb=" + std::to_string(cfg.lfbEntries);
    return out;
}

bool
isDefaultMachine(const NodeConfig &cfg)
{
    static const std::string def =
        canonicalMachineText(NodeConfig::defaultSim());
    return canonicalMachineText(cfg) == def;
}

std::string
machineSlug(const std::string &spec)
{
    if (spec.empty())
        return "default";
    std::string out;
    for (char c : spec) {
        const unsigned char u = static_cast<unsigned char>(c);
        if (std::isalnum(u))
            out += static_cast<char>(std::tolower(u));
        else if (!out.empty() && out.back() != '-')
            out += '-';
    }
    while (!out.empty() && out.back() == '-')
        out.pop_back();
    return out.empty() ? "machine" : out;
}

std::string
describeMachine(const NodeConfig &cfg)
{
    auto kb = [](std::uint64_t bytes) {
        std::ostringstream os;
        if (bytes % (1024 * 1024) == 0)
            os << bytes / (1024 * 1024) << "M";
        else if (bytes % 1024 == 0)
            os << bytes / 1024 << "K";
        else
            os << bytes << "B";
        return os.str();
    };
    std::ostringstream os;
    os << cfg.numCores << " cores, L1 " << kb(cfg.l1i.sizeBytes) << "/"
       << kb(cfg.l1d.sizeBytes) << ", L2 " << kb(cfg.l2.sizeBytes)
       << ", L3 " << kb(cfg.l3.sizeBytes) << ", gshare "
       << cfg.historyBits << "b, issue " << cfg.issueWidth;
    return os.str();
}

} // namespace bds
