#include "uarch/system.h"

#include <map>

#include "common/log.h"
#include "fault/error.h"

namespace bds {

SystemModel::SystemModel(const NodeConfig &cfg)
    : cfg_(cfg), l3_(cfg.l3), invIssueWidth_(1.0 / cfg.issueWidth)
{
    if (cfg_.numCores == 0)
        BDS_FATAL("node needs at least one core");
    if (cfg_.numCores > 64)
        BDS_FATAL("node supports at most 64 cores (snoop holder mask)");
    cores_.reserve(cfg_.numCores);
    for (unsigned i = 0; i < cfg_.numCores; ++i)
        cores_.emplace_back(cfg_);
}

const PmcCounters &
SystemModel::coreCounters(unsigned core) const
{
    if (core >= cores_.size())
        BDS_FATAL("core index " << core << " out of range");
    return cores_[core].pmc;
}

CoreModel &
SystemModel::core(unsigned idx)
{
    if (idx >= cores_.size())
        BDS_FATAL("core index " << idx << " out of range");
    return cores_[idx];
}

PmcCounters
SystemModel::aggregateCounters() const
{
    PmcCounters total;
    for (const auto &c : cores_)
        total += c.pmc;
    return total;
}

void
SystemModel::resetCounters()
{
    for (auto &c : cores_)
        c.pmc = PmcCounters{};
}

void
SystemModel::saveState(StateSink &sink) const
{
    sink.section("SYSM");
    sink.u8(frozen_ ? 1 : 0);
    sink.u64(cores_.size());
    // The L3 first: every cache and TLB section then has later
    // sections behind it, which its restore's 8-byte loads rely on.
    l3_.saveState(sink);
    for (const CoreModel &c : cores_)
        c.saveState(sink);
}

void
SystemModel::loadState(StateSource &src)
{
    src.section("SYSM");
    std::uint8_t frozen = src.u8();
    if (frozen > 1)
        BDS_RAISE(ErrorCode::Io,
                  "system state holds freeze flag "
                      << unsigned(frozen) << " (corrupt payload)");
    src.check("system.num_cores", cores_.size());
    frozen_ = frozen != 0;
    l3_.loadState(src);
    for (CoreModel &c : cores_)
        c.loadState(src);
}

void
SystemModel::checkInvariants() const
{
    auto rank = [](CoherenceState s) {
        switch (s) {
          case CoherenceState::Modified: return 3;
          case CoherenceState::Exclusive: return 2;
          case CoherenceState::Shared: return 1;
          default: return 0;
        }
    };

    // Line -> (owner core, strongest L2 state) over all cores.
    std::map<std::uint64_t, std::pair<unsigned, CoherenceState>> owners;
    for (unsigned c = 0; c < cores_.size(); ++c) {
        cores_[c].l2.forEachLine(
            [&](std::uint64_t la, CoherenceState s, bool) {
                auto it = owners.find(la);
                if (it == owners.end()) {
                    owners.emplace(la, std::make_pair(c, s));
                    return;
                }
                // Two holders: neither may be Modified/Exclusive.
                if (rank(s) >= 2 || rank(it->second.second) >= 2)
                    BDS_PANIC("line 0x" << std::hex << la << std::dec
                              << " held by cores " << it->second.first
                              << " and " << c
                              << " with an exclusive state");
            });
    }

    // Inclusion: every L1 line is backed by the same core's L2.
    for (unsigned c = 0; c < cores_.size(); ++c) {
        auto check_l1 = [&](const SetAssocCache &l1, const char *which) {
            l1.forEachLine([&](std::uint64_t la, CoherenceState s,
                               bool) {
                std::uint64_t addr = la * cfg_.l2.lineBytes;
                CacheLookup in_l2 = cores_[c].l2.probe(addr);
                if (!in_l2.hit)
                    BDS_PANIC("core " << c << ' ' << which
                              << " holds line 0x" << std::hex << la
                              << std::dec << " absent from its L2");
                if (rank(s) > rank(in_l2.state))
                    BDS_PANIC("core " << c << ' ' << which
                              << " state exceeds L2 state for line 0x"
                              << std::hex << la);
            });
        };
        check_l1(cores_[c].l1d, "L1D");
        check_l1(cores_[c].l1i, "L1I");
    }
}

void
SystemModel::dmaFill(std::uint64_t addr, std::uint64_t bytes)
{
    if (recorder_)
        recorder_->recordDma(addr, bytes);
    std::uint64_t line_bytes = cfg_.l3.lineBytes;
    std::uint64_t first = addr / line_bytes;
    std::uint64_t last = (addr + bytes + line_bytes - 1) / line_bytes;
    for (std::uint64_t la = first; la < last; ++la) {
        std::uint64_t a = la * line_bytes;
        for (auto &c : cores_) {
            // Inclusion: an L2 miss means no L1 can hold the line,
            // so one probe settles all three private levels.
            if (c.l2.probe(a).hit) {
                c.l1d.invalidate(a);
                c.l1i.invalidate(a);
                c.l2.invalidate(a);
            }
        }
        l3_.invalidate(a);
    }
}

SystemModel::SnoopResult
SystemModel::snoop(unsigned requester, std::uint64_t addr) const
{
    SnoopResult best;
    for (unsigned i = 0; i < cores_.size(); ++i) {
        if (i == requester)
            continue;
        CacheLookup look = cores_[i].l2.probe(addr);
        if (!look.hit)
            continue;
        best.holders |= 1ULL << i;
        // Severity order: Modified > Exclusive > Shared.
        auto rank = [](CoherenceState s) {
            switch (s) {
              case CoherenceState::Modified: return 3;
              case CoherenceState::Exclusive: return 2;
              case CoherenceState::Shared: return 1;
              default: return 0;
            }
        };
        if (rank(look.state) > rank(best.state)) {
            best.state = look.state;
            best.owner = static_cast<int>(i);
        }
    }
    return best;
}

template <bool kFrozen>
void
SystemModel::settleSnoop(unsigned requester, std::uint64_t addr,
                         const SnoopResult &sr, bool for_ownership)
{
    if (sr.state == CoherenceState::Invalid)
        return;
    if constexpr (!kFrozen) {
        PmcCounters &pmc = cores_[requester].pmc;
        switch (sr.state) {
          case CoherenceState::Modified:
            ++pmc.snoopHitM;
            break;
          case CoherenceState::Exclusive:
            ++pmc.snoopHitE;
            break;
          case CoherenceState::Shared:
            ++pmc.snoopHit;
            break;
          case CoherenceState::Invalid:
            break;
        }
    }

    // One L3 scan records the shared history — and, for a modified
    // sibling, the write-back the transfer implies (the dirty bit).
    l3_.markSharedIfPresent(addr,
                            sr.state == CoherenceState::Modified);

    // Touch only the siblings the snoop saw holding the line.
    for (std::uint64_t m = sr.holders; m != 0; m &= m - 1) {
        unsigned i = static_cast<unsigned>(__builtin_ctzll(m));
        CoreModel &sib = cores_[i];
        if (for_ownership) {
            // Invalidate everywhere; dirty data was already captured
            // logically by the L3 write-back above.
            sib.l2.invalidate(addr);
            sib.l1d.invalidate(addr);
            sib.l1i.invalidate(addr);
        } else {
            sib.l2.setState(addr, CoherenceState::Shared);
            sib.l1d.setStateIfPresent(addr, CoherenceState::Shared);
            sib.l1i.setStateIfPresent(addr, CoherenceState::Shared);
        }
    }
}

template <bool kFrozen>
SystemModel::FillOutcome
SystemModel::fillLine(unsigned requester, std::uint64_t addr,
                      bool for_ownership, bool is_code,
                      bool dependent_load)
{
    CoreModel &core = cores_[requester];
    PmcCounters &pmc = core.pmc;
    FillOutcome out;

    // Offcore request classification.
    if constexpr (!kFrozen) {
        if (is_code)
            ++pmc.offcoreCode;
        else if (for_ownership)
            ++pmc.offcoreRfo;
        else
            ++pmc.offcoreData;
    }

    SnoopResult sr = snoop(requester, addr);
    // With no sibling holding the line, a miss here ends in the
    // memory fill below, and nothing in between touches the L3: fill
    // it during this scan. L3 victims write to memory; no per-core
    // event.
    Eviction l3ev;
    CacheLookup l3look = l3_.accessOrFill(
        addr, sr.state == CoherenceState::Invalid,
        CoherenceState::Exclusive, &l3ev);

    if (sr.state == CoherenceState::Modified ||
        sr.state == CoherenceState::Exclusive) {
        // Cache-to-cache transfer from the owning sibling.
        settleSnoop<kFrozen>(requester, addr, sr, for_ownership);
        out.latency = cfg_.c2cLatency;
        out.fromSibling = true;
        out.l3Hit = l3look.hit;
        if constexpr (!kFrozen) {
            if (l3look.hit)
                ++pmc.l3Hits;
            else
                ++pmc.l3Misses;
        }
        out.fillState = for_ownership ? CoherenceState::Modified
                                      : CoherenceState::Shared;
        return out;
    }

    if (sr.state == CoherenceState::Shared) {
        if (l3look.hit && !for_ownership) {
            // Inclusive-L3 behavior: a clean shared line is served
            // straight from the L3; the sharers are left alone and no
            // snoop response is generated (core-valid bits filter it).
            if constexpr (!kFrozen)
                ++pmc.l3Hits;
            out.l3Hit = true;
            out.latency = cfg_.l3Latency;
            out.fillState = CoherenceState::Shared;
            return out;
        }
        // RFO must invalidate the sharers; an L3 miss falls back to a
        // cache-to-cache transfer. Both generate snoop responses.
        settleSnoop<kFrozen>(requester, addr, sr, for_ownership);
        out.fromSibling = !for_ownership;
        out.l3Hit = l3look.hit;
        out.latency = l3look.hit ? cfg_.l3Latency : cfg_.c2cLatency;
        if constexpr (!kFrozen) {
            if (l3look.hit)
                ++pmc.l3Hits;
            else
                ++pmc.l3Misses;
        }
        out.fillState = for_ownership ? CoherenceState::Modified
                                      : CoherenceState::Shared;
        return out;
    }

    // No sibling holds the line.
    if (l3look.hit) {
        if constexpr (!kFrozen)
            ++pmc.l3Hits;
        out.l3Hit = true;
        out.latency = cfg_.l3Latency;
        out.fillState = for_ownership ? CoherenceState::Modified
                                      : CoherenceState::Exclusive;
        return out;
    }

    // Memory access.
    if constexpr (!kFrozen)
        ++pmc.l3Misses;
    out.memAccess = true;
    double overlap = 1.0;
    if (!is_code && !for_ownership) {
        overlap = core.accountLlcMiss(dependent_load);
        if constexpr (!kFrozen) {
            pmc.mlpSum += overlap;
            ++pmc.mlpSamples;
        }
    }
    out.latency = cfg_.memLatency / overlap;
    out.fillState = for_ownership ? CoherenceState::Modified
                                  : CoherenceState::Exclusive;
    return out;
}

template <bool kFrozen>
void
SystemModel::installMissFill(unsigned core_id, std::uint64_t addr,
                             CoherenceState state, bool is_code,
                             bool install_l1, bool dirty)
{
    CoreModel &core = cores_[core_id];
    Eviction ev = core.l2.insert(addr, state, dirty);
    if (ev.valid) {
        std::uint64_t victim_addr = ev.lineAddr * cfg_.l2.lineBytes;
        // Inclusion: L1 copies of the victim go away too.
        bool l1d_dirty = core.l1d.invalidate(victim_addr);
        core.l1i.invalidate(victim_addr);
        if (ev.dirty || l1d_dirty) {
            if constexpr (!kFrozen)
                ++core.pmc.offcoreWb;
            l3_.setDirtyIfPresent(victim_addr);
        }
    }

    if (install_l1)
        installL1Fill<kFrozen>(core_id, addr, state, is_code, dirty);
}

template <bool kFrozen>
void
SystemModel::installL1Fill(unsigned core_id, std::uint64_t addr,
                           CoherenceState state, bool is_code,
                           bool dirty)
{
    CoreModel &core = cores_[core_id];
    SetAssocCache &l1 = is_code ? core.l1i : core.l1d;
    Eviction ev = l1.insert(addr, state, dirty);
    if (ev.valid && ev.dirty) {
        std::uint64_t victim_addr = ev.lineAddr * cfg_.l1d.lineBytes;
        core.l2.setDirtyIfPresent(victim_addr);
    }
}

template <bool kFrozen>
void
SystemModel::doFetch(unsigned core_id, const MicroOp &op)
{
    CoreModel &core = cores_[core_id];
    PmcCounters &pmc = core.pmc;

    std::uint64_t line = core.l1i.lineAddr(op.ip);
    if (line == core.lastFetchLine)
        return;
    core.lastFetchLine = line;

    // Instruction TLB.
    TlbOutcome t = core.tlb.translateCode(op.ip);
    if (t == TlbOutcome::Walk) {
        if constexpr (!kFrozen) {
            ++pmc.itlbWalks;
            pmc.itlbWalkCycles += cfg_.walkLatency;
            pmc.fetchStallCycles += cfg_.walkLatency;
            pmc.cycles += cfg_.walkLatency;
        }
        core.clock += cfg_.walkLatency;
    } else if (t == TlbOutcome::StlbHit) {
        if constexpr (!kFrozen) {
            pmc.fetchStallCycles += cfg_.stlbHitPenalty;
            pmc.cycles += cfg_.stlbHitPenalty;
        }
        core.clock += cfg_.stlbHitPenalty;
    }

    // L1I.
    if (core.l1i.access(op.ip).hit) {
        if constexpr (!kFrozen)
            ++pmc.l1iHits;
        return;
    }
    if constexpr (!kFrozen)
        ++pmc.l1iMisses;

    double latency;
    CacheLookup l2look = core.l2.access(op.ip);
    if (l2look.hit) {
        if constexpr (!kFrozen)
            ++pmc.l2Hits;
        latency = cfg_.l2Latency;
        // The L1I is known to miss here (the demand access above).
        core.l1i.insert(op.ip, l2look.state);
    } else {
        if constexpr (!kFrozen)
            ++pmc.l2Misses;
        FillOutcome fill =
            fillLine<kFrozen>(core_id, op.ip, false, true, false);
        latency = cfg_.l2Latency + fill.latency;
        installMissFill<kFrozen>(core_id, op.ip, fill.fillState, true,
                                 true);
    }

    if constexpr (!kFrozen) {
        pmc.fetchStallCycles += latency;
        pmc.ildStallCycles += 0.15 * latency;
        pmc.cycles += 1.15 * latency;
    }
    core.clock += 1.15 * latency;

    // Next-line instruction prefetch (Westmere's L1I streaming
    // prefetcher): fetch the following line behind the demand miss.
    // The prefetch runs off the critical path (no stall, no demand
    // L1I-miss event) but is a real request — it allocates through
    // the hierarchy and shows up as offcore code traffic when it has
    // to leave the core.
    std::uint64_t next_addr = (line + 1) * cfg_.l1i.lineBytes;
    if (!core.l1i.probe(next_addr).hit) {
        CacheLookup pfl2 = core.l2.access(next_addr);
        if (pfl2.hit) {
            core.l1i.insert(next_addr, pfl2.state);
        } else {
            FillOutcome pf =
                fillLine<kFrozen>(core_id, next_addr, false, true,
                                  false);
            installMissFill<kFrozen>(core_id, next_addr, pf.fillState,
                                     true, true);
        }
    }
}

template <bool kFrozen>
void
SystemModel::translateData(unsigned core_id, std::uint64_t addr)
{
    CoreModel &core = cores_[core_id];
    PmcCounters &pmc = core.pmc;
    TlbOutcome t = core.tlb.translateData(addr);
    if (t == TlbOutcome::Walk) {
        if constexpr (!kFrozen) {
            ++pmc.dtlbWalks;
            pmc.dtlbWalkCycles += cfg_.walkLatency;
            pmc.resourceStallCycles += 0.6 * cfg_.walkLatency;
            pmc.cycles += 0.6 * cfg_.walkLatency;
        }
        core.clock += 0.6 * cfg_.walkLatency;
    } else if (t == TlbOutcome::StlbHit) {
        if constexpr (!kFrozen) {
            ++pmc.dataHitStlb;
            pmc.resourceStallCycles += 0.2 * cfg_.stlbHitPenalty;
            pmc.cycles += 0.2 * cfg_.stlbHitPenalty;
        }
        core.clock += 0.2 * cfg_.stlbHitPenalty;
    }
}

template <bool kFrozen>
void
SystemModel::doLoad(unsigned core_id, const MicroOp &op)
{
    CoreModel &core = cores_[core_id];
    PmcCounters &pmc = core.pmc;

    translateData<kFrozen>(core_id, op.addr);

    if (core.l1d.access(op.addr).hit)
        return; // L1D hits are latency-hidden by the OoO core

    std::uint64_t line = core.l1d.lineAddr(op.addr);
    if (core.lfbInFlight(line, core.clock)) {
        if constexpr (!kFrozen)
            ++pmc.loadHitLfb;
        return;
    }

    CacheLookup l2look = core.l2.access(op.addr);
    if (l2look.hit) {
        if constexpr (!kFrozen) {
            ++pmc.l2Hits;
            ++pmc.loadHitL2;
        }
        // The L1D is known to miss here (the demand access above),
        // and the L2 already holds the line in this very state.
        installL1Fill<kFrozen>(core_id, op.addr, l2look.state, false);
        double stall = 0.3 * cfg_.l2Latency;
        if constexpr (!kFrozen) {
            pmc.ratStallCycles += stall;
            pmc.cycles += stall;
        }
        core.clock += stall;
        return;
    }

    if constexpr (!kFrozen)
        ++pmc.l2Misses;
    FillOutcome fill = fillLine<kFrozen>(core_id, op.addr, false, false,
                                         op.dependsOnPrevLoad);
    // The line lands in the L2 now; the L1D copy arrives only when a
    // later touch finds the fill complete (see class comment).
    installMissFill<kFrozen>(core_id, op.addr, fill.fillState, false,
                             false);
    core.lfbAllocate(line, core.clock + cfg_.l2Latency + fill.latency);

    if (fill.fromSibling) {
        if constexpr (!kFrozen)
            ++pmc.loadHitSibling;
        double stall = 0.4 * fill.latency;
        if constexpr (!kFrozen) {
            pmc.resourceStallCycles += stall;
            pmc.cycles += stall;
        }
        core.clock += stall;
    } else if (fill.l3Hit) {
        if constexpr (!kFrozen) {
            ++pmc.loadHitL3Unshared;
            pmc.resourceStallCycles += 0.3 * fill.latency;
            pmc.ratStallCycles += 0.1 * fill.latency;
            pmc.cycles += 0.4 * fill.latency;
        }
        core.clock += 0.4 * fill.latency;
    } else {
        if constexpr (!kFrozen) {
            ++pmc.loadLlcMiss;
            pmc.resourceStallCycles += 0.75 * fill.latency;
            pmc.ratStallCycles += 0.1 * fill.latency;
            pmc.cycles += 0.85 * fill.latency;
        }
        core.clock += 0.85 * fill.latency;
    }
}

template <bool kFrozen>
void
SystemModel::doStore(unsigned core_id, const MicroOp &op)
{
    CoreModel &core = cores_[core_id];
    PmcCounters &pmc = core.pmc;

    translateData<kFrozen>(core_id, op.addr);

    CacheLookup l1 = core.l1d.access(op.addr);
    if (l1.hit) {
        if (l1.state == CoherenceState::Modified) {
            core.l1d.setDirty(op.addr);
            return;
        }
        if (l1.state == CoherenceState::Exclusive) {
            core.l1d.setStateDirty(op.addr, CoherenceState::Modified);
            core.l2.setStateIfPresent(op.addr,
                                      CoherenceState::Modified);
            return;
        }
        // Shared: upgrade via RFO.
        if constexpr (!kFrozen)
            ++pmc.offcoreRfo;
        SnoopResult sr = snoop(core_id, op.addr);
        settleSnoop<kFrozen>(core_id, op.addr, sr, true);
        core.l1d.setStateDirty(op.addr, CoherenceState::Modified);
        core.l2.setStateIfPresent(op.addr, CoherenceState::Modified);
        double stall = 0.3 * cfg_.c2cLatency;
        if constexpr (!kFrozen) {
            pmc.resourceStallCycles += stall;
            pmc.cycles += stall;
        }
        core.clock += stall;
        return;
    }

    std::uint64_t line = core.l1d.lineAddr(op.addr);
    if (core.lfbInFlight(line, core.clock)) {
        // Merge into the outstanding fill; ownership is settled when
        // the fill completes and a later access re-probes.
        CacheLookup l2look = core.l2.probe(op.addr);
        if (l2look.hit) {
            if (l2look.state == CoherenceState::Shared) {
                if constexpr (!kFrozen)
                    ++pmc.offcoreRfo;
                SnoopResult sr = snoop(core_id, op.addr);
                settleSnoop<kFrozen>(core_id, op.addr, sr, true);
            }
            core.l2.setStateDirty(op.addr, CoherenceState::Modified);
        }
        return;
    }

    CacheLookup l2look = core.l2.access(op.addr);
    if (l2look.hit) {
        if constexpr (!kFrozen)
            ++pmc.l2Hits;
        if (l2look.state == CoherenceState::Shared) {
            if constexpr (!kFrozen)
                ++pmc.offcoreRfo;
            SnoopResult sr = snoop(core_id, op.addr);
            settleSnoop<kFrozen>(core_id, op.addr, sr, true);
        }
        core.l2.setStateDirty(op.addr, CoherenceState::Modified);
        installL1Fill<kFrozen>(core_id, op.addr,
                               CoherenceState::Modified, false, true);
        return;
    }

    if constexpr (!kFrozen)
        ++pmc.l2Misses;
    FillOutcome fill =
        fillLine<kFrozen>(core_id, op.addr, true, false, false);
    installMissFill<kFrozen>(core_id, op.addr,
                             CoherenceState::Modified, false, true,
                             /*dirty=*/true);
    double stall = 0.25 * fill.latency;
    if constexpr (!kFrozen) {
        pmc.resourceStallCycles += stall;
        pmc.cycles += stall;
    }
    core.clock += stall;
}

template <bool kFrozen>
void
SystemModel::doBranch(unsigned core_id, const MicroOp &op)
{
    CoreModel &core = cores_[core_id];
    PmcCounters &pmc = core.pmc;
    if constexpr (!kFrozen)
        ++pmc.branchesRetired;
    bool correct = core.bp.predictAndTrain(op.ip, op.taken);
    if (correct) {
        if constexpr (!kFrozen)
            ++pmc.branchesExecuted;
    } else {
        if constexpr (!kFrozen) {
            ++pmc.branchesMispredicted;
            // Retired + wrong-path work flushed at the redirect.
            pmc.branchesExecuted += 3;
            pmc.fetchStallCycles += cfg_.branchMissPenalty;
            pmc.cycles += cfg_.branchMissPenalty;
        }
        core.clock += cfg_.branchMissPenalty;
    }
}

template <bool kFrozen>
void
SystemModel::consumeOp(unsigned core_id, const MicroOp &op)
{
    CoreModel &core = cores_[core_id];
    PmcCounters &pmc = core.pmc;

    if constexpr (!kFrozen) {
        ++pmc.uops;
        pmc.cycles += invIssueWidth_;
        pmc.uopsExecutedCycles += invIssueWidth_;
    }
    ++core.uopClock;
    core.clock += invIssueWidth_;

    if (op.newInstruction) {
        if constexpr (!kFrozen) {
            ++pmc.instructions;
            if (op.mode == Mode::Kernel)
                ++pmc.kernelInstrs;
            else
                ++pmc.userInstrs;
            switch (op.cls) {
              case OpClass::Load: ++pmc.loadInstrs; break;
              case OpClass::Store: ++pmc.storeInstrs; break;
              case OpClass::Branch: ++pmc.branchInstrs; break;
              case OpClass::IntAlu: ++pmc.intInstrs; break;
              case OpClass::FpAlu: ++pmc.fpInstrs; break;
              case OpClass::SseAlu: ++pmc.sseInstrs; break;
            }
        }
        doFetch<kFrozen>(core_id, op);
    } else {
        // Microcode sequencer pressure.
        if constexpr (!kFrozen) {
            pmc.decoderStallCycles += 0.4;
            pmc.cycles += 0.4;
        }
        core.clock += 0.4;
    }

    switch (op.cls) {
      case OpClass::Load:
        doLoad<kFrozen>(core_id, op);
        break;
      case OpClass::Store:
        doStore<kFrozen>(core_id, op);
        break;
      case OpClass::Branch:
        doBranch<kFrozen>(core_id, op);
        break;
      case OpClass::FpAlu:
        // x87 is microcode-heavy on Westmere-class cores.
        if constexpr (!kFrozen) {
            pmc.decoderStallCycles += 0.2;
            pmc.cycles += 0.2;
        }
        core.clock += 0.2;
        break;
      case OpClass::IntAlu:
      case OpClass::SseAlu:
        break;
    }
}

void
SystemModel::consume(unsigned core_id, const MicroOp &op)
{
    if (core_id >= cores_.size())
        BDS_FATAL("op for core " << core_id << " on a "
                  << cores_.size() << "-core node");
    if (recorder_)
        recorder_->consume(core_id, op);
    if (frozen_)
        consumeOp<true>(core_id, op);
    else
        consumeOp<false>(core_id, op);
}

} // namespace bds
