/**
 * @file
 * The uniform simulation-state serialization interface.
 *
 * Every state-bearing structure — SetAssocCache, TlbArray,
 * TwoLevelTlb, GshareBranchPredictor, PmcCounters, CoreModel,
 * SystemModel — implements the same two-method visitor contract:
 *
 *   void saveState(StateSink &sink) const;
 *   void loadState(StateSource &src);
 *
 * One schema, no per-structure ad-hoc I/O: a structure writes a
 * section tag followed by fixed-width little-endian fields, and reads
 * them back in the same order. The sink/source pair owns all byte
 * encoding, so a structure's save/load methods are a single visibly
 * symmetric field list.
 *
 * Bulk sections: fixed-stride runs (the packed gshare counters, the
 * cache and TLB sets of uarch/ways.h) go through records(count,
 * stride), which reserves (sink) or bounds-checks (source) the whole
 * run at once and hands back a RecordWriter / RecordReader cursor, so
 * decode pays one bounds check per run instead of one per field; a
 * decoder that sizes its run from the data itself walks rest() and
 * consumes it with skip().
 *
 * Hardening contract: every structural violation on the read side —
 * underflow, a record count whose run outruns the payload (checked
 * before count * stride is formed, so it cannot overflow), a section
 * tag that is not the expected one, a geometry guard mismatch,
 * trailing bytes at finish() — raises a typed Error(Io). Per-record
 * value checks (slot range, enum range) stay with the structure.
 * Restoring from a corrupt payload can therefore never be UB or
 * silent drift; callers (the checkpoint cache, the sampled replayer)
 * catch the typed error and fall back to warming from zero.
 *
 * Layering: depends only on bds_fault (for the typed errors), so
 * bds_uarch can link it without pulling in the checkpoint container
 * or anything above it.
 */

#ifndef BDS_CKPT_STATE_H
#define BDS_CKPT_STATE_H

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace bds {

/** Little-endian load of 8 bytes (no alignment requirement). */
inline std::uint64_t
loadLe64(const char *p)
{
    std::uint64_t v = 0;
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(&v, p, sizeof(v));
    } else {
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(
                     static_cast<unsigned char>(p[i]))
                 << (8 * i);
    }
    return v;
}

/** Little-endian store of 8 bytes (no alignment requirement). */
inline void
storeLe64(char *p, std::uint64_t v)
{
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(p, &v, sizeof(v));
    } else {
        for (int i = 0; i < 8; ++i)
            p[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    }
}

/**
 * Unchecked writer over a record run that StateSink::records() has
 * already sized; valid only until the sink is appended to again.
 */
class RecordWriter
{
  public:
    explicit RecordWriter(char *p) : p_(p) {}

    void u8(std::uint8_t v) { *p_++ = static_cast<char>(v); }
    void u64(std::uint64_t v)
    {
        storeLe64(p_, v);
        p_ += 8;
    }
    /**
     * The low `n` (<= 8) bytes of `v`, little-endian; the run must
     * have 8 bytes of room left.
     */
    void uint(std::uint64_t v, std::size_t n)
    {
        storeLe64(p_, v);
        p_ += n;
    }

    /** The next byte to write. */
    const char *at() const { return p_; }

  private:
    char *p_;
};

/**
 * Unchecked reader over a record run that StateSource::records() has
 * already bounds-checked; reads exactly what RecordWriter wrote.
 */
class RecordReader
{
  public:
    explicit RecordReader(const char *p) : p_(p) {}

    std::uint8_t u8() { return static_cast<std::uint8_t>(*p_++); }
    std::uint64_t u64()
    {
        const std::uint64_t v = loadLe64(p_);
        p_ += 8;
        return v;
    }

  private:
    const char *p_;
};

/**
 * Byte-accurate state writer. Integers are fixed-width little-endian;
 * doubles travel as their IEEE-754 bit pattern, so a save/load round
 * trip is bitwise-exact (the checkpoint contract) on any host.
 */
class StateSink
{
  public:
    /** Begin a section; the source must ask for the same tag. */
    void section(const char (&tag)[5]);

    void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    /** IEEE-754 bit pattern, not a decimal rendering. */
    void f64(double v);
    /** Length-prefixed byte string. */
    void str(const std::string &s);

    /**
     * Append a run of `count` records of `stride` bytes each and
     * return a writer positioned at its start; the caller writes
     * exactly count * stride bytes through it.
     */
    RecordWriter records(std::uint64_t count, std::size_t stride);

    /**
     * Drop the unwritten end of the last records() run, up to `w`: a
     * variable-length writer reserves an upper bound and gives back
     * what it did not use.
     */
    void trim(const RecordWriter &w)
    {
        buf_.resize(static_cast<std::size_t>(w.at() - buf_.data()));
    }

    /** The serialized payload so far. */
    const std::string &bytes() const { return buf_; }

    /** Move the payload out (invalidates the sink). */
    std::string take() { return std::move(buf_); }

  private:
    std::string buf_;
};

/**
 * Byte-accurate state reader over a payload produced by StateSink.
 * Every structural violation is a typed Error(Io): reading past the
 * end, a wrong section tag, or — via check() — a geometry guard that
 * does not match the restoring structure.
 */
class StateSource
{
  public:
    /**
     * @param payload The serialized bytes (not owned; must outlive
     *        the source).
     * @param what Names the payload origin in diagnostics.
     */
    StateSource(std::string_view payload, std::string what);

    /** Consume and verify a section tag; Error(Io) on mismatch. */
    void section(const char (&tag)[5]);

    std::uint8_t u8();
    std::uint32_t u32();
    std::uint64_t u64();
    double f64();
    std::string str();

    /**
     * Consume a run of `count` records of `stride` (non-zero) bytes
     * with one bounds check and return a reader over it. Error(Io) naming
     * `label` when the run does not fit in the remaining payload;
     * `count` is compared against remaining() / stride first, so an
     * absurd on-disk count can never overflow the byte length.
     */
    RecordReader records(std::uint64_t count, std::size_t stride,
                         const char *label);

    /**
     * Guard helper: verify a config-derived value recorded in the
     * payload equals what the restoring structure was built with.
     * Raises Error(Io) naming `field` on mismatch — a payload must
     * never be poured into a structure of a different shape.
     */
    void check(const char *field, std::uint64_t expected);

    /** Verify the payload was fully consumed; Error(Io) otherwise. */
    void finish() const;

    /** Bytes not yet consumed. */
    std::size_t remaining() const { return payload_.size() - pos_; }

    /**
     * The bytes not yet consumed, for a decoder that walks them
     * itself and then consumes what it read with skip().
     */
    std::string_view rest() const { return payload_.substr(pos_); }

    /** Consume `n` <= remaining() bytes. */
    void skip(std::size_t n) { pos_ += n; }

    /**
     * Raise Error(Io) for a corrupt value the caller found at the
     * current offset: `msg` says what is wrong with it.
     */
    [[noreturn]] void fail(const std::string &msg) const;

  private:
    /** Take `n` raw bytes; Error(Io) on underflow. */
    const char *take(std::size_t n, const char *label);

    std::string_view payload_;
    std::string what_;
    std::size_t pos_ = 0;
};

} // namespace bds

#endif // BDS_CKPT_STATE_H
