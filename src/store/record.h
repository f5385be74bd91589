/**
 * @file
 * The one on-disk record discipline every store file shares:
 * checkpoints (BDSCKPT), capture records (BDSCAPTURE), result entries
 * (BDSRESULT) and leases (BDSLEASE). Each is a "<MAGIC> <version>"
 * line, "<key> <value>" lines, sized fields ("<key>_bytes N\n" then
 * N raw bytes) and, except leases, an "END" line (docs/STORAGE.md
 * §6). Writers append with appendField()/appendSized(), payloads
 * carry one checksum (stateChecksum()), parsers walk the bytes with
 * RecordCursor, whole files come in through readFile(), and lease
 * heartbeats land through replaceFile().
 * SharedStore::publish() stays the durable writer.
 */

#ifndef BDS_STORE_RECORD_H
#define BDS_STORE_RECORD_H

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

namespace bds {

/** Append "<key> <value>\n". */
void appendField(std::string &out, std::string_view key,
                 std::string_view value);

/** Append "<key> <n>\n", n in decimal. */
void appendField(std::string &out, std::string_view key,
                 std::uint64_t n);

/** Append the sized field "<key>_bytes N\n<N bytes>". */
void appendSized(std::string &out, std::string_view key,
                 std::string_view bytes);

/** Parse all of `v` as a non-negative decimal; false on anything else. */
bool parseDecimal(std::string_view v, std::uint64_t *n);

/**
 * The one payload checksum of every store file: checkpoint
 * `state_sum`/`ops_sum`, the capture record's `sum` and a result
 * entry's `csv_sum`. An FNV-style hash that consumes 64-bit
 * little-endian words on four independent lanes (then the sub-32-byte
 * tail byte by byte), so it runs at memory speed instead of one
 * multiply latency per byte. Any single changed word or tail byte
 * changes the result. Not a config hash: fnv1a64 keys the stores and
 * stays byte-serial.
 */
std::uint64_t stateChecksum(std::string_view bytes);

/**
 * A cursor over a record's bytes. Every read is bounds-checked and
 * raises Error(Io) on a short or malformed field; declared sizes are
 * only ever compared with what is left, never allocated. Returned
 * views point into the bytes; they and `what` (the source named in
 * diagnostics) must outlive the cursor.
 */
class RecordCursor
{
  public:
    RecordCursor(std::string_view bytes, const std::string &what)
        : rest_(bytes), what_(what)
    {
    }

    /** The "<magic> <version>" line; Error(Io) on any other. */
    void header(std::string_view magic, std::uint64_t version);

    /** The next '\n'-terminated line, without the newline. */
    std::string_view line();

    /** The non-empty value of a "<key> <value>" line. */
    std::string_view field(std::string_view key);

    /** A "<key> <n>" line, n a non-negative decimal integer. */
    std::uint64_t number(std::string_view key);

    /** A sized field ("<key>_bytes N\n<N bytes>"). */
    std::string_view sized(std::string_view key);

    /** The END line, which must also end the bytes. */
    void end();

    bool atEnd() const { return rest_.empty(); }

  private:
    std::string_view rest_;
    const std::string &what_;
};

/**
 * A file's bytes in one heap buffer that, unlike a std::string, is
 * not zero-filled before the read overwrites it. Move-only, and a
 * move keeps the bytes where they are, so views into them survive.
 */
class FileBytes
{
  public:
    FileBytes() = default;

    /** A buffer holding a copy of `bytes`. */
    static FileBytes copyOf(std::string_view bytes);

    std::string_view view() const { return {data_.get(), size_}; }

  private:
    friend bool readFile(const std::string &path, FileBytes *bytes);

    std::unique_ptr<char[]> data_;
    std::size_t size_ = 0;
};

/**
 * Read the whole file at `path` into *bytes: one buffer sized by
 * fstat, read to EOF. False when absent or unreadable.
 */
bool readFile(const std::string &path, std::string *bytes);

/** readFile() into a buffer that is not zero-filled first. */
bool readFile(const std::string &path, FileBytes *bytes);

/** The temp a replace of `path` writes first: "<path>.tmp.<pid>". */
std::string tempPath(const std::string &path);

/** Write all of `bytes` to `fd`; false with errno set on failure. */
bool writeAll(int fd, std::string_view bytes);

/**
 * Replace the file at `path` with `bytes` through tempPath() and a
 * rename, so readers see the old file or the new one, never half.
 * Not durable (no fsync): for coordination state that is rebuilt or
 * republished when lost. False on failure, leaving no temp behind.
 */
bool replaceFile(const std::string &path, std::string_view bytes);

} // namespace bds

#endif // BDS_STORE_RECORD_H
