/**
 * @file
 * BoundedMemo: a small, mutex-guarded, fixed-capacity map with
 * least-recently-used eviction. The serve engine keeps two of them —
 * the per-cell projection bases and the per-request cell hashes — so
 * a long-lived daemon's memory stays fixed however many distinct
 * cells it answers.
 *
 * The capacity is tiny (tens of entries), so eviction is a linear
 * scan for the oldest use stamp rather than a linked recency list.
 */

#ifndef BDS_SERVE_MEMO_H
#define BDS_SERVE_MEMO_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <utility>

namespace bds {

template <class K, class V>
class BoundedMemo
{
  public:
    /** @param capacity Most entries ever held; must be > 0. */
    explicit BoundedMemo(std::size_t capacity) : capacity_(capacity) {}

    /** Copy the value under `key` into *out and mark it used. */
    bool find(const K &key, V *out)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = map_.find(key);
        if (it == map_.end())
            return false;
        it->second.used = ++tick_;
        *out = it->second.value;
        return true;
    }

    /**
     * Insert or replace the value under `key`. A new key arriving at
     * capacity first evicts the least recently used entry.
     */
    void put(const K &key, V value)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (map_.size() >= capacity_ && map_.find(key) == map_.end()) {
            auto oldest = map_.begin();
            for (auto it = map_.begin(); it != map_.end(); ++it)
                if (it->second.used < oldest->second.used)
                    oldest = it;
            map_.erase(oldest);
        }
        map_[key] = Slot{std::move(value), ++tick_};
    }

    /** Entries held now (never above the capacity). */
    std::size_t size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return map_.size();
    }

  private:
    struct Slot
    {
        V value;
        std::uint64_t used = 0; ///< tick of the last find() or put()
    };

    const std::size_t capacity_;
    mutable std::mutex mutex_;
    std::map<K, Slot> map_;
    std::uint64_t tick_ = 0;
};

} // namespace bds

#endif // BDS_SERVE_MEMO_H
