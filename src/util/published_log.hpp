// Append-only single-writer log with lock-free readers, and the per-node
// slot array published beside it.
//
// The online engine's feeder thread appends R-graph nodes and edges here;
// any number of reader threads walk stable prefixes without ever blocking
// the feeder. Two properties make that safe:
//
//  * Stable addresses. Storage is a spine of geometrically growing chunks
//    (2^10, 2^11, ... entries), never reallocated, so an entry's address is
//    fixed the moment it is written — readers hold no iterator a later
//    append could invalidate.
//  * Publication by size. The writer stores the entry (plain write), then
//    release-stores the new count; a reader acquire-loads the count and may
//    then read entries [0, count) with plain loads. The release/acquire
//    pair on size_ carries the happens-before edge for both the entry and
//    its chunk pointer, so every access is either atomic or ordered — clean
//    under TSan.
//
// PublishedHeads is the mutable companion: one std::atomic<std::uint32_t>
// slot per entry of a PublishedLog, on the same spine, which the writer may
// overwrite at any time (release) and readers load (acquire). It publishes
// no count of its own: the writer appends a slot before the companion log's
// entry, so a reader touches slot i only below a count it acquired from that
// log, whose release store also orders the slot's chunk pointer.
//
// Contract: exactly ONE writer thread (external synchronization, e.g. the
// engine's feed mutex); log entries are immutable once published.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

namespace rdt {

// The writer-side storage both containers share: a count over a spine of
// chunks. Chunk k holds entries [2^(10+k) - 2^10, 2^(10+k+1) - 2^10), so
// the (chunk, offset) of a global index falls out of one bit_width.
template <typename T>
class ChunkedArray {
 public:
  // Writer-side count (callable only by the writer).
  std::size_t size() const { return count_; }

  T& operator[](std::size_t i) const {
    const Loc loc = locate(i);
    return chunks_[loc.chunk][loc.offset];
  }

  // Writer only, and only while no reader holds a prefix: rewinds to empty
  // but keeps every allocated chunk, so refilling after a reset reuses the
  // old storage. Entries above the new count become writable again — the
  // "immutable once published" guarantee restarts from here, which is why
  // concurrent readers are excluded (the engine's reset() contract, not a
  // lock, enforces that).
  void reset() { count_ = 0; }

  // Writer only, same exclusion contract as reset(): frees every chunk that
  // lies entirely above the current count. reset() deliberately keeps the
  // chunks so a recycled log regrows allocation-free; a *compacting* caller
  // pairs reset()+refill with this call to actually return the prefix
  // storage — the large tail chunks a long stream grew — to the allocator.
  // The spine itself is untouched, so reader addressing never changes.
  void release_unused_chunks() {
    const std::size_t first_free =
        count_ == 0 ? 0 : locate(count_ - 1).chunk + 1;
    for (std::size_t k = first_free; k < kMaxChunks; ++k) chunks_[k].reset();
  }

  // Writer-side accounting: bytes of allocated chunk storage (capacity, not
  // count — an allocated chunk is resident whether or not it is full).
  std::size_t resident_bytes() const {
    std::size_t bytes = 0;
    for (std::size_t k = 0; k < kMaxChunks; ++k)
      if (chunks_[k]) bytes += capacity_of(k) * sizeof(T);
    return bytes;
  }

 protected:
  // Writer only: the next slot, its chunk allocated on first touch.
  T& append() {
    const Loc loc = locate(count_++);
    auto& chunk = chunks_[loc.chunk];
    if (!chunk) chunk = std::make_unique<T[]>(capacity_of(loc.chunk));
    return chunk[loc.offset];
  }

 private:
  static constexpr std::size_t kBaseLog2 = 10;  // first chunk: 1024 entries
  static constexpr std::size_t kMaxChunks = 64 - kBaseLog2;

  struct Loc {
    std::size_t chunk;
    std::size_t offset;
  };

  static Loc locate(std::size_t i) {
    const std::size_t v = i + (std::size_t{1} << kBaseLog2);
    const auto k = static_cast<std::size_t>(std::bit_width(v)) - 1;
    return {k - kBaseLog2, v - (std::size_t{1} << k)};
  }

  static std::size_t capacity_of(std::size_t chunk) {
    return std::size_t{1} << (kBaseLog2 + chunk);
  }

  std::array<std::unique_ptr<T[]>, kMaxChunks> chunks_;
  std::size_t count_ = 0;  // writer's private count
};

template <typename T>
class PublishedLog : private ChunkedArray<T> {
 public:
  using ChunkedArray<T>::size;
  using ChunkedArray<T>::release_unused_chunks;
  using ChunkedArray<T>::resident_bytes;

  // Reader-side count: entries [0, size_published()) are safe to read.
  std::size_t size_published() const {
    return size_.load(std::memory_order_acquire);
  }

  // Valid for i < size_published() (readers) or i < size() (the writer).
  const T& operator[](std::size_t i) const {
    return ChunkedArray<T>::operator[](i);
  }

  void reset() {
    ChunkedArray<T>::reset();
    size_.store(0, std::memory_order_release);
  }

  // Writer only.
  void push_back(T v) {
    this->append() = std::move(v);
    size_.store(this->size(), std::memory_order_release);
  }

 private:
  std::atomic<std::size_t> size_{0};  // published count
};

// Mutable per-entry slots beside a PublishedLog (see the file comment).
class PublishedHeads : private ChunkedArray<std::atomic<std::uint32_t>> {
 public:
  using ChunkedArray::reset;
  using ChunkedArray::release_unused_chunks;
  using ChunkedArray::resident_bytes;

  // Writer only: append a slot holding v, BEFORE the companion log's entry.
  void push_back(std::uint32_t v) {
    append().store(v, std::memory_order_release);
  }
  // Writer only, i below its count.
  void store(std::size_t i, std::uint32_t v) {
    (*this)[i].store(v, std::memory_order_release);
  }
  // The writer, or a reader below a companion-log count it acquired.
  std::uint32_t load(std::size_t i) const {
    return (*this)[i].load(std::memory_order_acquire);
  }
};

}  // namespace rdt
