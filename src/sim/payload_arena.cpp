#include "sim/payload_arena.hpp"

#include <cstring>
#include <stdexcept>
#include <string>

#include "util/check.hpp"

namespace rdt {

namespace {

// Grow-only resize: keeps capacity across seeds so a reused arena stops
// allocating once it has seen the largest trace of a sweep.
template <typename T>
void ensure_size(std::vector<T>& v, std::size_t size) {
  if (v.size() < size) v.resize(size);
}

}  // namespace

void PayloadArena::reset(int num_processes, PayloadShape shape,
                         std::size_t num_messages,
                         PiggybackCodecKind codec) {
  RDT_REQUIRE(num_processes >= 1, "need at least one process");
  wire_.reset(codec, num_processes, shape);  // validates the process count
  n_ = num_processes;
  shape_ = shape;
  row_words_ = bitdetail::words_for(static_cast<std::size_t>(num_processes));
  capacity_ = num_messages;
  // Row capacity_ is the audit decode-back scratch.
  const std::size_t rows = num_messages + (kAuditsEnabled ? 1 : 0);
  const auto n = static_cast<std::size_t>(num_processes);
  if (shape.tdv) ensure_size(tdv_plane_, n * rows);
  if (shape.simple) ensure_size(simple_plane_, row_words_ * rows);
  if (shape.causal) ensure_size(causal_plane_, n * row_words_ * rows);
  if (shape.index) ensure_size(index_plane_, rows);
}

PiggybackSlot PayloadArena::row(std::size_t i) {
  const auto n = static_cast<std::size_t>(n_);
  PiggybackSlot s;
  if (shape_.tdv) s.tdv = {tdv_plane_.data() + i * n, n};
  if (shape_.simple) s.simple = {simple_plane_.data() + i * row_words_, n};
  if (shape_.causal)
    s.causal = {causal_plane_.data() + i * n * row_words_, n, n};
  if (shape_.index) s.index = index_plane_.data() + i;
  return s;
}

PiggybackView PayloadArena::row_view(std::size_t i) const {
  const auto n = static_cast<std::size_t>(n_);
  PiggybackView v;
  if (shape_.tdv) v.tdv = {tdv_plane_.data() + i * n, n};
  if (shape_.simple) v.simple = {simple_plane_.data() + i * row_words_, n};
  if (shape_.causal)
    v.causal = {causal_plane_.data() + i * n * row_words_, n, n};
  if (shape_.index) v.index = index_plane_[i];
  return v;
}

std::size_t PayloadArena::commit_send(MsgId m, ProcessId src, ProcessId dest) {
  encode_buf_.clear();  // capacity retained — no steady-state allocation
  const PiggybackView sent = view(m);
  const std::size_t bytes = wire_.encode(src, dest, sent, encode_buf_);
  if constexpr (kAuditsEnabled)
    audit_decode_back(wire_, src, dest, encode_buf_, sent, row(capacity_));
  return bytes * 8;
}

void audit_decode_back(PiggybackCodec& codec, ProcessId src, ProcessId dest,
                       std::span<const std::uint8_t> bytes,
                       const PiggybackView& sent, const PiggybackSlot& scratch) {
  if constexpr (kAuditsEnabled) {
    std::size_t offset = 0;
    try {
      codec.decode(src, dest, bytes, offset, scratch);
    } catch (const std::invalid_argument& e) {
      RDT_AUDIT(false, std::string("wire codec cannot decode its own bytes: ") +
                           e.what());
    }
    RDT_AUDIT(offset == bytes.size(),
              "piggyback decode consumed a different byte count than encode "
              "produced");
    const auto same = [](const auto* a, const auto* b, std::size_t count) {
      return count == 0 || std::memcmp(a, b, count * sizeof(*a)) == 0;
    };
    RDT_AUDIT(same(scratch.tdv.data(), sent.tdv.data(), sent.tdv.size()),
              "wire codec roundtrip changed the TDV plane");
    RDT_AUDIT(same(scratch.simple.words(), sent.simple.words(),
                   sent.simple.num_words()),
              "wire codec roundtrip changed the simple plane");
    RDT_AUDIT(sent.causal.rows() == 0 ||
                  same(scratch.causal.row(0).words(), sent.causal.row(0).words(),
                       sent.causal.rows() * sent.causal.row_words()),
              "wire codec roundtrip changed the causal plane");
    RDT_AUDIT((scratch.index == nullptr ? PiggybackView::kNoIndex
                                        : *scratch.index) == sent.index,
              "wire codec roundtrip changed the scalar index");
  }
}

}  // namespace rdt
