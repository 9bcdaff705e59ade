#include "sim/payload_arena.hpp"

#include <cstring>

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
  const auto n = static_cast<std::size_t>(num_processes);
  if (shape.tdv) ensure_size(tdv_plane_, n * num_messages);
  if (shape.simple) ensure_size(simple_plane_, row_words_ * num_messages);
  if (shape.causal) ensure_size(causal_plane_, n * row_words_ * num_messages);
  if (shape.index) ensure_size(index_plane_, num_messages);
  if (shape.tdv) ensure_size(staging_tdv_, n);
  if (shape.simple) ensure_size(staging_simple_, row_words_);
  if (shape.causal) ensure_size(staging_causal_, n * row_words_);
}

PiggybackSlot PayloadArena::slot(MsgId m) {
  const std::size_t i = check(m);
  const auto n = static_cast<std::size_t>(n_);
  PiggybackSlot s;
  if (shape_.tdv) s.tdv = {tdv_plane_.data() + i * n, n};
  if (shape_.simple) s.simple = {simple_plane_.data() + i * row_words_, n};
  if (shape_.causal)
    s.causal = {causal_plane_.data() + i * n * row_words_, n, n};
  if (shape_.index) s.index = index_plane_.data() + i;
  return s;
}

PiggybackView PayloadArena::view(MsgId m) const {
  const std::size_t i = check(m);
  const auto n = static_cast<std::size_t>(n_);
  PiggybackView v;
  if (shape_.tdv) v.tdv = {tdv_plane_.data() + i * n, n};
  if (shape_.simple) v.simple = {simple_plane_.data() + i * row_words_, n};
  if (shape_.causal)
    v.causal = {causal_plane_.data() + i * n * row_words_, n, n};
  if (shape_.index) v.index = index_plane_[i];
  return v;
}

PiggybackSlot PayloadArena::send_slot(MsgId m) {
  check(m);
  const auto n = static_cast<std::size_t>(n_);
  PiggybackSlot s;
  if (shape_.tdv) s.tdv = {staging_tdv_.data(), n};
  if (shape_.simple) s.simple = {staging_simple_.data(), n};
  if (shape_.causal) s.causal = {staging_causal_.data(), n, n};
  if (shape_.index) s.index = &staging_index_;
  return s;
}

PiggybackView PayloadArena::staging_view() const {
  const auto n = static_cast<std::size_t>(n_);
  PiggybackView v;
  if (shape_.tdv) v.tdv = {staging_tdv_.data(), n};
  if (shape_.simple) v.simple = {staging_simple_.data(), n};
  if (shape_.causal) v.causal = {staging_causal_.data(), n, n};
  if (shape_.index) v.index = staging_index_;
  return v;
}

std::size_t PayloadArena::commit_send(MsgId m, ProcessId src, ProcessId dest) {
  encode_buf_.clear();  // capacity retained — no steady-state allocation
  const PiggybackView staged = staging_view();
  const std::size_t bytes = wire_.encode(src, dest, staged, encode_buf_);
  std::size_t offset = 0;
  wire_.decode(src, dest, encode_buf_, offset, slot(m));
  RDT_CHECK(offset == encode_buf_.size(),
            "piggyback decode consumed a different byte count than encode "
            "produced");
  // The decode-back cross-check: the planes that came out of the wire must
  // be bit-identical to the planes that went in.
  if constexpr (kAuditsEnabled) {
    const PiggybackView decoded = view(m);
    if (shape_.tdv)
      RDT_AUDIT(std::memcmp(decoded.tdv.data(), staged.tdv.data(),
                            staged.tdv.size() * sizeof(CkptIndex)) == 0,
                "wire codec roundtrip changed the TDV plane");
    if (shape_.simple)
      RDT_AUDIT(std::memcmp(decoded.simple.words(), staged.simple.words(),
                            decoded.simple.num_words() *
                                sizeof(std::uint64_t)) == 0,
                "wire codec roundtrip changed the simple plane");
    if (shape_.causal)
      RDT_AUDIT(std::memcmp(decoded.causal.row(0).words(),
                            staged.causal.row(0).words(),
                            decoded.causal.rows() * decoded.causal.row_words() *
                                sizeof(std::uint64_t)) == 0,
                "wire codec roundtrip changed the causal plane");
    RDT_AUDIT(decoded.index == staged.index,
              "wire codec roundtrip changed the scalar index");
  }
  return bytes * 8;
}

}  // namespace rdt
