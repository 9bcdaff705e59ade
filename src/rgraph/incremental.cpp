#include "rgraph/incremental.hpp"

#include "util/check.hpp"
#include "util/mem_accounting.hpp"

namespace rdt {

namespace {

bool test_bit(const std::vector<std::uint64_t>& words, std::uint32_t i) {
  const std::size_t w = i >> 6;
  return w < words.size() && ((words[w] >> (i & 63)) & 1u) != 0;
}

// Returns true when the bit was newly set.
bool set_bit(std::vector<std::uint64_t>& words, std::uint32_t i) {
  std::uint64_t& w = words[i >> 6];
  const std::uint64_t mask = std::uint64_t{1} << (i & 63);
  if ((w & mask) != 0) return false;
  w |= mask;
  return true;
}

}  // namespace

void IncrementalReach::reset(std::size_t max_pooled_rows) {
  for (auto& slot : rows_) {
    if (!slot || row_pool_.size() >= max_pooled_rows) continue;
    // A pooled row must look fresh to catch_up (empty l0 => reflexive
    // reseed + full log replay) while keeping its word buffers' capacity.
    slot->l0.clear();
    slot->l1.clear();
    slot->edge_pos = 0;
    row_pool_.push_back(std::move(slot));
  }
  if (row_pool_.size() > max_pooled_rows) row_pool_.resize(max_pooled_rows);
  adj_.clear();
  edges_.clear();
  rows_.clear();
  queue_.clear();
}

int IncrementalReach::add_node() {
  const int id = static_cast<int>(adj_.size());
  adj_.emplace_back();
  rows_.emplace_back();  // row materialized lazily on first query
  return id;
}

void IncrementalReach::add_edge(int from, int to, bool message) {
  RDT_REQUIRE(from >= 0 && from < num_nodes(), "edge tail out of range");
  RDT_REQUIRE(to >= 0 && to < num_nodes(), "edge head out of range");
  const auto enc =
      (static_cast<std::uint32_t>(to) << 1) | (message ? 1u : 0u);
  adj_[static_cast<std::size_t>(from)].push_back(enc);
  edges_.emplace_back(static_cast<std::uint32_t>(from), enc);
}

IncrementalReach::Row& IncrementalReach::row_for(int from) {
  RDT_REQUIRE(from >= 0 && from < num_nodes(), "node id out of range");
  auto& slot = rows_[static_cast<std::size_t>(from)];
  if (!slot) {
    if (!row_pool_.empty()) {
      slot = std::move(row_pool_.back());
      row_pool_.pop_back();
    } else {
      slot = std::make_unique<Row>();
    }
  }
  catch_up(from, *slot);
  return *slot;
}

void IncrementalReach::catch_up(int from, Row& row) {
  const std::size_t words =
      bitdetail::words_for(static_cast<std::size_t>(num_nodes()));
  const bool fresh = row.l0.empty();
  row.l0.resize(words, 0);
  row.l1.resize(words, 0);

  queue_.clear();
  if (fresh) {
    // Reflexive seed: the empty path reaches the source with no message edge.
    set_bit(row.l0, static_cast<std::uint32_t>(from));
    queue_.push_back(static_cast<std::uint32_t>(from) << 1);
  }

  // Scan the log from the row's cursor. A logged edge only matters where the
  // already-known closure touches its tail; propagation past the head is
  // completed by the BFS drain below (the full adjacency already contains
  // every logged edge, so newly reached tails are handled there).
  for (; row.edge_pos < edges_.size(); ++row.edge_pos) {
    const auto [u, enc] = edges_[row.edge_pos];
    const std::uint32_t v = enc >> 1;
    const bool msg = (enc & 1u) != 0;
    if (test_bit(row.l0, u)) {
      const std::uint32_t layer = msg ? 1u : 0u;
      if (set_bit(layer != 0 ? row.l1 : row.l0, v))
        queue_.push_back((v << 1) | layer);
    }
    if (test_bit(row.l1, u) && set_bit(row.l1, v))
      queue_.push_back((v << 1) | 1u);
  }

  while (!queue_.empty()) {
    const std::uint32_t item = queue_.back();
    queue_.pop_back();
    const std::uint32_t x = item >> 1;
    const std::uint32_t layer = item & 1u;
    for (const std::uint32_t enc : adj_[x]) {
      const std::uint32_t y = enc >> 1;
      const std::uint32_t out = (layer | (enc & 1u));
      if (set_bit(out != 0 ? row.l1 : row.l0, y))
        queue_.push_back((y << 1) | out);
    }
  }
}

bool IncrementalReach::msg_reach(int from, int to) {
  RDT_REQUIRE(to >= 0 && to < num_nodes(), "node id out of range");
  return test_bit(row_for(from).l1, static_cast<std::uint32_t>(to));
}

std::size_t IncrementalReach::resident_bytes() const {
  std::size_t bytes = mem::nested_vec_bytes(adj_) + mem::vec_bytes(edges_) +
                      mem::vec_bytes(rows_) + mem::vec_bytes(row_pool_) +
                      mem::vec_bytes(queue_);
  const auto row_bytes = [](const std::unique_ptr<Row>& row) {
    if (!row) return std::size_t{0};
    return sizeof(Row) + mem::vec_bytes(row->l0) + mem::vec_bytes(row->l1);
  };
  for (const auto& row : rows_) bytes += row_bytes(row);
  for (const auto& row : row_pool_) bytes += row_bytes(row);
  return bytes;
}

}  // namespace rdt
