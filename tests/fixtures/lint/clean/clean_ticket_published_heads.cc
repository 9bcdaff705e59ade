// A PublishedHeads member is published state like a PublishedLog: its
// slots are atomics the writer overwrites inside the WriteTicket bracket.
struct Engine {
  void on_edge(int tail) {
    const WriteTicket ticket(seq_);
    heads_.push_back(0);
    edge_log_.push_back(tail);
    heads_.store(tail, edge_log_.size());
  }
  std::atomic<unsigned long long> seq_{0};
  PublishedLog<int> edge_log_;
  PublishedHeads heads_;
};
