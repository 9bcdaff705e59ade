// ticket-atomics: the PublishedHeads member passes, but a plain array of
// heads mutated in the same bracket still fails — the rule matches the
// published type by name, not any member that looks like one.
struct Engine {
  void on_edge(int tail) {
    const WriteTicket ticket(seq_);
    edge_log_.push_back(tail);
    heads_.store(tail, edge_log_.size());
    shadow_heads_[tail] = edge_log_.size();
  }
  std::atomic<unsigned long long> seq_{0};
  PublishedLog<int> edge_log_;
  PublishedHeads heads_;
  std::vector<unsigned> shadow_heads_;
};
