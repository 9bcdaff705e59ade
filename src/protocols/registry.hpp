// ProtocolRegistry — the single construction path for CIC protocols.
//
// Benchmarks, tests, tools and the DES runtime all build protocol stacks
// from here instead of newing concrete classes or calling make_protocol():
// one string id ("bhmr", "fdas", ...) resolves to a factory plus the
// capability metadata callers otherwise hard-code — does the protocol
// ensure RDT, does it piggyback a TDV, which forcing predicates can it
// fire (the ForceReason subset the observability layer will report), does
// it checkpoint on the send side. Construction also wires an optional
// ProtocolObserver in one step, so no caller can forget the hook.
//
// The registry is a process-wide immutable singleton: every built-in kind
// is registered at first use, lookups are read-only and thread-safe.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "protocols/codec.hpp"
#include "protocols/protocol.hpp"

namespace rdt {

struct ProtocolInfo {
  ProtocolKind kind;
  std::string id;           // stable wire/CLI name, == to_string(kind)
  std::string description;  // one line, human-oriented
  bool ensures_rdt;         // proven rollback-dependency trackable
  bool transmits_tdv;       // piggybacks the transitive dependency vector
  bool checkpoint_after_send;
  // The forcing predicates this protocol can report, in priority order
  // (empty for no-force baselines).
  std::vector<ForceReason> predicates;
  // Which payload planes exist on a message (constant per kind; what the
  // arena carves) and which PiggybackCodec carries them on the wire.
  PayloadShape shape;
  PiggybackCodecKind codec = PiggybackCodecKind::kFlat;

  // The codec an n-process computation actually uses: `codec`, except that
  // a declared delta codec past kMaxDeltaProcesses falls back to sparse —
  // the only compact codec without that cap. Replay's default, the sweeps
  // and piggyback_bits() (sim/protocol_driver.hpp) all resolve the declared
  // codec here.
  PiggybackCodecKind codec_for(int num_processes) const;

  // The analytic flat-plane figure (TDV entries as 32-bit integers, one
  // bit per plane cell) kept as the labeled comparison column. The measured
  // figure is piggyback_bits() in sim/protocol_driver.hpp.
  std::size_t flat_piggyback_bits(int num_processes) const {
    return shape.flat_bits(num_processes);
  }
};

class ProtocolRegistry {
 public:
  static const ProtocolRegistry& instance();

  // Construction — the only supported way to obtain a protocol instance.
  // The observer, when given, is installed before the instance is returned
  // (non-owning; must outlive the protocol).
  std::unique_ptr<CicProtocol> create(ProtocolKind kind, int num_processes,
                                      ProcessId self,
                                      ProtocolObserver* observer = nullptr) const;
  // String-id form; throws std::invalid_argument for unknown ids.
  std::unique_ptr<CicProtocol> create(std::string_view id, int num_processes,
                                      ProcessId self,
                                      ProtocolObserver* observer = nullptr) const;

  // Metadata lookup. find() returns nullptr for unknown ids; info() throws.
  const ProtocolInfo* find(std::string_view id) const;
  const ProtocolInfo& info(ProtocolKind kind) const;
  // All registered protocols, baseline-first (same order as
  // all_protocol_kinds()).
  std::span<const ProtocolInfo> all() const { return infos_; }

 private:
  ProtocolRegistry();
  std::vector<ProtocolInfo> infos_;
};

}  // namespace rdt
