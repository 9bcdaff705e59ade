#include "protocols/registry.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace rdt {
namespace {

ProtocolInfo describe(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::kNoForce:
      return {.kind = kind,
              .id = to_string(kind),
              .description = "basic checkpoints only (violates RDT)",
              .ensures_rdt = false,
              .transmits_tdv = false,
              .checkpoint_after_send = false,
              .predicates = {},
              .shape = {},
              .codec = PiggybackCodecKind::kFlat};
    case ProtocolKind::kCbr:
      return {.kind = kind,
              .id = to_string(kind),
              .description = "forced checkpoint before every delivery",
              .ensures_rdt = true,
              .transmits_tdv = false,
              .checkpoint_after_send = false,
              .predicates = {ForceReason::kEveryDelivery},
              .shape = {},
              .codec = PiggybackCodecKind::kFlat};
    case ProtocolKind::kCas:
      return {.kind = kind,
              .id = to_string(kind),
              .description = "checkpoint after every send (Wu & Fuchs)",
              .ensures_rdt = true,
              .transmits_tdv = false,
              .checkpoint_after_send = true,
              .predicates = {ForceReason::kCheckpointAfterSend},
              .shape = {},
              .codec = PiggybackCodecKind::kFlat};
    case ProtocolKind::kNras:
      return {.kind = kind,
              .id = to_string(kind),
              .description = "no receive after send (Russell)",
              .ensures_rdt = true,
              .transmits_tdv = false,
              .checkpoint_after_send = false,
              .predicates = {ForceReason::kAfterSend},
              .shape = {},
              .codec = PiggybackCodecKind::kFlat};
    case ProtocolKind::kFdi:
      return {.kind = kind,
              .id = to_string(kind),
              .description = "fixed dependency interval (Wang)",
              .ensures_rdt = true,
              .transmits_tdv = true,
              .checkpoint_after_send = false,
              .predicates = {ForceReason::kNewDependency},
              .shape = {.tdv = true},
              .codec = PiggybackCodecKind::kDelta};
    case ProtocolKind::kFdas:
      return {.kind = kind,
              .id = to_string(kind),
              .description = "fixed dependency after send (Wang)",
              .ensures_rdt = true,
              .transmits_tdv = true,
              .checkpoint_after_send = false,
              .predicates = {ForceReason::kNewDependency},
              .shape = {.tdv = true},
              .codec = PiggybackCodecKind::kDelta};
    case ProtocolKind::kBhmr:
      return {.kind = kind,
              .id = to_string(kind),
              .description = "the paper's protocol: predicate C1 v C2",
              .ensures_rdt = true,
              .transmits_tdv = true,
              .checkpoint_after_send = false,
              .predicates = {ForceReason::kC1, ForceReason::kC2},
              .shape = {.tdv = true, .simple = true, .causal = true},
              .codec = PiggybackCodecKind::kDelta};
    case ProtocolKind::kBhmrNoSimple:
      return {.kind = kind,
              .id = to_string(kind),
              .description = "BHMR variant 1: C1 v C2' (no simple array)",
              .ensures_rdt = true,
              .transmits_tdv = true,
              .checkpoint_after_send = false,
              .predicates = {ForceReason::kC1, ForceReason::kC2},
              .shape = {.tdv = true, .causal = true},
              .codec = PiggybackCodecKind::kDelta};
    case ProtocolKind::kBhmrC1Only:
      return {.kind = kind,
              .id = to_string(kind),
              .description = "BHMR variant 2: C1 alone, causal diagonal false",
              .ensures_rdt = true,
              .transmits_tdv = true,
              .checkpoint_after_send = false,
              .predicates = {ForceReason::kC1},
              .shape = {.tdv = true, .causal = true},
              .codec = PiggybackCodecKind::kDelta};
    case ProtocolKind::kBcs:
      return {.kind = kind,
              .id = to_string(kind),
              .description =
                  "index-based (Briatico-Ciuffoletti-Simoncini): no useless "
                  "checkpoints, not full RDT",
              .ensures_rdt = false,
              .transmits_tdv = false,
              .checkpoint_after_send = false,
              .predicates = {ForceReason::kIndexAhead},
              .shape = {.index = true},
              .codec = PiggybackCodecKind::kSparse};
    case ProtocolKind::kAdaptive:
      return {.kind = kind,
              .id = to_string(kind),
              .description =
                  "adaptive meta-protocol: BHMR's rich predicates vs FDAS's "
                  "lean one, switched from observed traffic shape",
              .ensures_rdt = true,
              .transmits_tdv = true,
              .checkpoint_after_send = false,
              .predicates = {ForceReason::kC1, ForceReason::kC2,
                             ForceReason::kNewDependency},
              .shape = {.tdv = true, .simple = true, .causal = true},
              .codec = PiggybackCodecKind::kDelta};
  }
  RDT_ASSERT(false);
}

}  // namespace

PiggybackCodecKind ProtocolInfo::codec_for(int num_processes) const {
  const bool past_delta_cap =
      codec == PiggybackCodecKind::kDelta && num_processes > kMaxDeltaProcesses;
  return past_delta_cap ? PiggybackCodecKind::kSparse : codec;
}

ProtocolRegistry::ProtocolRegistry() {
  infos_.reserve(all_protocol_kinds().size());
  for (ProtocolKind kind : all_protocol_kinds()) infos_.push_back(describe(kind));
}

const ProtocolRegistry& ProtocolRegistry::instance() {
  static const ProtocolRegistry registry;
  return registry;
}

std::unique_ptr<CicProtocol> ProtocolRegistry::create(
    ProtocolKind kind, int num_processes, ProcessId self,
    ProtocolObserver* observer) const {
  std::unique_ptr<CicProtocol> proto = make_protocol(kind, num_processes, self);
  if (observer != nullptr) proto->set_observer(observer);
  return proto;
}

std::unique_ptr<CicProtocol> ProtocolRegistry::create(
    std::string_view id, int num_processes, ProcessId self,
    ProtocolObserver* observer) const {
  const ProtocolInfo* found = find(id);
  if (found == nullptr)
    throw std::invalid_argument("unknown protocol '" + std::string(id) + "'");
  return create(found->kind, num_processes, self, observer);
}

const ProtocolInfo* ProtocolRegistry::find(std::string_view id) const {
  const auto it = std::find_if(infos_.begin(), infos_.end(),
                               [id](const ProtocolInfo& i) { return i.id == id; });
  return it == infos_.end() ? nullptr : &*it;
}

const ProtocolInfo& ProtocolRegistry::info(ProtocolKind kind) const {
  const auto it = std::find_if(infos_.begin(), infos_.end(),
                               [kind](const ProtocolInfo& i) { return i.kind == kind; });
  RDT_ASSERT(it != infos_.end());
  return *it;
}

}  // namespace rdt
