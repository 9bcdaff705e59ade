#include "obs/session.hpp"

#include <ostream>

#include "util/check.hpp"
#include "util/json.hpp"

namespace rdt::obs {

std::atomic<ObsSession*> ObsSession::current_{nullptr};

ObsSession::ObsSession() : start_(std::chrono::steady_clock::now()) {
  ObsSession* expected = nullptr;
  RDT_REQUIRE(current_.compare_exchange_strong(expected, this,
                                               std::memory_order_acq_rel),
              "another ObsSession is already active");
  active_ = true;
}

ObsSession::~ObsSession() { deactivate(); }

void ObsSession::deactivate() {
  if (!active_) return;
  active_ = false;
  ObsSession* expected = this;
  current_.compare_exchange_strong(expected, nullptr,
                                   std::memory_order_acq_rel);
}

void ObsSession::write_chrome_trace(std::ostream& os) const {
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const SpanEvent& ev : trace_.sorted_events()) {
    if (!first) os << ',';
    first = false;
    os << "{\"name\":";
    json::write_string(os, ev.name);
    os << ",\"cat\":";
    json::write_string(os, ev.cat);
    os << ",\"ph\":\"X\",\"ts\":" << ev.ts_us << ",\"dur\":" << ev.dur_us
       << ",\"pid\":0,\"tid\":" << ev.tid << ",\"args\":{";
    if (ev.arg_name != nullptr && ev.arg_value != nullptr) {
      json::write_string(os, ev.arg_name);
      os << ':';
      json::write_string(os, ev.arg_value);
    }
    os << "}}";
  }
  os << "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"schema\":\"rdt-trace-v1\"}";

  const MetricsSnapshot snap = metrics_.snapshot();
  os << ",\"metrics\":{\"counters\":{";
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    if (i > 0) os << ',';
    json::write_string(os, snap.counters[i].first);
    os << ':' << snap.counters[i].second;
  }
  os << "},\"histograms\":{";
  for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
    const HistogramSnapshot& h = snap.histograms[i];
    if (i > 0) os << ',';
    json::write_string(os, h.name);
    os << ":{\"bounds\":[";
    for (std::size_t b = 0; b < h.bounds.size(); ++b)
      os << (b > 0 ? "," : "") << h.bounds[b];
    os << "],\"counts\":[";
    for (std::size_t b = 0; b < h.counts.size(); ++b)
      os << (b > 0 ? "," : "") << h.counts[b];
    os << "],\"count\":" << h.count << ",\"sum\":" << h.sum
       << ",\"min\":" << h.min << ",\"max\":" << h.max << '}';
  }
  os << "}}}\n";
}

}  // namespace rdt::obs
