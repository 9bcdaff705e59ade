// The post-codec idiom: the headline is the measured first-message cost
// through the declared codec; the analytic flat column appears only as an
// explicitly-allowed comparison.
#include <cstddef>

std::size_t headline_bits_per_message(int n) {
  return piggyback_bits(kind, n);
}

std::size_t comparison_column(int n) {
  return registry.info(kind)
      .flat_piggyback_bits(n);  // rdt-lint: allow(flat-piggyback)
}
