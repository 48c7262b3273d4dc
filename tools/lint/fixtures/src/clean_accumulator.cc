// EL014 negative space: an integer-only marked accumulator, an ordered
// container, and compare-time float locals.
#include <cstdint>
#include <map>
// ESCORT_DETECT_ACCUMULATOR
struct SprtState {
  int64_t llr = 0;
  uint64_t observations = 0;
};
std::map<unsigned, SprtState> subnets;
bool Exceeds(uint64_t sum, uint64_t n, uint64_t value) {
  double mean = static_cast<double>(sum) / static_cast<double>(n);
  return static_cast<double>(value) > mean;
}
