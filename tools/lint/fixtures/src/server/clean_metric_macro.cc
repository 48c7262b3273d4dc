// EL015 negative space: macro call sites carry no Register* token.
#include "src/sim/metrics.h"
void Wire(MetricsRegistry* m) {
  auto* drops = ESCORT_METRIC_COUNTER(m, "net.drops", "dropped SYNs");
  auto* depth = ESCORT_METRIC_GAUGE(m, "sim.timers_armed", "armed");
  (void)drops;
  (void)depth;
}
