// EL015: src/ registers metrics through the ESCORT_METRIC_* macros.
#include "src/sim/metrics.h"
void Wire(MetricsRegistry* m) {
  auto* drops = m->RegisterCounter("net.drops", "dropped SYNs");  // EXPECT: EL015
  m->RegisterGauge("sim.timers_armed", "armed timers");  // EXPECT: EL015
  (void)drops;
}
