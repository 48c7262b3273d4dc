// EL015 negative space: tests may drive the registry directly.
#include "src/sim/metrics.h"
void Probe(MetricsRegistry* m) {
  m->RegisterGauge("x", "direct registration in a test is fine");
}
