#include "src/kernel/owner.h"  // EXPECT: EL008
void ChargeWidget(Owner* o) { o->usage().widgets += 1; }  // EXPECT: EL007
Cycles Kernel::DestroyOwner(Owner* owner, int pd_count) {
  return 0;
}
