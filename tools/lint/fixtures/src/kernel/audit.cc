#include "src/kernel/owner.h"  // EXPECT: EL008
void Auditor::CheckOwnerDrained(const Owner& owner) {
}
