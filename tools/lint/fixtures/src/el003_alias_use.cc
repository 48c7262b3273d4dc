#include "src/el003_alias.h"
long Stamp() { return SimTick::now().time_since_epoch().count(); }  // EXPECT: EL003
