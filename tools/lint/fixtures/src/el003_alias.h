// EL003: a clock alias declared here is flagged where another file uses it
// (src/el003_alias_use.cc), although the use carries no clock token.
#ifndef SRC_EL003_ALIAS_H_
#define SRC_EL003_ALIAS_H_
#include <chrono>
using SimTick = std::chrono::steady_clock;  // EXPECT: EL003
#endif  // SRC_EL003_ALIAS_H_
