// EL003: no ambient randomness or wall-clock time in src/.
#include <chrono>
#include <cstdlib>
#include <ctime>

int Jitter() { return rand() % 7; }  // EXPECT: EL003
long WallSeconds() { return time(nullptr); }  // EXPECT: EL003
using Clock = std::chrono::steady_clock;  // EXPECT: EL003
long Tick() { return Clock::now().time_since_epoch().count(); }  // EXPECT: EL003
typedef std::chrono::high_resolution_clock HrClock;  // EXPECT: EL003
long HrTick() { return HrClock::now().time_since_epoch().count(); }  // EXPECT: EL003
