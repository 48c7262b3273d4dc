// EL001: the include guard is derived from the file path.
#ifndef WRONG_GUARD_H_  // EXPECT: EL001
#define WRONG_GUARD_H_
#endif  // WRONG_GUARD_H_
