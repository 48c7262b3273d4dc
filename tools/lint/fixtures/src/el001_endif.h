// EL001: the closing #endif names the guard.
#ifndef SRC_EL001_ENDIF_H_
#define SRC_EL001_ENDIF_H_
int Endif();
#endif  // EXPECT: EL001
