#ifndef SRC_CLEAN_H_
#define SRC_CLEAN_H_
int f();
#endif  // SRC_CLEAN_H_
