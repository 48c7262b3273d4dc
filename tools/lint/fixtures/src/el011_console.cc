// EL011: console output goes through Tracer::Diag.
#include <cstdio>
#include <iostream>
void Report(int n) { printf("%d\n", n); }  // EXPECT: EL011
void Stream(int n) { std::cout << n; }  // EXPECT: EL011
void Warn(const char* m) { fputs(m, stderr); }  // EXPECT: EL011
