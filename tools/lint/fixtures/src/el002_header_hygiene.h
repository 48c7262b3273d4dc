// EL002: headers use path-derived guards and leak no using-directives.
#ifndef SRC_EL002_HEADER_HYGIENE_H_
#define SRC_EL002_HEADER_HYGIENE_H_
#pragma once  // EXPECT: EL002
using namespace std;  // EXPECT: EL002
#endif  // SRC_EL002_HEADER_HYGIENE_H_
