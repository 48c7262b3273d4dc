// EL014: detection accumulators hold integer state only.
// ESCORT_DETECT_ACCUMULATOR
struct FloatSprt {
  double llr = 0.0;  // EXPECT: EL014
};
