// main() of the bench binaries that only run Google Benchmark benchmarks.
#include "harness.h"

int main(int argc, char** argv) {
  pera::bench::Harness h(pera::bench::Runner::kGoogleBenchmark);
  if (const int rc = h.parse(argc, argv); rc != 0) return rc;
  h.run_benchmarks();
  return h.finish();
}
