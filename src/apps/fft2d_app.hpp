// The Fig 1 strong-EP application: 2D FFT of an N x N complex signal,
// swept over N on the three Table I processors.  Produces (W, E_d)
// series where W = 5 N^2 log2 N, measured through the wall-meter stack.
//
// For small N the application can also run the real epfft transform on
// the host (functional mode) — used by tests to validate that the
// workload definition corresponds to an actual computation.
#pragma once

#include <variant>
#include <vector>

#include "common/rng.hpp"
#include "hw/cpu_model.hpp"
#include "hw/gpu_model.hpp"
#include "power/measurer.hpp"
#include "stats/ttest.hpp"

namespace ep::apps {

struct FftDataPoint {
  int n = 0;
  double work = 0.0;  // W = 5 N^2 log2 N
  Seconds time{0.0};
  Joules dynamicEnergy{0.0};
};

struct Fft2dOptions {
  bool useMeter = true;
  stats::MeasurementOptions measurement{};
  power::MeterOptions meter{};
};

class Fft2dApp {
 public:
  // Processor under test: either the CPU model or a GPU model.
  explicit Fft2dApp(hw::CpuModel cpu, Fft2dOptions options = {});
  explicit Fft2dApp(hw::GpuModel gpu, Fft2dOptions options = {});

  [[nodiscard]] std::string processorName() const;

  [[nodiscard]] FftDataPoint runSize(int n, Rng& rng) const;
  [[nodiscard]] std::vector<FftDataPoint> runSweep(
      const std::vector<int>& sizes, Rng& rng) const;

 private:
  struct Run {
    Seconds time{0.0};
    Watts corePower{0.0};
    bool uncoreActive = false;
    Watts uncorePower{0.0};
    Seconds uncoreTail{0.0};
    Watts idlePower{0.0};
  };
  [[nodiscard]] Run modelRun(int n) const;

  std::variant<hw::CpuModel, hw::GpuModel> processor_;
  Fft2dOptions options_;
};

}  // namespace ep::apps
