#include "apps/fft2d_app.hpp"

#include <algorithm>
#include <cmath>

#include "apps/gpu_matmul_app.hpp"
#include "common/error.hpp"
#include "fft/fft.hpp"
#include "obs/profile_frames.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"

namespace ep::apps {

Fft2dApp::Fft2dApp(hw::CpuModel cpu, Fft2dOptions options)
    : processor_(std::move(cpu)), options_(options) {}

Fft2dApp::Fft2dApp(hw::GpuModel gpu, Fft2dOptions options)
    : processor_(std::move(gpu)), options_(options) {}

std::string Fft2dApp::processorName() const {
  if (const auto* cpu = std::get_if<hw::CpuModel>(&processor_)) {
    return cpu->spec().name;
  }
  return std::get<hw::GpuModel>(processor_).spec().name;
}

Fft2dApp::Run Fft2dApp::modelRun(int n) const {
  Run r;
  if (const auto* cpu = std::get_if<hw::CpuModel>(&processor_)) {
    const hw::CpuRunModel m = cpu->modelFft2d(n);
    r.time = m.time;
    r.corePower = m.dynamicPower;
    r.idlePower = cpu->spec().nodeIdlePower;
    return r;
  }
  const auto& gpu = std::get<hw::GpuModel>(processor_);
  const hw::KernelModel m = gpu.modelFft2d(n);
  r.time = m.time;
  r.corePower = m.corePower;
  r.uncoreActive = m.uncoreActive;
  r.uncorePower = m.uncorePower;
  r.uncoreTail = m.uncoreTail;
  r.idlePower = GpuMatMulApp::kHostIdlePower + gpu.spec().boardIdlePower;
  return r;
}

FftDataPoint Fft2dApp::runSize(int n, Rng& rng) const {
  EP_REQUIRE(n >= 2, "FFT size must be >= 2");
  const Run run = modelRun(n);
  FftDataPoint out;
  out.n = n;
  out.work = fft::fftWork(static_cast<std::size_t>(n));

  // A wall meter sampling at ~1 Hz cannot resolve a millisecond
  // transform: like HCLWattsUp, the application executes the transform
  // back-to-back until the measurement window is long enough, and
  // reports per-execution values.  The uncore decay tail occurs once
  // per measured window and therefore amortizes over the repeats.
  constexpr double kMinWindowSec = 20.0;
  const auto repeats = static_cast<int>(std::max(
      1.0, std::ceil(kMinWindowSec / std::max(run.time.value(), 1e-9))));
  const Seconds window = run.time * static_cast<double>(repeats);

  if (!options_.useMeter) {
    out.time = run.time;
    Joules e = run.corePower * run.time;
    if (run.uncoreActive) {
      e += run.uncorePower *
           (run.time + run.uncoreTail / static_cast<double>(repeats));
    }
    out.dynamicEnergy = e;
    // epprof energy profile, model-direct mode: fold the same joules
    // the ledger attributes under the kernel frame.
    if (obs::profilerArmed()) {
      obs::ProfileFrame kernelFrame("kernel/fft2d");
      obs::Profiler::global().recordEnergySample(
          out.dynamicEnergy.value(), obs::currentContext().traceId);
    }
    return out;
  }

  // epprof kernel frame: measurement CPU/joules attribute to the FFT.
  obs::ProfileFrame kernelFrame("kernel/fft2d");
  power::ProfilePowerSource profile(run.idlePower);
  profile.addSegment({Seconds{0.0}, window, run.corePower});
  Seconds tail{0.0};
  if (run.uncoreActive) {
    tail = run.uncoreTail;
    profile.addSegment({Seconds{0.0}, window + tail, run.uncorePower});
  }
  const power::WattsUpMeter meter(options_.meter);
  const power::EnergyMeasurer measurer(meter, run.idlePower);
  const power::MeasuredEnergy measured =
      measurer.measure(profile, window, rng, tail, options_.measurement);
  out.time = measured.mean.executionTime / static_cast<double>(repeats);
  out.dynamicEnergy =
      measured.mean.dynamicEnergy / static_cast<double>(repeats);
  return out;
}

std::vector<FftDataPoint> Fft2dApp::runSweep(const std::vector<int>& sizes,
                                             Rng& rng) const {
  std::vector<FftDataPoint> out;
  out.reserve(sizes.size());
  for (int n : sizes) {
    Rng sizeRng = rng.fork(static_cast<std::uint64_t>(n));
    out.push_back(runSize(n, sizeRng));
  }
  return out;
}

}  // namespace ep::apps
