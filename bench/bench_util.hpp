// Shared helpers for the figure/table reproduction harnesses.
#pragma once

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "pareto/point.hpp"
#include "pareto/tradeoff.hpp"

namespace ep::bench {

inline void printHeader(const std::string& what, const std::string& paper) {
  std::printf("================================================================\n");
  std::printf("%s\n", what.c_str());
  std::printf("paper reports: %s\n", paper.c_str());
  std::printf("================================================================\n");
}

inline void printFront(const std::string& title,
                       const std::vector<pareto::BiPoint>& front) {
  Table t({"config", "time [s]", "dynamic energy [J]"});
  t.setTitle(title);
  for (const auto& p : front) {
    t.addRow({p.label, formatDouble(p.time.value(), 3),
              formatDouble(p.energy.value(), 1)});
  }
  t.print(std::cout);
}

// One measured operating point of a scaling bench, in machine-readable
// form so the perf trajectory can be tracked across PRs.
struct BenchRecord {
  std::string name;         // e.g. "runWorkload/metered"
  int threads = 1;          // threads running: pool workers + caller
                            // (1 = serial baseline)
  double nsPerOp = 0.0;     // wall nanoseconds per item (config)
  double itemsPerSecond = 0.0;  // configs/s
};

// Write records as `{"bench": ..., "records": [...]}` JSON.  Returns
// false (with a note on stderr) if the file cannot be written.
inline bool writeBenchJson(const std::string& path, const std::string& bench,
                           const std::vector<BenchRecord>& records) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"records\": [\n",
               bench.c_str());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& r = records[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"threads\": %d, "
                 "\"ns_per_op\": %.17g, \"configs_per_s\": %.17g}%s\n",
                 r.name.c_str(), r.threads, r.nsPerOp, r.itemsPerSecond,
                 i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return true;
}

// One named scalar of a comparison bench (e.g. per-policy cluster
// energy / p99), for benches whose results are not per-op rates.
struct BenchValue {
  std::string name;  // e.g. "energy/clusterJoules"
  double value = 0.0;
};

// Write values as `{"bench": ..., "values": [...]}` JSON.  Returns
// false (with a note on stderr) if the file cannot be written.
inline bool writeBenchValuesJson(const std::string& path,
                                 const std::string& bench,
                                 const std::vector<BenchValue>& values) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"values\": [\n", bench.c_str());
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::fprintf(f, "    {\"name\": \"%s\", \"value\": %.17g}%s\n",
                 values[i].name.c_str(), values[i].value,
                 i + 1 < values.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return true;
}

inline void printTradeoff(const std::string& title,
                          const pareto::Tradeoff& tr) {
  std::printf(
      "%s: perf-opt %s (%.3f s, %.1f J) -> energy-opt %s (%.3f s, %.1f J): "
      "savings %.1f%% at %.1f%% degradation\n",
      title.c_str(), tr.performanceOptimal.label.c_str(),
      tr.performanceOptimal.time.value(),
      tr.performanceOptimal.energy.value(), tr.energyOptimal.label.c_str(),
      tr.energyOptimal.time.value(), tr.energyOptimal.energy.value(),
      100.0 * tr.maxEnergySavings, 100.0 * tr.performanceDegradation);
}

}  // namespace ep::bench
