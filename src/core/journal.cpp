#include "core/journal.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/error.hpp"

namespace ep::core {

namespace {

constexpr const char* kMagic = "epsimjournal";
constexpr int kVersion = 2;  // v2: C records carry the remeasure count

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

bool parseHex16(const std::string& s, std::uint64_t& out) {
  if (s.size() != 16) return false;
  std::uint64_t v = 0;
  for (char c : s) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else {
      return false;
    }
    v = (v << 4) | static_cast<std::uint64_t>(digit);
  }
  out = v;
  return true;
}

// One line of error text: newlines would tear the record format.
std::string sanitized(const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return out;
}

}  // namespace

std::map<int, WorkloadResult> StudyJournal::load(
    const std::string& path, std::uint64_t hash,
    const apps::GpuMatMulApp& app) {
  std::map<int, WorkloadResult> out;
  std::ifstream in(path);
  if (!in.is_open()) return out;

  std::string line;
  if (!std::getline(in, line)) return out;  // empty file: nothing done yet
  {
    std::istringstream header(line);
    std::string magic, hashText;
    int version = 0;
    header >> magic >> version >> hashText;
    EP_REQUIRE(magic == kMagic && version == kVersion,
               "not an epsim study journal: " + path);
    std::uint64_t fileHash = 0;
    EP_REQUIRE(parseHex16(hashText, fileHash),
               "corrupt journal header hash: " + path);
    EP_REQUIRE(fileHash == hash,
               "journal " + path +
                   " was recorded by a differently-configured study "
                   "(seed or options changed); refusing to resume");
  }

  // Accumulate the workload in progress; commit only on its E record.
  // Any malformed or truncated line ends parsing — everything after a
  // torn append is unreachable by construction (appends are ordered).
  // So does a record the app cannot honour: the counts in a W record
  // reserve nothing (the E record checks them), and a C record whose
  // configuration cannot launch, or a workload whose points admit no
  // fronts, is as malformed as a torn append.
  bool open = false;
  WorkloadResult pending;
  std::size_t wantData = 0, wantFailures = 0;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string tag;
    if (!(ls >> tag)) break;
    if (tag == "W") {
      int n = 0;
      if (open || !(ls >> n >> wantData >> wantFailures)) break;
      pending = WorkloadResult{};
      pending.n = n;
      open = true;
    } else if (tag == "C") {
      apps::GpuDataPoint d;
      std::string timeText, energyText;
      std::uint64_t timeBits = 0, energyBits = 0;
      if (!open ||
          !(ls >> d.config.bs >> d.config.g >> d.config.r >> timeText >>
            energyText >> d.repetitions >> d.remeasures) ||
          !parseHex16(timeText, timeBits) ||
          !parseHex16(energyText, energyBits)) {
        break;
      }
      d.config.n = pending.n;
      d.time = Seconds{bitsToDouble(timeBits)};
      d.dynamicEnergy = Joules{bitsToDouble(energyBits)};
      try {
        d.model = app.model().modelMatMul(d.config);
      } catch (const EpError&) {
        break;  // not launchable, or cannot be resident
      }
      pending.data.push_back(std::move(d));
    } else if (tag == "F") {
      apps::GpuConfigFailure f;
      if (!open ||
          !(ls >> f.config.bs >> f.config.g >> f.config.r)) {
        break;
      }
      f.config.n = pending.n;
      std::getline(ls, f.error);
      if (!f.error.empty() && f.error.front() == ' ') f.error.erase(0, 1);
      pending.failures.push_back(std::move(f));
    } else if (tag == "E") {
      int n = 0;
      if (!open || !(ls >> n) || n != pending.n ||
          pending.data.size() != wantData ||
          pending.failures.size() != wantFailures) {
        break;
      }
      try {
        finalizeWorkload(pending);
      } catch (const EpError&) {
        break;  // no points, or objectives no measurement yields
      }
      out[pending.n] = std::move(pending);
      open = false;
    } else {
      break;
    }
  }
  return out;
}

StudyJournal::StudyJournal(std::string path, std::uint64_t hash)
    : path_(std::move(path)) {
  bool needHeader = true;
  {
    std::ifstream probe(path_);
    std::string first;
    if (probe.is_open() && std::getline(probe, first) && !first.empty()) {
      needHeader = false;
    }
  }
  if (needHeader) {
    std::ofstream out(path_, std::ios::app);
    EP_REQUIRE(out.is_open(), "cannot open journal for writing: " + path_);
    out << kMagic << ' ' << kVersion << ' ' << hex16(hash) << '\n';
    out.flush();
    EP_REQUIRE(out.good(), "journal header write failed: " + path_);
  }
}

void StudyJournal::append(const WorkloadResult& r) {
  std::ostringstream rec;
  rec << "W " << r.n << ' ' << r.data.size() << ' ' << r.failures.size()
      << '\n';
  for (const auto& d : r.data) {
    rec << "C " << d.config.bs << ' ' << d.config.g << ' ' << d.config.r
        << ' ' << hex16(doubleBits(d.time.value())) << ' '
        << hex16(doubleBits(d.dynamicEnergy.value())) << ' '
        << d.repetitions << ' ' << d.remeasures << '\n';
  }
  for (const auto& f : r.failures) {
    rec << "F " << f.config.bs << ' ' << f.config.g << ' ' << f.config.r
        << ' ' << sanitized(f.error) << '\n';
  }
  rec << "E " << r.n << '\n';
  // One locked append + flush per workload: concurrent sweeps interleave
  // at record granularity only, and a crash can tear at most the tail.
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path_, std::ios::app);
  EP_REQUIRE(out.is_open(), "cannot open journal for writing: " + path_);
  out << rec.str();
  out.flush();
  EP_REQUIRE(out.good(), "journal append failed: " + path_);
}

}  // namespace ep::core
