#include "workload.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <numeric>

#include "codec.hpp"

namespace e2e {

std::uint64_t SeededRng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t SeededRng::below(std::uint64_t bound) {
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(next()) * bound) >> 64);
}

double SeededRng::unit() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t mix64(std::uint64_t a, std::uint64_t b) {
  SeededRng r(a ^ (b * 0xD1B54A32D192ED03ULL));
  return r.next();
}

namespace {

// Distinct workload sizes the tune workloads draw keys from: multiples
// of 64 in [1024, 16320].  Every one is launchable on both devices with
// all 128 (BS, G, R) configurations.
constexpr int kGridFirst = 1024;
constexpr int kGridStep = 64;
constexpr int kGridSize = 240;

// Cycled stream length per connection.
constexpr std::size_t kTuneStreamLength = 16384;
constexpr std::size_t kStudyStreamLength = 128;

// `count` distinct sizes from the grid (partial Fisher-Yates).
std::vector<int> drawSizes(SeededRng& rng, int count) {
  std::vector<int> idx(kGridSize);
  std::iota(idx.begin(), idx.end(), 0);
  std::vector<int> out;
  for (int i = 0; i < count; ++i) {
    const auto j = static_cast<int>(i + rng.below(kGridSize - i));
    std::swap(idx[i], idx[j]);
    out.push_back(kGridFirst + kGridStep * idx[i]);
  }
  return out;
}

std::vector<Request> tuneKeys(SeededRng& rng, int perDevice) {
  std::vector<Request> keys;
  for (int device = 0; device < 2; ++device) {
    for (int n : drawSizes(rng, perDevice)) {
      Request r;
      r.device = device;
      r.n = n;
      keys.push_back(r);
    }
  }
  return keys;
}

void makeMiss(std::uint64_t seed, int nproc, Workload* w) {
  w->connections = std::min(4, nproc);
  w->window = 8;
  w->slices = 32;
  // Event thread + pool workers + the client thread <= nproc.
  w->daemonThreads = std::max(1, nproc - 2);
  w->cache = 64;
  SeededRng rng(mix64(seed, 2));
  std::vector<Request> keys = tuneKeys(rng, 128);
  // Zipf(1) popularity over a seeded ranking of the 256 keys.
  for (std::size_t i = keys.size() - 1; i > 0; --i) {
    std::swap(keys[i], keys[rng.below(i + 1)]);
  }
  std::vector<double> cdf(keys.size());
  double sum = 0.0;
  for (std::size_t r = 0; r < keys.size(); ++r) {
    sum += 1.0 / static_cast<double>(r + 1);
    cdf[r] = sum;
  }
  w->verify = keys;
  // Warm-up: the cache-sized hot set, most popular first.
  for (std::size_t r = 0; r < 64; ++r) {
    Request q = keys[r];
    q.budget = 1;
    w->warmup.push_back(q);
  }
  for (int c = 0; c < w->connections; ++c) {
    SeededRng cr(mix64(seed, 200 + c));
    std::vector<Request> s(kTuneStreamLength);
    for (Request& q : s) {
      const double u = cr.unit() * sum;
      const auto rank = static_cast<std::size_t>(
          std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      q = keys[std::min(rank, keys.size() - 1)];
      q.budget = static_cast<int>(cr.below(kBudgetCount));
    }
    w->streams.push_back(std::move(s));
  }
}

void makeStudy(std::uint64_t seed, int nproc, Workload* w) {
  w->connections = 1;
  w->window = 1;
  // A metered study request takes ~0.3 s, so its slices are longer.
  w->slices = 8;
  // The pool carries the study (the calling worker participates in the
  // nested parallelFor); the event and slow-op threads idle, so pool +
  // client thread <= nproc.
  w->daemonThreads = std::max(1, nproc - 1);
  w->meter = true;
  SeededRng rng(mix64(seed, 3));
  // Each request sweeps 4 sizes on one device, alternating devices.
  // Offsets come from a seeded permutation, so no size repeats within a
  // stream and every workload is a cold metered study.  The P100 sizes
  // are twice the K40c ones, which makes both devices' requests cost
  // about the same: the latency distribution stays unimodal and its
  // median steady.  All sizes need exactly 5 windows per configuration.
  std::vector<int> perm[2];
  for (auto& p : perm) {
    p.resize(kStudyStreamLength / 2);
    std::iota(p.begin(), p.end(), 0);
    for (std::size_t i = p.size() - 1; i > 0; --i) {
      std::swap(p[i], p[rng.below(i + 1)]);
    }
  }
  std::vector<Request> s;
  for (std::size_t j = 0; j < kStudyStreamLength; ++j) {
    Request r;
    r.study = true;
    r.device = static_cast<int>(j % 2);
    const int offset = 4 * perm[r.device][j / 2];
    const int scale = r.device == 1 ? 1 : 2;
    r.n = scale * (7168 + offset);
    r.nStep = scale * 1024;
    r.nEnd = r.n + 3 * r.nStep;
    s.push_back(r);
  }
  // The first request of the stream, which slice 0 always sends.
  w->verify.push_back(s.front());
  w->streams.push_back(std::move(s));
}

}  // namespace

std::vector<std::string> Workload::daemonArgs() const {
  std::vector<std::string> a = {"--port", "0", "--threads",
                                std::to_string(daemonThreads), "--seed",
                                std::to_string(daemonSeed)};
  if (cache > 0) {
    a.push_back("--cache");
    a.push_back(std::to_string(cache));
  }
  if (meter) a.push_back("--meter");
  return a;
}

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> names = {"miss_json", "study_metered"};
  return names;
}

bool makeWorkload(const std::string& name, std::uint64_t seed, int nproc,
                  Workload* out) {
  Workload w;
  w.name = name;
  w.daemonSeed = mix64(seed, 0) >> 16;
  if (name == "miss_json") {
    makeMiss(seed, nproc, &w);
  } else if (name == "study_metered") {
    makeStudy(seed, nproc, &w);
  } else {
    return false;
  }
  *out = std::move(w);
  return true;
}

std::string traceIdFor(int conn, std::size_t index) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "c%d-%zx", conn, index);
  return buf;
}

std::string epb1TuneBody(const Request& r, const std::string& traceId) {
  std::string body;
  body += static_cast<char>(r.device);
  body += static_cast<char>(1);  // flags: report
  putVarint(body, static_cast<std::uint64_t>(r.n));
  const double budget = kBudgets[r.budget];
  const double deadlineMs = 0.0;
  char bytes[sizeof(double)];
  std::memcpy(bytes, &budget, sizeof bytes);
  body.append(bytes, sizeof bytes);
  std::memcpy(bytes, &deadlineMs, sizeof bytes);
  body.append(bytes, sizeof bytes);
  putVarint(body, traceId.size());
  body += traceId;
  return body;
}

std::string jsonRequestText(const Request& r, const std::string& traceId) {
  char buf[256];
  if (r.study) {
    std::snprintf(buf, sizeof buf,
                  "{\"op\":\"study\",\"device\":\"%s\",\"nBegin\":%d,"
                  "\"nEnd\":%d,\"nStep\":%d,\"report\":true,"
                  "\"trace_id\":\"%s\"}",
                  kDeviceNames[r.device], r.n, r.nEnd, r.nStep,
                  traceId.c_str());
  } else {
    std::snprintf(buf, sizeof buf,
                  "{\"op\":\"tune\",\"device\":\"%s\",\"n\":%d,"
                  "\"maxDegradation\":%s,\"report\":true,"
                  "\"trace_id\":\"%s\"}",
                  kDeviceNames[r.device], r.n, kBudgetText[r.budget],
                  traceId.c_str());
  }
  return buf;
}

std::string encodeRequest(const Request& r, const std::string& traceId) {
  return jsonRequestText(r, traceId) + '\n';
}

std::string encodeMetricsRequest() {
  return "{\"op\":\"metrics\",\"format\":\"prometheus\"}\n";
}

}  // namespace e2e
