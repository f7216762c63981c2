#include "client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>

#include "codec.hpp"

namespace e2e {

std::uint64_t monotonicNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

double threadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

// ---------------------------------------------------------------- Expected

namespace {

std::string hexDouble(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

std::vector<std::string> splitTabs(const std::string& line) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (true) {
    const std::size_t tab = line.find('\t', pos);
    out.push_back(line.substr(pos, tab == std::string::npos ? tab : tab - pos));
    if (tab == std::string::npos) return out;
    pos = tab + 1;
  }
}

std::uint64_t toU64(std::string_view s) {
  return std::strtoull(std::string(s).c_str(), nullptr, 10);
}

}  // namespace

std::string Expected::formatTune(const Request& r, const TuneExpect& e) {
  std::string s = "T\t" + std::to_string(r.device) + "\t" +
                  std::to_string(r.n) + "\t" + std::to_string(r.budget);
  for (const std::string& f :
       {e.recommended, hexDouble(e.timeS), hexDouble(e.energyJ),
        hexDouble(e.savings), hexDouble(e.degradation), e.performanceOptimal,
        e.energyOptimal, e.knee, std::to_string(e.frontSize)}) {
    s += "\t" + f;
  }
  return s;
}

std::string Expected::formatStudy(const Request& r, const StudyExpect& e) {
  std::string s = "S\t" + std::to_string(r.device) + "\t" +
                  std::to_string(r.n) + "\t" + std::to_string(r.nEnd) + "\t" +
                  std::to_string(r.nStep);
  for (const std::string& f :
       {std::to_string(e.workloads), hexDouble(e.avgGlobalFrontSize),
        std::to_string(e.maxGlobalFrontSize), hexDouble(e.avgLocalFrontSize),
        std::to_string(e.maxLocalFrontSize), hexDouble(e.maxGlobalSavings),
        hexDouble(e.degradationAtMaxGlobalSavings),
        hexDouble(e.maxLocalSavings),
        hexDouble(e.degradationAtMaxLocalSavings), std::to_string(e.windows),
        std::to_string(e.studies)}) {
    s += "\t" + f;
  }
  return s;
}

std::uint64_t Expected::tuneKey(const Request& r) {
  return (static_cast<std::uint64_t>(r.device) << 40) |
         (static_cast<std::uint64_t>(r.n) << 8) |
         static_cast<std::uint64_t>(r.budget);
}

bool Expected::parse(const std::string& text, std::string* error) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) nl = text.size();
    const std::string line = text.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.empty()) continue;
    const std::vector<std::string> f = splitTabs(line);
    auto num = [&](std::size_t i) {
      return std::strtod(f[i].c_str(), nullptr);
    };
    auto u64 = [&](std::size_t i) { return toU64(f[i]); };
    Request r;
    r.device = static_cast<int>(u64(1));
    r.n = static_cast<int>(u64(2));
    if (f[0] == "T" && f.size() == 13) {
      r.budget = static_cast<int>(u64(3));
      TuneExpect e{f[4], num(5), num(6), num(7), num(8), f[9], f[10], f[11],
                   u64(12)};
      tunes_[tuneKey(r)] = std::move(e);
    } else if (f[0] == "S" && f.size() == 16) {
      StudyExpect e{u64(5),  num(6),  u64(7),  num(8),  u64(9),  num(10),
                    num(11), num(12), num(13), u64(14), u64(15)};
      studies_[{r.device, r.n, static_cast<int>(u64(3)),
                static_cast<int>(u64(4))}] = e;
    } else {
      *error = "malformed reference line: " + line;
      return false;
    }
  }
  return true;
}

const TuneExpect* Expected::tune(const Request& r) const {
  const auto it = tunes_.find(tuneKey(r));
  return it == tunes_.end() ? nullptr : &it->second;
}

const StudyExpect* Expected::study(const Request& r) const {
  const auto it = studies_.find({r.device, r.n, r.nEnd, r.nStep});
  return it == studies_.end() ? nullptr : &it->second;
}

// ------------------------------------------------------------------ Tally

void Tally::fail(std::string message) {
  ++failed;
  if (errors.size() < 5) errors.push_back(std::move(message));
}

void Tally::add(const Tally& o) {
  sent += o.sent;
  ok += o.ok;
  failed += o.failed;
  verified += o.verified;
  cacheHits += o.cacheHits;
  studiesExecuted += o.studiesExecuted;
  windows += o.windows;
  for (const std::string& e : o.errors) {
    if (errors.size() < 5) errors.push_back(e);
  }
}

// ---------------------------------------------------------------- Checker

namespace {

// Shared head of the JSON checks: parse, status, trace echo.
bool jsonHead(std::string_view line, std::string_view trace,
              std::vector<JsonField>* f, Tally* t) {
  if (!parseFlatJson(line, f)) {
    t->fail("unparsable JSON answer");
    return false;
  }
  const JsonField* status = findField(*f, "status");
  const JsonField* echo = findField(*f, "trace_id");
  if (status == nullptr || status->raw != "ok") {
    t->fail("JSON answer not ok: " + std::string(line.substr(0, 160)));
    return false;
  }
  if (echo == nullptr || echo->raw != trace) {
    t->fail("JSON answer out of order: " + std::string(line.substr(0, 160)));
    return false;
  }
  return true;
}

bool rawIs(const std::vector<JsonField>& f, std::string_view key,
           std::string_view want) {
  const JsonField* x = findField(f, key);
  return x != nullptr && x->raw == want;
}

std::uint64_t rawU64(const std::vector<JsonField>& f, std::string_view key) {
  const JsonField* x = findField(f, key);
  return x == nullptr ? 0 : toU64(x->raw);
}

}  // namespace

bool Checker::tuneJson(const Request& req, std::string_view trace,
                       std::string_view line, Tally* t) const {
  thread_local std::vector<JsonField> f;
  if (!jsonHead(line, trace, &f, t)) return false;
  const TuneExpect* e = expected_.tune(req);
  if (e == nullptr || !rawIs(f, "recommended", e->recommended) ||
      !rawIs(f, "recommendedTimeS", jsonNumber(e->timeS)) ||
      !rawIs(f, "recommendedEnergyJ", jsonNumber(e->energyJ)) ||
      !rawIs(f, "energySavings", jsonNumber(e->savings)) ||
      !rawIs(f, "performanceDegradation", jsonNumber(e->degradation)) ||
      !rawIs(f, "performanceOptimal", e->performanceOptimal) ||
      !rawIs(f, "energyOptimal", e->energyOptimal) ||
      !rawIs(f, "knee", e->knee) ||
      !rawIs(f, "frontSize", std::to_string(e->frontSize)) ||
      findField(f, "studiesExecuted") == nullptr) {
    t->fail("JSON tune answer differs from the reference: " +
            std::string(line.substr(0, 200)));
    return false;
  }
  ++t->ok;
  ++t->verified;
  t->cacheHits += rawIs(f, "cacheHit", "true") ? 1 : 0;
  t->studiesExecuted += rawU64(f, "studiesExecuted");
  t->windows += rawU64(f, "measurementWindows");
  return true;
}

bool Checker::studyJson(const Request& req, std::string_view trace,
                        std::string_view line, Tally* t) const {
  thread_local std::vector<JsonField> f;
  if (!jsonHead(line, trace, &f, t)) return false;
  const std::uint64_t sizes =
      static_cast<std::uint64_t>((req.nEnd - req.n) / req.nStep + 1);
  if (!rawIs(f, "workloads", std::to_string(sizes))) {
    t->fail("study answer covers the wrong sizes: " +
            std::string(line.substr(0, 200)));
    return false;
  }
  if (const StudyExpect* e = expected_.study(req)) {
    if (!rawIs(f, "avgGlobalFrontSize", jsonNumber(e->avgGlobalFrontSize)) ||
        !rawIs(f, "maxGlobalFrontSize",
               std::to_string(e->maxGlobalFrontSize)) ||
        !rawIs(f, "avgLocalFrontSize", jsonNumber(e->avgLocalFrontSize)) ||
        !rawIs(f, "maxLocalFrontSize", std::to_string(e->maxLocalFrontSize)) ||
        !rawIs(f, "maxGlobalSavings", jsonNumber(e->maxGlobalSavings)) ||
        !rawIs(f, "degradationAtMaxGlobalSavings",
               jsonNumber(e->degradationAtMaxGlobalSavings)) ||
        !rawIs(f, "maxLocalSavings", jsonNumber(e->maxLocalSavings)) ||
        !rawIs(f, "degradationAtMaxLocalSavings",
               jsonNumber(e->degradationAtMaxLocalSavings)) ||
        !rawIs(f, "measurementWindows", std::to_string(e->windows)) ||
        !rawIs(f, "studiesExecuted", std::to_string(e->studies))) {
      t->fail("study answer differs from the reference: " +
              std::string(line.substr(0, 200)));
      return false;
    }
    ++t->verified;
  }
  ++t->ok;
  t->studiesExecuted += rawU64(f, "studiesExecuted");
  t->windows += rawU64(f, "measurementWindows");
  return true;
}

// ---------------------------------------------------------------- reconcile

double rejectedTotal(const Counters& c) {
  double sum = 0.0;
  for (const char* name :
       {"ep_serve_rejected_queue_full_total",
        "ep_serve_rejected_deadline_total",
        "ep_serve_rejected_shutdown_total",
        "ep_serve_rejected_circuit_open_total",
        "ep_serve_rejected_overload_total", "ep_serve_shed_deadline_total"}) {
    const auto it = c.find(name);
    if (it != c.end()) sum += it->second;
  }
  return sum;
}

std::vector<std::string> reconcile(const Tally& phase, const Counters& before,
                                   const Counters& after) {
  std::vector<std::string> problems;
  auto value = [](const Counters& c, const std::string& name) {
    const auto it = c.find(name);
    return it == c.end() ? -1.0 : it->second;
  };
  auto expectDelta = [&](const std::string& name, std::uint64_t want,
                         const char* what) {
    const double a = value(after, name);
    const double b = value(before, name);
    if (a < 0 || b < 0) {
      problems.push_back(name + " missing from the exposition");
    } else if (a - b != static_cast<double>(want)) {
      char buf[256];
      std::snprintf(buf, sizeof buf, "%s moved by %.0f, %s sum to %llu",
                    name.c_str(), a - b, what,
                    static_cast<unsigned long long>(want));
      problems.emplace_back(buf);
    }
  };
  expectDelta("ep_serve_accepted_total", phase.sent, "requests sent");
  expectDelta("ep_serve_completed_total", phase.ok, "ok answers");
  expectDelta("ep_serve_studies_executed_total", phase.studiesExecuted,
              "answers' studiesExecuted");
  expectDelta("ep_request_windows_total", phase.windows,
              "answers' measurementWindows");
  const double accepted = value(after, "ep_serve_accepted_total");
  const double settled = value(after, "ep_serve_completed_total") +
                         value(after, "ep_serve_failed_total") +
                         rejectedTotal(after);
  if (accepted != settled) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "after drain accepted %.0f != completed + failed + "
                  "rejected %.0f",
                  accepted, settled);
    problems.emplace_back(buf);
  }
  return problems;
}

// -------------------------------------------------------- ClosedLoopClient

ClosedLoopClient::ClosedLoopClient(const Workload& workload,
                                   const Expected& expected)
    : w_(workload), checker_(expected) {
  const std::size_t cap =
      std::max<std::size_t>(static_cast<std::size_t>(w_.window),
                            std::max<std::size_t>(w_.warmup.size(), 1));
  for (int c = 0; c < w_.connections; ++c) {
    Conn conn;
    const std::vector<Request>& s = w_.streams[static_cast<std::size_t>(c)];
    conn.offsets.reserve(s.size() + 1);
    conn.traces.reserve(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
      conn.offsets.push_back(conn.bytes.size());
      conn.traces.push_back(traceIdFor(c, i));
      conn.bytes += encodeRequest(s[i], conn.traces.back());
    }
    conn.offsets.push_back(conn.bytes.size());
    conn.ring.resize(cap);
    conns_.push_back(std::move(conn));
  }
  for (std::size_t i = 0; i < w_.warmup.size(); ++i) {
    warmTraces_.push_back("w-" + std::to_string(i));
  }
}

ClosedLoopClient::~ClosedLoopClient() {
  for (Conn& c : conns_) {
    if (c.fd >= 0) ::close(c.fd);
  }
  if (epfd_ >= 0) ::close(epfd_);
}

bool ClosedLoopClient::connect(std::uint16_t port, std::string* error) {
  epfd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epfd_ < 0) {
    *error = std::string("epoll_create1: ") + std::strerror(errno);
    return false;
  }
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    Conn& c = conns_[i];
    c.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (c.fd < 0 ||
        ::connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      *error = std::string("connect: ") + std::strerror(errno);
      return false;
    }
    int one = 1;
    setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    fcntl(c.fd, F_SETFL, fcntl(c.fd, F_GETFL) | O_NONBLOCK);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u32 = static_cast<std::uint32_t>(i);
    if (epoll_ctl(epfd_, EPOLL_CTL_ADD, c.fd, &ev) != 0) {
      *error = std::string("epoll_ctl: ") + std::strerror(errno);
      return false;
    }
  }
  return true;
}

bool ClosedLoopClient::writeAll(int fd, const char* p, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w > 0) {
      p += w;
      n -= static_cast<std::size_t>(w);
    } else if (w < 0 && errno == EAGAIN) {
      pollfd pfd{fd, POLLOUT, 0};
      if (::poll(&pfd, 1, 10000) <= 0) return false;
    } else if (w < 0 && errno == EINTR) {
      continue;
    } else {
      return false;
    }
  }
  return true;
}

bool ClosedLoopClient::waitReadable(int fd, int timeoutMs) {
  pollfd pfd{fd, POLLIN, 0};
  return ::poll(&pfd, 1, timeoutMs) > 0;
}

bool ClosedLoopClient::readAvailable(Conn& c) {
  if (c.rpos > 0) {
    c.rbuf.erase(0, c.rpos);
    c.rpos = 0;
  }
  char buf[65536];
  while (true) {
    const ssize_t n = ::read(c.fd, buf, sizeof buf);
    if (n > 0) {
      c.rbuf.append(buf, static_cast<std::size_t>(n));
      if (static_cast<std::size_t>(n) < sizeof buf) return true;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && errno == EAGAIN) {
      return true;
    } else {
      return false;
    }
  }
}

bool ClosedLoopClient::nextAnswer(Conn& c, std::string_view* line) {
  const char* p = c.rbuf.data() + c.rpos;
  const void* nl = std::memchr(p, '\n', c.rbuf.size() - c.rpos);
  if (nl == nullptr) return false;
  const auto len = static_cast<std::size_t>(static_cast<const char*>(nl) - p);
  *line = std::string_view(p, len);
  c.rpos += len + 1;
  return true;
}

bool ClosedLoopClient::sendStream(Conn& c, std::size_t count,
                                  std::uint64_t nowNs) {
  const std::size_t length = c.offsets.size() - 1;
  const std::size_t cap = c.ring.size();
  std::size_t done = 0;
  while (done < count) {
    const std::size_t first = c.next;
    const std::size_t run = std::min(count - done, length - first);
    for (std::size_t i = 0; i < run; ++i) {
      Pending& p = c.ring[(c.head + c.pending) % cap];
      const std::size_t idx = first + i;
      p.req = &w_.streams[static_cast<std::size_t>(&c - conns_.data())][idx];
      p.trace = &c.traces[idx];
      p.sentNs = nowNs;
      ++c.pending;
    }
    if (!writeAll(c.fd, c.bytes.data() + c.offsets[first],
                  c.offsets[first + run] - c.offsets[first])) {
      return false;
    }
    c.next = (first + run) % length;
    done += run;
  }
  return true;
}

bool ClosedLoopClient::checkAnswer(const Pending& p, std::string_view line,
                                   Tally* t) const {
  if (p.req->study) return checker_.studyJson(*p.req, *p.trace, line, t);
  return checker_.tuneJson(*p.req, *p.trace, line, t);
}

bool ClosedLoopClient::warmup(Tally* tally, std::string* error) {
  Conn& c = conns_[0];
  if (w_.warmup.empty()) {
    std::string json;
    if (!control(encodeMetricsRequest(), &json, error)) return false;
    return true;
  }
  std::string bytes;
  for (std::size_t i = 0; i < w_.warmup.size(); ++i) {
    bytes += encodeRequest(w_.warmup[i], warmTraces_[i]);
    c.ring[i] = Pending{&w_.warmup[i], &warmTraces_[i], 0};
  }
  c.head = 0;
  c.pending = w_.warmup.size();
  tally->sent += w_.warmup.size();
  if (!writeAll(c.fd, bytes.data(), bytes.size())) {
    *error = "cannot send the warm-up set";
    return false;
  }
  while (c.pending > 0) {
    if (!waitReadable(c.fd, 60000) || !readAvailable(c)) {
      *error = "warm-up answers did not arrive";
      return false;
    }
    std::string_view line;
    while (c.pending > 0 && nextAnswer(c, &line)) {
      const Pending p = c.ring[c.head];
      c.head = (c.head + 1) % c.ring.size();
      --c.pending;
      checkAnswer(p, line, tally);
    }
  }
  c.head = 0;
  return true;
}

bool ClosedLoopClient::control(const std::string& request, std::string* json,
                     std::string* error) {
  Conn& c = conns_[0];
  if (!writeAll(c.fd, request.data(), request.size())) {
    *error = "cannot send a control op";
    return false;
  }
  while (true) {
    std::string_view line;
    if (nextAnswer(c, &line)) {
      *json = std::string(line);
      return true;
    }
    if (!waitReadable(c.fd, 30000) || !readAvailable(c)) {
      *error = "control op got no answer";
      return false;
    }
  }
}

PhaseResult ClosedLoopClient::run(double seconds, std::size_t offset) {
  PhaseResult r;
  const double cpu0 = threadCpuSeconds();
  const std::uint64_t start = monotonicNs();
  const auto deadline =
      start + static_cast<std::uint64_t>(seconds * 1e9);
  const std::uint64_t drainLimit = deadline + 30ULL * 1000000000ULL;
  std::size_t outstanding = 0;
  for (Conn& c : conns_) {
    c.head = 0;
    c.pending = 0;
    c.next = offset % (c.offsets.size() - 1);
    const auto window = static_cast<std::size_t>(w_.window);
    if (!sendStream(c, window, monotonicNs())) {
      r.tally.fail("send failed");
      return r;
    }
    r.tally.sent += window;
    outstanding += window;
  }
  epoll_event events[16];
  while (outstanding > 0) {
    std::uint64_t now = monotonicNs();
    if (now > drainLimit) {
      r.tally.fail("answers still missing 30 s after the deadline");
      break;
    }
    const std::uint64_t until = now < deadline ? deadline : drainLimit;
    const int timeoutMs = static_cast<int>((until - now) / 1000000 + 1);
    const int n = epoll_wait(epfd_, events, 16, timeoutMs);
    if (n < 0 && errno != EINTR) {
      r.tally.fail("epoll_wait failed");
      break;
    }
    for (int e = 0; e < n; ++e) {
      Conn& c = conns_[events[e].data.u32];
      if (!readAvailable(c)) {
        r.tally.fail("connection closed by the daemon");
        outstanding = 0;
        break;
      }
      const std::uint64_t t = monotonicNs();
      std::size_t answered = 0;
      std::string_view line;
      while (nextAnswer(c, &line)) {
        if (c.pending == 0) {
          r.tally.fail("unexpected extra answer");
          break;
        }
        const Pending p = c.ring[c.head];
        c.head = (c.head + 1) % c.ring.size();
        --c.pending;
        r.latency.record(t - p.sentNs);
        checkAnswer(p, line, &r.tally);
        ++answered;
      }
      outstanding -= answered;
      if (answered > 0 && t < deadline) {
        if (!sendStream(c, answered, monotonicNs())) {
          r.tally.fail("send failed");
          outstanding = 0;
          break;
        }
        r.tally.sent += answered;
        outstanding += answered;
      }
    }
  }
  r.wallS = static_cast<double>(monotonicNs() - start) * 1e-9;
  r.clientCpuS = threadCpuSeconds() - cpu0;
  return r;
}

}  // namespace e2e
