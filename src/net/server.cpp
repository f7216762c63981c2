#include "net/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>

#include "obs/profiler.hpp"

namespace ep::net {

namespace {

// Connection ids encode the owning event loop in the top bits so
// respond() can route a completion without any shared lookup table.
constexpr int kConnLoopShift = 48;

// Pending connections the listener queues before accept().
constexpr int kListenBacklog = 256;

// Largest inbound frame a connection's decoder accepts; a longer one
// is answered with a framing error and the connection closed.
constexpr std::size_t kMaxFrameBytes = std::size_t{1} << 20;

}  // namespace

struct Server::EventLoop {
  Server* server = nullptr;
  std::size_t index = 0;
  int epollFd = -1;
  int listenFd = -1;  // loop 0 only: the server's one listener
  int wakeFd = -1;
  std::thread thread;
  std::atomic<bool> quit{false};

  struct PendingWrite {
    ResponseBuffer buf;
    std::size_t offset = 0;
  };

  struct Conn {
    int fd = -1;
    std::uint64_t id = 0;
    FrameDecoder decoder;
    std::uint64_t nextSeq = 0;     // assigned to the next inbound frame
    std::uint64_t nextToSend = 0;  // next seq owed to the peer
    // Completions that arrived ahead of an earlier, still-pending seq.
    std::map<std::uint64_t, ResponseBuffer> ready;
    std::deque<PendingWrite> writeq;
    std::size_t queuedBytes = 0;  // unsent bytes across writeq
    bool wantWrite = false;       // EPOLLOUT currently armed
    bool closeAfterFlush = false;
    bool dirty = false;  // queued in dirtyIds this iteration

    explicit Conn(std::size_t maxFrame) : decoder(maxFrame) {}
  };

  std::unordered_map<int, std::unique_ptr<Conn>> connsByFd;
  std::unordered_map<std::uint64_t, Conn*> connsById;
  std::uint64_t nextConnSerial = 0;  // loop 0: connections accepted so far

  struct Completion {
    std::uint64_t conn = 0;
    std::uint64_t seq = 0;
    ResponseBuffer buf;
  };
  // A connection the acceptor dealt to this loop, not yet registered.
  struct Adoption {
    int fd = -1;
    std::uint64_t id = 0;
  };
  // Cross-thread deliveries: respond() completions and dealt
  // connections.  wakeSignaled avoids writing the eventfd more than
  // once per drain.
  std::mutex inboxMu;
  std::vector<Completion> inbox;
  std::vector<Adoption> adoptions;  // guarded by inboxMu
  bool wakeSignaled = false;        // guarded by inboxMu

  // Per-iteration scratch.
  std::vector<InboundFrame> batch;
  std::vector<std::uint64_t> dirtyIds;

  ~EventLoop() {
    if (wakeFd >= 0) ::close(wakeFd);
  }

  void run() {
    tlsLoop = this;
    // epprof: label + register this event thread so network-side CPU
    // shows up in continuous profiles under its own root frame.
    obs::ProfileThreadLabel profileRoot("net/event_loop");
    obs::Profiler::global().registerCurrentThread();
    std::vector<epoll_event> events(128);
    while (!quit.load(std::memory_order_acquire)) {
      const int n =
          ::epoll_wait(epollFd, events.data(),
                       static_cast<int>(events.size()), /*timeout=*/-1);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      batch.clear();
      for (int i = 0; i < n; ++i) {
        const int fd = events[i].data.fd;
        const std::uint32_t ev = events[i].events;
        if (fd == listenFd) {
          acceptAll();
          continue;
        }
        if (fd == wakeFd) {
          // One read returns and clears the whole counter, and the next
          // write raises a fresh edge, so a second read would only fail
          // with EAGAIN.
          std::uint64_t tick = 0;
          [[maybe_unused]] const ssize_t rc =
              ::read(wakeFd, &tick, sizeof tick);
          continue;
        }
        auto it = connsByFd.find(fd);
        if (it == connsByFd.end()) continue;  // closed earlier this round
        Conn* c = it->second.get();
        if ((ev & (EPOLLHUP | EPOLLERR)) != 0) {
          closeConn(*c);
          continue;
        }
        if ((ev & EPOLLIN) != 0) {
          // A peer that closes right after its last bytes can raise a
          // single edge for both: read to EOF then, or the close is
          // never seen.
          if (!readConn(*c, (ev & EPOLLRDHUP) != 0)) continue;  // closed
        }
        if ((ev & EPOLLOUT) != 0) {
          markDirty(*c);
        }
      }
      drainInbox();
      if (!batch.empty()) {
        server->cBatches_.inc();
        server->cFrames_.inc(batch.size());
        auto handing = std::move(batch);
        batch = {};
        // Inline respond() calls from the handler land directly via
        // tlsLoop and mark connections dirty for the flush below.
        server->handler_(*server, std::move(handing));
      }
      drainInbox();
      flushDirty();
    }
    tlsLoop = nullptr;
  }

  // Loop 0 only: accept every pending connection and deal the k-th
  // (counting from 1) to loop (k - 1) mod N, so the split over the
  // loops is a pure function of accept order.
  void acceptAll() {
    const auto& loops = server->loops_;
    for (;;) {
      const int fd =
          ::accept4(listenFd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EINTR) continue;
        break;  // EAGAIN, or a transient accept error: wait for the next edge
      }
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      const std::uint64_t serial = ++nextConnSerial;
      EventLoop& owner = *loops[(serial - 1) % loops.size()];
      const std::uint64_t id =
          (static_cast<std::uint64_t>(owner.index) << kConnLoopShift) | serial;
      const ServerChaosHooks* chaos = server->options_.chaos;
      if (chaos != nullptr && chaos->dropOnAccept && chaos->dropOnAccept(id)) {
        // Injected accept fault: the peer sees a reset on its next I/O.
        // The connection serial (and its turn in the deal) is consumed
        // either way, so a campaign's ids are a pure function of accept
        // order.
        ::close(fd);
        continue;
      }
      if (&owner == this) {
        adopt(fd, id);
      } else {
        owner.post([&] { owner.adoptions.push_back(Adoption{fd, id}); });
      }
    }
  }

  // Register a dealt connection with this loop's epoll set.  A socket
  // that already holds bytes (or a FIN) reports ready on the ADD, so
  // nothing sent before adoption is missed.
  void adopt(int fd, std::uint64_t id) {
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLRDHUP | EPOLLET;
    ev.data.fd = fd;
    if (::epoll_ctl(epollFd, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      return;
    }
    auto conn = std::make_unique<Conn>(kMaxFrameBytes);
    conn->fd = fd;
    conn->id = id;
    connsById[id] = conn.get();
    connsByFd[fd] = std::move(conn);
    server->cConnections_.inc();
    server->gOpen_.add(1);
  }

  // Queue cross-thread work for this loop (`push` runs under inboxMu)
  // and wake it, once per drain.  Callable from any thread.
  template <typename Push>
  void post(Push&& push) {
    bool needWake = false;
    {
      std::lock_guard<std::mutex> lk(inboxMu);
      push();
      if (!wakeSignaled) {
        wakeSignaled = true;
        needWake = true;
      }
    }
    if (needWake && wakeFd >= 0) {
      std::uint64_t tick = 1;
      [[maybe_unused]] ssize_t rc = ::write(wakeFd, &tick, sizeof tick);
    }
  }

  // Drain the socket to EAGAIN (to EOF when the peer has closed its
  // end), decode, append frames to this iteration's batch.  Returns
  // false when the connection was closed.
  bool readConn(Conn& c, bool peerClosed) {
    if (c.decoder.mode() == FrameDecoder::Mode::Broken) return true;
    char chunk[65536];
    for (;;) {
      const ssize_t got = ::recv(c.fd, chunk, sizeof chunk, 0);
      if (got > 0) {
        server->cBytesRead_.inc(static_cast<std::uint64_t>(got));
        std::vector<Frame> frames;
        bool ok;
        bool chaosClose = false;
        const ServerChaosHooks* chaos = server->options_.chaos;
        if (chaos != nullptr && chaos->onInbound) {
          std::string mutated(chunk, static_cast<std::size_t>(got));
          chaosClose = chaos->onInbound(c.id, mutated);
          ok = c.decoder.feed(mutated, &frames);
        } else {
          ok = c.decoder.feed(
              std::string_view(chunk, static_cast<std::size_t>(got)), &frames);
        }
        for (auto& f : frames) {
          InboundFrame in;
          in.conn = c.id;
          in.seq = c.nextSeq++;
          in.binary = f.binary;
          in.opcode = f.opcode;
          in.payload = std::move(f.payload);
          batch.push_back(std::move(in));
        }
        if (!ok) {
          protocolError(c);
          return true;  // conn stays alive until the error reply flushes
        }
        if (chaosClose) {
          // Injected mid-stream drop: the connection dies now, so late
          // respond() calls for frames decoded from the mutated chunk
          // are silently dropped — exactly the lost-response shape a
          // real mid-request reset produces.
          closeConn(c);
          return false;
        }
        // A short read means the kernel buffer is empty (stream
        // socket); a full chunk means there may be more.
        if (!peerClosed && got < static_cast<ssize_t>(sizeof chunk)) {
          return true;
        }
        continue;
      }
      if (got == 0) {
        closeConn(c);
        return false;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      closeConn(c);
      return false;
    }
  }

  // Answer a framing error in the connection's negotiated framing, then
  // close once everything already owed (earlier seqs first) has
  // flushed.  Reads stop permanently: the decoder is Broken.
  void protocolError(Conn& c) {
    server->cProtocolErrors_.inc();
    std::string body = "{\"status\":\"bad_request\",\"error\":\"";
    body += c.decoder.error();  // fixed internal strings: no escaping needed
    body += "\"}";
    std::string framed;
    if (c.decoder.mode() == FrameDecoder::Mode::Binary ||
        (c.decoder.mode() == FrameDecoder::Mode::Broken &&
         c.decoder.error() == std::string("bad negotiation magic"))) {
      appendFrame(framed, kOpJson, body);
    } else {
      framed = body + "\n";
    }
    // The error takes the next seq so pipelined responses already in
    // flight still arrive, in order, before the close.
    const std::uint64_t seq = c.nextSeq++;
    c.closeAfterFlush = true;
    ::shutdown(c.fd, SHUT_RD);
    deliver(c.id, seq, makeBuffer(std::move(framed)));
  }

  void deliver(std::uint64_t id, std::uint64_t seq, ResponseBuffer buf) {
    auto it = connsById.find(id);
    if (it == connsById.end()) return;  // connection already gone: drop
    Conn& c = *it->second;
    if (buf == nullptr) buf = makeBuffer(std::string());
    c.ready.emplace(seq, std::move(buf));
    // Promote every now-contiguous completion into the write queue.
    for (auto r = c.ready.find(c.nextToSend); r != c.ready.end();
         r = c.ready.find(c.nextToSend)) {
      c.queuedBytes += r->second->size();
      c.writeq.push_back(PendingWrite{std::move(r->second), 0});
      c.ready.erase(r);
      ++c.nextToSend;
    }
    markDirty(c);
  }

  void markDirty(Conn& c) {
    if (!c.dirty) {
      c.dirty = true;
      dirtyIds.push_back(c.id);
    }
  }

  void drainInbox() {
    std::vector<Completion> local;
    std::vector<Adoption> dealt;
    {
      std::lock_guard<std::mutex> lk(inboxMu);
      wakeSignaled = false;
      if (inbox.empty() && adoptions.empty()) return;
      local.swap(inbox);
      dealt.swap(adoptions);
    }
    for (const Adoption& a : dealt) adopt(a.fd, a.id);
    for (auto& comp : local) deliver(comp.conn, comp.seq, std::move(comp.buf));
  }

  void flushDirty() {
    // flushConn may close (and erase) the connection: iterate by id.
    for (std::size_t i = 0; i < dirtyIds.size(); ++i) {
      auto it = connsById.find(dirtyIds[i]);
      if (it == connsById.end()) continue;
      Conn& c = *it->second;
      c.dirty = false;
      flushConn(c);
    }
    dirtyIds.clear();
  }

  // Write as much of the queue as the socket accepts.  May close the
  // connection (slow-reader eviction, write error, closeAfterFlush).
  void flushConn(Conn& c) {
    while (!c.writeq.empty()) {
      iovec iov[64];
      int cnt = 0;
      for (const auto& pw : c.writeq) {
        if (cnt == 64) break;
        iov[cnt].iov_base =
            const_cast<char*>(pw.buf->data() + pw.offset);
        iov[cnt].iov_len = pw.buf->size() - pw.offset;
        ++cnt;
      }
      const ssize_t n = ::writev(c.fd, iov, cnt);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          if (c.queuedBytes > server->options_.writeHighWaterBytes) {
            server->cEvicted_.inc();
            closeConn(c);
            return;
          }
          armWrite(c, true);
          return;
        }
        closeConn(c);
        return;
      }
      server->cBytesWritten_.inc(static_cast<std::uint64_t>(n));
      c.queuedBytes -= static_cast<std::size_t>(n);
      std::size_t left = static_cast<std::size_t>(n);
      while (left > 0 && !c.writeq.empty()) {
        PendingWrite& front = c.writeq.front();
        const std::size_t avail = front.buf->size() - front.offset;
        if (left >= avail) {
          left -= avail;
          c.writeq.pop_front();
        } else {
          front.offset += left;
          left = 0;
        }
      }
    }
    if (c.closeAfterFlush && c.ready.empty()) {
      closeConn(c);
      return;
    }
    armWrite(c, false);
  }

  void armWrite(Conn& c, bool enable) {
    if (c.wantWrite == enable) return;
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLRDHUP | EPOLLET | (enable ? EPOLLOUT : 0u);
    ev.data.fd = c.fd;
    if (::epoll_ctl(epollFd, EPOLL_CTL_MOD, c.fd, &ev) == 0) {
      c.wantWrite = enable;
    }
  }

  void closeConn(Conn& c) {
    const int fd = c.fd;
    const std::uint64_t id = c.id;
    ::epoll_ctl(epollFd, EPOLL_CTL_DEL, fd, nullptr);
    ::close(fd);
    connsById.erase(id);
    connsByFd.erase(fd);  // frees c: do not touch it past this line
    server->gOpen_.sub(1);
  }

  // After the thread has exited: close every registered connection and
  // every dealt one it never adopted.
  void closeAllConns() {
    for (auto& [fd, conn] : connsByFd) {
      ::close(fd);
      server->gOpen_.sub(1);
    }
    connsByFd.clear();
    connsById.clear();
    std::lock_guard<std::mutex> lk(inboxMu);
    for (const Adoption& a : adoptions) ::close(a.fd);
    adoptions.clear();
  }

  static thread_local EventLoop* tlsLoop;
};

thread_local Server::EventLoop* Server::EventLoop::tlsLoop = nullptr;

Server::Server(ServerOptions options, BatchHandler handler)
    : options_(std::move(options)),
      handler_(std::move(handler)),
      ownedRegistry_(options_.registry == nullptr
                         ? std::make_unique<obs::Registry>()
                         : nullptr),
      cConnections_(registry().counter("ep_net_connections_total",
                                       "Connections accepted")),
      cFrames_(registry().counter("ep_net_frames_total",
                                  "Request frames decoded")),
      cBatches_(registry().counter(
          "ep_net_batches_total", "Cross-connection batches handed off")),
      cEvicted_(registry().counter(
          "ep_net_evicted_total",
          "Connections evicted for stalling past the write high-water mark")),
      cProtocolErrors_(registry().counter(
          "ep_net_protocol_errors_total", "Connections broken by framing")),
      cBytesRead_(registry().counter("ep_net_bytes_read_total",
                                     "Bytes read from sockets")),
      cBytesWritten_(registry().counter("ep_net_bytes_written_total",
                                        "Bytes written to sockets")),
      gOpen_(registry().gauge("ep_net_open_connections",
                              "Currently open connections")) {
  if (options_.eventThreads == 0) options_.eventThreads = 1;
}

obs::Registry& Server::registry() {
  return options_.registry != nullptr ? *options_.registry : *ownedRegistry_;
}

Server::~Server() { stop(); }

bool Server::start(std::string* error) {
  auto failWith = [&](const std::string& what) {
    if (error != nullptr) *error = what + ": " + std::strerror(errno);
    for (auto& loop : loops_) {
      if (loop->listenFd >= 0) ::close(loop->listenFd);
      if (loop->epollFd >= 0) ::close(loop->epollFd);
    }
    loops_.clear();
    return false;
  };
  if (running_.load(std::memory_order_acquire)) {
    if (error != nullptr) *error = "server already running";
    return false;
  }

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    if (error != nullptr) *error = "bad host: " + options_.host;
    return false;
  }

  for (std::size_t i = 0; i < options_.eventThreads; ++i) {
    auto loop = std::make_unique<EventLoop>();
    loop->server = this;
    loop->index = i;
    loop->epollFd = ::epoll_create1(EPOLL_CLOEXEC);
    loop->wakeFd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    loops_.push_back(std::move(loop));
    EventLoop& l = *loops_.back();
    if (l.epollFd < 0 || l.wakeFd < 0) return failWith("epoll/eventfd");
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLET;
    ev.data.fd = l.wakeFd;
    ::epoll_ctl(l.epollFd, EPOLL_CTL_ADD, l.wakeFd, &ev);
  }

  // One listener, on loop 0, which deals accepted connections to every
  // loop in turn.
  EventLoop& acceptor = *loops_.front();
  acceptor.listenFd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (acceptor.listenFd < 0) return failWith("socket");
  int one = 1;
  ::setsockopt(acceptor.listenFd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (::bind(acceptor.listenFd, reinterpret_cast<sockaddr*>(&addr),
             sizeof addr) != 0) {
    return failWith("bind");
  }
  if (::listen(acceptor.listenFd, kListenBacklog) != 0) {
    return failWith("listen");
  }
  // Ephemeral port: learn the kernel's pick for port().
  socklen_t len = sizeof addr;
  if (::getsockname(acceptor.listenFd, reinterpret_cast<sockaddr*>(&addr),
                    &len) != 0) {
    return failWith("getsockname");
  }
  port_ = ntohs(addr.sin_port);
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLET;
  ev.data.fd = acceptor.listenFd;
  ::epoll_ctl(acceptor.epollFd, EPOLL_CTL_ADD, acceptor.listenFd, &ev);

  running_.store(true, std::memory_order_release);
  for (auto& loop : loops_) {
    EventLoop* raw = loop.get();
    loop->thread = std::thread([raw] { raw->run(); });
  }
  return true;
}

void Server::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  for (auto& loop : loops_) {
    loop->quit.store(true, std::memory_order_release);
    std::uint64_t tick = 1;
    [[maybe_unused]] ssize_t rc = ::write(loop->wakeFd, &tick, sizeof tick);
  }
  // Join every loop before closing anything: until the acceptor has
  // exited it may still deal connections to the others.
  for (auto& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
  }
  for (auto& loop : loops_) {
    loop->closeAllConns();
    if (loop->listenFd >= 0) {
      ::close(loop->listenFd);
      loop->listenFd = -1;
    }
    if (loop->epollFd >= 0) {
      ::close(loop->epollFd);
      loop->epollFd = -1;
    }
    // wakeFd stays open until ~EventLoop so straggling respond() calls
    // from worker threads (dropped anyway) never write a reused fd.
  }
}

void Server::respond(std::uint64_t conn, std::uint64_t seq,
                     ResponseBuffer buf) {
  const std::size_t loopIdx = static_cast<std::size_t>(conn >> kConnLoopShift);
  if (loopIdx >= loops_.size()) return;
  EventLoop* loop = loops_[loopIdx].get();
  if (EventLoop::tlsLoop == loop) {
    loop->deliver(conn, seq, std::move(buf));
    return;
  }
  loop->post([&] {
    loop->inbox.push_back(EventLoop::Completion{conn, seq, std::move(buf)});
  });
}

}  // namespace ep::net
