// net::Client — the blocking client end of the epnet wire: one TCP
// connection speaking line JSON or EPB1 framing (net/frame.hpp).
//
// Every tool, bench and drill that talks to epserved goes through it.
// open() connects a socket with SOCK_CLOEXEC and TCP_NODELAY, sets
// an optional receive timeout, and in binary mode sends the EPB1 magic.
// send() uses MSG_NOSIGNAL, so a peer that went away is a false return,
// never a SIGPIPE.  Reads are buffered: read() pops one response in the
// framing chosen at open(), readLine() one response line, readFrame()
// one EPB1 frame (a zero-length frame is malformed; the server never
// sends one).
//
// Pipelined callers send a window of requests, read one response with
// wait = true, then drain the responses already received with
// wait = false before refilling the window — one recv() covers every
// response the server wrote in one batch.
//
// Retries are not here: they stay with their callers, because the
// retry policy (chaos/retry.hpp) lives in a layer above epnet.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace ep::net {

struct ClientOptions {
  // Open with the EPB1 magic; otherwise the connection speaks line JSON.
  bool binary = false;
  // SO_RCVTIMEO in ms; 0 blocks forever.  A timed-out read is a failed
  // read.
  double recvTimeoutMs = 0.0;
};

class Client {
 public:
  Client() = default;
  ~Client() { close(); }

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // Blocking connect to an IPv4 host; closes any earlier connection
  // first.  False, with *error set when given, on a bad address or a
  // refused or failed connect.
  bool open(const std::string& host, std::uint16_t port,
            const ClientOptions& options = {}, std::string* error = nullptr);
  void close();
  [[nodiscard]] bool connected() const { return fd_ >= 0; }

  // Write every byte.  False once the connection is gone.
  bool send(std::string_view bytes);

  // The next response line (without its '\n') / the next EPB1 frame,
  // split into opcode and body (opcode may be null).  wait = true
  // blocks until one arrives and returns false on EOF, error, timeout
  // or a malformed frame.  wait = false never blocks: it returns false
  // unless a complete one is already buffered.
  bool readLine(std::string* line, bool wait = true);
  bool readFrame(std::uint8_t* opcode, std::string* body, bool wait = true);
  // The next response in the connection's framing: readFrame() when
  // opened binary, readLine() (opcode untouched) otherwise.
  bool read(std::string* body, bool wait = true,
            std::uint8_t* opcode = nullptr) {
    return binary_ ? readFrame(opcode, body, wait) : readLine(body, wait);
  }

  // One request line out (the '\n' is added), one response line back.
  bool roundTrip(std::string_view request, std::string* response);

 private:
  bool fill();  // one recv() appended to buf_; false on EOF/error/timeout

  int fd_ = -1;
  bool binary_ = false;  // framing chosen at open()
  std::string buf_;
  std::size_t head_ = 0;  // bytes of buf_ already handed out
};

}  // namespace ep::net
