// Small POSIX TCP helpers shared by the daemon and the client library:
// RAII fds, non-blocking listen/connect/accept on IPv4 endpoints, and the
// "addr:port" endpoint grammar used by --listen/--connect.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>

#include "coorm/net/wire.hpp"

namespace coorm::net {

/// Owning file descriptor (move-only; closes on destruction).
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }

  Fd(Fd&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = std::exchange(other.fd_, -1);
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  [[nodiscard]] int get() const { return fd_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  void reset();
  [[nodiscard]] int release() { return std::exchange(fd_, -1); }

 private:
  int fd_ = -1;
};

/// A parsed "addr:port" endpoint. Port 0 is valid for listeners (the
/// kernel picks an ephemeral port — how parallel test suites stay off
/// each other's toes).
struct Endpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  friend bool operator==(const Endpoint&, const Endpoint&) = default;
};

/// Parses "addr:port" (e.g. "127.0.0.1:7788") or a bare ":port"/"port"
/// (host defaults to 127.0.0.1). Returns nullopt on malformed input:
/// missing/non-numeric/out-of-range port, or an empty address.
[[nodiscard]] std::optional<Endpoint> parseEndpoint(const std::string& text);

/// Formats back to "addr:port".
[[nodiscard]] std::string toString(const Endpoint& endpoint);

/// Creates a non-blocking listening socket bound to the endpoint
/// (IPv4 dotted-quad hosts only). Returns an invalid Fd on failure with
/// `error` explaining why.
[[nodiscard]] Fd listenOn(const Endpoint& endpoint, std::string& error);

/// The port a bound socket actually listens on (resolves port 0).
[[nodiscard]] std::uint16_t boundPort(int fd);

/// Blocking TCP connect (the handshake that follows is blocking anyway);
/// the returned socket is switched to non-blocking mode. Invalid Fd plus
/// `error` on failure.
[[nodiscard]] Fd connectTo(const Endpoint& endpoint, std::string& error);

/// Accepts one pending connection as a non-blocking socket; invalid Fd if
/// nothing is pending (or on transient error).
[[nodiscard]] Fd acceptOn(int listenFd);

/// Switches an fd to non-blocking mode; false on failure.
bool setNonBlocking(int fd);

/// Raises RLIMIT_NOFILE to its hard limit (best-effort) and returns the
/// resulting soft limit. The C100k loadgen and fan-in benches need more
/// than the conventional 1024-fd default.
std::size_t raiseFdLimit();

/// Result of draining a non-blocking socket's readable data.
enum class DrainStatus {
  kOk,      ///< read everything currently available
  kClosed,  ///< orderly EOF: the peer is gone
  kError,   ///< socket error (not EAGAIN/EINTR)
};

/// Reads all currently-available bytes from `fd` into `frames` (the
/// shared recv loop of the daemon's and the client's read paths: 16 KiB
/// chunks, EINTR retried; only EAGAIN or the EOF ends the drain).
[[nodiscard]] DrainStatus drainReadable(int fd, FrameBuffer& frames);

}  // namespace coorm::net
