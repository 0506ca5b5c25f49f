// The epoll readiness backend of `IoExecutor` — the C100k path.
//
// Edge-triggered (EPOLLET) with a per-cycle ready list: one epoll_wait
// returns only the fds whose readiness changed, so a wakeup costs O(ready)
// instead of poll(2)'s O(watched) scan — the difference between serving
// 10k mostly-idle AppLink sessions and burning a core re-walking them.
//
// Edge-triggered is safe against the existing consumers because they
// already drain: the daemon's accept loop accepts until EAGAIN, both
// daemon and client read through `drainReadable` (reads to EAGAIN or EOF
// — a short read is not proof of an empty socket, since a FIN riding
// with the last bytes raises no edge of its own), and flush loops write
// until EAGAIN before arming kWritable. EPOLL_CTL_ADD and _MOD deliver an
// edge when the fd is already ready, so watch-after-data-arrived and
// kWritable re-arming need no level-triggered crutch.
//
// Dispatch re-looks-up each ready fd in the watcher table before invoking
// the callback — a callback earlier in the same batch may have unwatched
// (or closed and re-registered) the fd. unwatch() must precede
// ::close(fd), as the base contract requires; epoll drops closed fds
// silently otherwise.
#pragma once

#include <sys/epoll.h>

#include <unordered_map>
#include <vector>

#include "coorm/net/io_executor.hpp"
#include "coorm/net/socket.hpp"

namespace coorm::net {

class EpollExecutor final : public IoExecutor {
 public:
  /// Throws std::system_error (errno) if epoll_create1 fails.
  EpollExecutor();

  void watch(int fd, short events, IoCallback cb) override;
  void updateEvents(int fd, short events) override;
  void unwatch(int fd) override;
  [[nodiscard]] std::size_t watcherCount() const override {
    return watchers_.size();
  }

 protected:
  bool pollOnce(Time timeout) override;

 private:
  struct Watcher {
    short events = 0;
    IoCallback cb;
  };

  void control(int op, int fd, short events);

  Fd epfd_;
  std::unordered_map<int, Watcher> watchers_;
  std::vector<epoll_event> ready_;  ///< per-cycle scratch, reused
  /// Callbacks unwatched mid-dispatch, kept alive until the cycle ends so
  /// a watcher tearing itself down never frees its executing closure.
  std::vector<IoCallback> graveyard_;
};

}  // namespace coorm::net
