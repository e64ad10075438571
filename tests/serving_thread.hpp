// Runs a started WireServer's run() on a thread of its own, so that a test
// can be the server's client. stop(), and the destructor, request a stop
// and join; the engine may be read once stop() has returned.
#pragma once

#include <exception>
#include <thread>

#include "net/wire_server.hpp"

namespace dbp::net {

class ServingThread {
 public:
  /// `server` must be started.
  explicit ServingThread(WireServer& server)
      : server_(server), thread_([this] {
          try {
            shutdown_verb_ = server_.run();
          } catch (...) {
            error_ = std::current_exception();
          }
        }) {}

  ~ServingThread() { join(); }

  ServingThread(const ServingThread&) = delete;
  ServingThread& operator=(const ServingThread&) = delete;

  /// Requests a stop and joins. Returns what run() returned, or rethrows
  /// what it threw.
  bool stop() {
    join();
    if (error_) std::rethrow_exception(error_);
    return shutdown_verb_;
  }

 private:
  void join() {
    if (!thread_.joinable()) return;
    server_.request_stop();
    thread_.join();
  }

  WireServer& server_;
  bool shutdown_verb_ = false;
  std::exception_ptr error_;
  /// Declared last: the thread starts after everything it writes.
  std::thread thread_;
};

}  // namespace dbp::net
