// The socket side of the benchmark: spawns the shipped dbp_serve as a child
// process and drives one pass of a Plan through it over AF_UNIX from a
// single generator thread.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "plan.hpp"

namespace servebench {

/// One dbp_serve child. The constructor returns once the server answered
/// its first query; the destructor kills and reaps a server that was not
/// shut down, so no child outlives the benchmark.
class ServerProcess {
 public:
  /// `traced` adds --trace-out (into `run_dir`) and --metrics.
  ServerProcess(const std::string& binary, const std::string& run_dir,
                std::size_t shards, bool traced, int index);
  ~ServerProcess();

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  [[nodiscard]] const std::string& socket_path() const { return socket_path_; }
  /// Spawn -> first answered query.
  [[nodiscard]] double setup_seconds() const { return setup_s_; }
  /// utime + stime of the whole process so far, in seconds.
  [[nodiscard]] double cpu_seconds() const;
  /// VmHWM, in MB.
  [[nodiscard]] double peak_rss_mb() const;

  struct Summary {
    std::uint64_t frames_rejected = 0;
    std::uint64_t dropped_events = 0;
  };
  /// Sends the shutdown verb, waits for exit, parses the dbp-serve/1 summary.
  Summary shutdown();

 private:
  void reap(bool force);

  std::string socket_path_;
  std::string stdout_path_;
  pid_t pid_ = -1;
  double setup_s_ = 0.0;
};

struct PassResult {
  double setup_s = 0.0;
  double timed_s = 0.0;  ///< first timed send -> last ack
  std::size_t timed_events = 0;
  std::vector<double> ack_us;       ///< one sample per timed ack window
  std::vector<double> lateness_us;  ///< open loop: send time - due time
  double server_cpu_s = 0.0;        ///< over the timed region
  double generator_cpu_s = 0.0;     ///< generator thread, timed region
  double peak_rss_mb = 0.0;
  std::uint64_t attempted = 0;       ///< requests sent
  std::uint64_t error_responses = 0; ///< typed rejections received
  std::uint64_t missing_acks = 0;    ///< queries never answered
  ServerProcess::Summary summary;
  std::string final_body;            ///< body of the pass's last query
  std::vector<double> idle_query_rtt_us;  ///< only when asked for
};

/// Runs one pass against a fresh server. `idle_queries` > 0 times that many
/// WireClient::query round trips on the idle server after the pass. Throws
/// only when the server cannot be started; a server that stops answering
/// mid-pass shows up as missing acks.
[[nodiscard]] PassResult run_pass(const Plan& plan, const std::string& binary,
                                  const std::string& run_dir, bool traced,
                                  int index, int idle_queries);

/// Spawns a server and shuts it down again; returns its set-up time.
[[nodiscard]] double probe_setup(const std::string& binary,
                                 const std::string& run_dir, std::size_t shards,
                                 int index);

}  // namespace servebench
