// The serving side of the benchmark: a ppdp_serve daemon run as a child
// process, and the load generator's own minimal loopback HTTP client (kept
// independent of the program's client code, so a change to the program
// never changes how load is generated).
#ifndef PERFBENCH_RUNNER_DAEMON_H_
#define PERFBENCH_RUNNER_DAEMON_H_

#include <sys/types.h>

#include <string>
#include <vector>

namespace perfbench {

/// One ppdp_serve child process. Start() returns once the daemon printed
/// its `(serving: http://127.0.0.1:PORT/)` line; Stop() sends SIGTERM and
/// reaps it (SIGKILL after a grace period). The destructor stops it too, and
/// the child is killed if the runner dies first.
class Daemon {
 public:
  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { Stop(); }

  /// `args` excludes argv[0]. The daemon's stderr goes to `log_path`.
  bool Start(const std::string& binary, const std::vector<std::string>& args,
             const std::string& log_path, std::string* error);
  /// Returns the daemon's exit status as waitpid reports it (-1 if none ran).
  int Stop();

  pid_t pid() const { return pid_; }
  int port() const { return port_; }
  /// The JSON object of the daemon's `(startup: {...})` line.
  const std::string& startup_json() const { return startup_json_; }
  /// Seconds from fork to the serving line.
  double ready_seconds() const { return ready_seconds_; }

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  int port_ = 0;
  std::string startup_json_;
  double ready_seconds_ = 0.0;
};

struct HttpResult {
  bool transport_ok = false;  ///< false: connect/send/recv failed or reply unparsable
  int status = 0;
  std::string traceparent;  ///< the response's traceparent header ("" if absent)
  std::string body;
};

/// One request on a fresh loopback connection (the daemon closes after
/// every response). `traceparent` is sent when non-empty.
HttpResult HttpCall(int port, const char* method, const std::string& path,
                    const std::string& body, const std::string& traceparent);

/// W3C traceparent "00-<trace id>-<span id>-01" from two 64-bit draws per id.
std::string MakeTraceparent(uint64_t hi, uint64_t lo, uint64_t span, std::string* trace_id);
/// The trace-id field of a traceparent header ("" when malformed).
std::string TraceIdOf(const std::string& traceparent);

/// The numeric value following `"key":` in a flat JSON text, or NaN.
double JsonNumberField(const std::string& json, const std::string& key);
/// The raw text of the JSON object following `"key":` (flat objects only).
std::string JsonObjectField(const std::string& json, const std::string& key);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_DAEMON_H_
