#include "daemon.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "bench.h"

namespace perfbench {

namespace {

constexpr double kStartTimeoutSeconds = 60.0;
constexpr double kStopGraceSeconds = 20.0;

}  // namespace

bool Daemon::Start(const std::string& binary, const std::vector<std::string>& args,
                   const std::string& log_path, std::string* error) {
  int pipe_fds[2];
  if (pipe(pipe_fds) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const std::string& arg : args) argv.push_back(const_cast<char*>(arg.c_str()));
  argv.push_back(nullptr);

  const double started = Now();
  const pid_t parent = getpid();
  pid_ = fork();
  if (pid_ < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    close(pipe_fds[0]);
    close(pipe_fds[1]);
    return false;
  }
  if (pid_ == 0) {
    // Child: never outlive the runner.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    dup2(pipe_fds[1], STDOUT_FILENO);
    const int log_fd = open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (log_fd >= 0) dup2(log_fd, STDERR_FILENO);
    close(pipe_fds[0]);
    close(pipe_fds[1]);
    execv(binary.c_str(), argv.data());
    _exit(127);
  }
  close(pipe_fds[1]);
  stdout_fd_ = pipe_fds[0];

  std::string buffer;
  const std::string serving = "(serving: http://127.0.0.1:";
  const std::string startup = "(startup: ";
  while (true) {
    const double left = kStartTimeoutSeconds - (Now() - started);
    if (left <= 0) {
      *error = "timed out waiting for the serving line";
      Stop();
      return false;
    }
    pollfd pfd{stdout_fd_, POLLIN, 0};
    if (poll(&pfd, 1, static_cast<int>(left * 1000) + 1) <= 0) continue;
    char chunk[4096];
    const ssize_t n = read(stdout_fd_, chunk, sizeof(chunk));
    if (n <= 0) {
      *error = "daemon exited before serving (see " + log_path + ")";
      Stop();
      return false;
    }
    buffer.append(chunk, static_cast<size_t>(n));
    const size_t at = buffer.find(serving);
    if (at != std::string::npos && buffer.find('\n', at) != std::string::npos) {
      ready_seconds_ = Now() - started;
      port_ = std::atoi(buffer.c_str() + at + serving.size());
      const size_t s = buffer.find(startup);
      if (s != std::string::npos) {
        const size_t begin = s + startup.size();
        const size_t end = buffer.find(")\n", begin);
        startup_json_ = buffer.substr(begin, end == std::string::npos ? end : end - begin);
      }
      return port_ > 0;
    }
  }
}

int Daemon::Stop() {
  if (pid_ <= 0) return -1;
  kill(pid_, SIGTERM);
  int status = -1;
  const double deadline = Now() + kStopGraceSeconds;
  while (true) {
    const pid_t done = waitpid(pid_, &status, WNOHANG);
    if (done == pid_ || (done < 0 && errno != EINTR)) break;
    if (Now() > deadline) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
      break;
    }
    // Keep the pipe drained so shutdown messages never block the daemon.
    pollfd pfd{stdout_fd_, POLLIN, 0};
    if (poll(&pfd, 1, 5) > 0) {
      char chunk[4096];
      if (read(stdout_fd_, chunk, sizeof(chunk)) < 0) {
        // Nothing to do: the child is being reaped either way.
      }
    }
  }
  close(stdout_fd_);
  stdout_fd_ = -1;
  pid_ = -1;
  return status;
}

HttpResult HttpCall(int port, const char* method, const std::string& path,
                    const std::string& body, const std::string& traceparent) {
  HttpResult result;
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return result;
  timeval timeout{30, 0};
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return result;
  }
  std::string request = std::string(method) + " " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  if (!traceparent.empty()) request += "traceparent: " + traceparent + "\r\n";
  if (!body.empty()) {
    request += "Content-Type: application/json\r\nContent-Length: " +
               std::to_string(body.size()) + "\r\n";
  }
  request += "Connection: close\r\n\r\n";
  request += body;
  for (size_t sent = 0; sent < request.size();) {
    const ssize_t n = send(fd, request.data() + sent, request.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      close(fd);
      return result;
    }
    sent += static_cast<size_t>(n);
  }
  std::string raw;
  char chunk[16384];
  while (true) {
    const ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      close(fd);
      return result;
    }
    if (n == 0) break;
    raw.append(chunk, static_cast<size_t>(n));
  }
  close(fd);

  const size_t head_end = raw.find("\r\n\r\n");
  if (raw.compare(0, 9, "HTTP/1.1 ") != 0 || head_end == std::string::npos) return result;
  result.status = std::atoi(raw.c_str() + 9);
  result.body = raw.substr(head_end + 4);
  // Header names are case-insensitive; scan the head line by line.
  for (size_t pos = raw.find("\r\n"); pos < head_end;) {
    const size_t line = pos + 2;
    const size_t end = raw.find("\r\n", line);
    const size_t colon = raw.find(':', line);
    if (colon != std::string::npos && colon < end && colon - line == 11 &&
        strncasecmp(raw.c_str() + line, "traceparent", 11) == 0) {
      size_t value = colon + 1;
      while (value < end && raw[value] == ' ') ++value;
      result.traceparent = raw.substr(value, end - value);
    }
    pos = end;
  }
  result.transport_ok = result.status > 0;
  return result;
}

std::string MakeTraceparent(uint64_t hi, uint64_t lo, uint64_t span, std::string* trace_id) {
  if (hi == 0 && lo == 0) lo = 1;  // the all-zero trace id is invalid
  if (span == 0) span = 1;
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%016llx%016llx", static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  *trace_id = buffer;
  std::snprintf(buffer, sizeof(buffer), "%016llx", static_cast<unsigned long long>(span));
  return "00-" + *trace_id + "-" + buffer + "-01";
}

std::string TraceIdOf(const std::string& traceparent) {
  // 00-<32 hex>-<16 hex>-<2 hex>
  if (traceparent.size() != 55 || traceparent[2] != '-' || traceparent[35] != '-') return "";
  return traceparent.substr(3, 32);
}

double JsonNumberField(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = json.find(needle);
  if (at == std::string::npos) return std::numeric_limits<double>::quiet_NaN();
  const char* begin = json.c_str() + at + needle.size();
  char* end = nullptr;
  const double value = std::strtod(begin, &end);
  return end == begin ? std::numeric_limits<double>::quiet_NaN() : value;
}

std::string JsonObjectField(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":{";
  const size_t at = json.find(needle);
  if (at == std::string::npos) return "";
  const size_t begin = at + needle.size() - 1;
  const size_t end = json.find('}', begin);
  return end == std::string::npos ? "" : json.substr(begin, end - begin + 1);
}

}  // namespace perfbench
