#include "obs/admin_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/wide_event.h"

namespace m2g::obs {
namespace {

Counter& AdminRequestsCounter() {
  static Counter& c = MetricsRegistry::Global().counter("obs.admin.requests");
  return c;
}

const char* StatusText(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    default:
      return "Error";
  }
}

using Clock = std::chrono::steady_clock;

/// Waits until `fd` is ready for `events` or `deadline` passes; false on
/// timeout or error.
bool WaitReady(int fd, short events, Clock::time_point deadline) {
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - Clock::now())
                          .count();
    if (left <= 0) return false;
    pollfd p{fd, events, 0};
    const int ready = ::poll(&p, 1, static_cast<int>(left));
    if (ready > 0) return true;
    if (ready == 0 || errno != EINTR) return false;
  }
}

std::string ErrnoString(const char* what) {
  std::string out = what;
  out += ": ";
  out += std::strerror(errno);
  return out;
}

}  // namespace

AdminServer::AdminServer(AdminOptions options)
    : options_(std::move(options)) {}

AdminServer::~AdminServer() { Stop(); }

bool AdminServer::Start(std::string* error) {
  auto fail = [error](const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
  };
  if (running_.load(std::memory_order_acquire)) {
    return fail("admin server already running");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return fail(ErrnoString("socket"));
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(fd);
    return fail("invalid bind address: " + options_.bind_address);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string message = ErrnoString("bind");
    ::close(fd);
    return fail(message);
  }
  if (::listen(fd, 16) != 0) {
    const std::string message = ErrnoString("listen");
    ::close(fd);
    return fail(message);
  }
  sockaddr_in bound;
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    port_ = ntohs(bound.sin_port);
  }
  listen_fd_ = fd;
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return true;
}

void AdminServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // Unblock accept(): shutdown makes the blocked call return on Linux;
  // closing the fd covers platforms where it does not.
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  if (accept_thread_.joinable()) accept_thread_.join();
  listen_fd_ = -1;
}

void AdminServer::AcceptLoop() {
  while (running_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // Listen socket closed (Stop) or unrecoverable: exit the loop.
      return;
    }
    ServeConnection(fd);
  }
}

void AdminServer::ServeConnection(int fd) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(kConnectionDeadlineMs);
  // Read until the end of the request head (we ignore any body: GET
  // only). A tiny fixed cap keeps a misbehaving client from buffering
  // unbounded data into an admin process; a client that has not sent a
  // full head by the deadline is dropped without a response.
  std::string request;
  char buf[2048];
  while (request.size() < 16 * 1024 &&
         request.find("\r\n\r\n") == std::string::npos) {
    if (!WaitReady(fd, POLLIN, deadline)) {
      ::close(fd);
      return;
    }
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    request.append(buf, static_cast<size_t>(n));
  }
  HttpResponse response;
  const size_t line_end = request.find("\r\n");
  const std::string line =
      line_end == std::string::npos ? request : request.substr(0, line_end);
  if (line.compare(0, 4, "GET ") != 0) {
    response.status = request.empty() ? 400 : 405;
    response.body = request.empty() ? "empty request\n" : "GET only\n";
  } else {
    const size_t path_end = line.find(' ', 4);
    std::string path = path_end == std::string::npos
                           ? line.substr(4)
                           : line.substr(4, path_end - 4);
    const size_t query = path.find('?');
    if (query != std::string::npos) path.resize(query);
    response = HandlePath(path);
  }
  requests_.fetch_add(1, std::memory_order_relaxed);
  AdminRequestsCounter().Increment();
  std::string head = "HTTP/1.1 " + std::to_string(response.status) + " " +
                     StatusText(response.status) + "\r\n";
  head += "Content-Type: " + response.content_type + "\r\n";
  head += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  head += "Connection: close\r\n\r\n";
  const std::string payload = head + response.body;
  size_t sent = 0;
  while (sent < payload.size() && WaitReady(fd, POLLOUT, deadline)) {
    // Non-blocking: poll reported room, and a blocking send of the rest
    // could outlast the deadline.
    const ssize_t n = ::send(fd, payload.data() + sent, payload.size() - sent,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  ::shutdown(fd, SHUT_RDWR);
  ::close(fd);
}

HttpResponse AdminServer::HandlePath(const std::string& path) const {
  HttpResponse response;
  if (path == "/metrics") {
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = ExportPrometheus();
  } else if (path == "/metrics.json") {
    response.content_type = "application/json";
    response.body = ExportJson();
  } else if (path == "/traces") {
    response.content_type = "application/json";
    response.body = ExportTracesJson();
  } else if (path == "/events") {
    response.content_type = "application/json";
    response.body = ExportWideEventsJson();
  } else if (path == "/healthz") {
    response.content_type = "application/json";
    std::string body = "{\"status\": \"ok\", \"uptime_ms\": " +
                       JsonNum(UptimeMs()) + ", \"obs_enabled\": ";
    body += Enabled() ? "true" : "false";
    body += ", \"admin_requests\": " +
            JsonNum(static_cast<double>(requests_served()));
    if (options_.extra_health_json) {
      const std::string extra = options_.extra_health_json();
      if (!extra.empty()) {
        body += ", ";
        body += extra;
      }
    }
    body += "}\n";
    response.body = body;
  } else if (path == "/" || path.empty()) {
    response.body =
        "m2g admin endpoint\n"
        "  /metrics       Prometheus text\n"
        "  /metrics.json  JSON metrics snapshot\n"
        "  /traces        recent trace trees (JSON)\n"
        "  /events        recent wide events (JSON)\n"
        "  /healthz       liveness + model state\n";
  } else {
    response.status = 404;
    response.body = "not found: " + path + "\n";
  }
  return response;
}

}  // namespace m2g::obs
