#ifndef M2G_OBS_ADMIN_SERVER_H_
#define M2G_OBS_ADMIN_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>

namespace m2g::obs {

struct AdminOptions {
  /// TCP port to listen on; 0 picks an ephemeral port (read it back via
  /// port() after Start succeeds).
  int port = 0;
  /// Loopback by default: the admin surface exposes internal state and
  /// must be opted in to a wider interface explicitly.
  std::string bind_address = "127.0.0.1";
  /// Optional extra `"key": value` JSON pairs (comma-separated, no
  /// braces) appended to the /healthz object — the serving layer uses
  /// this to report model version and registry state without obs/
  /// depending on serve/.
  std::function<std::string()> extra_health_json;
};

/// One routed response, separated from the socket plumbing so routing is
/// unit-testable without binding a port.
struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

/// Minimal blocking HTTP/1.1 admin endpoint for live telemetry pulls:
///
///   GET /             route index
///   GET /metrics      Prometheus text exposition
///   GET /metrics.json JSON metrics snapshot
///   GET /traces       recent trace trees (JSON)
///   GET /events       recent wide events (JSON)
///   GET /healthz      liveness + uptime + caller-supplied fields
///
/// Deliberately dependency-free (raw POSIX sockets, one accept thread):
/// obs/ sits below common/, so it cannot use ThreadPool, Status, or
/// logging. An admin scrape is rare and small, so the accept thread
/// serves each connection itself, one at a time, and gives it at most
/// kConnectionDeadlineMs in total to send its request and take the
/// response before dropping it. An idle or slow client therefore holds
/// no thread of its own and delays other scrapes and Stop() by at most
/// that deadline. Not a general-purpose HTTP server: GET only,
/// Connection: close, no TLS — bind it to loopback (the default) or a
/// trusted network.
class AdminServer {
 public:
  /// Total time one connection may take, request read and response
  /// write together.
  static constexpr int kConnectionDeadlineMs = 1000;

  explicit AdminServer(AdminOptions options = {});
  ~AdminServer();

  AdminServer(const AdminServer&) = delete;
  AdminServer& operator=(const AdminServer&) = delete;

  /// Binds, listens, and starts the accept thread. Returns false (and
  /// fills *error when given) if the socket setup fails or the server is
  /// already running.
  bool Start(std::string* error = nullptr);

  /// Stops accepting, closes the listen socket, and joins the accept
  /// thread, which first finishes (or times out) the connection it is
  /// serving. Idempotent; also called by the destructor.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// The bound port (resolves ephemeral port 0); 0 before Start.
  int port() const { return port_; }

  uint64_t requests_served() const {
    return requests_.load(std::memory_order_relaxed);
  }

  /// Pure routing: maps a request path (query string ignored) to the
  /// response. Public for tests.
  HttpResponse HandlePath(const std::string& path) const;

 private:
  void AcceptLoop();
  void ServeConnection(int fd);

  AdminOptions options_;
  std::atomic<bool> running_{false};
  int listen_fd_ = -1;
  int port_ = 0;
  std::thread accept_thread_;
  std::atomic<uint64_t> requests_{0};
};

}  // namespace m2g::obs

#endif  // M2G_OBS_ADMIN_SERVER_H_
