/**
 * @file
 * Thin TCP plumbing for the cluster layer: listen/connect/accept,
 * full-length send/recv, and the accept loop every listening role
 * (router, worker, standby) shares. Everything is blocking; the
 * cluster layer spends a thread per connection (connection counts
 * here are small — one router, a handful of workers — so
 * thread-per-connection beats an event loop on simplicity with no
 * measurable cost).
 */

#ifndef PSM_CLUSTER_SOCKET_HPP
#define PSM_CLUSTER_SOCKET_HPP

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

namespace psm::cluster {

/** Any cluster-layer failure: socket I/O, protocol corruption, or a
 *  peer speaking the wrong protocol. */
class ClusterError : public std::runtime_error
{
  public:
    explicit ClusterError(const std::string &what)
        : std::runtime_error(what)
    {}
};

/** Move-only owning file descriptor. */
class Fd
{
  public:
    Fd() = default;
    explicit Fd(int fd) : fd_(fd) {}
    ~Fd() { reset(); }

    Fd(const Fd &) = delete;
    Fd &operator=(const Fd &) = delete;

    Fd(Fd &&o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
    Fd &
    operator=(Fd &&o) noexcept
    {
        if (this != &o) {
            reset();
            fd_ = o.fd_;
            o.fd_ = -1;
        }
        return *this;
    }

    int get() const { return fd_; }
    bool valid() const { return fd_ >= 0; }

    int
    release()
    {
        int fd = fd_;
        fd_ = -1;
        return fd;
    }

    void reset(int fd = -1);

    /** shutdown(2) both directions — unblocks a reader in another
     *  thread without closing the descriptor under it. */
    void shutdownBoth();

  private:
    int fd_ = -1;
};

/** Opens a listening TCP socket (SO_REUSEADDR). Port 0 binds an
 *  ephemeral port — read it back with localPort. ClusterError on
 *  failure. */
Fd listenTcp(const std::string &host, std::uint16_t port,
             int backlog = 64);

/** The port a socket is actually bound to. */
std::uint16_t localPort(int fd);

/** Accepts one connection; -1 when the listener was shut down. */
int acceptTcp(int listen_fd);

/** Connects with a bounded wait. ClusterError on failure/timeout. */
Fd connectTcp(const std::string &host, std::uint16_t port,
              int timeout_ms = 5000);

/** Writes all @p n bytes; false when the peer is gone. */
bool sendAll(int fd, const void *data, std::size_t n);

/** Reads exactly @p n bytes; false on EOF or error (a torn read is
 *  just a dead peer — framing CRCs guard integrity, not length). */
bool recvAll(int fd, void *data, std::size_t n);

/** One accepted connection. Threads that reply on it concurrently
 *  send whole frames under write_mu. */
struct Connection
{
    Fd fd;
    std::mutex write_mu;
};

/**
 * The accept loop shared by router, worker and standby: a listener
 * plus one thread per accepted connection, running @p serve until the
 * peer goes away. A connection's thread is joined as soon as the next
 * connection thread ends (or at stop()), so a long-lived process
 * holds at most one finished, unjoined connection thread.
 */
class ConnectionServer
{
  public:
    using Handler =
        std::function<void(const std::shared_ptr<Connection> &)>;

    /** Binds the listener now; ClusterError on failure. */
    ConnectionServer(const std::string &host, std::uint16_t port,
                     Handler serve);
    ~ConnectionServer();

    ConnectionServer(const ConnectionServer &) = delete;
    ConnectionServer &operator=(const ConnectionServer &) = delete;

    /** The bound listen port. */
    std::uint16_t port() const { return port_; }

    /** Accepts on a background thread. */
    void start();

    /** Shuts the listener and every live connection down, then joins
     *  all threads (idempotent). */
    void stop();

  private:
    void acceptLoop();
    void serveOne(std::shared_ptr<Connection> conn);

    Fd listen_fd_;
    std::uint16_t port_ = 0;
    Handler serve_;

    std::mutex mu_; ///< guards everything below
    bool stopping_ = false;
    std::map<Connection *, std::pair<std::shared_ptr<Connection>,
                                     std::thread>>
        live_;
    std::thread finished_; ///< the last connection thread to end
    std::thread accept_thread_;
};

} // namespace psm::cluster

#endif // PSM_CLUSTER_SOCKET_HPP
