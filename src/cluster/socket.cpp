#include "cluster/socket.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace psm::cluster {

namespace {

std::string
errnoText()
{
    return std::strerror(errno);
}

sockaddr_in
makeAddr(const std::string &host, std::uint16_t port)
{
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
        throw ClusterError("bad IPv4 address '" + host + "'");
    return addr;
}

} // namespace

void
Fd::reset(int fd)
{
    if (fd_ >= 0)
        ::close(fd_);
    fd_ = fd;
}

void
Fd::shutdownBoth()
{
    if (fd_ >= 0)
        ::shutdown(fd_, SHUT_RDWR);
}

Fd
listenTcp(const std::string &host, std::uint16_t port, int backlog)
{
    Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
    if (!fd.valid())
        throw ClusterError("socket: " + errnoText());
    int one = 1;
    ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr = makeAddr(host, port);
    if (::bind(fd.get(), reinterpret_cast<sockaddr *>(&addr),
               sizeof addr) != 0)
        throw ClusterError("bind " + host + ":" +
                           std::to_string(port) + ": " + errnoText());
    if (::listen(fd.get(), backlog) != 0)
        throw ClusterError("listen: " + errnoText());
    return fd;
}

std::uint16_t
localPort(int fd)
{
    sockaddr_in addr{};
    socklen_t len = sizeof addr;
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&addr), &len) !=
        0)
        throw ClusterError("getsockname: " + errnoText());
    return ntohs(addr.sin_port);
}

int
acceptTcp(int listen_fd)
{
    for (;;) {
        int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd >= 0) {
            int one = 1;
            ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                         sizeof one);
            return fd;
        }
        if (errno == EINTR)
            continue;
        return -1;
    }
}

Fd
connectTcp(const std::string &host, std::uint16_t port,
           int timeout_ms)
{
    Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
    if (!fd.valid())
        throw ClusterError("socket: " + errnoText());
    sockaddr_in addr = makeAddr(host, port);

    // Non-blocking connect + poll gives the bounded wait.
    int flags = ::fcntl(fd.get(), F_GETFL, 0);
    ::fcntl(fd.get(), F_SETFL, flags | O_NONBLOCK);
    int rc = ::connect(fd.get(), reinterpret_cast<sockaddr *>(&addr),
                       sizeof addr);
    if (rc != 0 && errno != EINPROGRESS)
        throw ClusterError("connect " + host + ":" +
                           std::to_string(port) + ": " + errnoText());
    if (rc != 0) {
        pollfd pfd{fd.get(), POLLOUT, 0};
        rc = ::poll(&pfd, 1, timeout_ms);
        if (rc == 0)
            throw ClusterError("connect " + host + ":" +
                               std::to_string(port) + ": timed out");
        if (rc < 0)
            throw ClusterError("poll: " + errnoText());
        int err = 0;
        socklen_t len = sizeof err;
        ::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &err, &len);
        if (err != 0)
            throw ClusterError("connect " + host + ":" +
                               std::to_string(port) + ": " +
                               std::strerror(err));
    }
    ::fcntl(fd.get(), F_SETFL, flags);
    int one = 1;
    ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    return fd;
}

bool
sendAll(int fd, const void *data, std::size_t n)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    while (n > 0) {
        ssize_t wrote = ::send(fd, p, n, MSG_NOSIGNAL);
        if (wrote < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        p += wrote;
        n -= static_cast<std::size_t>(wrote);
    }
    return true;
}

bool
recvAll(int fd, void *data, std::size_t n)
{
    auto *p = static_cast<std::uint8_t *>(data);
    while (n > 0) {
        ssize_t got = ::recv(fd, p, n, 0);
        if (got < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (got == 0)
            return false;
        p += got;
        n -= static_cast<std::size_t>(got);
    }
    return true;
}

ConnectionServer::ConnectionServer(const std::string &host,
                                   std::uint16_t port, Handler serve)
    : listen_fd_(listenTcp(host, port)),
      port_(localPort(listen_fd_.get())), serve_(std::move(serve))
{}

ConnectionServer::~ConnectionServer() { stop(); }

void
ConnectionServer::start()
{
    accept_thread_ = std::thread(&ConnectionServer::acceptLoop, this);
}

void
ConnectionServer::acceptLoop()
{
    for (;;) {
        int fd = acceptTcp(listen_fd_.get());
        if (fd < 0)
            return; // listener shut down
        auto conn = std::make_shared<Connection>();
        conn->fd = Fd(fd);
        std::lock_guard<std::mutex> lk(mu_);
        if (stopping_)
            return;
        // Registered under mu_ before the thread can reach its own
        // exit path, which looks itself up here.
        live_.emplace(conn.get(),
                      std::make_pair(conn,
                                     std::thread(&ConnectionServer::
                                                     serveOne,
                                                 this, conn)));
    }
}

void
ConnectionServer::serveOne(std::shared_ptr<Connection> conn)
{
    serve_(conn);
    // Trade places with the previously finished thread: park this
    // thread's handle for the next one to end (or stop()) to join,
    // and join the one parked before it, which has already ended.
    std::thread previous;
    {
        std::lock_guard<std::mutex> lk(mu_);
        auto it = live_.find(conn.get());
        if (it == live_.end())
            return; // stop() holds this thread's handle
        previous = std::move(finished_);
        finished_ = std::move(it->second.second);
        live_.erase(it);
    }
    if (previous.joinable())
        previous.join();
}

void
ConnectionServer::stop()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (stopping_)
            return;
        stopping_ = true;
        listen_fd_.shutdownBoth();
        for (const auto &[raw, entry] : live_)
            entry.first->fd.shutdownBoth();
    }
    if (accept_thread_.joinable())
        accept_thread_.join();
    // Connection threads end on their own now that their sockets are
    // shut down; each one joins its predecessor on the way out.
    for (;;) {
        std::thread t;
        {
            std::lock_guard<std::mutex> lk(mu_);
            if (!live_.empty()) {
                t = std::move(live_.begin()->second.second);
                live_.erase(live_.begin());
            } else {
                t = std::move(finished_);
            }
        }
        if (!t.joinable())
            return;
        t.join();
    }
}

} // namespace psm::cluster
