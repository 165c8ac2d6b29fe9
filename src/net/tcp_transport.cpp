#include "net/tcp_transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "support/error.hpp"

namespace sage::net {

namespace {

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

void set_nodelay(int fd) {
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

/// Writes the whole span, absorbing partial writes and EINTR. Returns
/// false on a hard socket error (peer gone).
bool write_all(int fd, std::span<const std::byte> bytes) {
  const std::byte* at = bytes.data();
  std::size_t left = bytes.size();
  while (left > 0) {
#ifdef MSG_NOSIGNAL
    const ssize_t n = ::send(fd, at, left, MSG_NOSIGNAL);
#else
    const ssize_t n = ::send(fd, at, left, 0);
#endif
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    at += static_cast<std::size_t>(n);
    left -= static_cast<std::size_t>(n);
  }
  return true;
}

class TcpTransport final : public Transport {
 public:
  TcpTransport(const TransportOptions& options, int node_count,
               BufferPool& pool, DeliverFn deliver)
      : node_count_(node_count),
        pool_(pool),
        deliver_(std::move(deliver)),
        link_mu_(static_cast<std::size_t>(node_count) * node_count),
        link_fd_(static_cast<std::size_t>(node_count) * node_count, -1) {
    (void)options;
    const auto n = static_cast<std::size_t>(node_count_);
    sent_.reset(new std::atomic<std::uint64_t>[n]);
    delivered_.reset(new std::atomic<std::uint64_t>[n]);
    for (std::size_t i = 0; i < n; ++i) {
      sent_[i].store(0);
      delivered_[i].store(0);
    }
    listen_fd_.assign(n, -1);
    ports_.assign(n, 0);
    wake_pipe_.assign(n, {-1, -1});
    try {
      for (int d = 0; d < node_count_; ++d) open_listener_(d);
    } catch (...) {
      teardown_();
      throw;
    }
    readers_.reserve(n);
    for (int d = 0; d < node_count_; ++d) {
      readers_.emplace_back([this, d] { reader_loop_(d); });
    }
  }

  ~TcpTransport() override { teardown_(); }

  TransportKind kind() const override { return TransportKind::kTcp; }

  void deliver(int dst, Parcel&& parcel) override {
    // Serialize: header(16) | parcel meta(40) | payload bytes.
    thread_local std::vector<std::byte> scratch;
    const std::size_t payload_len = parcel.payload.size();
    const std::size_t body = kParcelMetaBytes + payload_len;
    scratch.resize(kFrameHeaderBytes + body);
    std::span<std::byte> frame(scratch);
    const std::uint64_t meta_hash = encode_parcel_meta(
        parcel, frame.subspan(kFrameHeaderBytes, kParcelMetaBytes));
    std::byte* payload_at =
        frame.data() + kFrameHeaderBytes + kParcelMetaBytes;
    if (payload_len != 0) {
      std::memcpy(payload_at, parcel.payload.data(), payload_len);
    }
    write_frame_header(frame, body,
                       checksum64(payload_at, payload_len, meta_hash));

    const std::size_t link =
        static_cast<std::size_t>(parcel.src) *
            static_cast<std::size_t>(node_count_) +
        static_cast<std::size_t>(dst);
    // Per-link lock: guards the lazy connect and keeps frames from
    // different sender-side threads from interleaving on one stream.
    std::lock_guard<std::mutex> lock(link_mu_[link]);
    int fd = link_fd_[link];
    if (fd < 0) {
      fd = connect_to_(dst);
      link_fd_[link] = fd;
    }
    if (!write_all(fd, frame)) {
      close_fd(link_fd_[link]);
      raise<CommError>("tcp transport: write on link ", parcel.src, "->",
                       dst, " failed (peer connection lost)");
    }
    sent_[static_cast<std::size_t>(dst)].fetch_add(
        1, std::memory_order_release);
  }

  void flush() override {
    std::unique_lock<std::mutex> lock(flush_mu_);
    for (int d = 0; d < node_count_; ++d) {
      const auto i = static_cast<std::size_t>(d);
      flush_cv_.wait(lock, [&] {
        return stop_.load(std::memory_order_acquire) ||
               reader_failed_.load(std::memory_order_acquire) ||
               delivered_[i].load(std::memory_order_acquire) >=
                   sent_[i].load(std::memory_order_acquire);
      });
    }
  }

 private:
  void open_listener_(int d) {
    const auto i = static_cast<std::size_t>(d);
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    SAGE_CHECK_AS(CommError, fd >= 0, "tcp transport: socket() failed");
    listen_fd_[i] = fd;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;  // ephemeral
    SAGE_CHECK_AS(CommError,
                  ::bind(fd, reinterpret_cast<sockaddr*>(&addr),
                         sizeof addr) == 0,
                  "tcp transport: bind on loopback failed for node ", d);
    SAGE_CHECK_AS(CommError, ::listen(fd, node_count_ + 1) == 0,
                  "tcp transport: listen failed for node ", d);
    socklen_t len = sizeof addr;
    SAGE_CHECK_AS(CommError,
                  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr),
                                &len) == 0,
                  "tcp transport: getsockname failed for node ", d);
    ports_[i] = ntohs(addr.sin_port);
    int pipefd[2];
    SAGE_CHECK_AS(CommError, ::pipe(pipefd) == 0,
                  "tcp transport: wake pipe failed for node ", d);
    fcntl(pipefd[0], F_SETFL, O_NONBLOCK);
    wake_pipe_[i] = {pipefd[0], pipefd[1]};
  }

  int connect_to_(int dst) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    SAGE_CHECK_AS(CommError, fd >= 0, "tcp transport: socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(ports_[static_cast<std::size_t>(dst)]);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      int tmp = fd;
      close_fd(tmp);
      raise<CommError>("tcp transport: connect to node ", dst, " (port ",
                       ports_[static_cast<std::size_t>(dst)], ") failed");
    }
    set_nodelay(fd);
    return fd;
  }

  /// Per-node reader: accepts link connections and reassembles the
  /// byte streams into frames. One thread per node mirrors the paper's
  /// one communication processor per node.
  void reader_loop_(int d) {
    const auto i = static_cast<std::size_t>(d);
    struct Conn {
      int fd = -1;
      std::vector<std::byte> buf;  // partial-frame reassembly
      std::size_t off = 0;         // consumed prefix of buf
    };
    std::vector<Conn> conns;
    std::vector<pollfd> fds;
    std::byte chunk[65536];
    while (!stop_.load(std::memory_order_acquire)) {
      fds.clear();
      fds.push_back({wake_pipe_[i].first, POLLIN, 0});
      fds.push_back({listen_fd_[i], POLLIN, 0});
      for (const Conn& c : conns) fds.push_back({c.fd, POLLIN, 0});
      if (::poll(fds.data(), fds.size(), 500) < 0) {
        if (errno == EINTR) continue;
        break;
      }
      if (fds[0].revents & POLLIN) {
        std::byte sink[16];
        while (::read(wake_pipe_[i].first, sink, sizeof sink) ==
               static_cast<ssize_t>(sizeof sink)) {
        }
      }
      if (fds[1].revents & POLLIN) {
        const int fd = ::accept(listen_fd_[i], nullptr, nullptr);
        if (fd >= 0) {
          set_nodelay(fd);
          conns.push_back({fd, {}, 0});
          continue;  // fds indices are stale; re-poll
        }
      }
      for (std::size_t c = 0; c < conns.size(); ++c) {
        if (!(fds[2 + c].revents & (POLLIN | POLLHUP | POLLERR))) continue;
        const ssize_t n = ::read(conns[c].fd, chunk, sizeof chunk);
        if (n <= 0) {
          if (n < 0 && (errno == EINTR || errno == EAGAIN)) continue;
          int fd = conns[c].fd;
          close_fd(fd);
          conns.erase(conns.begin() + static_cast<std::ptrdiff_t>(c));
          break;  // fds indices are stale; re-poll
        }
        Conn& conn = conns[c];
        conn.buf.insert(conn.buf.end(), chunk,
                        chunk + static_cast<std::size_t>(n));
        try {
          drain_frames_(d, conn.buf, conn.off);
        } catch (...) {
          // Protocol damage on this stream (bad magic / checksum):
          // letting the exception escape the thread would terminate
          // the process. Mark the node failed so flush() unblocks and
          // subsequent runs surface the breakage as CommError timeouts.
          reader_failed_.store(true, std::memory_order_release);
          flush_cv_.notify_all();
          for (Conn& cc : conns) close_fd(cc.fd);
          return;
        }
        // Compact once the consumed prefix dominates the buffer.
        if (conn.off > 0 && conn.off * 2 >= conn.buf.size()) {
          conn.buf.erase(conn.buf.begin(),
                         conn.buf.begin() +
                             static_cast<std::ptrdiff_t>(conn.off));
          conn.off = 0;
        }
      }
    }
    for (Conn& c : conns) close_fd(c.fd);
  }

  /// Decodes every complete frame in buf[off..) and delivers it.
  void drain_frames_(int d, std::vector<std::byte>& buf, std::size_t& off) {
    for (;;) {
      const std::size_t avail = buf.size() - off;
      if (avail < kFrameHeaderBytes) return;
      const std::span<const std::byte> at(buf.data() + off, avail);
      const FrameHeader h = read_frame_header(at);
      SAGE_CHECK_AS(CommError,
                    h.magic == kFrameMagic && h.length >= kParcelMetaBytes,
                    "tcp transport: bad frame header on node ", d);
      const std::size_t total = kFrameHeaderBytes + h.length;
      if (avail < total) return;
      const std::span<const std::byte> body =
          at.subspan(kFrameHeaderBytes, h.length);
      SAGE_CHECK_AS(CommError,
                    checksum64(body.data() + kParcelMetaBytes,
                               body.size() - kParcelMetaBytes,
                               checksum64(body.data(), kParcelMetaBytes)) ==
                        h.checksum,
                    "tcp transport: frame checksum mismatch on node ", d);
      Parcel parcel;
      const std::size_t payload_len =
          decode_parcel_meta(body.first(kParcelMetaBytes), parcel);
      SAGE_CHECK_AS(CommError, payload_len == h.length - kParcelMetaBytes,
                    "tcp transport: frame/meta length mismatch on node ", d);
      if (payload_len != 0) {
        parcel.payload = pool_.copy_of(body.subspan(kParcelMetaBytes));
      }
      deliver_(d, std::move(parcel));
      delivered_[static_cast<std::size_t>(d)].fetch_add(
          1, std::memory_order_release);
      {
        std::lock_guard<std::mutex> lock(flush_mu_);
      }
      flush_cv_.notify_all();
      off += total;
    }
  }

  void teardown_() {
    if (torn_down_) return;
    torn_down_ = true;
    stop_.store(true, std::memory_order_release);
    for (auto& [rd, wr] : wake_pipe_) {
      if (wr >= 0) {
        const std::byte one{1};
        [[maybe_unused]] ssize_t n = ::write(wr, &one, 1);
      }
    }
    flush_cv_.notify_all();
    for (std::thread& t : readers_) t.join();
    readers_.clear();
    for (int& fd : link_fd_) close_fd(fd);
    for (int& fd : listen_fd_) close_fd(fd);
    for (auto& [rd, wr] : wake_pipe_) {
      close_fd(rd);
      close_fd(wr);
    }
  }

  int node_count_;
  BufferPool& pool_;
  DeliverFn deliver_;

  std::vector<int> listen_fd_;
  std::vector<std::uint16_t> ports_;
  std::vector<std::pair<int, int>> wake_pipe_;  // reader wakeup (rd, wr)
  std::vector<std::mutex> link_mu_;
  std::vector<int> link_fd_;  // lazily connected, src*n+dst

  std::unique_ptr<std::atomic<std::uint64_t>[]> sent_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> delivered_;
  std::mutex flush_mu_;
  std::condition_variable flush_cv_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> reader_failed_{false};
  bool torn_down_ = false;
  std::vector<std::thread> readers_;
};

}  // namespace

std::unique_ptr<Transport> make_tcp_transport(const TransportOptions& options,
                                              int node_count,
                                              BufferPool& pool,
                                              Transport::DeliverFn deliver) {
  return std::make_unique<TcpTransport>(options, node_count, pool,
                                        std::move(deliver));
}

}  // namespace sage::net
