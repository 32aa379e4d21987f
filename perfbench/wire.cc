#include "wire.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <ctime>
#include <deque>
#include <thread>
#include <utility>

namespace perfbench {

namespace server = netclust::server;
using netclust::Fail;
using netclust::Result;

Result<RawConn> RawConn::Connect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Fail(std::string("socket: ") + std::strerror(errno));
  RawConn conn(fd);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    return Fail(std::string("connect: ") + std::strerror(errno));
  }
  const int one = 1;
  if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one) != 0 ||
      ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK) != 0) {
    return Fail(std::string("socket options: ") + std::strerror(errno));
  }
  return conn;
}

RawConn::~RawConn() {
  if (fd_ >= 0) ::close(fd_);
}

RawConn::RawConn(RawConn&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)) {}

RawConn& RawConn::operator=(RawConn&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

namespace {

std::uint64_t AcceptedTotal(const server::Server& server) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < server.reactor_count(); ++i) {
    total += server.reactor_metrics(i).connections_accepted.value();
  }
  return total;
}

/// Waits until the reactors together have accepted `expected`
/// connections (accepts complete asynchronously on the reactor threads).
bool AwaitAccepted(const server::Server& server, std::uint64_t expected) {
  const std::int64_t give_up = NowNs() + 2'000'000'000;
  while (AcceptedTotal(server) < expected) {
    if (NowNs() > give_up) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

}  // namespace

Result<std::vector<RawConn>> ConnectOnePerReactor(
    const server::Server& server) {
  const std::size_t reactors = server.reactor_count();
  std::vector<RawConn> placed(reactors);
  std::size_t filled = 0;
  for (int attempt = 0; attempt < 64 && filled < reactors; ++attempt) {
    std::vector<std::uint64_t> before(reactors);
    for (std::size_t i = 0; i < reactors; ++i) {
      before[i] = server.reactor_metrics(i).connections_accepted.value();
    }
    Result<RawConn> conn = RawConn::Connect(server.port());
    if (!conn.ok()) return Fail(conn.error());
    std::uint64_t expected = 1;
    for (const std::uint64_t count : before) expected += count;
    if (!AwaitAccepted(server, expected)) {
      return Fail("connection was never accepted");
    }
    for (std::size_t i = 0; i < reactors; ++i) {
      if (server.reactor_metrics(i).connections_accepted.value() == before[i]) {
        continue;
      }
      if (placed[i].fd() < 0) {
        placed[i] = std::move(conn.value());
        ++filled;
      }
      break;  // a duplicate placement is dropped here and closes
    }
  }
  if (filled < reactors) {
    return Fail("could not place one connection on every reactor");
  }
  return placed;
}

FrameSet EncodeFrames(const std::vector<netclust::net::IpAddress>& stream,
                      std::size_t batch) {
  FrameSet set;
  set.batch = batch;
  for (std::size_t start = 0; start + batch <= stream.size(); start += batch) {
    server::BatchLookupRequest request;
    request.addresses.assign(stream.begin() + static_cast<long>(start),
                             stream.begin() + static_cast<long>(start + batch));
    set.frames.push_back(server::EncodeFrame(
        server::Opcode::kBatchLookup, server::EncodeBatchLookup(request)));
  }
  return set;
}

namespace {

constexpr std::uint64_t kTraceStride = 16;

std::int64_t ThreadCpuNs() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

struct InFlight {
  std::size_t frame = 0;
  std::int64_t sent_ns = 0;
};

struct ConnState {
  int fd = -1;
  std::deque<InFlight> inflight;
  std::vector<std::uint8_t> out;
  std::size_t out_off = 0;
  server::FrameDecoder decoder;
};

}  // namespace

PipelineStats RunPipeline(std::vector<RawConn>& conns, const FrameSet& frames,
                          std::size_t depth, std::int64_t deadline_ns,
                          const ReplyCheck& check, WindowedRate* rate,
                          Tracer* tracer, const char* frame_span) {
  PipelineStats stats;
  const std::int64_t wall_start = NowNs();
  const std::int64_t cpu_start = ThreadCpuNs();
  std::vector<ConnState> states(conns.size());
  for (std::size_t i = 0; i < conns.size(); ++i) states[i].fd = conns[i].fd();
  std::vector<pollfd> pfds(conns.size());
  std::vector<std::uint8_t> buffer(1 << 18);
  std::size_t cursor = 0;
  bool failed = false;
  const auto fail = [&](const std::string& why) {
    if (stats.first_error.empty()) stats.first_error = why;
    failed = true;
  };
  const std::int64_t drain_limit = deadline_ns + 5'000'000'000;

  while (!failed) {
    const std::int64_t now = NowNs();
    const bool sending = now < deadline_ns;
    bool idle = true;
    for (std::size_t c = 0; c < states.size(); ++c) {
      ConnState& s = states[c];
      while (sending && s.inflight.size() < depth) {
        const std::size_t f = cursor++ % frames.frames.size();
        const std::vector<std::uint8_t>& wire = frames.frames[f];
        s.out.insert(s.out.end(), wire.begin(), wire.end());
        s.inflight.push_back(InFlight{f, now});
      }
      while (s.out_off < s.out.size()) {
        const ssize_t n = ::send(s.fd, s.out.data() + s.out_off,
                                 s.out.size() - s.out_off, MSG_NOSIGNAL);
        if (n > 0) {
          s.out_off += static_cast<std::size_t>(n);
        } else if (n < 0 && (errno == EAGAIN || errno == EINTR)) {
          break;
        } else {
          fail(std::string("send: ") + std::strerror(errno));
          break;
        }
      }
      if (s.out_off == s.out.size()) {
        s.out.clear();
        s.out_off = 0;
      }
      if (!s.inflight.empty()) idle = false;
      pfds[c].fd = s.fd;
      pfds[c].events = static_cast<short>(
          POLLIN | (s.out_off < s.out.size() ? POLLOUT : 0));
      pfds[c].revents = 0;
    }
    if (failed || (!sending && idle)) break;
    if (!sending && now > drain_limit) {
      fail("replies still missing 5 s after the run ended");
      break;
    }
    const int ready = ::poll(pfds.data(), pfds.size(), 100);
    if (ready < 0 && errno != EINTR) {
      fail(std::string("poll: ") + std::strerror(errno));
      break;
    }
    for (std::size_t c = 0; c < states.size() && !failed; ++c) {
      if ((pfds[c].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      ConnState& s = states[c];
      for (;;) {
        const ssize_t n = ::recv(s.fd, buffer.data(), buffer.size(), 0);
        if (n > 0) {
          s.decoder.Feed(buffer.data(), static_cast<std::size_t>(n));
          if (static_cast<std::size_t>(n) < buffer.size()) break;
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EINTR)) break;
        fail(n == 0 ? "server closed the connection"
                    : std::string("recv: ") + std::strerror(errno));
        break;
      }
      for (;;) {
        auto next = s.decoder.NextView();
        if (!next.ok()) {
          fail("undecodable reply frame: " + next.error());
          break;
        }
        if (!next.value().has_value()) break;
        const server::FrameView& view = *next.value();
        const std::int64_t received = NowNs();
        if (s.inflight.empty()) {
          fail("reply without a request in flight");
          break;
        }
        const InFlight sent = s.inflight.front();
        s.inflight.pop_front();
        if (view.header.opcode != server::Opcode::kBatchResult) {
          ++stats.refused;
          if (stats.first_error.empty()) {
            stats.first_error = std::string("reply opcode ") +
                                server::OpcodeName(view.header.opcode);
          }
          continue;
        }
        auto records =
            server::DecodeBatchResult(view.payload, view.header.payload_size);
        // One frame in kTraceStride is traced, which bounds the trace of a
        // long pipelined phase without biasing which frames are kept.
        if (tracer != nullptr && stats.frames % kTraceStride == 0) {
          tracer->Add("server.decode_result", received, NowNs(),
                      records.ok() ? records.value().size() : 1);
          if (frame_span != nullptr) {
            tracer->Add(frame_span, sent.sent_ns, received);
          }
        }
        if (!records.ok()) {
          ++stats.refused;
          if (stats.first_error.empty()) stats.first_error = records.error();
          continue;
        }
        ++stats.frames;
        stats.lookups += records.value().size();
        check(sent.frame, records.value());
        if (rate != nullptr) rate->Add(received, records.value().size());
      }
    }
  }
  stats.client_busy = static_cast<double>(ThreadCpuNs() - cpu_start) /
                      static_cast<double>(std::max<std::int64_t>(
                          1, NowNs() - wall_start));
  return stats;
}

}  // namespace perfbench
