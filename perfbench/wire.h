// The benchmark's wire client: pipelined BATCH_LOOKUP over raw loopback
// sockets (the repository's blocking server::Client has one frame in
// flight), driven from one thread so the load generator costs exactly one
// busy core however many connections it holds.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "harness.h"
#include "net/ip_address.h"
#include "net/result.h"
#include "server/proto.h"
#include "server/server.h"

namespace perfbench {

/// A connected, non-blocking loopback TCP socket with TCP_NODELAY.
class RawConn {
 public:
  static netclust::Result<RawConn> Connect(std::uint16_t port);
  RawConn() = default;
  ~RawConn();
  RawConn(RawConn&& other) noexcept;
  RawConn& operator=(RawConn&& other) noexcept;
  RawConn(const RawConn&) = delete;
  RawConn& operator=(const RawConn&) = delete;

  [[nodiscard]] int fd() const { return fd_; }

 private:
  explicit RawConn(int fd) : fd_(fd) {}
  int fd_ = -1;
};

/// Opens one connection per reactor of `server`, so each reactor serves
/// exactly one. The kernel's SO_REUSEPORT hash picks the reactor; a
/// connection that lands on a reactor that already has one is closed and
/// replaced, never measured. Fails after a bounded number of attempts.
netclust::Result<std::vector<RawConn>> ConnectOnePerReactor(
    const netclust::server::Server& server);

/// Pre-encoded BATCH_LOOKUP frames over a fixed address stream: frame f
/// covers stream positions [f * batch, (f + 1) * batch).
struct FrameSet {
  std::size_t batch = 0;
  std::vector<std::vector<std::uint8_t>> frames;
};
[[nodiscard]] FrameSet EncodeFrames(
    const std::vector<netclust::net::IpAddress>& stream, std::size_t batch);

/// Checks one decoded reply, given its frame index, and reports a wrong
/// answer itself.
using ReplyCheck = std::function<void(
    std::size_t frame, const std::vector<netclust::server::LookupRecord>&)>;

struct PipelineStats {
  std::uint64_t frames = 0;       // replies received and checked
  std::uint64_t lookups = 0;      // addresses answered
  std::uint64_t refused = 0;      // BUSY / ERROR / undecodable replies
  std::string first_error;
  /// CPU time the driving thread used, against the wall time it ran: near
  /// 1.0 would mean the load generator, not the server, set the pace.
  double client_busy = 0.0;
};

/// Closed-loop pipelined load: keeps `depth` frames in flight on every
/// connection until `deadline_ns`, then stops sending and drains the
/// frames still in flight. Frames are taken from `frames` in order,
/// round-robin across connections, wrapping at the end. Every reply is
/// decoded with the proto.h codec and passed to `check`; answered
/// lookups are counted into `rate` at their reply time. With a tracer,
/// one reply in 16 has its decode recorded as a "server.decode_result"
/// span and, when `frame_span` is given, its send-to-reply time as a span
/// of that name.
PipelineStats RunPipeline(std::vector<RawConn>& conns, const FrameSet& frames,
                          std::size_t depth, std::int64_t deadline_ns,
                          const ReplyCheck& check, WindowedRate* rate,
                          Tracer* tracer, const char* frame_span = nullptr);

}  // namespace perfbench
