#ifndef FGQ_NET_CLIENT_H_
#define FGQ_NET_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "fgq/net/protocol.h"
#include "fgq/util/status.h"

/// \file client.h
/// A small blocking client for the fgq wire protocol.
///
/// This is the reference peer of NetServer: the loopback tests, the
/// differential fuzzer, and fgq_loadgen all speak through it. It is
/// deliberately synchronous — one fd, blocking reads — because its job is
/// correctness and measurement, not throughput. Pipelining is still fully
/// supported: Send() any number of requests, then Receive() the responses
/// in the same order (the protocol guarantees per-connection ordering, so
/// the caller only has to remember the verbs it sent).

namespace fgq {
namespace net {

class Client {
 public:
  /// Blocking TCP connect (IPv4 dotted-quad host).
  static Result<std::unique_ptr<Client>> Connect(const std::string& host,
                                                 uint16_t port);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Encodes and writes one request frame. Does not wait for the reply —
  /// interleave Send/Receive freely to pipeline.
  Status Send(const Request& req);

  /// Writes raw bytes verbatim (no framing). Exists so tests and the
  /// fuzzer can hand the server deliberately broken streams.
  Status SendRaw(const std::string& bytes);

  /// Blocks until the next complete response frame arrives and decodes it.
  /// `verb` must be the verb of the request this response answers
  /// (responses arrive in request order). Fails with Internal when the
  /// server closes the connection first.
  Result<Response> Receive(Verb verb);

  /// Send + Receive for the unpipelined case.
  Result<Response> Call(const Request& req);

  /// Applies `ops` as one atomic batch on the server's store and returns
  /// the newly published epoch.
  Result<uint64_t> Mutate(std::vector<MutationOp> ops, uint64_t id = 0);

  /// Half-closes the write side (the server sees EOF, finishes pending
  /// responses, then closes). Receive() still works afterwards.
  void ShutdownWrite();

  int fd() const { return fd_; }

 private:
  explicit Client(int fd) : fd_(fd) {}
  Status WriteAll(const char* data, size_t len);

  int fd_ = -1;
  FrameReader reader_;
};

}  // namespace net
}  // namespace fgq

#endif  // FGQ_NET_CLIENT_H_
