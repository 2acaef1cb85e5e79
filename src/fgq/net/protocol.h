#ifndef FGQ_NET_PROTOCOL_H_
#define FGQ_NET_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "fgq/count/semiring.h"
#include "fgq/db/value.h"
#include "fgq/util/status.h"

/// \file protocol.h
/// The fgq wire protocol: length-prefixed binary frames.
///
/// The paper's complexity guarantees (linear preprocessing, constant
/// delay) are per-request budgets; a network front end must not blur them
/// with per-request parsing overhead or ambiguous framing. The protocol
/// is therefore deliberately minimal and fully deterministic:
///
///   frame    := magic:u32 | length:u32 | payload[length]
///   request  := id:u64 | verb:u8 | limit:u32 | deadline_ms:u32
///               | query_len:u32 | query[query_len]
///               | semiring:u8 (kCount only, optional — absent = counting)
///               | mutations (kMutate only, see below)
///   response := id:u64 | status:u8 | flags:u8 | class:u8
///               | text_len:u32 | text[text_len]          (message/algorithm)
///               | epoch:u64                              (success only)
///               | body (by verb, see below)
///
/// All integers are little-endian. `magic` guards stream desynchronization
/// (a frame boundary computed from a corrupted length lands on garbage
/// with probability ~2^-32 instead of silently mis-parsing). `length`
/// counts payload bytes only and is bounded by kMaxFramePayload; an
/// oversized or bad-magic frame is a *framing* error — the stream can no
/// longer be trusted and the connection must close after an error
/// response. A well-framed request whose query text fails to parse is an
/// *application* error: the error response carries the request id and the
/// connection stays usable (pipelined successors are unaffected).
///
/// Request verbs:
///   kRows            phi(D) in full; body = rows.
///   kCount           the query's semiring aggregate. Under the default
///                    counting semiring this is |phi(D)| and the body is
///                    a decimal string; other semirings encode per
///                    SemiringValue::Encode ("true"/"false", "inf",
///                    "[3,7,9]", ...). The request's trailing semiring
///                    byte selects the instance.
///   kEnumerateLimit  the first `limit` answers in enumeration order
///                    (limit = 0 means all); body = rows. This is the
///                    verb that exposes the paper's constant-delay
///                    contract over the wire: k answers cost O(k) after
///                    preprocessing, independent of |phi(D)|.
///   kExplain         classification verdict + witness text; no execution.
///   kPing            liveness/ordering probe; empty body.
///   kMutate          apply a batch of relation insert/delete ops to a
///                    snapshot-backed server; body = nothing beyond the
///                    new epoch. The query text is empty; instead the
///                    request carries a mutation section:
///                      num_ops:u32 | ops[num_ops]
///                      op := kind:u8 (0=insert, 1=delete)
///                            | name_len:u32 | name[name_len]
///                            | arity:u32 | nrows:u64
///                            | values[nrows*arity] (i64 each, row-major)
///                    The server applies the batch atomically (a batch
///                    naming an unknown relation publishes nothing) and
///                    reports the published epoch.
///
/// Every successful response carries `epoch`: the snapshot epoch the
/// request executed against (the newly published epoch for kMutate; 0 for
/// kPing). Clients use it to order answers relative to their
/// own mutations — a response with epoch >= e observed every mutation up
/// to e, linearizably.
///
/// Response row body := arity:u32 | num_rows:u64 | values[num_rows*arity]
/// with each value an i64. Every encoder/decoder here is pure (buffers in,
/// structs out), so the whole protocol is unit-testable and fuzzable
/// without a socket in sight (see src/fgq/check/net_fuzz.h).

namespace fgq {
namespace net {

/// Frame magic: "FGQ1" little-endian.
inline constexpr uint32_t kFrameMagic = 0x31514746u;

/// Hard cap on a frame payload (requests and responses). Large enough for
/// several million answer rows, small enough that a hostile length prefix
/// cannot make the server allocate unbounded memory.
inline constexpr uint32_t kMaxFramePayload = 64u << 20;  // 64 MiB

/// Frame header size on the wire: magic + length.
inline constexpr size_t kFrameHeaderBytes = 8;

enum class Verb : uint8_t {
  kRows = 0,
  kCount = 1,
  kEnumerateLimit = 2,
  kExplain = 3,
  kPing = 4,
  kMutate = 5,
};

/// True for the verb values the protocol defines (decode rejects others).
bool VerbIsValid(uint8_t v);

/// One relation insert/delete in a kMutate request. `values` holds
/// nrows * arity i64s row-major; a delete removes every row equal to one
/// of them (a 0-ary delete clears the relation).
struct MutationOp {
  bool is_delete = false;
  std::string relation;
  uint32_t arity = 0;
  /// Row count — explicit (not derived from values.size()/arity) because
  /// 0-ary ops carry no values but still have a row count: an insert of
  /// nrows empty tuples, or a clearing delete.
  uint64_t nrows = 0;
  std::vector<Value> values;  ///< nrows * arity, row-major.
};

/// A decoded request frame payload.
struct Request {
  uint64_t id = 0;
  Verb verb = Verb::kRows;
  /// kEnumerateLimit: max answers to return (0 = no limit). Ignored by
  /// the other verbs.
  uint32_t limit = 0;
  /// Per-request deadline in milliseconds (0 = none).
  uint32_t deadline_ms = 0;
  /// Datalog rule text, e.g. "Q(x) :- E(x, y).". Empty for kPing/kMutate.
  std::string query;
  /// kCount only: the semiring to aggregate under. Encoded as one
  /// trailing byte after the query text; a frame that omits it decodes as
  /// counting, so pre-semiring clients keep working unchanged.
  SemiringId semiring = SemiringId::kCounting;
  /// kMutate only: the batch to apply (atomically, in order).
  std::vector<MutationOp> mutations;
};

/// Response flag bits.
inline constexpr uint8_t kFlagCacheHit = 1u << 0;

/// A decoded response frame payload. `status` mirrors fgq::StatusCode;
/// on error `text` is the message, on success it is the serving
/// algorithm ("constant-delay-enumeration", "cached", ...). The row body
/// is flat (row-major values) so it round-trips a Relation exactly.
struct Response {
  uint64_t id = 0;
  uint8_t status = 0;       ///< StatusCode as u8.
  uint8_t flags = 0;        ///< kFlag* bits.
  uint8_t classification = 0;  ///< QueryClass as u8 (valid on success).
  std::string text;         ///< Error message or algorithm name.
  /// Snapshot epoch the request executed against: the newly published
  /// epoch for kMutate, the pinned epoch for query verbs, 0 for kPing.
  /// Present on every successful response.
  uint64_t epoch = 0;
  /// kRows/kEnumerateLimit body. `nrows` is explicit on the wire rather
  /// than derived from values.size()/arity because arity-0 (Boolean)
  /// answers carry 0 values but 0-or-1 rows.
  uint32_t arity = 0;
  uint64_t nrows = 0;
  std::vector<Value> values;  ///< nrows * arity, row-major.
  /// kCount body: the aggregate per SemiringValue::Encode — a decimal
  /// string (BigInt-safe) under the default counting semiring, the
  /// per-semiring text form otherwise.
  std::string count;
  /// kExplain body: the EXPLAIN text.
  std::string explain;

  bool ok() const { return status == 0; }
  bool cache_hit() const { return (flags & kFlagCacheHit) != 0; }
  size_t num_rows() const { return static_cast<size_t>(nrows); }
};

/// Appends a complete frame (header + payload) carrying `req` to `out`.
void EncodeRequest(const Request& req, std::string* out);

/// Appends a complete frame carrying `resp` to `out`. The verb selects
/// which body section is written and must match the request's.
void EncodeResponse(const Response& resp, Verb verb, std::string* out);

/// Decodes a request frame *payload* (the bytes after the 8-byte header).
/// Any violation — short buffer, unknown verb, length fields pointing
/// past the end, trailing garbage — returns ParseError; the caller must
/// treat the stream as lost.
Status DecodeRequest(const uint8_t* data, size_t len, Request* out);

/// Decodes a response frame payload. `verb` must be the verb of the
/// request this response answers (the client tracks it by id).
Status DecodeResponse(const uint8_t* data, size_t len, Verb verb,
                      Response* out);

/// Incremental frame extractor for a byte stream. Feed() appends raw
/// bytes; Next() yields complete payloads in order. A framing violation
/// (bad magic, oversized length) puts the reader into a terminal error
/// state: Next() returns the error forever and the connection owning the
/// stream must close. Truncated trailing bytes are not an error — they
/// are simply an incomplete frame awaiting more input.
class FrameReader {
 public:
  /// `max_payload` caps the accepted frame length (the server lowers it
  /// via NetServerOptions; kMaxFramePayload is the protocol ceiling).
  explicit FrameReader(uint32_t max_payload = kMaxFramePayload)
      : max_payload_(max_payload) {}

  void Feed(const uint8_t* data, size_t len);
  void Feed(const char* data, size_t len) {
    Feed(reinterpret_cast<const uint8_t*>(data), len);
  }

  /// Extraction result: kFrame fills `payload`, kNeedMore means feed more
  /// bytes, kError means the stream is desynchronized (error() explains).
  enum class State { kFrame, kNeedMore, kError };
  State Next(std::vector<uint8_t>* payload);

  const Status& error() const { return error_; }
  /// Bytes buffered but not yet extracted (for backpressure accounting).
  size_t buffered() const { return buf_.size() - pos_; }

 private:
  uint32_t max_payload_;
  std::vector<uint8_t> buf_;
  size_t pos_ = 0;  ///< Consumed prefix of buf_ (compacted lazily).
  Status error_ = Status::OK();
};

}  // namespace net
}  // namespace fgq

#endif  // FGQ_NET_PROTOCOL_H_
