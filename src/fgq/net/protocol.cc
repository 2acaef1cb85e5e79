#include "fgq/net/protocol.h"

#include <cstring>

namespace fgq {
namespace net {

namespace {

/// Little-endian primitive writers. memcpy keeps them alignment-safe and
/// compiles to single moves on x86/ARM.
void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU32(std::string* out, uint32_t v) {
  char b[4];
  b[0] = static_cast<char>(v & 0xff);
  b[1] = static_cast<char>((v >> 8) & 0xff);
  b[2] = static_cast<char>((v >> 16) & 0xff);
  b[3] = static_cast<char>((v >> 24) & 0xff);
  out->append(b, 4);
}

void PutU64(std::string* out, uint64_t v) {
  PutU32(out, static_cast<uint32_t>(v & 0xffffffffu));
  PutU32(out, static_cast<uint32_t>(v >> 32));
}

void PutBytes(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

/// Bounded little-endian cursor; every read checks the remaining length.
struct Cursor {
  const uint8_t* p;
  size_t left;

  bool U8(uint8_t* v) {
    if (left < 1) return false;
    *v = *p;
    ++p;
    --left;
    return true;
  }
  bool U32(uint32_t* v) {
    if (left < 4) return false;
    *v = static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
    p += 4;
    left -= 4;
    return true;
  }
  bool U64(uint64_t* v) {
    uint32_t lo = 0, hi = 0;
    if (!U32(&lo) || !U32(&hi)) return false;
    *v = static_cast<uint64_t>(lo) | (static_cast<uint64_t>(hi) << 32);
    return true;
  }
  bool Bytes(std::string* s) {
    uint32_t n = 0;
    if (!U32(&n)) return false;
    if (left < n) return false;
    s->assign(reinterpret_cast<const char*>(p), n);
    p += n;
    left -= n;
    return true;
  }
};

Status Malformed(const char* what) {
  return Status::ParseError(std::string("malformed frame: ") + what);
}

}  // namespace

bool VerbIsValid(uint8_t v) {
  return v <= static_cast<uint8_t>(Verb::kMutate);
}

void EncodeRequest(const Request& req, std::string* out) {
  std::string payload;
  PutU64(&payload, req.id);
  PutU8(&payload, static_cast<uint8_t>(req.verb));
  PutU32(&payload, req.limit);
  PutU32(&payload, req.deadline_ms);
  PutBytes(&payload, req.query);
  if (req.verb == Verb::kCount) {
    // Trailing semiring byte. Decoders treat it as optional (absent =
    // counting), so frames from pre-semiring clients stay valid.
    PutU8(&payload, static_cast<uint8_t>(req.semiring));
  }
  if (req.verb == Verb::kMutate) {
    PutU32(&payload, static_cast<uint32_t>(req.mutations.size()));
    for (const MutationOp& op : req.mutations) {
      PutU8(&payload, op.is_delete ? 1 : 0);
      PutBytes(&payload, op.relation);
      PutU32(&payload, op.arity);
      PutU64(&payload, op.nrows);
      for (Value v : op.values) PutU64(&payload, static_cast<uint64_t>(v));
    }
  }
  PutU32(out, kFrameMagic);
  PutU32(out, static_cast<uint32_t>(payload.size()));
  out->append(payload);
}

void EncodeResponse(const Response& resp, Verb verb, std::string* out) {
  std::string payload;
  PutU64(&payload, resp.id);
  PutU8(&payload, resp.status);
  PutU8(&payload, resp.flags);
  PutU8(&payload, resp.classification);
  PutBytes(&payload, resp.text);
  if (resp.ok()) {
    PutU64(&payload, resp.epoch);
    switch (verb) {
      case Verb::kRows:
      case Verb::kEnumerateLimit: {
        PutU32(&payload, resp.arity);
        PutU64(&payload, resp.nrows);
        for (Value v : resp.values) {
          PutU64(&payload, static_cast<uint64_t>(v));
        }
        break;
      }
      case Verb::kCount:
        PutBytes(&payload, resp.count);
        break;
      case Verb::kExplain:
        PutBytes(&payload, resp.explain);
        break;
      case Verb::kPing:
      case Verb::kMutate:
        break;
    }
  }
  PutU32(out, kFrameMagic);
  PutU32(out, static_cast<uint32_t>(payload.size()));
  out->append(payload);
}

Status DecodeRequest(const uint8_t* data, size_t len, Request* out) {
  Cursor c{data, len};
  uint8_t verb = 0;
  if (!c.U64(&out->id)) return Malformed("truncated request id");
  if (!c.U8(&verb)) return Malformed("truncated verb");
  if (!VerbIsValid(verb)) return Malformed("unknown verb");
  out->verb = static_cast<Verb>(verb);
  if (!c.U32(&out->limit)) return Malformed("truncated limit");
  if (!c.U32(&out->deadline_ms)) return Malformed("truncated deadline");
  if (!c.Bytes(&out->query)) return Malformed("truncated query text");
  out->semiring = SemiringId::kCounting;
  if (out->verb == Verb::kCount && c.left > 0) {
    uint8_t s = 0;
    c.U8(&s);  // Cannot fail: left > 0.
    if (!IsValidSemiringId(s)) return Malformed("unknown semiring id");
    out->semiring = static_cast<SemiringId>(s);
  }
  out->mutations.clear();
  if (out->verb == Verb::kMutate) {
    uint32_t num_ops = 0;
    if (!c.U32(&num_ops)) return Malformed("truncated mutation count");
    // Each op is at least 17 bytes (kind + name_len + arity + nrows), so
    // the count is bounded by the remaining payload before any reserve.
    if (num_ops > c.left / 17) return Malformed("mutation count too large");
    out->mutations.reserve(num_ops);
    for (uint32_t i = 0; i < num_ops; ++i) {
      MutationOp op;
      uint8_t kind = 0;
      if (!c.U8(&kind)) return Malformed("truncated mutation kind");
      if (kind > 1) return Malformed("unknown mutation kind");
      op.is_delete = kind == 1;
      if (!c.Bytes(&op.relation)) return Malformed("truncated relation name");
      if (!c.U32(&op.arity)) return Malformed("truncated mutation arity");
      if (!c.U64(&op.nrows)) return Malformed("truncated mutation row count");
      // values.size() = nrows * arity, sized against the bounded payload
      // remainder (division, not multiplication — no overflow and no
      // hostile-length-driven allocation).
      if (op.arity != 0 && op.nrows > c.left / (8ull * op.arity)) {
        return Malformed("mutation row body overruns payload");
      }
      // A 0-ary op carries no values to bound it; one empty tuple is the
      // only meaningful payload (insert marks true, delete clears).
      if (op.arity == 0 && op.nrows > 1) {
        return Malformed("0-ary mutation with more than one row");
      }
      const size_t want = static_cast<size_t>(op.nrows) * op.arity;
      op.values.reserve(want);
      for (size_t j = 0; j < want; ++j) {
        uint64_t v = 0;
        if (!c.U64(&v)) return Malformed("truncated mutation values");
        op.values.push_back(static_cast<Value>(v));
      }
      out->mutations.push_back(std::move(op));
    }
  }
  if (c.left != 0) return Malformed("trailing bytes after request");
  return Status::OK();
}

Status DecodeResponse(const uint8_t* data, size_t len, Verb verb,
                      Response* out) {
  Cursor c{data, len};
  if (!c.U64(&out->id)) return Malformed("truncated response id");
  if (!c.U8(&out->status)) return Malformed("truncated status");
  if (!c.U8(&out->flags)) return Malformed("truncated flags");
  if (!c.U8(&out->classification)) return Malformed("truncated class");
  if (!c.Bytes(&out->text)) return Malformed("truncated text");
  if (!out->ok()) {
    if (c.left != 0) return Malformed("trailing bytes after error");
    return Status::OK();
  }
  if (!c.U64(&out->epoch)) return Malformed("truncated epoch");
  switch (verb) {
    case Verb::kRows:
    case Verb::kEnumerateLimit: {
      if (!c.U32(&out->arity)) return Malformed("truncated arity");
      if (!c.U64(&out->nrows)) return Malformed("truncated row count");
      // Sized before any allocation, and computed from the (bounded)
      // remaining payload rather than nrows*arity — no multiply overflow
      // and no hostile-length-driven allocation.
      if (out->arity == 0) {
        if (c.left != 0) return Malformed("row body size mismatch");
      } else {
        const uint64_t row_bytes = 8ull * out->arity;
        if (c.left % row_bytes != 0 || c.left / row_bytes != out->nrows) {
          return Malformed("row body size mismatch");
        }
      }
      const size_t want = c.left / 8;
      out->values.clear();
      out->values.reserve(want);
      for (size_t i = 0; i < want; ++i) {
        uint64_t v = 0;
        c.U64(&v);  // Cannot fail: sized above.
        out->values.push_back(static_cast<Value>(v));
      }
      break;
    }
    case Verb::kCount:
      if (!c.Bytes(&out->count)) return Malformed("truncated count");
      break;
    case Verb::kExplain:
      if (!c.Bytes(&out->explain)) return Malformed("truncated explain");
      break;
    case Verb::kPing:
    case Verb::kMutate:
      break;
  }
  if (c.left != 0) return Malformed("trailing bytes after response");
  return Status::OK();
}

void FrameReader::Feed(const uint8_t* data, size_t len) {
  // Compact once the consumed prefix dominates — amortized O(1) per byte.
  if (pos_ > 0 && pos_ >= buf_.size() / 2) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<long>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), data, data + len);
}

FrameReader::State FrameReader::Next(std::vector<uint8_t>* payload) {
  if (!error_.ok()) return State::kError;
  const size_t avail = buf_.size() - pos_;
  if (avail < kFrameHeaderBytes) return State::kNeedMore;
  const uint8_t* h = buf_.data() + pos_;
  const uint32_t magic = static_cast<uint32_t>(h[0]) |
                         (static_cast<uint32_t>(h[1]) << 8) |
                         (static_cast<uint32_t>(h[2]) << 16) |
                         (static_cast<uint32_t>(h[3]) << 24);
  const uint32_t length = static_cast<uint32_t>(h[4]) |
                          (static_cast<uint32_t>(h[5]) << 8) |
                          (static_cast<uint32_t>(h[6]) << 16) |
                          (static_cast<uint32_t>(h[7]) << 24);
  if (magic != kFrameMagic) {
    error_ = Status::ParseError("bad frame magic (stream desynchronized)");
    return State::kError;
  }
  if (length > max_payload_) {
    error_ = Status::ResourceExhausted(
        "frame payload of " + std::to_string(length) +
        " bytes exceeds the limit of " + std::to_string(max_payload_));
    return State::kError;
  }
  if (avail < kFrameHeaderBytes + length) return State::kNeedMore;
  payload->assign(h + kFrameHeaderBytes, h + kFrameHeaderBytes + length);
  pos_ += kFrameHeaderBytes + length;
  return State::kFrame;
}

}  // namespace net
}  // namespace fgq
