#include "fgq/check/net_fuzz.h"

#include <algorithm>

#include "fgq/net/protocol.h"
#include "fgq/util/random.h"

namespace fgq {
namespace check {

namespace {

using net::FrameReader;
using net::MutationOp;
using net::Request;
using net::Response;
using net::Verb;

/// Every verb the protocol defines, kMutate included.
constexpr uint64_t kNumVerbs = static_cast<uint64_t>(Verb::kMutate) + 1;

std::string RandomText(Rng* rng, size_t max_len) {
  const size_t len = rng->Below(max_len + 1);
  std::string s;
  s.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    s.push_back(static_cast<char>(rng->Below(256)));
  }
  return s;
}

/// A random kMutate section: inserts and deletes, 0-ary ops included.
/// With `hostile`, the last op claims more rows than the payload carries
/// (a 0-ary op: more than the one row it may have), which every decode
/// must reject.
std::vector<MutationOp> RandomMutations(Rng* rng, const FrameFuzzOptions& opt,
                                        bool hostile) {
  std::vector<MutationOp> ops(rng->Below(4) + (hostile ? 1 : 0));
  for (MutationOp& op : ops) {
    op.is_delete = rng->Chance(0.5);
    op.relation = RandomText(rng, 8);
    op.arity = static_cast<uint32_t>(rng->Below(4));
    if (op.arity == 0) {
      op.nrows = rng->Below(2);
      continue;
    }
    op.nrows = rng->Below(opt.max_values / op.arity + 1);
    for (size_t i = 0; i < op.nrows * op.arity; ++i) {
      op.values.push_back(static_cast<Value>(rng->Next()));
    }
  }
  if (hostile) ops.back().nrows += 2 + rng->Below(1u << 20);
  return ops;
}

/// `*hostile` is set when the request carries a mutation section that
/// must not decode.
Request RandomRequest(Rng* rng, const FrameFuzzOptions& opt, bool* hostile) {
  Request req;
  req.id = rng->Next();
  req.verb = static_cast<Verb>(rng->Below(kNumVerbs));
  req.limit = static_cast<uint32_t>(rng->Next());
  req.deadline_ms = static_cast<uint32_t>(rng->Below(10'000));
  req.query = RandomText(rng, opt.max_query_len);
  *hostile = false;
  if (req.verb == Verb::kCount) {
    req.semiring = static_cast<SemiringId>(rng->Below(kNumSemirings));
  } else if (req.verb == Verb::kMutate) {
    *hostile = rng->Chance(0.2);
    req.mutations = RandomMutations(rng, opt, *hostile);
  }
  return req;
}

Response RandomResponse(Rng* rng, Verb verb, const FrameFuzzOptions& opt) {
  Response resp;
  resp.id = rng->Next();
  resp.status = rng->Chance(0.25) ? static_cast<uint8_t>(rng->Below(11)) : 0;
  resp.flags = static_cast<uint8_t>(rng->Below(4));
  resp.classification = static_cast<uint8_t>(rng->Below(8));
  resp.text = RandomText(rng, 32);
  if (resp.ok()) {
    switch (verb) {
      case Verb::kRows:
      case Verb::kEnumerateLimit: {
        resp.arity = static_cast<uint32_t>(rng->Below(5));
        if (resp.arity == 0) {
          resp.nrows = rng->Below(2);
        } else {
          const size_t rows = rng->Below(opt.max_values / resp.arity + 1);
          resp.nrows = rows;
          for (size_t i = 0; i < rows * resp.arity; ++i) {
            resp.values.push_back(static_cast<Value>(rng->Next()));
          }
        }
        break;
      }
      case Verb::kCount:
        resp.count = RandomText(rng, 24);
        break;
      case Verb::kExplain:
        resp.explain = RandomText(rng, 64);
        break;
      case Verb::kPing:
      case Verb::kMutate:
        break;
    }
  }
  return resp;
}

bool SameMutation(const MutationOp& a, const MutationOp& b) {
  return a.is_delete == b.is_delete && a.relation == b.relation &&
         a.arity == b.arity && a.nrows == b.nrows && a.values == b.values;
}

bool SameRequest(const Request& a, const Request& b) {
  return a.id == b.id && a.verb == b.verb && a.limit == b.limit &&
         a.deadline_ms == b.deadline_ms && a.query == b.query &&
         a.semiring == b.semiring &&
         std::equal(a.mutations.begin(), a.mutations.end(),
                    b.mutations.begin(), b.mutations.end(), SameMutation);
}

bool SameResponse(const Response& a, const Response& b) {
  return a.id == b.id && a.status == b.status && a.flags == b.flags &&
         a.classification == b.classification && a.text == b.text &&
         a.arity == b.arity && a.nrows == b.nrows && a.values == b.values &&
         a.count == b.count && a.explain == b.explain;
}

enum class Mutation {
  kNone,         // Round-trip check.
  kTruncate,     // Drop a suffix (incomplete frame / short payload).
  kBitFlip,      // Flip 1..8 random bits anywhere.
  kLengthLie,    // Rewrite the length prefix to a wrong-but-bounded value.
  kOversize,     // Length prefix beyond kMaxFramePayload.
  kGarbage,      // Replace the whole stream with byte soup.
  kSplice,       // Insert garbage bytes at a random offset.
};

/// Feeds `stream` to a FrameReader in random chunks and decodes every
/// complete frame both ways. Exercises the reassembly path and checks the
/// terminal-error contract; returns false only on a contract violation
/// (recorded in *failures).
struct FeedResult {
  size_t frames = 0;
  size_t decoded = 0;
  size_t decode_errors = 0;
  bool reader_error = false;
};

bool FeedStream(const std::string& stream, Verb verb, Rng* rng,
                FeedResult* out, std::vector<std::string>* failures) {
  FrameReader reader;
  size_t off = 0;
  std::vector<uint8_t> payload;
  while (off < stream.size()) {
    const size_t chunk =
        std::min(stream.size() - off, static_cast<size_t>(rng->Below(97) + 1));
    reader.Feed(stream.data() + off, chunk);
    off += chunk;
    for (;;) {
      const FrameReader::State st = reader.Next(&payload);
      if (st == FrameReader::State::kNeedMore) break;
      if (st == FrameReader::State::kError) {
        out->reader_error = true;
        if (reader.error().ok()) {
          failures->push_back("reader in error state with OK status");
          return false;
        }
        // Terminal: the error must persist across further feeds.
        reader.Feed("\0\0\0\0", 4);
        if (reader.Next(&payload) != FrameReader::State::kError) {
          failures->push_back("frame reader error state was not terminal");
          return false;
        }
        return true;
      }
      ++out->frames;
      Request req;
      Response resp;
      const Status rq = DecodeRequest(payload.data(), payload.size(), &req);
      const Status rs =
          DecodeResponse(payload.data(), payload.size(), verb, &resp);
      if (rq.ok() || rs.ok()) {
        ++out->decoded;
      } else {
        ++out->decode_errors;
      }
    }
  }
  return true;
}

}  // namespace

FrameFuzzReport RunFrameFuzz(const FrameFuzzOptions& opt) {
  FrameFuzzReport report;
  Rng rng(opt.seed);
  for (size_t iter = 0; iter < opt.iterations; ++iter) {
    ++report.iterations;
    const Verb verb = static_cast<Verb>(rng.Below(kNumVerbs));
    const bool as_request = rng.Chance(0.5);
    Request req;
    Response resp;
    bool hostile = false;
    std::string stream;
    if (as_request) {
      req = RandomRequest(&rng, opt, &hostile);
      EncodeRequest(req, &stream);
    } else {
      resp = RandomResponse(&rng, verb, opt);
      EncodeResponse(resp, verb, &stream);
    }

    const Mutation mut = static_cast<Mutation>(rng.Below(7));
    switch (mut) {
      case Mutation::kNone:
        break;
      case Mutation::kTruncate:
        if (!stream.empty()) stream.resize(rng.Below(stream.size()));
        break;
      case Mutation::kBitFlip: {
        const size_t flips = rng.Below(8) + 1;
        for (size_t i = 0; i < flips && !stream.empty(); ++i) {
          stream[rng.Below(stream.size())] ^=
              static_cast<char>(1u << rng.Below(8));
        }
        break;
      }
      case Mutation::kLengthLie: {
        // A wrong length that still passes the cap: the payload decoders
        // must catch the mismatch (truncated fields or trailing bytes).
        const uint32_t lie = static_cast<uint32_t>(rng.Below(256));
        stream[4] = static_cast<char>(lie & 0xff);
        stream[5] = static_cast<char>((lie >> 8) & 0xff);
        stream[6] = 0;
        stream[7] = 0;
        // Pad so the lied-about frame can complete.
        stream.append(lie, '\xAA');
        break;
      }
      case Mutation::kOversize: {
        const uint32_t big = net::kMaxFramePayload + 1 +
                             static_cast<uint32_t>(rng.Below(1u << 20));
        stream[4] = static_cast<char>(big & 0xff);
        stream[5] = static_cast<char>((big >> 8) & 0xff);
        stream[6] = static_cast<char>((big >> 16) & 0xff);
        stream[7] = static_cast<char>((big >> 24) & 0xff);
        break;
      }
      case Mutation::kGarbage: {
        stream = RandomText(&rng, 256);
        break;
      }
      case Mutation::kSplice: {
        const std::string junk = RandomText(&rng, 32);
        stream.insert(rng.Below(stream.size() + 1), junk);
        break;
      }
    }

    FeedResult fed;
    if (!FeedStream(stream, verb, &rng, &fed, &report.failures)) continue;
    report.frames_fed += fed.frames;
    report.clean_decodes += fed.decoded;
    report.clean_errors += fed.decode_errors + (fed.reader_error ? 1 : 0);

    if (mut == Mutation::kNone) {
      // The unmutated frame must arrive intact and round-trip exactly.
      if (fed.reader_error || fed.frames != 1) {
        report.failures.push_back(
            "clean frame did not survive the reader (iteration " +
            std::to_string(iter) + ")");
        continue;
      }
      FrameReader reader;
      reader.Feed(stream.data(), stream.size());
      std::vector<uint8_t> payload;
      if (reader.Next(&payload) != FrameReader::State::kFrame) {
        report.failures.push_back("clean frame re-read failed (iteration " +
                                  std::to_string(iter) + ")");
        continue;
      }
      if (as_request) {
        Request back;
        const Status st = DecodeRequest(payload.data(), payload.size(), &back);
        if (hostile) {
          // Intact framing around a mutation section that overruns its
          // payload: the decoder must refuse it, not read past the end.
          if (st.ok()) {
            report.failures.push_back(
                "hostile mutation section decoded (iteration " +
                std::to_string(iter) + ")");
          }
          continue;
        }
        if (!st.ok() || !SameRequest(req, back)) {
          report.failures.push_back("request round-trip mismatch (iteration " +
                                    std::to_string(iter) + ")");
          continue;
        }
      } else {
        Response back;
        const Status st =
            DecodeResponse(payload.data(), payload.size(), verb, &back);
        if (!st.ok() || !SameResponse(resp, back)) {
          report.failures.push_back(
              "response round-trip mismatch (iteration " +
              std::to_string(iter) + ")");
          continue;
        }
      }
      ++report.roundtrips;
    }
    if (mut == Mutation::kOversize && !fed.reader_error) {
      report.failures.push_back(
          "oversized length prefix was not rejected (iteration " +
          std::to_string(iter) + ")");
    }
  }
  return report;
}

std::string FrameFuzzReport::Summary() const {
  std::string s = "net-frame fuzz: " + std::to_string(iterations) +
                  " iterations, " + std::to_string(frames_fed) +
                  " frames, " + std::to_string(roundtrips) +
                  " round-trips, " + std::to_string(clean_decodes) +
                  " decodes, " + std::to_string(clean_errors) +
                  " clean rejections, " + std::to_string(failures.size()) +
                  " failures";
  return s;
}

}  // namespace check
}  // namespace fgq
