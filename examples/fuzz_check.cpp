// Differential fuzzing driver (src/fgq/check/).
//
// Runs a deterministic seed range through every evaluation path in the
// library and diffs each against the brute-force reference. Exits 0 on
// zero mismatches, 1 otherwise — this is the binary the CI sanitizer jobs
// run with --seeds=500.
//
//   fuzz_check [--seeds=N] [--first-seed=S] [--classes=a,b,...]
//              [--no-shrink] [--regress-dir=DIR] [--no-service]
//              [--no-semiring] [--no-mutation] [--mutation-batches=N]
//              [--heavy-dup=P] [--net] [--net-frames=N]
//
//   --seeds=N        total cases (cycling through the classes). Default 64.
//   --first-seed=S   first seed of the range. Default 0.
//   --classes=...    comma-separated FuzzClassName list. Default: all.
//   --no-shrink      report raw failures without shrinking.
//   --regress-dir=D  write shrunk failures as .fgqr files under D.
//   --no-service     skip the QueryService paths (faster under TSan).
//   --no-semiring    skip the semiring paths (SumProduct and
//                    SemiringSumAcq under every instance vs the reference
//                    fold, cross-semiring invariants, per-semiring count
//                    serving). On by default.
//   --no-mutation    skip the mutation paths (snapshot isolation +
//                    concurrent-writer linearizability + maintained-index
//                    equivalence). On by default.
//   --mutation-batches=N  insert/delete batches per case. Default 3.
//   --heavy-dup=P    probability of key-collapsed (all-duplicate-key)
//                    relations, the open-addressing worst case. Default 0.15.
//   --net            also run every case through an fgq::net loopback
//                    server (rows/count/enumerate-limit over a real socket).
//   --net-frames=N   run N iterations of the wire-protocol frame fuzz
//                    (mutated/garbage frames must never crash the decoders)
//                    before the differential seeds.
//
// Reproduce a single failure with --seeds=1 --first-seed=S --classes=C.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "fgq/check/check.h"
#include "fgq/check/net_fuzz.h"

namespace {

bool ParseSize(const char* s, size_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') return false;
  *out = static_cast<size_t>(v);
  return true;
}

bool ParseProb(const char* s, double* out) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || v < 0.0 || v > 1.0) return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  fgq::CheckOptions opt;
  opt.num_seeds = 64;
  size_t net_frames = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      return arg.c_str() + std::strlen(prefix);
    };
    size_t n = 0;
    if (arg.rfind("--seeds=", 0) == 0 && ParseSize(value("--seeds="), &n)) {
      opt.num_seeds = n;
    } else if (arg.rfind("--first-seed=", 0) == 0 &&
               ParseSize(value("--first-seed="), &n)) {
      opt.first_seed = n;
    } else if (arg.rfind("--classes=", 0) == 0) {
      std::string list = value("--classes=");
      size_t pos = 0;
      while (pos <= list.size()) {
        const size_t comma = list.find(',', pos);
        const std::string name =
            list.substr(pos, comma == std::string::npos ? std::string::npos
                                                        : comma - pos);
        fgq::FuzzClass cls;
        if (!fgq::FuzzClassFromName(name, &cls)) {
          std::fprintf(stderr, "unknown class '%s'\n", name.c_str());
          return 2;
        }
        opt.classes.push_back(cls);
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    } else if (arg == "--no-shrink") {
      opt.shrink = false;
    } else if (arg.rfind("--regress-dir=", 0) == 0) {
      opt.regress_dir = value("--regress-dir=");
    } else if (arg == "--no-service") {
      opt.fuzz.include_service = false;
    } else if (arg == "--no-semiring") {
      opt.fuzz.include_semiring = false;
    } else if (arg == "--no-mutation") {
      opt.fuzz.include_mutation = false;
    } else if (arg.rfind("--mutation-batches=", 0) == 0 &&
               ParseSize(value("--mutation-batches="), &n)) {
      opt.fuzz.mutation_batches = n;
    } else if (arg == "--net") {
      opt.fuzz.include_net = true;
    } else if (arg.rfind("--net-frames=", 0) == 0 &&
               ParseSize(value("--net-frames="), &n)) {
      net_frames = n;
    } else if (arg.rfind("--heavy-dup=", 0) == 0 &&
               ParseProb(value("--heavy-dup="), &opt.fuzz.heavy_dup_prob)) {
      // Parsed in place.
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      return 2;
    }
  }

  if (net_frames > 0) {
    fgq::check::FrameFuzzOptions fopt;
    fopt.iterations = net_frames;
    fopt.seed = opt.first_seed + 1;
    const fgq::check::FrameFuzzReport frames = fgq::check::RunFrameFuzz(fopt);
    std::printf("%s\n", frames.Summary().c_str());
    if (!frames.ok()) {
      for (const std::string& f : frames.failures) {
        std::fprintf(stderr, "NET-FRAME FAILURE: %s\n", f.c_str());
      }
      return 1;
    }
  }

  const fgq::CheckSummary summary = fgq::RunSeedRange(opt);
  std::printf("%s", summary.ToString().c_str());
  if (!summary.ok()) {
    std::fprintf(stderr, "fuzz_check: %zu failing case(s)\n",
                 summary.failures.size());
    return 1;
  }
  return 0;
}
