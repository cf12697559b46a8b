/**
 * @file
 * Response checks for the serve-level benchmark.
 *
 * Every response is checked against its Request's expectations (ok,
 * op, cache state, exactness certificate, sweep size). The first
 * Schedule::digestBatches timed batches also feed a digest of the
 * result fields only — plan bits, comm_bytes, simulated metrics, sweep
 * argmin — which at the default seed must equal the value recorded
 * from the reference commit: the simulator and planners must stay
 * bit-identical. Hashes, search counters and `stats` responses stay
 * out of the digest, so a faster search or a new cache-key format
 * does not trip it.
 */

#ifndef PERFBENCH_VERIFY_HH
#define PERFBENCH_VERIFY_HH

#include <cstdint>
#include <string>
#include <string_view>

#include "serve/sha256.hh"
#include "workloads.hh"

namespace perfbench {

/** Empty when `response` shows what `expect` asks for; otherwise why
 *  not. */
std::string checkResponse(const Request &expect, std::string_view response);

/** SHA-256 over the result fields of a stream of responses. */
class ResultDigest
{
  public:
    /** Fold one response line in (stats responses are skipped). */
    void add(std::string_view response);
    std::string hex() { return sha_.hexDigest(); }

  private:
    hypar::serve::Sha256 sha_;
};

/** Digest recorded at kDefaultSeed for `workload`. */
const char *expectedDigest(Workload workload);

/** Hash of a response for comparing two runs of the same requests;
 *  all `stats` responses hash alike (they carry timings). */
std::uint64_t responseKey(std::string_view response);

} // namespace perfbench

#endif // PERFBENCH_VERIFY_HH
