// Fuzz target: the reconciliation-v2 negotiation messages (DiffProbe,
// DiffSketch, DiffResult — DESIGN.md §16).
//
// Dispatches on PeekType exactly like the sessions do, then decodes
// the matching message. The hazards are the wire counts (a sketch's
// symbols, DiffResult short IDs), each CheckWireCount-bounded, and the
// stream positions a probe or sketch carries, each capped at
// kMaxSymbols; the count-bomb regressions live under
// tests/corpus/setdiff_messages/.
// Canonicality gives the usual strong oracle: any accepted input must
// re-encode byte-identically.
#include <cstddef>
#include <cstdint>

#include "fuzz_util.h"
#include "recon/messages.h"

namespace {

template <typename M>
void DecodeAndRoundTrip(vegvisir::ByteSpan input) {
  using namespace vegvisir;
  M m;
  if (!recon::DecodeMessage(input, &m).ok()) return;
  fuzz::CheckRoundTrip("fuzz_setdiff_messages", input,
                       recon::EncodeMessage(m));
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  using namespace vegvisir;
  const ByteSpan input(data, size);
  StatusOr<recon::MessageType> type = recon::PeekType(input);
  if (!type.ok()) return 0;
  switch (*type) {
    case recon::MessageType::kDiffProbe:
      DecodeAndRoundTrip<recon::DiffProbe>(input);
      break;
    case recon::MessageType::kDiffSketch:
      DecodeAndRoundTrip<recon::DiffSketch>(input);
      break;
    case recon::MessageType::kDiffResult:
      DecodeAndRoundTrip<recon::DiffResult>(input);
      break;
    default:
      // Tags 1-5 belong to fuzz_recon_messages.
      break;
  }
  return 0;
}
