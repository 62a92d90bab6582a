#include "baseline/full_exchange.h"

namespace vegvisir::baseline {

recon::SessionStats RunFullDagExchange(recon::ReconHost* initiator,
                                       const recon::ReconHost* responder) {
  recon::SessionStats stats;
  stats.rounds = 1;

  // A minimal "send everything" request...
  stats.bytes_sent = 16;

  // ...answered with every stored block, in slot order (parents
  // first) so the receiver can insert as it reads.
  const chain::Dag& remote = responder->dag();
  for (const chain::BlockHash& h : remote.Hashes()) {
    if (h == remote.genesis_hash()) continue;
    const chain::Block* block = remote.Find(h);
    if (block == nullptr) continue;  // evicted on the responder
    const Bytes raw = block->Serialize();
    stats.bytes_received += raw.size();
    stats.blocks_received += 1;
    if (initiator->dag().Contains(h)) continue;
    if (initiator->OfferBlock(*block) == chain::BlockVerdict::kValid) {
      stats.blocks_inserted += 1;
    }
  }

  // Mirror the totals into the initiator's registry so baseline runs
  // show up next to recon.* in exported snapshots. A one-shot
  // exchange, so resolving here (not hot-path) is fine.
  if (telemetry::Telemetry* t = initiator->telemetry(); t != nullptr) {
    t->metrics.GetCounter("baseline.full_exchange.runs").Inc();
    t->metrics.GetCounter("baseline.full_exchange.bytes_sent")
        .Inc(stats.bytes_sent);
    t->metrics.GetCounter("baseline.full_exchange.bytes_received")
        .Inc(stats.bytes_received);
    t->metrics.GetCounter("baseline.full_exchange.blocks_received")
        .Inc(stats.blocks_received);
    t->metrics.GetCounter("baseline.full_exchange.blocks_inserted")
        .Inc(stats.blocks_inserted);
  }
  return stats;
}

}  // namespace vegvisir::baseline
