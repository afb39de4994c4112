#ifndef ECGRAPH_TESTS_RECV_FROM_H_
#define ECGRAPH_TESTS_RECV_FROM_H_

// Receives one (from, tag) message through the transport's one receive,
// TryRecvAny, with `from` as its only candidate.

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "dist/cluster.h"
#include "dist/comm.h"

namespace ecg::test {

inline Status RecvFrom(dist::MessageHub& hub, uint32_t to, uint32_t from,
                       uint64_t tag, std::vector<uint8_t>* out,
                       dist::RecvOutcome* outcome = nullptr) {
  uint32_t resolved = 0;
  return hub.TryRecvAny(to, {from}, tag, &resolved, out, outcome);
}

/// As above for a worker; the fault penalty goes to its comm phase.
inline Status RecvFrom(dist::WorkerContext* ctx, uint32_t from, uint64_t tag,
                       std::vector<uint8_t>* out) {
  uint32_t resolved = 0;
  double penalty = 0.0;
  const Status status = ctx->TryRecvAny({from}, tag, &resolved, out, &penalty);
  ctx->ChargePhasePenalty(penalty);
  return status;
}

/// The payload of a message that must arrive; fails the run otherwise.
inline std::vector<uint8_t> MustRecv(dist::MessageHub& hub, uint32_t to,
                                     uint32_t from, uint64_t tag) {
  std::vector<uint8_t> out;
  RecvFrom(hub, to, from, tag, &out).CheckOk();
  return out;
}

}  // namespace ecg::test

#endif  // ECGRAPH_TESTS_RECV_FROM_H_
