// Closed-form zero-load latency model.
//
// On an idle network the engine's behaviour is exactly derivable: each
// channel crossing costs one flit time (the header flit) plus the wire's
// propagation delay, each switch adds its routing delay, the tail follows
// the header by (payload + type - 1) flit times on the final hop, and
// each in-transit host adds its detection + DMA-programming delay (the
// re-injected stream never starves because reception leads it by that
// same delay).  The unit tests pin the simulator to this model flit for
// flit (chunk = 1); the bench uses it to sanity-check every route set.
#pragma once

#include "core/route.hpp"
#include "core/route_store.hpp"
#include "net/params.hpp"
#include "sim/time.hpp"
#include "topo/topology.hpp"

namespace itb {

/// Predicted injection-to-delivery latency for one packet following
/// `route` with `payload_bytes` of payload, on an otherwise idle network.
/// Exact for chunk_flits == 1 and itb_detect+dma >= one flit time.
[[nodiscard]] TimePs zero_load_latency(const Topology& topo,
                                       const RouteView& route,
                                       int payload_bytes,
                                       const MyrinetParams& params);

/// Average zero-load latency over all ordered host pairs, using
/// alternative 0 of each pair (what ITB-SP and UP/DOWN use).  Host pairs
/// sharing a switch use the same-switch route.
[[nodiscard]] double average_zero_load_latency_ns(const Topology& topo,
                                                  const RouteSet& routes,
                                                  int payload_bytes,
                                                  const MyrinetParams& params);

}  // namespace itb
