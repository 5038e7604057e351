// Shared memory-controller model.
//
// Each consolidated application presents a bandwidth *demand* (the traffic it
// would generate if memory were infinitely fast, derived from its LLC miss
// rate) and a *cap* (the MBA throttle limit, computed by MbaThrottleModel).
// The controller grants bandwidth max-min fairly: demands below the fair
// share are fully satisfied, the remainder is split evenly — reflecting the
// per-requester fairness of commodity memory controllers under saturation.
//
// The grants feed the epoch performance model: an app granted less than its
// demand becomes bandwidth-bound at grant/(misses_per_instr * line_bytes)
// instructions per second (roofline).
#ifndef COPART_MEMBW_BANDWIDTH_ARBITER_H_
#define COPART_MEMBW_BANDWIDTH_ARBITER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace copart {

struct BandwidthRequest {
  double demand_bytes_per_sec = 0.0;
  // Injection cap from the MBA throttle; use total bandwidth for "no cap".
  double cap_bytes_per_sec = 0.0;
};

class BandwidthArbiter {
 public:
  explicit BandwidthArbiter(double total_bytes_per_sec);

  // Grants bandwidth to each request. Output has the same size/order as
  // `requests`. Guarantees:
  //   - grant_i <= min(demand_i, cap_i)
  //   - sum(grant) <= total (+ epsilon)
  //   - max-min fair among the capped demands.
  std::vector<double> Arbitrate(
      const std::vector<BandwidthRequest>& requests) const;

  // Flat-array entry point for the epoch kernel: `capped` must already
  // hold min(demand, cap) per app, each >= 0 (not re-validated here).
  // Writes into `*grants` and reuses member scratch, so repeated calls at a
  // stable request count never touch the heap.
  void ArbitrateCappedInto(const std::vector<double>& capped,
                           std::vector<double>* grants);

  // Sizes the scratch for up to `num_requests` requests.
  void Reserve(size_t num_requests) {
    scratch_satisfied_.reserve(num_requests);
  }

  double total_bytes_per_sec() const { return total_bytes_per_sec_; }

 private:
  // Water-filling over pre-capped demands in `capped`; `satisfied` is
  // caller-provided scratch of the same size.
  void ArbitrateImpl(const std::vector<double>& capped,
                     std::vector<uint8_t>& satisfied,
                     std::vector<double>& grants) const;

  double total_bytes_per_sec_;
  std::vector<uint8_t> scratch_satisfied_;
};

}  // namespace copart

#endif  // COPART_MEMBW_BANDWIDTH_ARBITER_H_
