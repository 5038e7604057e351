#include "core/partition_policy.h"

#include "common/logging.h"
#include "core/cbp_policy.h"
#include "core/copart_partition_policy.h"
#include "core/dcat_policy.h"
#include "core/lfoc_policy.h"
#include "core/static_policy.h"

namespace copart {

std::unique_ptr<PartitionPolicy> MakePartitionPolicy(
    const std::string& name, const ResourceManagerParams& params) {
  if (name.empty() || name == "copart") {
    return std::make_unique<CoPartPartitionPolicy>(params);
  }
  if (name == "lfoc") {
    return std::make_unique<LfocPolicy>(params, /*plus=*/false);
  }
  if (name == "lfoc+") {
    return std::make_unique<LfocPolicy>(params, /*plus=*/true);
  }
  if (name == "cbp") {
    return std::make_unique<CbpPolicy>(params);
  }
  if (name == "cat-only") {
    return std::make_unique<CoPartPartitionPolicy>(
        params, CoPartPartitionPolicy::Mode::kCatOnly);
  }
  if (name == "mba-only") {
    return std::make_unique<CoPartPartitionPolicy>(
        params, CoPartPartitionPolicy::Mode::kMbaOnly);
  }
  if (name == "eq") {
    return std::make_unique<StaticPartitionPolicy>(name, /*shared=*/false);
  }
  if (name == "nopart") {
    return std::make_unique<StaticPartitionPolicy>(name, /*shared=*/true);
  }
  if (name == "dcat") {
    return std::make_unique<DcatPolicy>();
  }
  LOG_FATAL << "unknown partition policy: " << name;
  __builtin_unreachable();
}

const std::vector<std::string>& RegisteredPartitionPolicyNames() {
  static const std::vector<std::string> names = {
      "copart", "lfoc", "lfoc+", "cbp", "eq",
      "nopart", "dcat", "cat-only", "mba-only"};
  return names;
}

}  // namespace copart
