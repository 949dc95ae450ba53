#include "core/baseline_policies.h"

namespace qa::core {

const char* policy_name(AllocationPolicy policy) {
  switch (policy) {
    case AllocationPolicy::kOptimal: return "optimal";
    case AllocationPolicy::kEqualShare: return "equal-share";
    case AllocationPolicy::kBaseOnly: return "base-only";
  }
  return "?";
}

}  // namespace qa::core
