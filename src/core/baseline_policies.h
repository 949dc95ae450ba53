// Helpers around the §2.3 baseline (strawman) allocation policies.
//
// The strawmen themselves are implemented inside filling_policy /
// draining_policy behind the AllocationPolicy enum; this header provides
// naming for benches, examples and reports.
#pragma once

#include "core/filling_policy.h"

namespace qa::core {

// "optimal", "equal-share", "base-only".
const char* policy_name(AllocationPolicy policy);

// All policies, for sweep-style benches.
inline constexpr AllocationPolicy kAllPolicies[] = {
    AllocationPolicy::kOptimal,
    AllocationPolicy::kEqualShare,
    AllocationPolicy::kBaseOnly,
};

}  // namespace qa::core
