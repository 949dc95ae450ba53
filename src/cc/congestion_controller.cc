#include "cc/congestion_controller.h"

namespace qa::cc {

const char* to_string(Backend b) {
  switch (b) {
    case Backend::kRap:
      return "rap";
    case Backend::kTfrc:
      return "tfrc";
    case Backend::kNada:
      return "nada";
  }
  return "unknown";
}

const std::vector<Backend>& all_backends() {
  static const std::vector<Backend> kAll = {Backend::kRap, Backend::kTfrc,
                                            Backend::kNada};
  return kAll;
}

}  // namespace qa::cc
