#include "net/network_model.hpp"

#include <stdexcept>

namespace dpjit::net {

std::string_view network_mode_name(NetworkMode mode) {
  switch (mode) {
    case NetworkMode::kBottleneck: return "bottleneck";
    case NetworkMode::kFluidFair: return "fluid-fair";
    case NetworkMode::kQuantisedFair: return "quantised-fair";
  }
  throw std::invalid_argument("network_mode_name: unknown NetworkMode");
}

}  // namespace dpjit::net
