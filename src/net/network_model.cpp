#include "net/network_model.hpp"

#include <stdexcept>
#include <string>

namespace dpjit::net {
namespace {

constexpr NetworkModeInfo kBottleneckInfo{
    "bottleneck",
    /*contended=*/false,
    /*zero_lookahead=*/false,
    "static routed-path bandwidth (no contention state)",
};

constexpr NetworkModeInfo kFluidFairInfo{
    "fluid-fair",
    /*contended=*/true,
    /*zero_lookahead=*/true,
    "live what-if solver probe, cache keyed on the solver mutation stamp",
};

constexpr NetworkModeInfo kQuantisedFairInfo{
    "quantised-fair",
    /*contended=*/true,
    /*zero_lookahead=*/false,
    "live what-if solver probe, cache keyed on the solver mutation stamp AND "
    "the epoch barrier stamp",
};

}  // namespace

const NetworkModeInfo& network_mode_info(NetworkMode mode) {
  switch (mode) {
    case NetworkMode::kBottleneck: return kBottleneckInfo;
    case NetworkMode::kFluidFair: return kFluidFairInfo;
    case NetworkMode::kQuantisedFair: return kQuantisedFairInfo;
  }
  throw std::invalid_argument("network_mode_info: unknown NetworkMode");
}

std::string_view to_string(NetworkMode mode) { return network_mode_info(mode).name; }

NetworkMode parse_network_mode(std::string_view name) {
  if (name == "bottleneck") return NetworkMode::kBottleneck;
  if (name == "fluid-fair" || name == "fair-sharing") return NetworkMode::kFluidFair;
  if (name == "quantised-fair") return NetworkMode::kQuantisedFair;
  throw std::invalid_argument("parse_network_mode: unknown mode '" + std::string(name) +
                              "' (expected bottleneck | fluid-fair | quantised-fair)");
}

}  // namespace dpjit::net
