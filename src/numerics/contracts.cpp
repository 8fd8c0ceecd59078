#include "numerics/contracts.h"

#include <stdexcept>
#include <string>

namespace brightsi::detail {

void throw_invalid_argument(std::string_view message) {
  throw std::invalid_argument(std::string(message));
}

void throw_invalid_value(std::string_view name, std::string_view requirement, double value) {
  std::string message(name);
  message += requirement;
  message += std::to_string(value);
  throw std::invalid_argument(message);
}

}  // namespace brightsi::detail
