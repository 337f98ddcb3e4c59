#include "scsi/scsi.h"

namespace netstore::scsi {

std::string to_string(OpCode op) {
  switch (op) {
    case OpCode::kRead10:
      return "READ(10)";
    case OpCode::kWrite10:
      return "WRITE(10)";
  }
  return "UNKNOWN";
}

}  // namespace netstore::scsi
