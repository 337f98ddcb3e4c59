// iSCSI session parameters and state.
//
// Parameters are negotiated at login (RFC 3720 §12); the defaults below
// follow what the SourceForge Linux initiator and a 2003-era commercial
// target would settle on for a normal session over Gigabit Ethernet.
#pragma once

#include <cstdint>

namespace netstore::iscsi {

enum class SessionState {
  kFree,
  kLoggedIn,
  kLoggedOut,
};

struct SessionParams {
  // Logical unit this session binds to at login.  iSCSI exports raw block
  // devices: a LUN has exactly one owner at a time (no cluster file
  // system in the paper's testbed, §6), which is why block-access storage
  // generates zero cache-coherence traffic under multi-client sharing.
  std::uint32_t lun = 0;
  // Largest data segment in a single Data-In/Data-Out PDU.
  std::uint32_t max_recv_data_segment_length = 64 * 1024;
  // Largest total data transfer of one SCSI command sequence.
  std::uint32_t max_burst_length = 256 * 1024;
  // Unsolicited data allowed with the command PDU (skips the first R2T).
  bool immediate_data = true;
  // Tagged command queue depth at the initiator.
  std::uint32_t queue_depth = 32;
  // Text bytes exchanged during login negotiation (key=value pairs).
  std::uint32_t login_negotiation_bytes = 512;
};

}  // namespace netstore::iscsi
