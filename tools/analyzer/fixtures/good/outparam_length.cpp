// taint-expect: clean
// The out-param twin of bad/outparam_length.cpp with the bound kept:
// ParseRecordHeader() checks the length it writes against
// limits::kMax* before returning, so the caller may resize by it.
#include <cstdint>
#include <vector>

namespace fixture {

namespace serial {
namespace limits {
inline constexpr std::uint32_t kMaxFixtureRecordBytes = 1u << 20;
}
}  // namespace serial

struct Reader {
  bool ReadU32(std::uint32_t* out);
};

bool ParseRecordHeader(Reader* r, std::uint32_t* length,
                       std::uint32_t* crc) {
  if (!r->ReadU32(length)) return false;
  if (!r->ReadU32(crc)) return false;
  if (*length == 0) return false;
  if (*length > serial::limits::kMaxFixtureRecordBytes) return false;
  return true;
}

bool ReadRecord(Reader* r, std::vector<std::uint8_t>* payload) {
  std::uint32_t length = 0;
  std::uint32_t crc = 0;
  if (!ParseRecordHeader(r, &length, &crc)) return false;
  payload->resize(length);
  return true;
}

}  // namespace fixture
