// taint-expect: source=ParseRecordHeader sink=resize
// The wire read hides one call deep, in an out param:
// ParseRecordHeader() writes the record length it read through a
// pointer and never bounds it, so the caller's resize trusts a raw
// wire length (out-param summary propagation).
#include <cstdint>
#include <vector>

namespace fixture {

struct Reader {
  bool ReadU32(std::uint32_t* out);
};

bool ParseRecordHeader(Reader* r, std::uint32_t* length,
                       std::uint32_t* crc) {
  if (!r->ReadU32(length)) return false;
  if (!r->ReadU32(crc)) return false;
  if (*length == 0) return false;
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
